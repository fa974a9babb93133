"""Hostname parsing under a national suffix policy.

URLs are reduced to third-level domains such as ``ox.ac.uk``: the unit every
graph in this package aggregates to.  A :class:`SuffixPolicy` says which
country-code TLD is in scope and which second-level domains (``ac.uk``,
``co.uk``, ...) are registration suffixes beneath it.  The built-in policy
is the shipped ``data/uk.policy``.  A URL is reduced in three steps, as
ingest runs them: :func:`authority_spans` cuts the authorities out of a
block of URL fields, :func:`authority_host` takes an authority's hostname,
and :func:`parse_host_key`, the one reducer from a hostname to its
third-level name, runs once per distinct authority.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bytefields import text_lines
from .errors import MalformedUrl, OutOfScopeTld, PolicyFileError, UnknownSld

# Synthetic bucket used by the statistics paths for nodes whose suffix is not
# in the registered set.
OTHER_SLD = "other"

_DEFAULT_POLICY = os.path.join(os.path.dirname(__file__), "data", "uk.policy")


@dataclass(frozen=True)
class SuffixPolicy:
    """Scope of the domain hierarchy: one ccTLD plus its registered SLDs.

    A host under the ccTLD whose second-level domain is not registered
    (``parliament.uk``, ``x.nhs.uk``) names no node; a wider scope comes from
    registering more SLDs.  Each SLD is one non-empty label under the ccTLD
    (``nhs.uk``, not ``nhs.x.uk`` or ``.uk``): any other could never match.
    """

    cctld: str
    registered_slds: frozenset[str]

    def __post_init__(self):
        cctld = self.cctld.lower()
        object.__setattr__(self, "cctld", cctld)
        slds = frozenset(s.lower() for s in self.registered_slds)
        object.__setattr__(self, "registered_slds", slds)
        if not cctld or "." in cctld:
            raise PolicyFileError(f"ccTLD must be a single label, got {cctld!r}")
        if not slds:
            raise PolicyFileError("policy needs at least one registered SLD")
        for sld in slds:
            # parse_host_key matches a host's last two labels only
            label, _, tld = sld.partition(".")
            if not label or tld != cctld:
                raise PolicyFileError(f"SLD {sld!r} is not one label under .{cctld}")


def default_policy() -> SuffixPolicy:
    """The shipped .uk policy, ``data/uk.policy`` next to this module."""
    return load_policy(_DEFAULT_POLICY)


def load_policy(path) -> SuffixPolicy:
    """Read a suffix policy file.

    Format: UTF-8 text, ``#`` starts a comment, blank lines ignored; the
    first non-comment line is the ccTLD and every following line one SLD.
    ``\\n``, ``\\r\\n`` and a lone ``\\r`` end a line, as in every other input.
    """
    entries = []
    for _, line in text_lines(path, PolicyFileError):
        if entry := line.split("#", 1)[0].strip().lower():
            entries.append(entry)
    if len(entries) < 2:
        raise PolicyFileError(f"{path}: need a ccTLD line and at least one SLD")
    return SuffixPolicy(entries[0], frozenset(entries[1:]))


def parse_host_key(host: str, policy: SuffixPolicy) -> str:
    """The third-level domain a bare hostname names.

    >>> parse_host_key("www.ox.ac.uk", default_policy())
    'ox.ac.uk'

    The hostname is lowercased, a trailing dot and exactly one leading
    ``www.`` label are stripped, and the third-level domain is taken from the
    tail of the label sequence, so deeper hosts (``mail.ox.ac.uk``) aggregate
    with their institution.  Only ASCII hostnames are accepted.  Raises
    MalformedUrl for an empty or malformed hostname, OutOfScopeTld outside
    the policy's ccTLD and UnknownSld under an unregistered SLD.
    """
    host = host.lower().rstrip(".")
    if not host:
        raise MalformedUrl("empty hostname")
    if not host.isascii():
        raise MalformedUrl(f"non-ASCII hostname {host!r}")
    if host.startswith("www."):
        host = host[4:]
    labels = host.split(".")
    if any(not label for label in labels):
        raise MalformedUrl(f"empty label in hostname {host!r}")
    if labels[-1] != policy.cctld:
        raise OutOfScopeTld(f"{host!r} is not under .{policy.cctld}")
    if len(labels) < 2:
        raise MalformedUrl(f"{host!r} is the bare ccTLD")
    sld = labels[-2] + "." + labels[-1]
    if sld not in policy.registered_slds:
        raise UnknownSld(f"{sld!r} is not a registered SLD")
    if len(labels) < 3:
        raise MalformedUrl(f"{host!r} has no label under {sld!r}")
    return labels[-3] + "." + sld


def authority_spans(
    data: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Byte spans ``[lo, hi)`` of the URL authorities of the fields
    ``data[starts[i]:stops[i]]``, where ``data`` holds UTF-8 bytes as uint8.

    A field's authority starts after its first ``://``, else after a leading
    ``//``, and runs up to the next ``/`` or the field's end; a field with
    neither marker has an empty authority (``lo == hi``).  The scheme is not
    checked, so ``ht tp://``, ``://`` and ``1http://`` all introduce an
    authority.  The markers are ASCII, so the spans cut the fields at
    character boundaries.
    """
    n = len(data)
    if not n:
        return starts, starts
    colons = np.flatnonzero(data[:-2] == 58)  # ':'
    marks = colons[(data[colons + 1] == 47) & (data[colons + 2] == 47)]  # '/'
    first = np.append(marks, n)[np.searchsorted(marks, starts)]
    after_mark = first + 3 <= stops
    leading = (
        (starts + 2 <= stops)
        & (data[np.minimum(starts, n - 1)] == 47)
        & (data[np.minimum(starts + 1, n - 1)] == 47)
    )
    lo = np.where(after_mark, first + 3, np.where(leading, starts + 2, starts))
    slashes = np.flatnonzero(data == 47)
    hi = np.minimum(np.append(slashes, n)[np.searchsorted(slashes, lo)], stops)
    return lo, np.where(after_mark | leading, hi, lo)


def authority_host(authority: str) -> str:
    """Hostname of an authority: drops a ``?``/``#`` tail, user info and
    port.  Brackets are kept, so an IPv6 literal never matches a ccTLD."""
    host = authority.partition("?")[0].partition("#")[0]
    return host.rpartition("@")[2].partition(":")[0]


def sld_label(third_level: str, policy: SuffixPolicy) -> str:
    """SLD bucket for a third-level domain string in statistics paths.

    The bucket is the name's two-label tail, as :func:`parse_host_key` read
    it.  This never fails: a name whose tail is not a registered SLD (one
    from another policy, or ``example.com``) lands in the synthetic
    ``other`` bucket.
    """
    parts = third_level.rsplit(".", 2)
    if len(parts) >= 2:
        sld = parts[-2] + "." + parts[-1]
        if sld in policy.registered_slds:
            return sld
    return OTHER_SLD
