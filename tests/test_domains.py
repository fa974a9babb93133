import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chronoscope.domains import (
    OTHER_SLD,
    authority_host,
    authority_spans,
    default_policy,
    load_policy,
    parse_host_key,
    sld_label,
    SuffixPolicy,
)
from chronoscope.errors import (
    ChronoscopeError,
    MalformedUrl,
    OutOfScopeTld,
    PolicyFileError,
    UnknownSld,
)
from oracles import partition_authority, urlsplit_hostname

POLICY = default_policy()


def authority(url):
    """The authority of one URL, as ingest cuts it out of a field."""
    raw = url.encode()
    (lo,), (hi,) = authority_spans(
        np.frombuffer(raw, np.uint8), np.zeros(1, np.int64), np.full(1, len(raw))
    )
    return raw[lo:hi].decode()


def url_domain(url, policy):
    """The third-level domain of one URL, by the three steps ingest runs."""
    return parse_host_key(authority_host(authority(url)), policy)


def test_parse_university_url():
    assert url_domain("http://www.ox.ac.uk/about", POLICY) == "ox.ac.uk"


def test_parse_government_url_ignores_query():
    assert url_domain("http://fco.gov.uk/x?y=1", POLICY) == "fco.gov.uk"


def test_non_uk_host_rejected():
    # brackets stay part of the host, so "uk]" is not the ccTLD
    for url in ("http://example.com/", "http://[ox.ac.uk]/"):
        with pytest.raises(OutOfScopeTld):
            url_domain(url, POLICY)


def test_classify_sld():
    for url, sld in [
        ("http://ox.ac.uk/", "ac.uk"),
        ("http://nominet.org.uk/", "org.uk"),
        ("http://a.co.uk/", "co.uk"),
    ]:
        assert sld_label(url_domain(url, POLICY), POLICY) == sld


def test_deep_hosts_aggregate_to_third_level():
    assert url_domain("http://mail.stats.ox.ac.uk/x", POLICY) == "ox.ac.uk"


def test_port_and_fragment_ignored():
    assert url_domain("https://ox.ac.uk:8080/p#frag", POLICY) == "ox.ac.uk"


def test_www_stripped_once():
    assert url_domain("http://www.ox.ac.uk/", POLICY) == "ox.ac.uk"
    # only the first www. label is dropped
    assert url_domain("http://www.www.ac.uk/", POLICY) == "www.ac.uk"


def test_missing_hostname():
    for url in ("not a url", "http://", "mailto:x@ox.ac.uk", "ox.ac.uk/relative"):
        with pytest.raises(MalformedUrl):
            url_domain(url, POLICY)


def test_scheme_is_not_checked():
    # the authority is whatever follows "://", whatever precedes it
    for url in ("ht tp://ox.ac.uk/", "://ox.ac.uk/", "1http://ox.ac.uk/"):
        assert url_domain(url, POLICY) == "ox.ac.uk"


def test_no_third_level_label():
    with pytest.raises(MalformedUrl):
        url_domain("http://ac.uk/", POLICY)


def test_non_ascii_hostname_rejected():
    with pytest.raises(MalformedUrl):
        url_domain("http://oxé.ac.uk/", POLICY)


def test_unknown_sld_rejected_by_default():
    with pytest.raises(UnknownSld):
        url_domain("http://parliament.uk/", POLICY)


def test_sld_label_buckets():
    assert sld_label("ox.ac.uk", POLICY) == "ac.uk"
    assert sld_label("parliament.uk", POLICY) == OTHER_SLD
    assert sld_label("example.com", POLICY) == OTHER_SLD


label = st.from_regex(r"[a-z](?:[a-z0-9-]{0,8}[a-z0-9])?", fullmatch=True)
# a leading "www" label is folded away by normalization, so keep it out of
# the positions where the generated host would collapse below three labels
third_label = label.filter(lambda s: s != "www")


@given(third=third_label, sld=st.sampled_from(sorted(POLICY.registered_slds)))
def test_parse_is_idempotent_on_canonical_form(third, sld):
    name = url_domain(f"http://{third}.{sld}/", POLICY)
    assert name == f"{third}.{sld}"
    assert url_domain(f"http://{name}/page", POLICY) == name


@given(
    host=st.builds(
        lambda a, b, s: f"{a}.{b}.{s}" if b else f"{a}.{s}",
        third_label,
        st.one_of(st.none(), label),
        st.sampled_from(sorted(POLICY.registered_slds)),
    )
)
def test_case_invariance(host):
    name = url_domain(f"http://{host}/", POLICY)
    assert url_domain(f"http://{host.upper()}/", POLICY) == name
    assert name == ".".join(host.split(".")[-3:])


@given(third=third_label, sld=st.sampled_from(sorted(POLICY.registered_slds)))
def test_url_and_host_parsers_agree(third, sld):
    host = f"{third}.{sld}"
    assert parse_host_key(host, POLICY) == url_domain(f"http://{host}/x", POLICY) == host


def outcome(parse):
    try:
        return parse()
    except ChronoscopeError as exc:
        return type(exc)


noise = st.from_regex(r"[a-z0-9=&/@:?#.]{0,8}", fullmatch=True)


def optional(prefix):
    return st.one_of(st.just(""), noise.map(lambda text: prefix + text))


# well-formed scheme; user info, www, host, port, path, query and fragment
urls = st.builds(
    "{}://{}{}{}{}{}{}{}".format,
    st.from_regex(r"[a-zA-Z][a-zA-Z0-9+.-]{0,5}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"[a-z0-9]{1,4}(:[a-z0-9]{0,4})?@", fullmatch=True)),
    st.sampled_from(["", "www.", "WWW."]),
    st.one_of(
        st.builds(
            lambda labels, tail: ".".join(labels + [tail]),
            st.lists(label, max_size=3),
            st.sampled_from([*sorted(POLICY.registered_slds), "uk", "parliament.uk", "com"]),
        ),
        st.from_regex(r"[a-zA-Z0-9.-]{0,12}", fullmatch=True),
    ),
    st.one_of(st.just(""), st.from_regex(r":[0-9]{0,5}", fullmatch=True)),
    optional("/"),
    optional("?"),
    optional("#"),
)


@given(url=urls)
def test_matches_urlsplit_reference(url):
    expected = outcome(lambda: parse_host_key(urlsplit_hostname(url), POLICY))
    assert outcome(lambda: url_domain(url, POLICY)) == expected


URL_TEXT = st.text(alphabet=":/?@#a\u00fc", max_size=24)


@given(url=URL_TEXT)
def test_url_authority_is_the_partition_rule(url):
    assert authority(url) == partition_authority(url)


@given(urls=st.lists(URL_TEXT, min_size=1, max_size=6), separator=st.sampled_from(["", "\t"]))
def test_authority_spans_cut_each_field_by_the_partition_rule(urls, separator):
    # several fields in one buffer, back to back or tab-separated, so that a
    # marker may start in one field and end in the next
    raw = [url.encode() for url in urls]
    data = separator.encode().join(raw)
    starts, at = [], 0
    for field in raw:
        starts.append(at)
        at += len(field) + len(separator)
    starts = np.array(starts, np.int64)
    stops = starts + np.array([len(field) for field in raw], np.int64)
    lo, hi = authority_spans(np.frombuffer(data, np.uint8), starts, stops)
    assert ((starts <= lo) & (lo <= hi) & (hi <= stops)).all()
    assert [data[a:b].decode() for a, b in zip(lo.tolist(), hi.tolist())] == [
        partition_authority(url) for url in urls
    ]


def test_policy_invariants():
    with pytest.raises(PolicyFileError):
        SuffixPolicy("uk", frozenset())
    for sld in ("ac.fr", "nhs.x.uk", ".uk", "a..uk", "uk"):
        with pytest.raises(PolicyFileError, match=re.escape(f"SLD {sld!r} is not one label under .uk")):
            SuffixPolicy("uk", frozenset({"ac.uk", sld}))


def test_load_policy(tmp_path):
    path = tmp_path / "uk.policy"
    path.write_text("# comment\nUK\nac.uk\nCO.UK # inline comment\n\n", encoding="utf-8")
    policy = load_policy(path)
    assert policy.cctld == "uk"
    assert policy.registered_slds == frozenset({"ac.uk", "co.uk"})


@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_policy_lines_end_only_at_line_breaks(tmp_path, brk):
    # \n, \r\n and a lone \r end a policy line, as in every other input;
    # other characters that str.splitlines breaks at stay inside the line
    path = tmp_path / "uk.policy"
    path.write_bytes(f"uk\r\nac{brk}co.uk\rgov.uk\n".encode())
    assert load_policy(path).registered_slds == frozenset({f"ac{brk}co.uk", "gov.uk"})
    path.write_bytes(f"uk{brk}\nac.uk\n".encode() + b"\xff\n")
    with pytest.raises(PolicyFileError, match=re.escape(f"{path}:3: invalid UTF-8")):
        load_policy(path)


def test_load_policy_rejects_slds_that_cannot_match(tmp_path):
    # parse_host_key matches a host's last two labels, so an SLD of more
    # labels, or with an empty label, could never match a host
    path = tmp_path / "bad.policy"
    path.write_text("uk\nnhs.x.uk\n.uk\nac.uk\n", encoding="utf-8")
    with pytest.raises(PolicyFileError, match=r"is not one label under \.uk"):
        load_policy(path)


def test_load_policy_requires_slds(tmp_path):
    path = tmp_path / "bad.policy"
    path.write_text("uk\n", encoding="utf-8")
    with pytest.raises(PolicyFileError):
        load_policy(path)


def test_default_policy_is_the_shipped_uk_policy():
    # the one built-in policy: ccTLD uk and its four large registered SLDs
    slds = frozenset({"ac.uk", "co.uk", "gov.uk", "org.uk"})
    assert default_policy() == SuffixPolicy("uk", slds)
