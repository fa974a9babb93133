"""Byte-level fields of UTF-8 text: the package's one text layer.

Every input the package reads is UTF-8 text whose lines end at ``\\n``,
``\\r\\n`` or a lone ``\\r`` and whose fields are separated by tabs.  The
link-log parse and the snapshot reader scan a block of such bytes with numpy
instead of making a Python object per line or field:

- :func:`universal_newlines` turns every line break into ``\\n``;
- :func:`lines` gives each line's span and its tabs;
- :func:`utf8_lines` tells which lines are valid UTF-8, with one decode for
  a valid block and a line-by-line decode only in a block that fails;
- :func:`integers` reads integer fields exactly as ``int()`` reads their
  text: runs of 1 to ``_DIGITS`` ASCII digits with numpy digit arithmetic,
  any other text through ``int()``, one field at a time;
- an :class:`Interner` gives each distinct byte string a dense code, and
  decodes the distinct strings with one decode, so that a reader decodes
  each string once, not once per occurrence.

Interning.  A string becomes a key of little-endian words, loaded from any
byte offset with the bytes past its end masked off, plus its byte length
(NUL is valid UTF-8, so the length stays part of the key).  The word count
is rounded up to a power of two, so a key takes at most about twice its own
bytes however long other strings are, and equal strings share a width.  A
batch of keys of one width is grouped by one sort of their 64-bit hashes,
each with the key's index in its low bits, so that a group's first member is
its first occurrence.  Every group is verified word by word: when two
different keys share a group, the batch is grouped exactly instead.  Each
group is then looked up in the width's table of known keys, sorted by hash,
walking the entries of its hash until one matches, so a collision costs time
but never a wrong code.

Small files are read a line at a time through :func:`text_lines`.  Side
inputs are read through :class:`Rows` and written by :func:`write_rows`,
and every CSV artifact is written by :func:`write_csv`.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import MalformedLine

TAB, NEWLINE = 9, 10
# the longest field read with numpy digit arithmetic: 10**18 < 2**63
_DIGITS = 18
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# _KEY_BYTES[r] is the room of 2**r words; a key takes the least r that holds it
_KEY_BYTES = 8 << np.arange(60, dtype=np.int64)
# _BYTE_MASKS[k] keeps the low k bytes of a little-endian word
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def universal_newlines(block: bytes) -> bytes:
    """``block`` with each ``\\r\\n`` and each lone ``\\r`` turned into ``\\n``."""
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return block


class Lines(NamedTuple):
    """The lines of a block and their tabs.

    Line ``i`` is ``block[begins[i]:ends[i]]`` without its ``\\n``; the last
    line need not end with one, and an empty block has no lines.  ``data``
    is the block as uint8, ``tabs`` the offsets of all its tabs, and line
    ``i`` has ``tab_counts[i]`` tabs from ``tabs[first_tab[i]]`` on.
    """

    data: np.ndarray
    begins: np.ndarray
    ends: np.ndarray
    tabs: np.ndarray
    first_tab: np.ndarray
    tab_counts: np.ndarray

    def tab(self, line: np.ndarray, k: int) -> np.ndarray:
        """The offsets of the ``k``-th tab (from 0) of the lines ``line``."""
        return self.tabs[self.first_tab[line] + k]


def lines(block: bytes) -> Lines:
    """The line and tab structure of a block whose lines end at ``\\n``."""
    data = np.frombuffer(block, np.uint8)
    # one scan finds the tabs and line breaks, and any bytes below a tab
    marks = np.flatnonzero(data <= NEWLINE)
    kinds = data[marks]
    if kinds.min(initial=TAB) < TAB:
        marks, kinds = marks[kinds >= TAB], kinds[kinds >= TAB]
    newline = kinds == NEWLINE
    breaks = np.flatnonzero(newline)
    tabs, ends = marks[~newline], marks[breaks]
    tabs_before = breaks - np.arange(len(breaks))  # the tabs before each line break
    if block and block[-1] != NEWLINE:
        ends = np.append(ends, len(block))
        tabs_before = np.append(tabs_before, len(tabs))
    begins = np.append(0, ends[:-1] + 1)[: len(ends)]
    first_tab = np.append(0, tabs_before[:-1])[: len(ends)]
    return Lines(data, begins, ends, tabs, first_tab, tabs_before - first_tab)


def utf8_lines(block: bytes, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether each line ``block[begins[i]:ends[i]]`` is valid UTF-8."""
    valid = np.ones(len(begins), bool)
    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        for i, (begin, end) in enumerate(zip(begins.tolist(), ends.tolist())):
            try:
                block[begin:end].decode("utf-8")
            except UnicodeDecodeError:
                valid[i] = False
    return valid


def integers(block: bytes, data: np.ndarray, begins: np.ndarray, stops: np.ndarray):
    """``int()`` of the fields ``block[begins[i]:stops[i]]`` as int64, and
    whether ``int()`` accepts each field and its value fits int64 (else the
    value is 0).

    Fields of 1 to ``_DIGITS`` ASCII digits are read with numpy; any other
    text (a sign, spaces, ``_``, other digits, longer runs) goes through
    ``int()`` one field at a time.
    """
    size = stops - begins
    value = np.zeros(len(size), np.int64)
    fits = np.zeros(len(size), bool)
    fast = np.flatnonzero((size >= 1) & (size <= _DIGITS))
    if len(fast):
        # right-aligned digit columns, the bytes before a field zeroed
        width = int(size[fast].max())
        columns = np.arange(width)
        digits = data.take(stops[fast, None] - width + columns, mode="clip") - np.uint8(48)
        digits *= columns >= width - size[fast, None]
        numeric = (digits <= 9).all(axis=1)  # the uint8 difference wraps below '0'
        fast = fast[numeric]
        number = np.zeros(len(fast), np.int64)
        for column in digits[numeric].T:
            number = number * 10 + column
        value[fast] = number
        fits[fast] = True
    for i in np.flatnonzero(~fits).tolist():
        try:
            number = int(block[begins[i] : stops[i]].decode("utf-8"))
        except ValueError:
            continue
        if _INT64_MIN <= number <= _INT64_MAX:
            value[i], fits[i] = number, True
    return value, fits


def _hash(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A uint64 hash of each key ``(words[:, i], lengths[i])``."""
    h = lengths.astype(np.uint64)
    for column in words:
        h = (h ^ column) * _HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    return h


class _KeyTable:
    """An interner's known keys of one width: hash-sorted hashes, words
    (one row per word of the key), byte lengths and codes.  The last batch
    of added keys waits unsorted until a later batch looks keys up, so a
    one-batch interner never sorts its table."""

    def __init__(self, width: int):
        self.hashes = np.empty(0, np.uint64)
        self.words = np.empty((width, 0), np.uint64)
        self.lengths = np.empty(0, np.int64)
        self.codes = np.empty(0, np.int32)
        self._added = None  # (hashes, words, lengths, codes) not yet sorted in

    def find(self, hashes, words, lengths) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the keys, and whether the table holds each key."""
        if self._added is not None:
            self._sort_in(*self._added)
            self._added = None
        codes = np.zeros(len(hashes), np.int32)
        found = np.zeros(len(hashes), bool)
        # compare each key with the table entries of its hash in turn: one
        # step unless hashes collide
        at = np.searchsorted(self.hashes, hashes)
        todo = np.flatnonzero(at < len(self.hashes))
        at = at[todo]
        while len(todo):
            hit = self.hashes[at] == hashes[todo]
            todo, at = todo[hit], at[hit]
            same = (self.lengths[at] == lengths[todo]) & (
                self.words[:, at] == words[:, todo]
            ).all(axis=0)
            codes[todo[same]] = self.codes[at[same]]
            found[todo[same]] = True
            at += 1
            left = ~same & (at < len(self.hashes))
            todo, at = todo[left], at[left]
        return codes, found

    def add(self, hashes, words, lengths, codes) -> None:
        """Enter keys that the table does not hold, with their codes; each
        batch follows a ``find``, which sorts the one before it in."""
        assert self._added is None
        self._added = hashes, words, lengths, codes

    def _sort_in(self, hashes, words, lengths, codes) -> None:
        order = np.argsort(hashes)
        if not len(self.hashes):
            self.hashes, self.words = hashes[order], words[:, order]
            self.lengths, self.codes = lengths[order], codes[order]
            return
        at = np.searchsorted(self.hashes, hashes[order])
        self.hashes = np.insert(self.hashes, at, hashes[order])
        self.words = np.insert(self.words, at, words[:, order], axis=1)
        self.lengths = np.insert(self.lengths, at, lengths[order])
        self.codes = np.insert(self.codes, at, codes[order])


class Interner:
    """Dense int32 codes for byte strings: the distinct strings get 0, 1,
    2, ... batch by batch; within a batch the keys of each width take their
    codes in the order of their first occurrence."""

    def __init__(self):
        self.size = 0  # the number of distinct strings seen
        self._tables: dict[int, _KeyTable] = {}  # by key width, as 2**r words

    def intern(self, block: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """The codes of the UTF-8 strings ``block[lo[i]:hi[i]]``, and the
        strings new to the interner in the order of their codes, decoded
        with one decode; no string may hold a tab."""
        codes = np.empty(len(lo), np.int32)
        if not len(lo):
            return codes, []
        lengths = hi - lo
        low, high = np.searchsorted(_KEY_BYTES, (lengths.min(), lengths.max())).tolist()
        rank = np.searchsorted(_KEY_BYTES, lengths) if low < high else None
        padded = block + bytes(int(_KEY_BYTES[high]))
        loads = np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))
        new = []  # the new strings' bytes, each with a tab after it
        for r in range(low, high + 1):
            keys = slice(None) if rank is None else np.flatnonzero(rank == r)
            start, size = lo[keys], lengths[keys]
            words = np.empty((1 << r, len(size)), np.uint64)
            for k, row in enumerate(words):  # one 1-D load per word of the key
                row[:] = loads[start + 8 * k]
                row &= _BYTE_MASKS[np.clip(size - 8 * k, 0, 8)]
            codes[keys], fresh = self._key_codes(r, words, size)
            new.append(_tab_ended(words[:, fresh], size[fresh]))
        return codes, np.concatenate(new).tobytes().decode("utf-8").split("\t")[:-1]

    def _key_codes(self, r: int, words: np.ndarray, lengths: np.ndarray):
        """The codes of the keys ``(words[:, i], lengths[i])`` of width
        ``2**r``, and the first occurrences of the new keys in code order."""
        hashes = _hash(words, lengths)
        # sort the hashes with each key's index in their low bits: equal
        # high bits make a group, and its first index is its first key
        low = np.uint64((1 << max(len(hashes) - 1, 1).bit_length()) - 1)
        packed = np.sort(hashes & ~low | np.arange(len(hashes), dtype=np.uint64))
        order = (packed & low).astype(np.intp)
        new = np.ones(len(order), bool)
        new[1:] = (packed[1:] ^ packed[:-1]) > low
        first = order[new]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        rep = first[inverse]
        if not (np.array_equal(lengths[rep], lengths) and all(np.array_equal(w[rep], w) for w in words)):
            # two different keys share a group: group the keys exactly
            rows = np.column_stack((lengths.astype(np.uint64), words.T))
            _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
            inverse = inverse.reshape(-1)
        table = self._tables.setdefault(r, _KeyTable(1 << r))
        codes, found = table.find(hashes[first], words[:, first], lengths[first])
        unseen = np.flatnonzero(~found)
        unseen = unseen[np.argsort(first[unseen])]
        codes[unseen] = np.arange(self.size, self.size + len(unseen), dtype=np.int32)
        self.size += len(unseen)
        at = first[unseen]
        table.add(hashes[at], words[:, at], lengths[at], codes[unseen])
        return codes[inverse], at


def _tab_ended(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes of the keys ``(words[:, i], lengths[i])``, each followed by
    a tab, as one uint8 array."""
    rows = np.empty((len(lengths), 8 * len(words) + 1), np.uint8)
    rows[:, :-1] = words.T.astype("<u8", order="C").view(np.uint8)
    rows[np.arange(len(lengths)), lengths] = TAB
    inside = np.arange(rows.shape[1])[:, None] <= lengths  # built across, read along rows
    return rows[inside.T]


# --- small text files ---

def text_lines(path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line of a UTF-8 file, counted from 1
    and without its line break; the first line that is not valid UTF-8
    raises ``error("path:line: invalid UTF-8")`` when the lines reach it."""
    with open(path, "rb") as fh:
        block = universal_newlines(fh.read())
    found = lines(block)
    valid = utf8_lines(block, found.begins, found.ends)
    for lineno, (begin, end, ok) in enumerate(
        zip(found.begins.tolist(), found.ends.tolist(), valid.tolist()), start=1
    ):
        if not ok:
            raise error(f"{path}:{lineno}: invalid UTF-8")
        yield lineno, block[begin:end].decode("utf-8")


class Rows:
    """The rows of a side-input file: the tab-separated fields of each line
    that is neither blank nor a ``#`` comment.  A row has exactly the fields
    that ``form`` names (such as ``"domain<TAB>rank"``), none empty; a line
    that breaks this or is not UTF-8 raises MalformedLine with ``path:line``,
    as :meth:`error` and :meth:`record` do for the line reached."""

    def __init__(self, path, form: str):
        self.path, self.form = path, form
        self.lineno = 0

    def __iter__(self) -> Iterator[list[str]]:
        width = self.form.count("<TAB>") + 1
        for lineno, line in text_lines(self.path, MalformedLine):
            self.lineno = lineno
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != width or not all(fields):
                raise self.error(f"expected {self.form!r}")
            yield fields

    def error(self, reason: str) -> MalformedLine:
        """A MalformedLine that names the current line."""
        return MalformedLine(f"{self.path}:{self.lineno}: {reason}")

    def record(self, mapping: dict, domain: str, value) -> None:
        """``mapping[domain] = value``; a domain already in ``mapping`` is a
        MalformedLine."""
        if domain in mapping:
            raise self.error(f"repeated domain {domain!r}")
        mapping[domain] = value


def write_rows(path, rows: Iterable[Sequence]) -> None:
    """Write side-input rows as :class:`Rows` reads them: each field as
    ``str()`` of its value, tab-separated, one ``\\n``-ended line per row,
    in UTF-8; no field may be empty or hold a tab or line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a CSV artifact: ``header``, then ``rows``, in UTF-8 with ``\\n``
    line ends; each field is ``str()`` of its value, quoted only where the
    csv module's minimal quoting needs it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
