"""Byte-level fields of UTF-8 text: the package's one text layer.

Every input the package reads is UTF-8 text whose lines end at ``\\n``,
``\\r\\n`` or a lone ``\\r`` and whose fields are separated by tabs.  The
link-log parse and the snapshot reader scan a block of such bytes with numpy
instead of making a Python object per line or field:

- :func:`blocks` is the one block reader: it reads a byte range of a file in
  blocks of about a given size that end at line breaks, so that a reader's
  peak follows the block, not the file (a few MB for the link-log parse,
  512 KB for the snapshot reader);
- :func:`universal_newlines` turns every line break into ``\\n``;
- :func:`lines` gives each line's span, its tabs and whether it is valid
  UTF-8, with one decode for a valid block and a line-by-line decode only
  in a block that fails;
- :func:`integers` (with numpy, in uint64, which holds any 19 digits) and
  :func:`digits` (one text field) read every integer the package reads, a
  header's year and an integer flag too, by one rule: 1 to 19 ASCII digits
  with a value below 2**63, with no sign, space or ``_``;
- :func:`decimal` reads every other number, a coordinate or a float flag:
  ASCII text without whitespace, ``_`` or a leading ``+`` that ``float()``
  reads, as it reads every ``repr`` of a float;
- :func:`line_problem` says why the first line that a numpy scan rejects is
  not a data line (three tab-separated fields of UTF-8, one of them an
  integer field), so that the link-log parse and the snapshot reader word
  it alike;
- an :class:`Interner` gives each distinct byte string a dense code, its
  index in :attr:`Interner.strings`, and decodes a batch's new strings with
  one decode, so that a reader decodes each string once, not once per
  occurrence; :meth:`Interner.order` sorts the strings and ranks the codes,
  so that a reader sorts its names mostly without comparing Python strings.

Interning.  An interner keeps two invariants: each key width has one table
of known keys, sorted by hash after every batch, and ``strings`` holds every
distinct string, decoded once, with a string's code its index there.  A
string becomes a key of little-endian words, loaded from any byte offset
with the bytes past its end masked off, plus its byte length (NUL is valid
UTF-8, so the length stays part of the key).  The word count is rounded up
to a power of two, so a key takes at most about twice its own bytes however
long other strings are, and equal strings share a width.  A batch of keys of
one width is grouped by one sort of their 64-bit hashes, each with the key's
index in its low bits, so that a group's first member is its first
occurrence.  Every group is verified word by word: when two different keys
share a group, the batch is grouped exactly instead.  Each group is then
looked up in the width's table, walking the entries of its hash until one
matches, so a collision costs time but never a wrong code; the new keys are
sorted into the table.  The strings' order compares the first two words of
each key, byte-swapped, then its length, and only keys of more than 16
bytes that tie on their first 16 are ordered by their strings, whose order
is that of their UTF-8 bytes.

Small files are read a line at a time through :func:`text_lines`.  Side
inputs are read through :class:`Rows` and written by :func:`write_rows`.
Every CSV artifact but two is written by :func:`write_csv`.  The rows of
``geo_links_<year>.csv`` repeat each node's name and coordinates many times,
so :func:`chronoscope.gravity.export_geo_links` formats each node's fields
once and joins them per row, in about half the time that the csv
writer takes over the same rows, with the same bytes.  The fields of
``gravity_series_<year>.csv`` are float ``repr`` strings, which never need
quoting, so :func:`chronoscope.gravity.write_gravity_series` formats each
row with one ``str.format``, again with the csv writer's bytes.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import MalformedLine

TAB, NEWLINE = 9, 10
# an integer field has 1 to _DIGITS ASCII digits and a value below _INT_LIMIT
_DIGITS, _INT_LIMIT = 19, 2**63
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


def blocks(path, start: int, stop: int, size: int) -> Iterator[bytes]:
    """Bytes ``[start, stop)`` of a file in blocks of about ``size`` bytes,
    each ending at a line break, with every line break turned into ``\\n``.

    A final ``\\r`` waits for the next block, where it may start a
    ``\\r\\n``.  A line longer than a block grows its block, each read then
    as large as the bytes held, so a long line costs linear time.  Every
    block but the last holds at least one line; the last may be empty.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        left, carry = stop - start, b""
        while True:
            data = fh.read(min(max(size, len(carry)), left))
            left -= len(data)
            block, last = carry + data, not (left and data)
            if not last:
                cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
                block, carry = block[:cut], block[cut:]
                if not block:
                    continue
            yield universal_newlines(block)
            if last:
                return


class Lines(NamedTuple):
    """The lines of a block, their tabs and their UTF-8 validity.

    Line ``i`` is ``block[begins[i]:ends[i]]`` without its ``\\n``; the last
    line need not end with one, and an empty block has no lines.  ``data``
    is the block as uint8, ``tabs`` the offsets of all its tabs, and line
    ``i`` has ``tab_counts[i]`` tabs from ``tabs[first_tab[i]]`` on;
    ``utf8[i]`` says whether it is valid UTF-8.
    """

    data: np.ndarray
    begins: np.ndarray
    ends: np.ndarray
    tabs: np.ndarray
    first_tab: np.ndarray
    tab_counts: np.ndarray
    utf8: np.ndarray

    def tab(self, line: np.ndarray, k: int) -> np.ndarray:
        """The offsets of the ``k``-th tab (from 0) of the lines ``line``."""
        return self.tabs[self.first_tab[line] + k]


def lines(block: bytes) -> Lines:
    """The lines of a block whose lines end at ``\\n``: their spans, tabs
    and UTF-8 validity, decoded line by line only if the block fails."""
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
    utf8 = np.ones(len(ends), bool)
    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        for i, (begin, end) in enumerate(zip(begins.tolist(), ends.tolist())):
            try:
                block[begin:end].decode("utf-8")
            except UnicodeDecodeError:
                utf8[i] = False
    return Lines(data, begins, ends, tabs, first_tab, tabs_before - first_tab, utf8)


def integers(data: np.ndarray, begins: np.ndarray, stops: np.ndarray):
    """The integer fields ``data[begins[i]:stops[i]]`` of a uint8 block as
    int64, and whether each is one (else its value is 0), as :func:`digits`
    reads them; every step of the digit accumulate is in uint64."""
    size = stops - begins
    value = np.zeros(len(size), np.uint64)
    valid = np.zeros(len(size), bool)
    fields = np.flatnonzero((size >= 1) & (size <= _DIGITS))
    if len(fields):
        # right-aligned digit columns, the bytes before a field zeroed
        width = int(size[fields].max())
        columns = np.arange(width)
        digit = data.take(stops[fields, None] - width + columns, mode="clip") - np.uint8(48)
        digit *= columns >= width - size[fields, None]
        number = np.zeros(len(fields), np.uint64)
        for column in digit.T:
            number = number * np.uint64(10) + column
        # the uint8 difference wraps below '0', so a non-digit is above 9
        valid[fields] = (digit <= 9).all(axis=1) & (number < np.uint64(_INT_LIMIT))
        value[fields] = number * valid[fields]
    return value.view(np.int64), valid


def digits(text: str) -> int | None:
    """The value of an integer field: ``text`` of 1 to ``_DIGITS`` ASCII
    digits with a value below 2**63; None for any other text (a sign,
    spaces, ``_``, other digits, longer runs or larger values).

    >>> digits("0042"), digits(" 7"), digits("+7"), digits("1_0"), digits(str(2**63))
    (42, None, None, None, None)
    """
    if len(text) <= _DIGITS and text.isascii() and text.isdigit():
        value = int(text)
        return value if value < _INT_LIMIT else None
    return None


def decimal(text: str) -> float | None:
    """The value of a decimal field: ASCII ``text`` without whitespace,
    ``_`` or a leading ``+`` that ``float()`` reads; None for other text.

    >>> decimal("-1.5"), decimal("1e-05"), decimal("-inf"), decimal("1_0"), decimal("+5")
    (-1.5, 1e-05, -inf, None, None)
    """
    if text.isascii() and "_" not in text and text[:1] != "+" and text.split() == [text]:
        try:
            return float(text)
        except ValueError:
            return None
    return None


def line_problem(line: bytes, field: int, name: str, limit: int = _INT_LIMIT) -> str | None:
    """Why ``line`` is not a data line of three tab-separated fields of
    UTF-8 whose ``field`` (from 0) is an integer field below ``limit``, or
    None: the first of ``invalid UTF-8``, ``expected 3 fields``, ``bad
    {name} '…'`` and ``{name} N out of range``.

    >>> line_problem(b"x\\ty", 0, "time"), line_problem(b"9\\ta\\tb", 0, "time", 5)
    ('expected 3 fields', 'time 9 out of range')
    >>> line_problem(b"a\\tb\\t-1", 2, "weight"), line_problem(b"\\xff\\ta\\tb", 0, "time")
    ("bad weight '-1'", 'invalid UTF-8')
    """
    try:
        fields = line.decode("utf-8").split("\t")
    except UnicodeDecodeError:
        return "invalid UTF-8"
    if len(fields) != 3:
        return "expected 3 fields"
    value = digits(fields[field])
    if value is None:
        return f"bad {name} {fields[field]!r}"
    return None if value < limit else f"{name} {value} out of range"


def _hash(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A uint64 hash of each key ``(words[:, i], lengths[i])``."""
    h = lengths.astype(np.uint64)
    for column in words:
        h = (h ^ column) * _HASH_MULTIPLIER
        h ^= h >> np.uint64(29)
    return h


class _KeyTable:
    """An interner's known keys of one width, sorted by hash after every
    batch: hashes, words (one row per word of the key), byte lengths and
    codes."""

    def __init__(self, width: int):
        self.hashes = np.empty(0, np.uint64)
        self.words = np.empty((width, 0), np.uint64)
        self.lengths = np.empty(0, np.int64)
        self.codes = np.empty(0, np.int32)

    def find(self, hashes, words, lengths) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the keys, and whether the table holds each key."""
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
                self.words.take(at, axis=1) == words.take(todo, axis=1)
            ).all(axis=0)
            codes[todo[same]] = self.codes[at[same]]
            found[todo[same]] = True
            at += 1
            left = ~same & (at < len(self.hashes))
            todo, at = todo[left], at[left]
        return codes, found

    def add(self, hashes, words, lengths, codes) -> None:
        """Sort keys that the table does not hold, with their codes, in."""
        # a batch comes in hash order, unless it was grouped exactly
        order = np.argsort(hashes, kind="stable")
        hashes = hashes[order]
        # each new key goes before the known keys of a larger hash
        at = np.searchsorted(self.hashes, hashes) + np.arange(len(hashes))
        known = np.ones(len(self.hashes) + len(hashes), bool)
        known[at] = False

        def merged(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            out = np.empty(len(known), old.dtype)
            out[at] = new
            out[known] = old
            return out

        self.hashes = merged(self.hashes, hashes)
        self.words = np.stack([merged(*rows) for rows in zip(self.words, words.take(order, axis=1))])
        self.lengths = merged(self.lengths, lengths[order])
        self.codes = merged(self.codes, codes[order])


class Interner:
    """Dense int32 codes for byte strings: ``strings`` holds every distinct
    string seen, decoded once, and a string's code is its index there.
    Within a batch the new keys of each width take their codes in the order
    of their first occurrence."""

    def __init__(self):
        self.strings: list[str] = []
        self._tables: dict[int, _KeyTable] = {}  # by key width, as 2**r words

    def intern(self, block: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The codes of the UTF-8 strings ``block[lo[i]:hi[i]]``; the strings
        new to the interner join ``strings`` with one decode.  No string may
        hold a tab."""
        codes = np.empty(len(lo), np.int32)
        if not len(lo):
            return codes
        lengths = hi - lo
        low, high = np.searchsorted(_KEY_BYTES, (lengths.min(), lengths.max())).tolist()
        rank = np.searchsorted(_KEY_BYTES, lengths) if low < high else None
        padded = block + bytes(int(_KEY_BYTES[high]))
        loads = np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))
        new = []  # the new strings' bytes, each with a tab after it
        next_code = len(self.strings)
        for r in range(low, high + 1):
            keys = slice(None) if rank is None else np.flatnonzero(rank == r)
            start, size = lo[keys], lengths[keys]
            words = np.empty((1 << r, len(size)), np.uint64)
            for k, row in enumerate(words):  # one 1-D load per word of the key
                row[:] = loads[start + 8 * k]
                row &= _BYTE_MASKS[np.clip(size - 8 * k, 0, 8)]
            codes[keys], fresh = self._key_codes(r, words, size, next_code)
            new.append(_tab_ended(words.take(fresh, axis=1), size[fresh]))
            next_code += len(fresh)
        self.strings += np.concatenate(new).tobytes().decode("utf-8").split("\t")[:-1]
        return codes

    def order(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The strings seen in their order, that of their UTF-8 bytes, which
        is the order of their code points; and each code's rank in it.

        The reader's byte-level :func:`chronoscope.snapshot.name_codes`: on
        each 11.8k-name year of the seed-77 bench link log it took 1.0-1.6 ms
        against 3.6-5.0 ms for ``name_codes`` (Python 3.11, 2-vCPU Xeon)."""
        tables = self._tables.values()
        lengths = np.concatenate([np.empty(0, np.int64)] + [t.lengths for t in tables])
        # the first two words of every key, byte-swapped so that integer
        # order is byte order; the words past a key's end are 0
        first, second = (
            np.concatenate(
                [np.empty(0, np.uint64)]
                + [t.words[k] if k < len(t.words) else np.zeros(len(t.codes), np.uint64) for t in tables]
            ).byteswap()
            for k in (0, 1)
        )
        codes = np.concatenate([np.empty(0, np.int32)] + [t.codes for t in tables])
        order = np.argsort(first)
        # order each run of equal first words by second word, then length
        tied = first[order][1:] == first[order][:-1]
        if tied.any():
            run = np.concatenate(([0], np.cumsum(~tied)))
            sub = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
            keys = order[sub]
            order[sub] = keys[np.lexsort((lengths[keys], second[keys], run[sub]))]
        # keys of more than 16 bytes that share their first 16 are in
        # length order: put each run of them in the order of their strings
        long = lengths[order] > 16
        tied = (first[order][1:] == first[order][:-1]) & (second[order][1:] == second[order][:-1])
        tied &= long[1:] & long[:-1]
        order = codes[order]
        if tied.any():
            bounds = np.flatnonzero(np.diff(np.concatenate(([0], tied, [0])).astype(np.int8)))
            for begin, end in zip(bounds[::2].tolist(), (bounds[1::2] + 1).tolist()):
                order[begin:end] = sorted(order[begin:end].tolist(), key=self.strings.__getitem__)
        rank = np.empty(len(order), np.int64)
        rank[order] = np.arange(len(order))
        return tuple(map(self.strings.__getitem__, order.tolist())), rank

    def _key_codes(self, r: int, words: np.ndarray, lengths: np.ndarray, next_code: int):
        """The codes of the keys ``(words[:, i], lengths[i])`` of width
        ``2**r``, the new ones from ``next_code`` on, and the first
        occurrences of the new keys in code order."""
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
        codes, found = table.find(hashes[first], words.take(first, axis=1), lengths[first])
        # the new keys enter the table in hash order and take their codes
        # in the order of their first occurrence
        unseen = np.flatnonzero(~found)
        at = first[unseen]
        by_first = np.argsort(at)
        codes[unseen[by_first]] = np.arange(next_code, next_code + len(unseen), dtype=np.int32)
        table.add(hashes[at], words.take(at, axis=1), lengths[at], codes[unseen])
        return codes[inverse], at[by_first]


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
    for lineno, (begin, end, ok) in enumerate(
        zip(found.begins.tolist(), found.ends.tolist(), found.utf8.tolist()), start=1
    ):
        if not ok:
            raise error(f"{path}:{lineno}: invalid UTF-8")
        yield lineno, block[begin:end].decode("utf-8")


class Rows:
    """The rows of a side-input file: the tab-separated fields of each line
    that is neither blank nor a ``#`` comment.  A row has exactly the fields
    that ``form`` names (such as ``"domain<TAB>rank"``), none empty; a line
    that breaks this or is not UTF-8 raises MalformedLine with ``path:line``,
    as :meth:`error`, :meth:`integer` and :meth:`record` do for the line
    reached."""

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

    def integer(self, text: str, reason: str) -> int:
        """The value of an integer field, as :func:`digits` reads it; any
        other text is a MalformedLine ``reason``."""
        value = digits(text)
        if value is None:
            raise self.error(reason)
        return value

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
