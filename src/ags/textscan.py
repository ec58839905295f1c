"""Bulk tokenizer behind the text loaders: edge lists, features, labels, seeds.

A file is read as bytes once. Line ends, comments and tokens are found
with whole-array numpy operations, and all the values a loader wants are
converted by one ``np.fromstring`` call. Integer tokens are checked
against their grammar with byte masks first; reals are converted first,
and the masks pick out bad tokens only when the conversion fails. Nothing
here loops over lines or tokens in Python. The loaders in ``graph``
build their own checks and messages on top of a ``Scan``.

Rules shared by every format:

- ``\\n``, ``\\r\\n`` and a lone ``\\r`` end a line, so line numbers are
  those of a text-mode read.
- ``#`` starts a comment that runs to the end of its line.
- Spaces, tabs and the other ASCII whitespace separate tokens (features
  also split on commas). A line without tokens is skipped.
- Numbers are ASCII. An integer is ``[+-]`` and decimal digits. A real is
  a decimal with an optional point and exponent, or ``inf``, ``infinity``
  or ``nan`` in any case, each with an optional sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Byte classes. Everything from _COMMA up separates tokens (commas only
# where the format splits on them); _COMMENT marks bytes inside comments.
# _WORD holds the letters of inf, infinity and nan other than e.
_OTHER, _WORD, _DIGIT, _DOT, _EXP, _SIGN, _COMMA, _SPACE, _EOL, _COMMENT = range(10)
_ASCII_SPACE = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"  # str.split's whitespace, less the line ends

# the largest int64; np.fromstring saturates ids that overflow to it
INT64_SATURATED = np.iinfo(np.int64).max


def _class_table(split_commas: bool) -> bytes:
    """``bytes.translate`` table from each byte to its class."""
    table = bytearray([_OTHER]) * 256
    for chars, k in (
        (b"infatyINFATY", _WORD),
        (b"0123456789", _DIGIT),
        (b".", _DOT),
        (b"eE", _EXP),
        (b"+-", _SIGN),
        (b",", _COMMA if split_commas else _OTHER),
        (_ASCII_SPACE, _SPACE),
        (b"\r\n", _EOL),
    ):
        for c in chars:
            table[c] = k
    return bytes(table)


_CLASSES = {split: _class_table(split) for split in (False, True)}
_WORDS = (b"inf", b"nan", b"infinity")


@dataclass(frozen=True)
class Scan:
    """One file cut into tokens.

    ``eol`` holds the position of every line end (the ``\\r`` of a
    ``\\r\\n``). Token i spans bytes ``starts[i]:ends[i]`` on 0-based line
    ``line[i]``; a file has ``eol.size + 1`` lines, the last one possibly
    empty. ``cls`` is the byte class of every byte, and ``clean`` the
    file with every separator turned into whitespace that
    ``np.fromstring`` skips.
    """

    data: bytes
    cls: np.ndarray
    clean: np.ndarray
    eol: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    line: np.ndarray

    @property
    def raw(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint8)

    @property
    def n_lines(self) -> int:
        return int(self.eol.size) + 1

    def tokens_per_line(self) -> np.ndarray:
        return np.bincount(self.line, minlength=self.n_lines)

    def line_text(self, i: int) -> str:
        """Line i (0-based) as a text-mode read gives it, stripped."""
        lo = int(self.eol[i - 1]) + 1 if i else 0
        hi = int(self.eol[i]) if i < self.eol.size else len(self.data)
        return self.data[lo:hi].decode("utf-8").strip()

    def commas(self) -> np.ndarray:
        """Positions of the commas that separate fields, outside comments."""
        return np.flatnonzero(self.cls == _COMMA)

    def lines_of(self, positions: np.ndarray) -> np.ndarray:
        """0-based line of each byte position."""
        return np.searchsorted(self.eol, positions)


def _span_mask(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Bool mask of ``size`` bytes, true on the ascending disjoint spans ``lo[i]:hi[i]``."""
    bounds = np.empty(2 * lo.size + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, size
    bounds[1:-1:2], bounds[2:-1:2] = lo, hi
    return np.repeat(np.resize(np.array([False, True]), 2 * lo.size + 1), np.diff(bounds))


def scan(path: str, split_commas: bool = False) -> Scan:
    """Read ``path`` once and find its line ends, comments and tokens."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")  # a file that is not UTF-8 fails as a text-mode read does
    raw = np.frombuffer(data, dtype=np.uint8)
    cls = np.frombuffer(bytearray(data.translate(_CLASSES[split_commas])), dtype=np.uint8)
    is_eol = cls == _EOL
    cr = np.flatnonzero(raw[:-1] == 13)
    if cr.size:
        # the \n of a \r\n is whitespace; the \r ended the line
        is_eol[cr[raw[cr + 1] == 10] + 1] = False
    eol = np.flatnonzero(is_eol)
    # separators np.fromstring does not skip: \x1c-\x1f, commas, comments
    clean = raw.copy()
    clean[np.flatnonzero(raw - np.uint8(0x1C) < 4)] = ord(" ")
    if split_commas:
        clean[np.flatnonzero(cls == _COMMA)] = ord(" ")
    hashes = np.flatnonzero(raw == ord("#"))
    if hashes.size:
        # each line's first '#' opens a comment that stops at the line end
        hash_line = np.searchsorted(eol, hashes)
        first = np.concatenate([[True], hash_line[1:] != hash_line[:-1]])
        inside = _span_mask(hashes[first], np.append(eol, raw.size)[hash_line[first]], raw.size)
        cls[inside] = _COMMENT
        clean[inside] = ord(" ")
    # tokens are runs of bytes below _COMMA; their edges alternate start, end
    tok = np.zeros(raw.size + 2, dtype=bool)
    tok[1:-1] = cls < _COMMA
    edges = np.flatnonzero(tok[1:] != tok[:-1])
    starts, ends = edges[0::2], edges[1::2]
    return Scan(data, cls, clean, eol, starts, ends, np.searchsorted(eol, starts))


def _marks(s: Scan):
    """Every token byte that is not a digit: position, class and token."""
    pos = np.flatnonzero((s.cls != _DIGIT) & (s.cls < _COMMA))
    return pos, s.cls[pos], np.searchsorted(s.starts, pos, side="right") - 1


def int_tokens_ok(s: Scan, idx: np.ndarray) -> np.ndarray:
    """Whether each token ``idx`` is ``[+-]digits``."""
    if idx.size == 0:
        return np.zeros(0, dtype=bool)
    pos, cls, tok = _marks(s)
    bad = np.zeros(s.starts.size, dtype=bool)
    bad[tok[(cls != _SIGN) | (pos != s.starts[tok])]] = True
    st = s.starts[idx]
    return ~bad[idx] & (s.ends[idx] - st > (s.cls[st] == _SIGN))


def real_tokens_ok(s: Scan, idx: np.ndarray) -> np.ndarray:
    """Whether each token ``idx`` is a real that ``float()`` accepts.

    Decimal form: a sign only first or right after the exponent mark, at
    most one point and one exponent mark, a digit before the mark and
    one after it, and no point after it. Word form: inf, infinity or nan
    in any case, after an optional sign.
    """
    if idx.size == 0:
        return np.zeros(0, dtype=bool)
    pos, cls, tok = _marks(s)
    t = s.starts.size
    st, en = s.starts[idx], s.ends[idx]

    def per_token(kind):
        return np.bincount(tok[cls == kind], minlength=t)[idx]

    dots, n_exp = per_token(_DOT), per_token(_EXP)
    others = per_token(_OTHER) + per_token(_WORD)
    mark = s.ends.copy()  # the exponent mark, or the token end if none
    mark[tok[cls == _EXP]] = pos[cls == _EXP]
    sign = cls == _SIGN
    misplaced = sign & (pos != s.starts[tok]) & (s.cls[pos - 1] != _EXP)
    late_dot = (cls == _DOT) & (pos > mark[tok])
    bad = np.zeros(t, dtype=bool)
    bad[tok[misplaced | late_dot]] = True
    mark = mark[idx]
    signed = s.cls[st] == _SIGN
    exp_signed = s.cls[np.minimum(mark + 1, s.cls.size - 1)] == _SIGN
    ok = ~bad[idx] & (others == 0) & (dots <= 1) & (n_exp <= 1)
    ok &= mark - st - signed - dots > 0  # a mantissa digit
    ok &= (n_exp == 0) | (en - mark - 1 - exp_signed > 0)  # an exponent digit

    words = np.flatnonzero(others > 0)
    if words.size:
        lo = st[words] + signed[words]
        length = en[words] - lo
        span = np.arange(max(map(len, _WORDS)))
        text = s.raw[np.minimum(lo[:, None] + span, len(s.data) - 1)] | 0x20  # ASCII lower case
        hit = np.zeros(words.size, dtype=bool)
        for word in _WORDS:
            w = np.frombuffer(word, dtype=np.uint8)
            hit |= (length == w.size) & np.all(text[:, : w.size] == w, axis=1)
        ok[words] = hit
    return ok


def values(s: Scan, idx: np.ndarray, dtype) -> np.ndarray:
    """Tokens ``idx`` (ascending, each valid for ``dtype``) converted in one call."""
    if idx.size == 0:
        return np.zeros(0, dtype=dtype)
    last = int(idx[-1])
    buf = s.clean[: s.ends[last]]
    if idx.size <= last:  # blank the tokens left out
        skip = np.ones(last + 1, dtype=bool)
        skip[idx] = False
        skip = np.flatnonzero(skip)
        buf = np.where(_span_mask(s.starts[skip], s.ends[skip], buf.size), np.uint8(ord(" ")), buf)
    return np.fromstring(buf.tobytes(), dtype=dtype, sep=" ")


def real_values(s: Scan, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which tokens ``idx`` are reals, and the values of those that are.

    On ASCII tokens built only from digits, signs, points, exponent marks
    and the letters of inf, infinity and nan, ``np.fromstring`` accepts
    exactly what ``float()`` accepts (the tests check every such token up
    to 4 bytes), so when it converts them all they are all good. Only
    when it fails, or other bytes occur, do the masks of
    ``real_tokens_ok`` pick out the bad tokens.
    """
    if not np.any(s.cls == _OTHER):
        try:
            return np.ones(idx.size, dtype=bool), values(s, idx, np.float64)
        except ValueError:
            pass
    ok = real_tokens_ok(s, idx)
    return ok, values(s, idx[ok], np.float64)


@dataclass(frozen=True)
class IntColumn:
    """One integer per non-blank line, read up to the first bad line.

    ``values[i]`` came from 1-based line ``lines[i]``. ``bad_line`` is
    the first line that does not hold exactly one integer (None if every
    line does), and ``bad_text`` that line, stripped.
    """

    values: np.ndarray
    lines: np.ndarray
    bad_line: int | None
    bad_text: str


def int_column(path: str) -> IntColumn:
    """Read a one-integer-per-line file (labels, seeds) up to its first bad line."""
    s = scan(path)
    bad = s.tokens_per_line() > 1
    every = np.arange(s.starts.size)
    bad[s.line[~int_tokens_ok(s, every)]] = True
    stop = int(np.argmax(bad)) if bad.any() else s.n_lines
    keep = every[: np.searchsorted(s.line, stop)]
    bad_line, bad_text = (None, "") if stop == s.n_lines else (stop + 1, s.line_text(stop))
    return IntColumn(values(s, keep, np.int64), s.line[keep] + 1, bad_line, bad_text)
