"""Circular data ingestion: a file of one observation per line, in one of
the DATA_FORMATS, read into a CircularSample of values in [0, 1).

This is the one way real data reaches the estimator and the test of the
data commands; it depends on nothing in the package but its errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import IngestError

__all__ = [
    "CircularSample",
    "DATA_FORMATS",
    "ingest_circular_data",
]


def _frozen(v: np.ndarray) -> np.ndarray:
    """v, a float64 array, made read-only; a ValueError unless it is 1-d,
    finite and in [0, 1)."""
    if v.ndim != 1:
        raise ValueError("sample values must be a 1-d array")
    # min or max is NaN or infinite if any value is
    lo, hi = (v.min(), v.max()) if v.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("sample values must be finite")
    if lo < 0.0 or hi >= 1.0:
        raise ValueError("sample values must lie in [0, 1)")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class CircularSample:
    """n observations in [0, 1), kept in a read-only copy of the values
    given, so no array of the caller's aliases them."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.array(self.values, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.size


def _parse_fraction(period: float, text: str) -> float:
    """A value in [0, period) as the fraction value / period of a turn."""
    v = float(text)
    if not 0.0 <= v < period:
        raise ValueError(f"value {v} outside [0, {period:g})")
    return v / period


def _parse_hhmm(text: str) -> float:
    h, _, m = text.strip().partition(":")
    # int() would also take a sign, blanks or underscores
    if not (h.isascii() and h.isdigit() and m.isascii() and m.isdigit()):
        raise ValueError(f"invalid time {text!r}")
    hh, mm = int(h), int(m)
    if not (0 <= hh < 24 and 0 <= mm < 60):
        raise ValueError(f"invalid time {text!r}")
    return (60 * hh + mm) / 1440.0


# characters of text read per block; each block is cut after a line end
_BLOCK_CHARS = 1 << 17

# byte patterns of the bulk pass: one value in every byte of a word
_ONES = 0x0101010101010101
_ASCII_ZEROS = ord("0") * _ONES
_LOW7 = 0x7F * _ONES
_DOTS = (ord(".") ^ ord("0")) * _ONES
_ABOVE_NINE = (0x7F - 9) * _ONES
_ALL_BYTES = np.uint64(2 ** 64 - 1)
# _KEEP[i, n] clears the bytes before an n-byte line (n <= 24) in word i of
# the three that end at its newline, and keeps the rest
_KEEP = np.array(
    [[~((1 << 8 * min(max(24 - n - 8 * i, 0), 8)) - 1) % 2 ** 64 for n in range(25)]
     for i in range(3)],
    dtype=np.uint64,
)


def _split(x):
    """x as hi + lo exactly, each with at most 26 significant bits, so that
    products of halves are exact (Veltkamp); x a float or an array."""
    c = x * (2.0 ** 27 + 1)
    hi = c - (c - x)
    return hi, x - hi


# 10^e and its halves, e <= 19; all exact (built without numpy's power,
# which would page in its loops at import)
_POW10 = np.array([float(10 ** e) for e in range(20)])
_POW10_HI, _POW10_LO = np.array([_split(p) for p in _POW10.tolist()]).T


def _text_blocks(fh):
    """The text of fh in blocks of about _BLOCK_CHARS characters, each
    ending with a newline (one is added after a last line without it)."""
    while text := fh.read(_BLOCK_CHARS):
        if text[-1] != "\n":
            text += fh.readline()
        yield text if text[-1] == "\n" else text + "\n"


def _words(raw: bytes, ends: np.ndarray, count: int) -> np.ndarray:
    """The count little-endian 8-byte words of raw that end at each index
    of ends, as a (lines, count) array, first word first; raw must hold
    8 * count bytes before each. They are gathered as one record of
    8 * count bytes per line, which numpy copies whole."""
    records = np.ndarray((len(raw) - 8 * count + 1,), f"V{8 * count}", raw, strides=(1,))
    return records[ends - 8 * count].view("<u8").reshape(-1, count)


def _byte_count(x: np.ndarray) -> np.ndarray:
    """The number of bytes of x that are 1; every other byte must be 0."""
    return (x * _ONES) >> 56


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The numbers whose decimal digits are the bytes 0..9 of x, the
    lowest byte the leading digit (the SWAR multiply-shift)."""
    x = (x * (10 * 2 ** 8 + 1)) >> 8
    x = ((x & 0x00FF00FF00FF00FF) * (100 * 2 ** 16 + 1)) >> 16
    return ((x & 0x0000FFFF0000FFFF) * (10000 * 2 ** 32 + 1)) >> 32


def _decimal_lines(raw: bytes, ends: np.ndarray, length: np.ndarray) -> np.ndarray:
    """float() of each line of raw that ends at ends where it can be shown
    exactly in bulk, NaN at every other line.

    A line qualifies if it has at most 24 bytes, all ASCII digits but one
    '.' with 1 to 19 digits after it, and its digits read as an integer
    M < 2^62; its value is M / 10^f for f fraction digits. With M and the
    quotient q1 = M / 10^f split into parts that multiply exactly
    (Dekker's product, no FMA), the remainder of q1 is known to far
    better than a double, and q1 plus it rounds to float()'s correctly
    rounded value unless it lies within 2^-40 half-ulp of a rounding
    midpoint. Such lines, and every line of another form, are left out.
    """
    ok = length <= 24
    # a longer line is refused, so it may keep the masks of 24 bytes
    at = np.minimum(length, 24)
    words, dots, fraction, prev, after = [], 0, 0, 0, 0
    for i, w in enumerate(_words(raw, ends, 3).T):
        # digit values 0..9, '.' as 0x1E; the bytes before the line are 0
        x = (w ^ _ASCII_ZEROS) & _KEEP[i][at]
        y = x ^ _DOTS
        # the high bit of each '.' (a zero byte of y), then of each byte above 9
        dot = ~(((y & _LOW7) + _LOW7) | y | _LOW7)
        ok &= dot == (((x & _LOW7) + _ABOVE_NINE) | x) & (_ONES << 7)
        dot >>= 7
        dots = dots + _byte_count(dot)
        # the digits after the '.': the bytes above it, and all of a later word
        keep = ~((dot << 8) - 1) | after
        fraction = fraction + _byte_count(keep & _ONES)
        after = (dots != 0) * _ALL_BYTES
        # drop the '.': the bytes below it move up one, the top byte of the
        # word before coming in at the bottom
        shifted = (x << 8) | (prev >> 56)
        words.append((x & keep) | (shifted & ~keep))
        prev = x
    top, mid, low = map(_eight_digits, words)
    m = top * 10 ** 16 + mid * 10 ** 8 + low
    ok &= (dots == 1) & (fraction >= 1) & (fraction <= 19) & (top <= 461) & (m < 2 ** 62)
    m[~ok] = 0
    m = m.astype(np.int64)
    e = np.minimum(fraction, 19).astype(np.intp)
    p, p_hi, p_lo = _POW10[e], _POW10_HI[e], _POW10_LO[e]
    # M = m_hi + m_lo exactly, and q1 * 10^f = prod + prod_err exactly
    m_hi = m.astype(float)
    m_lo = (m - m_hi.astype(np.int64)).astype(float)
    q1 = m_hi / p
    q_hi, q_lo = _split(q1)
    prod = q1 * p
    prod_err = ((q_hi * p_hi - prod) + q_hi * p_lo + q_lo * p_hi) + q_lo * p_lo
    # (M - q1 * 10^f) / 10^f; m_hi - prod is exact (Sterbenz)
    q2 = (((m_hi - prod) - prod_err) + m_lo) / p
    value = q1 + q2
    # how far q1 + q2 lies from value, against half the smaller gap around
    # it; value >= 0, so the double below it has the integer view less one
    # (NaN below 0, which no comparison takes)
    off = (q1 - value) + q2
    below = (value.view(np.int64) - 1).view(float)
    ok &= np.abs(off) < (value - below) * (0.5 - 2.0 ** -41)
    value[~ok] = np.nan
    return value


def _hhmm_lines(raw: bytes, ends: np.ndarray, length: np.ndarray) -> np.ndarray:
    """_parse_hhmm's value of each line of raw that ends at ends and is
    "DD:DD", 5 bytes, with the hour below 24 and the minute below 60; NaN
    at every other line."""
    w = _words(raw, ends, 1)[:, 0]
    # a 5-byte line is the word's bytes 3..7; digit values 0..9, ':' as 10
    h1, h0, colon, m1, m0 = (((w >> 8 * j) & 0xFF) ^ ord("0") for j in range(3, 8))
    hh, mm = h1 * 10 + h0, m1 * 10 + m0
    ok = (length == 5) & (colon == ord(":") ^ ord("0")) & (hh < 24) & (mm < 60)
    for digit in (h1, h0, m1, m0):
        ok &= digit <= 9
    return np.where(ok, (hh * 60 + mm) / 1440.0, np.nan)


class _Format(NamedTuple):
    """How one data format is read."""

    parse: Callable  # a stripped line to [0, 1); each bad line quotes its message
    bulk: Callable  # convert's value of each line of a block it reads exactly, else NaN
    convert: Callable  # a line to a value, which must then lie in [0, period)
    period: float  # one turn in the format's unit


# format name -> how it is read. float() reads a line of a fractional
# format; an hhmm value is already a fraction of a day, so its period is 1
DATA_FORMATS = {
    "unit": _Format(partial(_parse_fraction, 1.0), _decimal_lines, float, 1.0),
    "hhmm": _Format(_parse_hhmm, _hhmm_lines, _parse_hhmm, 1.0),
    "degrees": _Format(partial(_parse_fraction, 360.0), _decimal_lines, float, 360.0),
}


def ingest_circular_data(path, fmt: str = "unit") -> CircularSample:
    """Read one circular observation per line, mapped to [0, 1).

    Formats: "unit" (already in [0,1)), "hhmm" ("HH:MM" clock times,
    both fields unsigned ASCII digits), "degrees" ([0, 360)). The file is
    parsed as it is read, a block of text at a time, with the values and
    messages of the per-line parsers in DATA_FORMATS: a bulk pass takes
    the lines whose value it can show to be exactly the parser's, and the
    rest are converted one at a time on their stripped text. Blank lines,
    empty once stripped, are skipped but keep their line numbers; more
    than 1% failing non-blank lines aborts, quoting the first 20. An
    unknown format raises ValueError before the file is opened; a file
    that cannot be read or is not UTF-8 raises IngestError, whatever the
    machine's locale.
    """
    form = DATA_FORMATS.get(fmt)
    if form is None:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(DATA_FORMATS)}")
    parse, bulk, convert, period = form
    blocks, failures, total, pos = [], [], 0, 0
    try:
        with open(path, encoding="utf-8") as fh:
            for text in _text_blocks(fh):
                # newlines before the text, so that 24 bytes precede every line end
                raw = b"\n" * 24 + text.encode()
                arr = np.frombuffer(raw, np.uint8)
                newlines = np.flatnonzero(arr == ord("\n"))[23:]
                starts, ends = newlines[:-1] + 1, newlines[1:]
                values = bulk(raw, ends, ends - starts)

                def line(i):
                    return raw[starts[i] : ends[i] + 1].decode()

                # a line the bulk pass leaves out is converted on its stripped
                # text; empty text is a blank line, and a refused one stays NaN
                blank = np.zeros(ends.size, dtype=bool)
                for i in np.flatnonzero(np.isnan(values)).tolist():
                    stripped = line(i).strip()
                    if not stripped:
                        blank[i] = True
                        continue
                    try:
                        values[i] = convert(stripped)
                    except ValueError:
                        pass
                # a refused line is NaN, so this one check catches every bad line
                ok = (values >= 0.0) & (values < period)
                block = values[ok]
                # v / 1 is v, so a unit value is not divided
                blocks.append(block / period if period != 1.0 else block)
                bad = np.flatnonzero(~ok)
                bad = bad[~blank[bad]]
                total += block.size + bad.size
                for i in bad[: 20 - len(failures)]:
                    try:
                        parse(line(i).strip())
                    except ValueError as e:
                        failures.append((pos + i + 1, str(e)))
                pos += ends.size
    except (OSError, UnicodeDecodeError) as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    if not total:
        raise IngestError(f"{path} contains no data")
    values = np.concatenate(blocks)
    bad = total - values.size
    if bad > 0.01 * total:
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in failures)
        raise IngestError(f"{bad}/{total} lines failed to parse: {detail}")
    # the joined values are this call's alone, so the sample takes them
    # without the copy its constructor makes
    sample = object.__new__(CircularSample)
    object.__setattr__(sample, "values", _frozen(values))
    return sample
