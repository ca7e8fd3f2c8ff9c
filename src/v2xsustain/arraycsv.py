"""The CSV writer for numpy tables, which `csvio.write_csv` loads on first
use for a table it vectorises: two or more columns, one of them numpy,
and 1024 cells or more.

`write_rows` gives `write_csv`'s bytes a block of rows at a time, with no
Python step per row or per float. Each row of a block is a record of
fixed-width fields: the parts of each cell, each as wide as its column
needs, and a "," or "\\n" byte after each cell. Parts are padded with NUL.
No cell holds a NUL (a text cell or label with one raises ValueError), so
deleting every NUL byte of a block's records leaves its CSV text. The
cells by kind of column:

- float: the vectorised `%.9g` below, one call for all float columns of a
  block, once per run of equal bits (an event time repeats across a
  session's rows). A column drops a sign or exponent part that is NUL in
  every row;
- non-negative integer: one lookup in a table of every value up to the
  largest where that is below max(1000, rows), else a 4-byte word per 3
  digits: the tables grow with a block's rows, not with the values;
- `Codes`: each label quoted and encoded once, then taken by its code;
- any other (lists, text, negative integers, bools): `fmt` per cell unless all
  are str, then quoted and encoded once per block, or once where all are one str.

The tables that no column shapes are built whole at import and are
read-only: no write changes them.

`%.9g` of a float64 x != 0 is m, the nine-digit rounding of
z_E = |x| * 10**(8 - E), at the decimal exponent E of |x|, or 1e8 at E + 1
where m reaches 1e9; fixed form for -4 <= E <= 8, else exponent form. It is
exact and vectorised as follows, with u = 2**-53 and P[k] = float(f"1e{k}"),
10**k rounded once:

- E comes from a search of |x| over bounds near the powers of ten: P[-4]
  .. P[9] first, and P[k] for every k where |x| falls outside them. The
  check below makes any E right. y >= 1e8 puts z_E above 1e8 - 4.5e-7,
  so a search one too high leaves the true rounding at 1e9, which
  carries to m = 1e8 at E; a search one too low gives m = 1e9, which
  carries to 1e8 at E + 1, only when y <= 1e9 + 0.5. Any other y goes to
  `fmt`. Within [1e-4, 1e9) each bound is at least its power of ten, so
  y >= 1e8 and m <= 1e9 hold there without a check.
- y = |x| * P[k1] * P[k2], with k1 + k2 = 8 - E, and k2 = 0 where
  8 - E <= 22, else max(22, 8 - E - 308). P[k] is exact for
  0 <= k <= 22, P[k1] stays below the top of the double range, and the
  first product is above 1e-16, so both products are normal doubles. That
  is at most four roundings of relative size u (two powers, two
  products), and only x below 1e-322 has all four:
  |y - z_E| <= 4.0001 * u * y, under 4.5e-7 where y <= 1e9 + 0.5.
- `rint(y)` is therefore the rounding of z_E unless y lies within
  _NEAR_TIE = 1e-6 of a half-integer. In fixed form y is one rounding of
  z_E, and such a near tie is settled exactly, ties to even as %.9g
  rounds (`_round_near_ties`); in exponent form it goes to `fmt`, as do
  ±inf.
- The nine digits are three table lookups of 3-digit groups in 4-byte
  words. The spare byte of a word holds the decimal point, a leading "0"
  (e = -4), or NUL; a prefix word holds "0." and leading zeros for e < 0.
  Trailing zeros after the point, and a point with no digit after it,
  are NUL in the tables; which variant a group takes follows from e and
  from which later groups are zero. Fixed form has e = E; exponent form
  writes the digits at e = 0 and an exponent part "e+09" ... "e-324".
- A sign part holds "-" where the sign bit is set (-0.0 too), ±0.0 is the
  prefix word "0", and NaN is empty.
"""

from __future__ import annotations

import numpy as np

from .csvio import Codes, _quoted, fmt

_NEAR_TIE = 1e-6  # > 4.5e-7, the most by which y can miss the exact product
# s = E + _E0 indexes the per-exponent tables for a finite x != 0 (E in
# -324..308); s = 0 is ±0.0, and _NAN is NaN and ±inf (one more after a carry)
_E0, _NAN = 325, 634
_FORMS = 15  # form 0 is ±0.0, 1..13 fixed form at e = form - 5, 14 NaN
_BLANK, _LEAD, _LEAD_BLANK = 10, 11, 12  # group-word variants: see _group_words


def write_rows(fh, columns: list, block_rows: int) -> None:
    """Write the rows of equally long columns to the binary file fh,
    block_rows at a time, with write_csv's bytes."""
    n = len(columns[0])
    rows = min(n, block_rows)
    floats = [k for k, c in enumerate(columns) if hasattr(c, "dtype") and c.dtype.kind == "f"]
    cells = {k: _cell_parts(c, rows) for k, c in enumerate(columns) if k not in floats}
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    record = None
    for lo in range(0, n, block_rows):
        hi = min(n, lo + block_rows)
        parts = {k: f(lo, hi) for k, f in cells.items()}
        if floats:
            parts.update(zip(floats, _float_parts([columns[k][lo:hi] for k in floats])))
        fields = []
        for k in range(len(columns)):
            fields += [(f"{k}.{j}", p.dtype) for j, p in enumerate(parts[k])] + [(str(k), "S1")]
        dtype = np.dtype(fields)
        if record is None or record.dtype != dtype or len(record) != hi - lo:
            buf = bytearray((hi - lo) * dtype.itemsize)
            record = np.frombuffer(buf, dtype)
            for k, sep in enumerate(seps):  # the separators stay while buf is reused
                record[str(k)] = sep
        for k, ps in parts.items():
            for j, p in enumerate(ps):
                record[f"{k}.{j}"] = p
        fh.write(buf.translate(None, b"\0"))


def _cell_parts(col, rows: int):
    """parts(lo, hi) for a column that is not float: the parts of the
    cells of col[lo:hi], each an array of one fixed-width cell per row."""
    if isinstance(col, Codes):
        table = _text_cells(col.labels)
        return lambda lo, hi: [table[col.codes[lo:hi].astype(np.intp)]]
    kind = getattr(col, "dtype", np.dtype(object)).kind
    if kind in "iu":
        # a negative value is at least 2**(bits - 1) as unsigned; signed indices take fastest
        top = int(col.view(f"u{col.itemsize}").max(initial=0))
        if kind == "u" or top < 2 ** (8 * col.itemsize - 1):
            return _digit_parts(col, top, rows)
    return lambda lo, hi: [_text_cells(col[lo:hi])]


def _text_cells(values):
    """Cells of fmt(value), quoted as csv.writer quotes them, as one block;
    ValueError where a cell holds a NUL."""
    values = values.tolist() if hasattr(values, "tolist") else list(values)
    first = values[0] if values else None
    if type(first) is str and first is values[-1] and values.count(first) == len(values) > 1:
        return np.repeat(_text_cells([first]), len(values))  # one string: encoded once
    try:
        text = "\0".join(values)
    except TypeError:  # not all str
        values = list(map(fmt, values))
        text = "\0".join(values)
    if text.count("\0") != len(values) - 1:
        raise ValueError("a text cell holds a NUL byte")
    values = _quoted(values, joined=text)
    if text.isascii():
        cells = np.array(values, dtype="S")
    else:
        cells = np.array([v.encode() for v in values])
    return cells.view(f"V{cells.itemsize}")


def _float_parts(blocks: list) -> list:
    """The parts of the blocks of float columns, formatted in one call on
    the first of each run of equal bits and spread over the run's rows
    (0.0 and -0.0 compare equal but print apart); a column keeps its 16
    bytes of digits, and its sign and exponent parts only where they are
    not NUL in every row."""
    m = len(blocks[0])
    x = np.ascontiguousarray(np.concatenate(blocks) if len(blocks) > 1 else blocks[0],
                             dtype=np.float64)
    bits = x.view(np.int64)
    first = np.empty(len(x), dtype=bool)
    first[0] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    which = first.astype(np.intp)
    np.cumsum(which, out=which)
    which -= 1
    whole = [p[which] for p in _format_floats(x[first])]
    by_column = [[p[i * m : (i + 1) * m] for p in whole] for i in range(len(blocks))]
    return [[p for p in parts if p.itemsize == 16 or p.view(np.uint8).any()]
            for parts in by_column]


def _digit_parts(col, top: int, rows: int):
    """parts(lo, hi) for a column of non-negative integers: one lookup in
    a table of every value up to the largest where that is below
    max(1000, rows); else a 4-byte group word per 3 digits. top is the
    largest value."""
    groups = -(-len(str(top)) // 3)

    def group_cells(v):
        """The cells of v as `groups` words, highest first: a group with a
        higher one is zero-padded, the leading one drops its leading
        zeros, and a group above that is NUL; the lowest shows "0"."""
        v = v.astype(np.uint64)
        cells = np.empty((len(v), groups), dtype="<u4")
        for k in range(groups):  # the k-th group from the right
            lead = 1000 * (_LEAD if k == 0 else _LEAD_BLANK)
            g = (v // 1000**k % 1000).astype(np.intp)
            g += lead if k == groups - 1 else np.where(v >= 1000 ** (k + 1), 0, lead)
            cells[:, groups - 1 - k] = _WORDS[g]
        return cells

    if top < max(1000, rows):  # the digits, right-aligned in as many bytes as top has
        digits = len(str(top))
        at = [4 * j + i for j in range(groups) for i in (1, 2, 3)][-digits:]
        table = group_cells(np.arange(top + 1)).view(np.uint8)[:, at]
        table = np.ascontiguousarray(table).view(f"V{digits}").ravel()
        return lambda lo, hi: [table[col[lo:hi]]]
    return lambda lo, hi: list(group_cells(col[lo:hi]).view("V4").T)


# a signalling NaN raises "invalid" in arithmetic; it prints empty as any NaN does
@np.errstate(invalid="ignore")
def _format_floats(x):
    """The parts of one "%.9g" cell per float64 of x: a sign part where x
    has a sign bit, 16 bytes of digits, and an exponent part where x has
    an exponent-form cell."""
    a = x
    s = np.searchsorted(_FIXED, a, side="right")
    special = s.min() == 0 or s.max() == len(_FIXED)  # ±0.0, NaN, ±inf, x < 0, exponent form
    signed = False
    if special:
        neg = np.signbit(x)
        signed = neg.any()
        if signed:
            a = np.abs(x)
            s = np.searchsorted(_FIXED, a, side="right")
    s += _E0 - 5
    expo = False  # a cell in exponent form
    if special:
        out = np.flatnonzero((s == _E0 - 5) | (s == _E0 + 9))
        a_out = a[out]
        s_out = np.where(a_out == 0.0, 0, _NAN)
        wide_out = (a_out > 0.0) & (a_out < np.inf)
        expo = wide_out.any()
        if expo:
            s_out[wide_out] = np.searchsorted(_WIDE, a_out[wide_out], side="right")
        s[out] = s_out
    y = a * _P1[s]
    if special:
        y *= _P2[s]
    m = np.rint(y)
    if special:
        np.fmin(m, 1e9, out=m)  # NaN and ±inf too, which carry below
    slow = np.abs(y - m) > 0.5 - _NEAR_TIE
    if slow.any():  # settle the near ties of fixed form, where y is one rounding
        tie = np.flatnonzero(slow & (s >= _E0 - 4) & (s <= _E0 + 8))
        m[tie] = _round_near_ties(a[tie], _P1[s[tie]], y[tie])
        slow[tie] = False
    if special:  # outside [1e-4, 1e9), bounds may lie above 10**E
        slow |= y < _LOW[s]
    m = m.astype(np.intp)
    carry = m == 10**9
    if carry.any():
        m[carry] = 10**8
        s += carry
        expo = expo or (s == _E0 + 9).any()  # 1e+09
    q = m // 1000
    g2 = m - 1000 * q
    g0 = q // 1000
    g1 = q - 1000 * g0
    z2 = g2 == 0
    c = _FORM8[s]
    c += z2
    c += 2 * (z2 & (g1 == 0))
    if signed:
        c += 4 * neg.view(np.uint8)
    cells = np.empty((len(x), 4), dtype="<u4")
    cells[:, 0] = _PREFIX[c]
    cells[:, 1] = _WORDS[_OFFSET[0, c] + g0]
    cells[:, 2] = _WORDS[_OFFSET[1, c] + g1]
    cells[:, 3] = _WORDS[_OFFSET[2, c] + g2]
    parts = [cells.view("V16").ravel()]
    if signed:
        parts.insert(0, _SIGN[c].view("V1"))
    if expo:
        parts.append(_EXPONENTS[s].view("V8"))
    if slow.any():
        at = np.flatnonzero(slow)
        for p in parts:
            p.view(np.uint8).reshape(len(p), -1)[at] = 0
        text = cells.view("S16").ravel()
        for i in at.tolist():
            text[i] = fmt(float(x[i])).encode()
    return parts


def _round_near_ties(a, p, y):
    """rint(a * p), exactly and with ties to even, for doubles a and p whose
    product y = fl(a * p) lies within _NEAR_TIE of k + 1/2, k = floor(y),
    and in [1e8, 1e9]. Dekker's product gives the rounding error e of y
    exactly (a * p = y + e, with Veltkamp's split into 26-bit halves), and
    y - (k + 1/2) is exact (Sterbenz), so the sign of their sum is exact."""
    def split(v):
        c = 134217729.0 * v  # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    (ah, al), (ph, pl) = split(a), split(p)
    e = ((ah * ph - y) + ah * pl + al * ph) + al * pl
    k = np.floor(y)
    t = (y - (k + 0.5)) + e
    return k + ((t > 0.0) | ((t == 0.0) & (k % 2 == 1.0)))


def _form_codes():
    """The prefix words, the sign bytes and the three group-word offsets of
    the codes c = 8 form + 4 (sign bit) + 2 (groups 1 and 2 are zero)
    + (group 2 is zero)."""
    prefixes = [b"0"] + [b"0." + b"0" * min(-e - 1, 2) if e < 0 else b"" for e in range(-4, 9)]
    prefixes.append(b"")  # NaN
    prefix = np.frombuffer(b"".join(p.ljust(4, b"\0") for p in prefixes), dtype="<u4")
    sign = np.zeros((_FORMS, 2, 4), dtype=np.uint8)
    sign[: _FORMS - 1, 1] = ord("-")
    variants = [[_BLANK] * 3] * 8  # ±0.0: NUL groups
    for e in range(-4, 9):
        by_flags = []
        for flags in range(4):
            row = []
            for g, strip in enumerate((flags >= 2, flags % 2 == 1, True)):  # later groups zero
                if e < 3 * g:  # every digit of the group is after the point
                    row.append(strip + (2 if g == 0 and e == -4 else 0))
                elif e < 3 * g + 3:  # the point follows digit e - 3g of the group
                    row.append(4 + 3 * strip + e - 3 * g)
                else:
                    row.append(0)
            by_flags.append(row)
        variants += by_flags * 2  # either sign
    variants += [[_BLANK] * 3] * 8  # NaN
    return np.repeat(prefix, 8), sign.ravel(), 1000 * np.array(variants, dtype=np.intp).T


def _group_words():
    """Little-endian 4-byte words for the 3-digit groups 0..999, 1000 per
    variant: the digits after a NUL spare (variant 0) or a "0" spare (2),
    or with the point after digit j (4 + j). Variants 1, 3 and 7 + j are
    the same with trailing zeros as NUL, and the point too when no digit
    follows it; variant 10 is all NUL. Variant 11 has leading zeros as
    NUL but for the last digit; 12 is the same with 0 all NUL."""
    v = np.arange(1000)
    d = [v // 100 + 48, v // 10 % 10 + 48, v % 10 + 48]  # the digits' bytes
    tail = [v == 0, v % 100 == 0, v % 10 == 0]  # digit k and those after it are zeros
    s = [np.where(z, 0, c) for z, c in zip(tail, d)]  # stripped of trailing zeros
    point = [np.where(z, 0, 46) for z in tail[1:]]  # "." where a digit follows it
    lead = [np.where(v < 100, 0, d[0]), np.where(v < 10, 0, d[1])]  # leading zeros as NUL
    rows = [(0, d[0], d[1], d[2]), (0, s[0], s[1], s[2]), (48, d[0], d[1], d[2]),
            (48, s[0], s[1], s[2]), (d[0], 46, d[1], d[2]), (d[0], d[1], 46, d[2]),
            (d[0], d[1], d[2], 46), (d[0], point[0], s[1], s[2]), (d[0], d[1], point[1], s[2]),
            (d[0], d[1], d[2], 0), (0, 0, 0, 0), (0, lead[0], lead[1], d[2]),
            (0, lead[0], lead[1], np.where(v == 0, 0, d[2]))]
    words = np.zeros((len(rows), 1000), dtype=np.int64)
    for w, (b0, b1, b2, b3) in zip(words, rows):
        w += b0
        w += np.left_shift(b1, 8)
        w += np.left_shift(b2, 16)
        w += np.left_shift(b3, 24)
    return words.astype("<u4").ravel()


def _exponent_tables():
    """By s: the scales P[k1] and P[k2], the least y of a right exponent,
    8 times the form and the exponent parts; and the bounds of the fixed
    and the wide exponent search."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])  # P[k] is powers[k + 323]
    e = np.arange(_NAN + 2) - _E0
    finite = (e >= -324) & (e <= 308)
    in_fixed = (e >= -4) & (e <= 8)
    t = np.where(finite, 8 - e, 0)  # 8 - E; P[0] = 1 for ±0.0 and NaN
    t2 = np.where(t <= 22, 0, np.maximum(22, t - 308))
    p1, p2 = powers[t - t2 + 323], powers[t2 + 323]
    form8 = np.where(in_fixed, 8 * (e + 5), 8 * 5)
    form8[0], form8[_NAN:] = 0, 8 * (_FORMS - 1)
    exponents = np.array([b"e%+03d" % k for k in e.tolist()], dtype="S8")  # "e+09" ... "e-324"
    exponents[~finite | in_fixed] = b""
    low = np.where(finite, 1e8, 0.0)  # ±0.0 and NaN go by other checks
    wide = np.concatenate([[5e-324], powers, [np.inf]])  # any increasing bounds near 10**k do
    return p1, p2, low, form8, exponents, powers[323 - 4 : 323 + 10], wide


# The tables, built once and read-only: no write changes them.
_WORDS = _group_words()
_PREFIX, _SIGN, _OFFSET = _form_codes()
_P1, _P2, _LOW, _FORM8, _EXPONENTS, _FIXED, _WIDE = _exponent_tables()
for _table in (_WORDS, _PREFIX, _SIGN, _OFFSET, _P1, _P2, _LOW, _FORM8, _EXPONENTS, _FIXED, _WIDE):
    _table.flags.writeable = False
