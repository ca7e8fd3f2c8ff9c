"""The events CSV writer, which only `SimTrace.export_events_csv` loads.

`write_event_columns` writes the events CSV, hundreds of thousands of
rows, with `write_csv`'s bytes but without a Python string per row or per
time. Its `%.9g` for float64 times in [1e-4, 1e8) is vectorised and exact:

- The decimal exponent e (-4 <= e <= 7) comes from one `searchsorted`
  over the powers of ten, and `y = x * 10.0**(8 - e)` lies in [1e8, 1e9].
  Each `10**k` with 0 <= k <= 22 is a double, so the one rounding in y is
  that of the product: y is within half an ulp of the exact
  `x * 10**(8 - e)`, and below 2**30 half an ulp is at most 6e-8.
- `rint(y)` therefore equals the exact nine-digit rounding of x unless the
  fractional part of y lies within 1e-6 of 0.5; such near ties go to the
  per-value route. A result of 1e9 carries to 1e8 at exponent e + 1. The
  carry also mends the exponent of an x that lies between a power of ten
  and its double (1e-3 is a little above 10**-3): its y is 1e9 within an
  ulp, and its nine digits are 100000000.
- The nine digits are three table lookups of 3-digit groups in 4-byte
  words. The spare byte of a word holds the decimal point, a leading "0"
  (e = -4), or NUL; a prefix word holds "0." and leading zeros for e < 0.
  Trailing zeros after the point, and a point with no digit after it,
  are NUL in the tables; which variant a group takes follows from e and
  from which later groups are zero.

Times outside that range (0.0, -0.0, negatives, nan, inf) and near ties
are formatted one by one with `fmt`: a few per run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .csvio import fmt

_CHUNK_ROWS = 65536
_TIME_BYTES = 16  # the longest "%.9g" of a float64, "-1.23456789e-300"
_NEAR_TIE = 1e-6  # > 6e-8, the most by which y can miss the exact product


def write_event_columns(path: str | Path, header: Sequence[str], t, codes, labels,
                        ids) -> None:
    """write_csv's bytes for rows (t, labels[code], id), with no Python step
    per row or per time.

    t (float64), codes and ids are numpy arrays; labels is a sequence of
    strings that need no quoting, indexed by code. ids are non-negative and
    dense, as entity ids are: the id table holds every id in 0..max(ids).
    In each 65536-row chunk a time is formatted only where its bits differ
    from the row before (0.0 and -0.0 compare equal but print apart), by the
    vectorised `%.9g` of the module docstring. Each row is then a record of
    three fixed-width fields padded with NUL: the time, ",label," and
    "id\\n" (right-aligned, so its padding joins the label's). The records
    are filled by taking from the distinct-time, label and id tables. No
    cell holds a NUL, so deleting every NUL byte from a chunk's records
    leaves its CSV text.
    """
    import numpy as np  # only the simulating commands load numpy

    format_times = _time_formatter(np)
    cells = [f",{k},".encode() for k in labels]
    width = _width(max(map(len, cells), default=1))
    label_cells = np.array(cells, dtype=f"S{width}").view(f"V{width}")
    id_cells = _id_cells(np, int(ids.max(initial=-1)) + 1)
    record = np.dtype([("t", f"V{_TIME_BYTES}"), ("k", label_cells.dtype),
                       ("i", id_cells.dtype)])
    buf = bytearray()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(t), _CHUNK_ROWS):  # chunks bound the records held at once
            part = slice(lo, lo + _CHUNK_ROWS)
            tc = t[part]
            bits = tc.view(np.int64)
            first = np.empty(len(tc), dtype=bool)
            first[0] = True
            np.not_equal(bits[1:], bits[:-1], out=first[1:])
            times = format_times(tc[np.flatnonzero(first)])
            which = first.astype(np.intp)
            np.cumsum(which, out=which)
            which -= 1
            if len(buf) != len(tc) * record.itemsize:
                buf = bytearray(len(tc) * record.itemsize)
            rows = np.frombuffer(buf, record)
            rows["t"] = times[which]
            rows["k"] = label_cells[codes[part].astype(np.intp)]
            rows["i"] = id_cells[ids[part]]
            fh.write(buf.translate(None, b"\0"))


def _width(n: int) -> int:
    return 8 * -(-n // 8)  # numpy copies cells of 8 and 16 bytes fastest


def _id_cells(np, count: int):
    """Cells b"i\\n" for i in 0..count-1, right-aligned after NUL padding."""
    digits = len(str(max(count - 1, 0)))
    cells = np.zeros((count, _width(digits + 1)), dtype=np.uint8)
    cells[:, -1] = ord("\n")
    v = np.arange(count)
    for k in range(digits):  # k-th digit from the right; leading zeros stay NUL
        cells[:, -2 - k] = np.where((v > 0) | (k == 0), v % 10 + ord("0"), 0)
        v //= 10
    return cells.view(f"V{cells.shape[1]}").ravel()


def _time_formatter(np):
    """format_times(x) -> one NUL-padded "%.9g" cell per float64 of x."""
    bounds = np.array([10.0**e for e in range(-4, 9)])  # bounds[s-1] <= x < bounds[s]: e = s - 5
    scale = np.array([float(10 ** (13 - s)) for s in range(len(bounds))])
    words = _group_words(np)
    # code c = 4 s + 2 (groups 1 and 2 are zero) + (group 2 is zero), for
    # s up to len(bounds), which a carry past 1e8 reaches
    prefix = np.zeros(4 * (len(bounds) + 1), dtype=np.uint32)
    offset = np.zeros((3, len(prefix)), dtype=np.intp)
    for c in range(len(prefix)):
        e, later_zero = c // 4 - 5, (c % 4 >= 2, c % 2 == 1, True)
        if e < 0:
            lead = b"0." + b"0" * min(-e - 1, 2)
            prefix[c] = np.frombuffer(lead.ljust(4, b"\0"), dtype=np.uint32)[0]
        for g in range(3):
            strip = int(later_zero[g])
            if e < 3 * g:  # every digit of the group is after the point
                variant = strip + (2 if g == 0 and e == -4 else 0)
            elif e < 3 * g + 3:  # the point follows digit e - 3g of the group
                variant = 4 + 3 * strip + e - 3 * g
            else:
                variant = 0
            offset[g, c] = 1000 * variant

    def format_times(x):
        s = np.searchsorted(bounds, x, side="right")
        outside = (s == 0) | (s == len(bounds))
        xs = x
        if outside.any():
            xs = np.where(outside, 1.0, x)
            s[outside] = 5
        y = xs * scale[s]
        m = np.rint(y)
        slow = np.abs(y - m) > 0.5 - _NEAR_TIE
        slow |= outside
        m = m.astype(np.intp)
        carry = m == 10**9
        if carry.any():
            m[carry] = 10**8
            s += carry
        q = m // 1000
        g2 = m - 1000 * q
        g0 = q // 1000
        g1 = q - 1000 * g0
        z2 = g2 == 0
        c = 4 * s
        c += z2
        c += 2 * (z2 & (g1 == 0))
        cells = np.empty((len(x), 4), dtype=np.uint32)
        cells[:, 0] = prefix[c]
        cells[:, 1] = words[offset[0, c] + g0]
        cells[:, 2] = words[offset[1, c] + g1]
        cells[:, 3] = words[offset[2, c] + g2]
        text = cells.view(f"S{_TIME_BYTES}").ravel()
        for i in np.flatnonzero(slow).tolist():
            text[i] = fmt(float(x[i])).encode()
        return cells.view(f"V{_TIME_BYTES}").ravel()

    return format_times


def _group_words(np):
    """4-byte words for the 3-digit groups 0..999, 1000 per variant: the
    digits after a NUL spare (variant 0) or a "0" spare (2), or with the
    point after digit j (4 + j). Variants 1, 3 and 7 + j are the same with
    trailing zeros as NUL, and the point too when no digit follows it."""
    v = np.arange(1000)
    d = np.stack([v // 100, v // 10 % 10, v % 10], axis=1).astype(np.uint8) + ord("0")
    zero_tail = np.cumprod(d[:, ::-1] == ord("0"), axis=1)[:, ::-1].astype(bool)
    words = np.zeros((10, 1000, 4), dtype=np.uint8)
    for strip in (0, 1):
        digits = np.where(zero_tail & bool(strip), 0, d)
        words[strip, :, 1:] = digits
        words[2 + strip, :, 0] = ord("0")
        words[2 + strip, :, 1:] = digits
        for j in range(3):
            w = words[4 + 3 * strip + j]
            w[:, : j + 1] = d[:, : j + 1]
            w[:, j + 1] = ord(".")
            w[:, j + 2 :] = digits[:, j + 1 :]
            if strip:
                w[:, j + 1] = 0 if j == 2 else np.where(zero_tail[:, j + 1], 0, ord("."))
    return words.view(np.uint32).ravel()
