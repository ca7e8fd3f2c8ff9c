"""Property tests: write_csv's two routes, lists and numpy tables, give
the bytes of the csv module.

The oracle is `csv.writer(lineterminator="\\n")` over `fmt` cells, the
route the writers replaced. Derandomized, so Tier-1 stays deterministic.
Skipped when Hypothesis is not installed.
"""

import csv
import io
import math
import random
import struct
import sys

import numpy as np
import pytest

from v2xsustain import arraycsv, csvio
from v2xsustain.csvio import Codes, fmt, write_csv

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LABELS = ("arrival", "auth_pass", "key_update", "departure")


def csv_module_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


TOKENS = ["a", "7", " ", ",", '"', '""', "\n", "\r", "é"]
EDGE_FLOATS = [0.0, -0.0, 1e-4, 1e8, 9.9999999996, 99999999.95, math.nan, math.inf, -math.inf,
               0.5, 2.5, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -1.5]


def _float(rng: random.Random) -> float:
    """One float of a class chosen at random: log-uniform and uniform in
    [1e-5, 1e9], the fixed-form range [1e-4, 1e9) and past it; any bit
    pattern (every exponent, sign, subnormals, NaN payloads, ±inf); k / 2**13
    for |k| <= 2**31, exact 9-digit ties among them; the double nearest a
    9-digit tie; and the edges and specials of EDGE_FLOATS."""
    kind = rng.randrange(6)
    if kind == 0:
        return 10.0 ** rng.uniform(-5, 9)
    if kind == 1:
        return rng.uniform(1e-5, 1e9)
    if kind == 2:
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if kind == 3:
        return rng.randint(-(2**31), 2**31) / 2**13
    if kind == 4:
        return float(f"{rng.randint(10**8, 10**9 - 1)}5e{rng.randint(-13, -2)}")
    return rng.choice(EDGE_FLOATS)


def _text_cell(rng: random.Random) -> str:
    """Up to 5 tokens of TOKENS: commas, quotes, newlines and non-ASCII text."""
    return "".join(rng.choices(TOKENS, k=rng.randint(0, 5)))


def _cell(rng: random.Random):
    """A cell of any kind write_csv takes: a float, a numpy float64, an
    integer of up to 20 digits, a bool, None or text."""
    kind = rng.randrange(6)
    if kind == 0:
        return _float(rng)
    if kind == 1:
        return np.float64(_float(rng))
    if kind == 2:
        return rng.randint(-(10**20), 10**20)
    if kind == 3:
        return rng.random() < 0.5
    return None if kind == 4 else _text_cell(rng)


def _int64(rng: random.Random) -> int:
    return rng.choice([rng.randint(-(2**63), 2**63 - 1), -(2**63), 2**63 - 1, -1, 0, 1])


# the routes of write_csv: floats in one batch, floats with None gaps (an
# all-None column among them), text as it is, mixed cells value by value,
# and numpy float64 (NaN gaps among them) and int64 columns
COLUMN_KINDS = (
    lambda rng, n: [_float(rng) for _ in range(n)],
    lambda rng, n: [_float(rng) if rng.random() < 0.5 else None for _ in range(n)],
    lambda rng, n: [None] * n,
    lambda rng, n: [_text_cell(rng) for _ in range(n)],
    lambda rng, n: [_cell(rng) for _ in range(n)],
    lambda rng, n: np.array([_float(rng) for _ in range(n)], dtype=np.float64),
    lambda rng, n: np.array([_int64(rng) for _ in range(n)], dtype=np.int64),
)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(width=st.integers(1, 4), n=st.integers(0, 12), block=st.integers(1, 8),
                  seed=st.integers(0, 2**32 - 1))
def test_write_csv_matches_the_csv_module(tmp_path_factory, width, n, block, seed):
    # each column of one of COLUMN_KINDS, its cells drawn by `random` from
    # the seed (the classes of _float, _cell, _text_cell and _int64); the
    # header is text
    rng = random.Random(seed)
    columns = [rng.choice(COLUMN_KINDS)(rng, n) for _ in range(width)]
    header = [_text_cell(rng) for _ in range(width)]
    path = tmp_path_factory.mktemp("csv") / "columns.csv"
    with pytest.MonkeyPatch.context() as mp:  # blocks of a few rows, as of thousands in use
        mp.setattr(csvio, "_BLOCK_CELLS", block * width)
        mp.setattr(csvio, "_TABLE_CELLS", 0)  # numpy columns through the block writer
        write_csv(path, header, columns)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    assert path.read_bytes() == csv_module_bytes(header, zip(*cells))


def test_write_csv_rejects_ragged_rows(tmp_path):
    # columns of unequal length, or a column count other than the header's
    path = tmp_path / "ragged.csv"
    for columns in ([(1.0, 3.0), (2.0,)], [(1.0,)], [(1,), (2,), (3,)],
                    [("a", "c"), ("b", "d", "e")]):
        with pytest.raises(ValueError):
            write_csv(path, ("a", "b"), columns)
    assert not path.exists()


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(n=st.integers(0, 40), chunk=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_event_columns_match_the_csv_module(tmp_path_factory, n, chunk, seed):
    # sorted times of every class of _float, kind codes 0..3 and ids
    # 0..5000, drawn by `random` from the seed
    rng = random.Random(seed)
    t = np.sort(np.array([_float(rng) for _ in range(n)], dtype=np.float64))
    codes = np.array([rng.randint(0, 3) for _ in range(n)], dtype=np.int8)
    ids = np.array([rng.randint(0, 5000) for _ in range(n)], dtype=np.int64)
    path = tmp_path_factory.mktemp("csv") / "columns.csv"
    header = ("t_s", "kind", "entity_id")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_BLOCK_CELLS", chunk * len(header))
        mp.setattr(csvio, "_TABLE_CELLS", 0)
        write_csv(path, header, (t, Codes(codes, LABELS), ids))
    rows = zip(t.tolist(), (LABELS[c] for c in codes), ids.tolist())
    assert path.read_bytes() == csv_module_bytes(header, rows)


def _power_and_neighbours(k: int) -> list[float]:
    p = float(f"1e{k}")
    return [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]


POWERS = [v for k in range(-324, 309) for v in _power_and_neighbours(k)]
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
CHARS = list("a7 ,\"\n\ré")


def _float_column(rng, n: int):
    """n float64 across all of float64: random bit patterns (every exponent,
    sign and NaN payload); 10**k and its neighbours, where the exponent
    search is decided; doubles nearest a 9-digit tie, of either sign, at
    exponents across the range; and the specials."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    powers = np.array(POWERS)[rng.integers(0, len(POWERS), n)]
    ties = np.array([float(f"{m}5e{e}") for m, e in zip(rng.integers(10**8, 10**9, n).tolist(),
                                                        rng.integers(-330, 301, n).tolist())])
    ties *= rng.choice([-1.0, 1.0], n)
    specials = np.array(SPECIALS)[rng.integers(0, len(SPECIALS), n)]
    return np.choose(rng.integers(0, 4, n), [bits, powers, ties, specials])


def _int_column(rng, n: int, kind: int):
    """n integers: near each power of ten up to 10**18, where a table ends
    and groups of digits begin, or any int64 >= 0; all of uint64; int64 with
    negatives, which go through fmt; booleans, which do too."""
    if kind == 0:
        near = 10 ** rng.integers(0, 19, n, dtype=np.uint64) - np.uint64(2)
        near += rng.integers(0, 4, n, dtype=np.uint64)
        return np.where(rng.random(n) < 0.5, near, rng.integers(0, 2**63, n, dtype=np.uint64))
    if kind == 1:
        return rng.integers(0, 2**64, n, dtype=np.uint64)
    if kind == 2:
        return rng.integers(-(2**63), 2**63, n, dtype=np.int64)
    return rng.random(n) < 0.5


def _text(rng, n: int) -> list:
    return ["".join(rng.choice(CHARS, rng.integers(0, 5))) for _ in range(n)]


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(n=st.integers(0, 60), block=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
                  int_kind=st.integers(0, 3), order=st.permutations(range(4)),
                  width=st.integers(1, 4), by_value=st.booleans())
def test_numpy_tables_match_the_csv_module(tmp_path_factory, n, block, seed, int_kind, order,
                                           width, by_value):
    # float, integer, text and code columns in any order, in blocks of any
    # size, through the block writer or, as a small table, by value; numpy
    # draws the values from the seed, which keeps each example fast
    rng = np.random.default_rng(seed)
    labels = _text(rng, int(rng.integers(1, 5)))
    codes = Codes(rng.integers(0, len(labels), n).astype(np.int8), labels)
    columns = [_float_column(rng, n), _int_column(rng, n, int_kind), _text(rng, n), codes]
    columns = [columns[k] for k in order[:width]]
    header = [f"c{k}" for k in order[:width]]
    path = tmp_path_factory.mktemp("csv") / "numpy.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_BLOCK_CELLS", block * width)
        mp.setattr(csvio, "_TABLE_CELLS", 10**9 if by_value else 0)
        write_csv(path, header, columns)
    cells = [[c.labels[k] for k in c.codes.tolist()] if isinstance(c, Codes)
             else c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    assert path.read_bytes() == csv_module_bytes(header, zip(*cells))


def test_float_cells_match_fmt_at_every_power_of_ten(tmp_path, monkeypatch):
    # next to a second column, as one column goes by value
    monkeypatch.setattr(csvio, "_TABLE_CELLS", 0)
    path = tmp_path / "powers.csv"
    ids = np.arange(len(POWERS))
    write_csv(path, ("x", "i"), [np.array(POWERS), ids])
    assert path.read_bytes() == csv_module_bytes(("x", "i"), zip(POWERS, ids.tolist()))


def test_writer_tables_are_read_only(tmp_path, monkeypatch):
    # the tables are complete at import: none can be written, and floats of
    # either sign at every decimal exponent, 5e-324 to 1.8e308, need none
    tables = {name: v for name, v in vars(arraycsv).items() if isinstance(v, np.ndarray)}
    assert tables and [name for name, v in tables.items() if v.flags.writeable] == []
    x = [5e-324, sys.float_info.max] + [float(f"{m}e{k}") for k in range(-323, 309) for m in (1, 1.7)]
    assert {int(f"{v:e}".split("e")[1]) for v in x} == set(range(-324, 309))
    x += [-v for v in x]
    monkeypatch.setattr(csvio, "_TABLE_CELLS", 0)
    path = tmp_path / "exponents.csv"
    write_csv(path, ("x", "i"), [np.array(x), np.arange(len(x))])
    assert path.read_bytes() == csv_module_bytes(("x", "i"), zip(x, range(len(x))))


def test_numpy_tables_reject_a_nul_in_text(tmp_path, monkeypatch):
    # the block writer deletes NUL padding, so a NUL in a cell or a label cannot pass it
    monkeypatch.setattr(csvio, "_TABLE_CELLS", 0)
    with pytest.raises(ValueError, match="NUL"):
        write_csv(tmp_path / "nul.csv", ("x", "y"), (np.zeros(2), ["a", "b\0c"]))
    with pytest.raises(ValueError, match="NUL"):
        write_csv(tmp_path / "nul.csv", ("x", "y"),
                  (np.zeros(600), Codes(np.zeros(600, np.int8), ["a\0b"])))


def test_vectorised_writes_build_no_table(tmp_path, monkeypatch):
    # the group words and form codes are built once, at import: a write of
    # every kind of float cell, labels and integers builds neither again
    def rebuilt(*_):
        raise AssertionError("a table was built again")

    monkeypatch.setattr(arraycsv, "_group_words", rebuilt)
    monkeypatch.setattr(arraycsv, "_form_codes", rebuilt)
    rng = np.random.default_rng(35)
    x = _float_column(rng, 600)
    codes = Codes(rng.integers(0, len(LABELS), 600).astype(np.int8), LABELS)
    ids = rng.integers(0, 10**12, 600)
    path = tmp_path / "table.csv"
    write_csv(path, ("x", "k", "i"), (x, codes, ids))
    rows = zip(x.tolist(), codes.tolist(), ids.tolist())
    assert path.read_bytes() == csv_module_bytes(("x", "k", "i"), rows)
