"""Property tests: both CSV writers give the bytes of the csv module.

The oracle is `csv.writer(lineterminator="\\n")` over `fmt` cells, the
route the writers replaced. Derandomized, so Tier-1 stays deterministic.
Skipped when Hypothesis is not installed.
"""

import csv
import io

import numpy as np
import pytest

from v2xsustain import csvio, eventcsv
from v2xsustain.csvio import fmt, write_csv
from v2xsustain.eventcsv import write_event_columns

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


times = st.one_of(
    st.floats(min_value=1e-5, max_value=1e9),  # the vectorised range [1e-4, 1e8) and past it
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**31), 2**31).map(lambda k: k / 2**13),  # exact 9-digit ties among them
    st.builds(lambda m, e: float(f"{m}5e{e}"),  # the double nearest a 9-digit tie
              st.integers(10**8, 10**9 - 1), st.integers(-13, -2)),
    st.sampled_from([0.0, -0.0, 1e-4, 1e8, 9.9999999996, 99999999.95]),
)
floats = st.one_of(times, st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5, 2.5]))
text = st.lists(st.sampled_from(["a", "7", " ", ",", '"', '""', "\n", "\r", "é"]),
                max_size=5).map("".join)
cells = st.one_of(floats, floats.map(np.float64), st.integers(-(10**20), 10**20),
                  st.booleans(), st.none(), text)


# the routes of write_csv: floats in one batch, floats with None gaps (an
# all-None column among them), text as it is, mixed cells value by value,
# and numpy float64 (NaN gaps among them) and int64 columns
columns_of = (floats, st.one_of(floats, st.none()), st.none(), text, cells,
              (floats, np.float64), (st.integers(-(2**63), 2**63 - 1), np.int64))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(width=st.integers(1, 4), n=st.integers(0, 12), block=st.integers(1, 8),
                  data=st.data())
def test_write_csv_matches_the_csv_module(tmp_path_factory, width, n, block, data):
    kinds = data.draw(st.lists(st.sampled_from(columns_of), min_size=width, max_size=width))
    header = data.draw(st.lists(text, min_size=width, max_size=width))
    columns = []
    for kind in kinds:
        cell, dtype = kind if isinstance(kind, tuple) else (kind, None)
        column = data.draw(st.lists(cell, min_size=n, max_size=n))
        columns.append(column if dtype is None else np.array(column, dtype=dtype))
    path = tmp_path_factory.mktemp("csv") / "columns.csv"
    with pytest.MonkeyPatch.context() as mp:  # blocks of a few rows, as of 8192 in use
        mp.setattr(csvio, "_BLOCK_ROWS", block)
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
@hypothesis.given(
    t=st.lists(times, max_size=40).map(lambda v: np.sort(np.array(v, dtype=np.float64))),
    chunk=st.integers(1, 8),
    data=st.data(),
)
def test_event_columns_match_the_csv_module(tmp_path_factory, t, chunk, data):
    codes = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(t), max_size=len(t))),
                     dtype=np.int8)
    ids = np.array(data.draw(st.lists(st.integers(0, 5000), min_size=len(t), max_size=len(t))),
                   dtype=np.int64)
    path = tmp_path_factory.mktemp("csv") / "columns.csv"
    header = ("t_s", "kind", "entity_id")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eventcsv, "_CHUNK_ROWS", chunk)
        write_event_columns(path, header, t, codes, LABELS, ids)
    rows = zip(t.tolist(), (LABELS[c] for c in codes), ids.tolist())
    assert path.read_bytes() == csv_module_bytes(header, rows)
