"""Property test: the events CSV writer gives write_csv's bytes.

Derandomized, so Tier-1 stays deterministic. Skipped when Hypothesis is
not installed.
"""

import numpy as np
import pytest

from v2xsustain import csvio
from v2xsustain.csvio import write_csv, write_event_columns

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LABELS = ("arrival", "auth_pass", "key_update", "departure")

times = st.one_of(
    st.floats(min_value=1e-5, max_value=1e9),  # the vectorised range [1e-4, 1e8) and past it
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**31), 2**31).map(lambda k: k / 2**13),  # exact 9-digit ties among them
    st.builds(lambda m, e: float(f"{m}5e{e}"),  # the double nearest a 9-digit tie
              st.integers(10**8, 10**9 - 1), st.integers(-13, -2)),
    st.sampled_from([0.0, -0.0, 1e-4, 1e8, 9.9999999996, 99999999.95]),
)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(
    t=st.lists(times, max_size=40).map(lambda v: np.sort(np.array(v, dtype=np.float64))),
    chunk=st.integers(1, 8),
    data=st.data(),
)
def test_event_columns_match_write_csv(tmp_path_factory, t, chunk, data):
    codes = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(t), max_size=len(t))),
                     dtype=np.int8)
    ids = np.array(data.draw(st.lists(st.integers(0, 5000), min_size=len(t), max_size=len(t))),
                   dtype=np.int64)
    out = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_CHUNK_ROWS", chunk)
        write_event_columns(out / "columns.csv", ("t_s", "kind", "entity_id"), t, codes,
                            LABELS, ids)
    rows = zip(t.tolist(), (LABELS[c] for c in codes), ids.tolist())
    write_csv(out / "rows.csv", ("t_s", "kind", "entity_id"), list(rows))
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()
