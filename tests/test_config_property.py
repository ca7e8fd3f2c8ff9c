"""Property test of the config layer through the CLI.

Any config that sets 1-4 fields of config.FIELDS to edge values of their
kind ends `validate` and a default-grid `sweep` with exit 0, 1 or 2, and an
exit 2 prints exactly one line, starting with "error:", on stderr. Both
commands run in process; neither imports numpy. Derandomized, so Tier-1
stays deterministic. Skipped when Hypothesis is not installed.
"""

import contextlib
import io
import json

import pytest

from v2xsustain.cli import main
from v2xsustain.config import FIELDS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EDGES = {
    "float": [0.0, -0.0, 5e-324, 1e-16, 1e15, 1.7e308, -1.0, 2**63, 10**30],
    "int": [0, -1, 2**63 - 1, 2**63, 2**64, 10**30, 1.5],
    "prob": [1e-17, 0.5, 1.0 - 2.0**-53, 0.0, [0.5], [], [1e-17, 0.9]],
}


@st.composite
def edge_configs(draw) -> dict:
    chosen = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=4,
                           unique_by=lambda f: f.name))
    return {f.name: draw(st.sampled_from(EDGES[f.kind])) for f in chosen}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("edge_configs")


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(config=edge_configs())
def test_edge_configs_end_with_a_known_exit_code(workdir, config):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config))
    out = str(workdir / "sweep.csv")
    for argv in (["validate", str(cfg)], ["sweep", str(cfg), "--param", "beta", "--out", out]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), (argv[0], code)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv[0], lines)
