"""Package-level tests: `v2xsustain` resolves its public names lazily from
one name -> submodule map, the README's code and references hold, and the
test configuration reports a failing property test by name.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import v2xsustain

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_the_export_map():
    assert sorted(v2xsustain.__all__) == sorted(v2xsustain._EXPORTS)
    assert set(dir(v2xsustain)) >= set(v2xsustain._EXPORTS)


def test_every_export_is_its_submodule_object():
    for name, module in v2xsustain._EXPORTS.items():
        source = importlib.import_module(f"v2xsustain.{module}")
        assert getattr(v2xsustain, name) is getattr(source, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        v2xsustain.no_such_name  # noqa: B018
    # submodules are not exports, so the import system loads them
    with pytest.raises(AttributeError):
        v2xsustain.__getattr__("sim")
    from v2xsustain import cli

    assert cli.__name__ == "v2xsustain.cli"


def test_scenario_is_one_class_for_config_and_sim():
    from v2xsustain import config, sim

    assert sim.Scenario is config.Scenario is v2xsustain.Scenario


def test_readme_quick_start_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


def _library_only_names(readme: str) -> dict[str, list[str]]:
    """Module -> the names its module-map row lists after "library only:"."""
    section = readme.split("## Module map", 1)[1]
    listed = {}
    for module, contents in re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M):
        if "library only:" in contents:
            tail = contents.split("library only:", 1)[1]
            listed[module] = [n for n in re.findall(r"`([^`]+)`", tail)
                              if not n.startswith("tests/")]
    return listed


def test_readme_references_exist():
    # every test the README cites is defined in its file, and every name
    # after "library only:" in the module map is an attribute of that
    # row's module
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = re.findall(r"`tests/(\w+\.py)::(\w+)`", readme)
    assert cited
    for path, name in cited:
        tree = ast.parse((ROOT / "tests" / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, f"tests/{path}::{name}"
    library_only = 0
    for module, names in _library_only_names(readme).items():
        source = importlib.import_module(f"v2xsustain.{module}")
        for name in names:
            assert hasattr(source, name), f"{module}.{name}"
            library_only += 1
    assert library_only == 5


def test_every_export_is_reached():
    # an exported name is reached when package code other than the export
    # map uses it, when an acceptance criterion names it, or when the
    # module map records it as library only
    used = set()
    for path in (ROOT / "src" / "v2xsustain").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    criteria = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library_only = _library_only_names(readme)
    unreached = [
        name for name, module in sorted(v2xsustain._EXPORTS.items())
        if name not in used
        and not re.search(rf"\b{name}\b", criteria)
        and name not in library_only.get(module, ())
    ]
    assert unreached == []


def _settable_values(obj) -> int:
    """Fields of a dataclass, parameters of another callable, else 0."""
    if dataclasses.is_dataclass(obj):
        return len(dataclasses.fields(obj))
    if callable(obj):
        try:
            return len(inspect.signature(obj).parameters)
        except ValueError:  # an exception class with the builtin constructor
            return 0
    return 0


def test_settable_values_do_not_grow():
    # A new setting raises these pins, with its reason recorded in CHANGES.md.
    from v2xsustain.config import FIELDS

    counts = {name: _settable_values(getattr(v2xsustain, name)) for name in v2xsustain.__all__}
    listing = ", ".join(f"{name}={n}" for name, n in counts.items())
    assert sum(counts.values()) <= 163, listing
    assert len(counts) <= 71, sorted(counts)
    assert len(FIELDS) <= 30


FAILING_PROPERTY = """
from hypothesis import Phase, given, settings, strategies as st


@settings(phases=[Phase.generate], derandomize=True, max_examples=5, database=None)
@given(st.integers(0, 10))
def test_deliberately_fails(x):
    assert x < 0
"""


def test_a_failing_property_test_is_reported_by_name(tmp_path):
    # under the project's filterwarnings, Hypothesis's report hook must not
    # turn a failed example into an INTERNALERROR that names no test. The
    # child loads that one plugin and no other, to start in about 1 s.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p",
         "_hypothesis_pytestplugin", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert re.search(r"^FAILED test_fails\.py::test_deliberately_fails\b", proc.stdout, re.M)
