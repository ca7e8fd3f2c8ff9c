"""Package-level tests: `v2xsustain` resolves its public names lazily from
one name -> submodule map, and the README's code and references hold.
"""

import ast
import importlib
import re
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
    section = readme.split("## Module map", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    library_only = 0
    for module, contents in rows:
        if "library only:" not in contents:
            continue
        source = importlib.import_module(f"v2xsustain.{module}")
        tail = contents.split("library only:", 1)[1]
        for name in re.findall(r"`([^`]+)`", tail):
            if not name.startswith("tests/"):
                assert hasattr(source, name), f"{module}.{name}"
                library_only += 1
    assert library_only >= 10
