"""The public surface: exported names and command-line options."""

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import splitfp
from splitfp.cli import main

MODULES = ["splitfp"] + ["splitfp." + name for name in (
    "cli", "diagnostics", "operators", "presets", "problems", "projections",
    "rules", "solvers", "spaces")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_all_package_modules_are_listed():
    found = {"splitfp." + m.name for m in pkgutil.iter_modules(splitfp.__path__)}
    assert found == set(MODULES[1:])


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "splitfp"}
    sources = sorted(Path(splitfp.__file__).parent.glob("*.py"))
    assert len(sources) == len(MODULES)
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_run_has_no_seed_option_and_verify_keeps_it(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"problem": {"example": "bnm_t1"}}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path),
              "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    assert main(["verify", "wqT", "declared", "--samples", "10",
                 "--seed", "1"]) == 0
    assert "verdict=PASS" in capsys.readouterr().out
