"""The public surface: exported names and command-line options."""

import importlib
import json
import pkgutil

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
