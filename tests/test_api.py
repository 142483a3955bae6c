"""The public surface: exported names and command-line options."""

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import splitfp
from splitfp.cli import main
from splitfp.diagnostics import PrecisionOracleConfig
from splitfp.operators import (ClassMismatch, FixedPointMap, Lipschitzian,
                               QuasiNonexpansive, SequenceSpec, StronglyMonotone,
                               convex_combine, map_from_rule, shift_square_ball_map,
                               verify_class)
from splitfp.projections import (Ball, Box, Intersection, WholeSpace,
                                 halfspace_from_distance_dominance)
from splitfp.rules import Rational1D
from splitfp.spaces import DimensionMismatch, LinearMap, point

MODULES = ["splitfp"] + ["splitfp." + name for name in (
    "cli", "config", "diagnostics", "operators", "presets", "problems", "projections",
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


_LINE = map_from_rule(Rational1D([2.0, 1.0], [3.0]), WholeSpace(1),
                      declared_class=QuasiNonexpansive(), known_fixed_points=([1.0],))


# (call, the type it raises, its message)
ARGUMENT_CHECKS = [
    (lambda: SequenceSpec("constant"), ValueError, "constant sequence needs a value"),
    (lambda: SequenceSpec("table", values=[1.0]), ValueError,
     "table sequence needs values and a tail"),
    (lambda: SequenceSpec("geometric"), ValueError, "unknown sequence kind 'geometric'"),
    (lambda: Lipschitzian(0), ValueError, "Lipschitz constant must be positive"),
    (lambda: StronglyMonotone(0), ValueError,
     "strong-monotonicity modulus must be positive"),
    (lambda: FixedPointMap(lambda x: (x + 2.0) / 3.0, WholeSpace(1),
                           known_fixed_points=([4.0],)), ValueError,
     "claimed fixed point [4.0] moves by 2.000e+00 under the map"),
    (lambda: convex_combine([_LINE, _LINE], [1.0]), ValueError,
     "weights and maps differ in length"),
    (lambda: convex_combine([_LINE, shift_square_ball_map(3)], [0.5, 0.5]), ValueError,
     "maps live in different dimensions"),
    (lambda: verify_class(_LINE, QuasiNonexpansive(), samples=0), ValueError,
     "samples must be >= 1"),
    (lambda: verify_class(_LINE, "quasi_nonexpansive"), ClassMismatch,
     "unsupported operator class 'quasi_nonexpansive'"),
    (lambda: shift_square_ball_map(2), ValueError, "needs dimension >= 3"),
    (lambda: Box([0.0, 0.0], [1.0]), DimensionMismatch, "box bounds differ in dimension"),
    (lambda: Box([1.0], [0.0]), ValueError, "box lower bound exceeds upper bound"),
    (lambda: Ball([0.0], -1.0), ValueError, "radius must be nonnegative"),
    (lambda: Intersection([]), ValueError,
     "intersection of an empty family is not represented"),
    (lambda: Intersection([WholeSpace(1), WholeSpace(2)]), DimensionMismatch,
     "intersection members differ in dimension"),
    (lambda: halfspace_from_distance_dominance([0.0], [1.0, 2.0]), DimensionMismatch,
     "near/far dimension mismatch"),
    (lambda: Rational1D([]), ValueError, "coefficient lists must be nonempty"),
    (lambda: point([[1.0, 2.0]]), ValueError,
     "a point must be one-dimensional, got shape (1, 2)"),
    (lambda: LinearMap(np.zeros((1, 1, 1))), ValueError, "matrix must be two-dimensional"),
    (lambda: LinearMap([[np.inf]]), ValueError, "matrix entries must be finite"),
    (lambda: LinearMap([[1.0, 2.0]]).apply_adjoint([1.0, 2.0]), DimensionMismatch,
     "adjoint expects dimension 1, got 2"),
    (lambda: PrecisionOracleConfig(max_n=0), ValueError, "max_n must be >= 1"),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS,
                         ids=[message for _, _, message in ARGUMENT_CHECKS])
def test_every_argument_check_names_its_error(call, error, message):
    with pytest.raises(Exception) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
