"""1-D runs on Python floats against the array stepping they replace.

A run whose blocks are all 1-D carries its state as Python floats (the
float lane); every other run, and every step called with arrays, steps on
arrays (the array lane).  The two must give the same traces and the same
failures, and each leaf (``A.apply``, ``norm``, ``T(v)``, ``project``,
``power_apply``) given a float the bits of its array form.
``helpers.array_lane`` runs a 1-D spec on arrays.
"""

import argparse
import json
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from splitfp import cli, operators, projections, solvers
from splitfp.cli import build_spec_from_config, main
from splitfp.operators import DomainEscape, FixedPointMap, operator_catalog, relax
from splitfp.presets import catalog, run_example
from splitfp.problems import IterationTrace, StoppingRule
from splitfp.projections import (Ball, Box, CutSet, Halfspace, InfeasibleIntersection,
                                 Intersection, WholeSpace, project)
from splitfp.solvers import NonFiniteState, SolverError, run
from splitfp.spaces import LinearMap, norm

from helpers import array_lane, power_apply_arrays

DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))


def bits(v):
    return struct.pack("<d", v)


def seeded_doubles(seed=2026):
    """20,016 doubles: every exponent, ordinary magnitudes, small integers
    and halves, subnormals, and the special values."""
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2**64, size=6500, dtype=np.uint64).view(np.float64)
    ordinary = rng.standard_normal(6500) * 10.0 ** rng.uniform(-12, 12, 6500)
    grid = rng.integers(-40, 41, size=4000) / 2.0
    subnormal = rng.integers(1, 2**52, size=3000, dtype=np.uint64).view(np.float64)
    subnormal[::2] *= -1.0
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-9, -1e-9,
                1.0, -1.0, 1.7976931348623157e308, -1.7976931348623157e308,
                np.inf, -np.inf, np.nan, 1e154, 1e200]
    return np.concatenate([patterns, ordinary, grid, subnormal, specials]).tolist()


DOUBLES = seeded_doubles()
assert len(DOUBLES) >= 20000


def outcome(f, *args):
    """A leaf's result as bits, or the type and text of its error."""
    try:
        with np.errstate(all="ignore"):
            out = f(*args)
    except (ZeroDivisionError, OverflowError, DomainEscape, ValueError) as err:
        return type(err), str(err)
    if isinstance(out, np.ndarray):
        assert out.shape == (1,) and out.dtype == np.float64
        (out,) = out.tolist()
    assert type(out) is float
    return bits(out)


# ---------------------------------------------------------------------------
# which runs take the float lane


def test_one_dimensional_runs_take_the_float_lane():
    floats = set()
    for ex_id, ex in catalog().items():
        x, y = (list(map(np.atleast_1d, ex.starts[0])) + [None])[:2]
        if solvers._steps_on_floats(ex.spec, x, y):
            floats.add(ex_id)
    # 3-D adaptive_demo steps on arrays
    assert floats == {"bnm_t1", "bnm_t2", "wq_t3", "wq_t4", "scfpp_smallS",
                      "synchronal_demo", "extragradient_1d"}
    spec = catalog()["scfpp_smallS"].spec
    assert not solvers._steps_on_floats(spec, np.ones(2), None)
    two = replace(spec, reference_solution=[1.25, 1.25])
    assert not solvers._steps_on_floats(two, np.ones(1), None)


def test_a_step_called_with_arrays_steps_on_arrays():
    spec = catalog()["bnm_t1"].spec
    state = solvers.StepResult(np.array([10.0]), np.array([15.0]))
    result = solvers.step_sffpep(spec, state, 0)
    for v in (result.x, result.y, *result.intermediates.values()):
        assert isinstance(v, np.ndarray) and v.shape == (1,)


# ---------------------------------------------------------------------------
# equal traces


def assert_same_trace(got, want):
    assert got.stop_reason == want.stop_reason
    assert len(got) == len(want)
    for a, b in zip(got.records, want.records):
        assert a.n == b.n
        for slot in ("x", "y", "u", "z", "w", "r"):
            va, vb = getattr(a, slot), getattr(b, slot)
            assert (va is None) == (vb is None), (a.n, slot)
            if va is not None:
                assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), (a.n, slot)
        for slot in ("step", "residual_primary", "residual_coupling",
                     "dist_to_target", "cut_count"):
            assert repr(getattr(a, slot)) == repr(getattr(b, slot)), (a.n, slot)


@pytest.mark.parametrize("ex_id, start", [
    (ex_id, k) for ex_id, ex in catalog().items() for k in range(len(ex.starts))])
def test_every_preset_start_gives_the_array_trace(ex_id, start):
    ex = catalog()[ex_id]
    with array_lane():
        want = ex.run(start)
    assert_same_trace(ex.run(start), want)


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_every_demo_config_gives_the_array_trace(path):
    no_overrides = argparse.Namespace(wq_branch=None, max_iters=None, tol=None)
    spec, start, rule, _ = cli._load_run_config(path, no_overrides)
    with array_lane():
        want = run(spec, start["x"], start.get("y"), rule=rule)
    assert_same_trace(run(spec, start["x"], start.get("y"), rule=rule), want)


# ---------------------------------------------------------------------------
# each leaf given a float has its array form's bits


def float_out(f, *args):
    """f(*args), which must be a float."""
    out = f(*args)
    assert type(out) is float
    return out


@pytest.mark.parametrize("entry", [0.0, -0.0, 1.0, -1.0, 4.0, 0.3, -2.5e-300])
def test_linear_map_leaves_match_the_matmul(entry):
    A = LinearMap([[entry]])
    for v in DOUBLES:
        x = np.array([v])
        assert outcome(float_out, A.apply, v) == outcome(A.apply, x), v
        assert outcome(float_out, A.apply_adjoint, v) == outcome(A.apply_adjoint, x), v
    # the product alone keeps a -0.0 that the matmul turns into +0.0
    if entry == 4.0:
        assert bits(entry * -0.0) != bits(A.apply(-0.0)) == bits(0.0)


def test_norm_leaf_matches_spaces_norm():
    for v in DOUBLES:
        assert outcome(float_out, norm, v) == outcome(norm, np.array([v])), v


def _maps():
    cat = operator_catalog()
    maps = [cat[name] for name in ("heDu", "bigU", "smallS", "wqT", "wqU", "identity",
                                   "browderPetryshyn")]
    return maps + [relax(cat["wqT"], 0.3), relax(cat["heDu"], 0.4)]


@pytest.mark.parametrize("T", _maps(), ids=repr)
def test_operator_call_leaf_matches_the_map(T):
    poles = 0
    for v in DOUBLES:
        want = outcome(T, np.array([v]))
        assert outcome(float_out, T, v) == want, v
        poles += want[0] is ZeroDivisionError
    if T.name in ("heDu", "bigU"):
        assert poles > 0        # the grid holds their pole -1


@pytest.mark.parametrize("T", _maps()[:3] + _maps()[-2:], ids=repr)
def test_power_leaf_matches_the_array_loop(T):
    # the power leaf is power_apply given a float; here with the domain check
    # on every other point, so each power is reached both checked and not
    escapes = 0
    for k, v in enumerate(DOUBLES):
        n, check = 1 + k % 5, k % 2 == 0
        want = outcome(power_apply_arrays, T, n, np.array([v]), check)
        assert outcome(float_out, operators.power_apply, T, n, v, check) == want, (
            v, n, check)
        escapes += want[0] is DomainEscape
    assert escapes > 0


@pytest.mark.parametrize("T", _maps() + [relax(operator_catalog()["browderPetryshyn"], 0.5),
                                  relax(operator_catalog()["identity"], 0.25)], ids=repr)
def test_power_apply_takes_and_gives_a_float(T):
    # a float gives a float, the entry of the power of np.array([v]) by the
    # array loop, also for an opaque map, which runs that array loop
    escapes = 0
    for k, v in enumerate(DOUBLES):
        n, check = 1 + k % 5, k % 3 == 0
        want = outcome(power_apply_arrays, T, n, np.array([v]), check)
        assert outcome(float_out, operators.power_apply, T, n, v, check) == want, (
            v, n, check)
        escapes += want[0] is DomainEscape
    assert escapes > 0


def test_float_powers_go_through_the_solvers_power_apply():
    # scfpp_smallS steps on floats; a wrapper installed on
    # solvers.power_apply sees each of its two powers per step
    calls = []

    def counted(*args):
        calls.append(args)
        return operators.power_apply(*args)

    with mock.patch.object(solvers, "power_apply", counted):
        trace = run_example("scfpp_smallS")
    assert len(trace.records) - 1 == 23
    assert len(calls) == 2 * 23


@pytest.mark.parametrize("S", [WholeSpace(1), Box([0.0], [np.inf]), Ball([0.5], 2.0)],
                         ids=repr)
def test_projection_leaf_matches_project(S):
    for v in DOUBLES:
        assert outcome(float_out, project, S, v) == outcome(project, S, np.array([v])), v


SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, 2.0, np.inf, -np.inf,
                   np.nan, -np.nan, 1.7976931348623157e308]
NEGATIVE_ZERO_RAY = Halfspace([-1.0], 0.0)   # x >= 0/-1 = -0.0
# 1-D bodies a float projection clips to an interval, with -0.0, infinite and
# NaN bounds (a NaN bound makes no set: all NaN); a box clips by its bound
# arrays, an intersection or a cut set by its interval's scalars
CLIPPED = [
    Box([0.0], [0.0]), Box([-0.0], [0.0]), Box([-0.0], [-0.0]), Box([0.0], [np.inf]),
    Box([-np.inf], [-0.0]), Box([-np.inf], [np.inf]), Box([1.0], [2.0]),
    Box([np.inf], [np.inf]), Box([np.nan], [1.0]), Box([-1.0], [np.nan]),
    Intersection([Box([-0.0], [1.0]), Halfspace([1.0], 0.0)]),
    Intersection([Box([0.0], [1.0]), NEGATIVE_ZERO_RAY]),
    Intersection([NEGATIVE_ZERO_RAY, Ball([0.5], 2.0)]),
    Intersection([Box([0.0], [1.0]), Box([2.0], [3.0])]),
    Intersection([Box([0.0], [1.0]), Halfspace([1.0], np.nan)]),
    CutSet(Box([0.0], [np.inf])), CutSet(WholeSpace(1)).add(NEGATIVE_ZERO_RAY),
    CutSet(Box([-0.0], [0.0])).add(Halfspace([1.0], 0.0), WholeSpace(1)),
    CutSet(Box([0.0], [1.0])).add(Halfspace([-1.0], -2.0)),
]


def projected(S, x):
    """project(S, x) as bits, or the type and text of its error."""
    try:
        return outcome(project, S, x)
    except InfeasibleIntersection as err:
        return type(err), str(err)


@pytest.mark.parametrize("S", CLIPPED, ids=repr)
def test_a_float_clips_as_the_array_projection_does(S):
    # bit for bit: a tie of -0.0 and 0.0, NaN points and bounds, infinities
    for v in SPECIAL_DOUBLES + DOUBLES[::10]:
        got, want = projected(S, v), projected(S, np.array([v]))
        assert got == want, (v, got, want)


def membership(S, x, tol):
    """contains(S, x, tol), which must be a bool, or the type and text of
    its error."""
    try:
        with np.errstate(all="ignore"):
            out = projections.contains(S, x, tol)
    except InfeasibleIntersection as err:
        return type(err), str(err)
    assert type(out) is bool
    return out


@pytest.mark.parametrize("S", CLIPPED, ids=repr)
def test_a_float_is_contained_as_its_array_is(S, monkeypatch):
    # a body that clips tests a float on floats, without an array of it
    want = {(v, tol): membership(S, np.array([v]), tol)
            for v in SPECIAL_DOUBLES for tol in (1e-9, 0.0, -1.0)}
    if S._defined:
        monkeypatch.setattr(projections, "_point_of", None)
    for (v, tol), answer in want.items():
        assert membership(S, v, tol) == answer, (v, tol)


def _leaf_calls(go):
    """go() with counting wrappers on ``solvers.norm``, ``solvers.project``
    and ``FixedPointMap.__call__``, and on ``projections.project``, which a
    leaf would reach again through its module name: the calls each saw, by
    the type of the point."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name, type(args[-1]).__name__] += 1
            return fn(*args)
        return wrapper

    with mock.patch.object(solvers, "norm", counting("norm", solvers.norm)), \
            mock.patch.object(solvers, "project", counting("project", solvers.project)), \
            mock.patch.object(projections, "project",
                              counting("project", projections.project)), \
            mock.patch.object(FixedPointMap, "__call__",
                              counting("call", FixedPointMap.__call__)):
        go()
    return calls


@pytest.mark.parametrize("ex_id", ["bnm_t1", "wq_t3", "scfpp_smallS", "synchronal_demo",
                                   "extragradient_1d"])
def test_a_wrapper_sees_each_leaf_call_of_a_float_run_once(ex_id):
    # a float run makes an array run's calls, the steps' with floats; a leaf
    # that reached itself again by name would add one
    got = _leaf_calls(lambda: run_example(ex_id))
    with array_lane():
        want = _leaf_calls(lambda: run_example(ex_id))
    assert {kind for _, kind in want} == {"ndarray"}

    def by_leaf(calls):
        total = Counter()
        for (name, _), n in calls.items():
            total[name] += n
        return total

    assert by_leaf(got) == by_leaf(want)
    assert got["norm", "float"] > 0 and got["call", "float"] > 0


# ---------------------------------------------------------------------------
# the same failures


SCFPP_BASE = {
    "family": "scfpp", "G": {"catalog": "smallS"}, "A": [[1.0]],
    "alpha": {"constant": 0.5}, "gamma": 0.5, "enforce_ranges": False,
}
SYNCHRONAL_BASE = {
    "family": "synchronal_vip",
    "f": {"num": [0.0, 0.5], "class": "contraction:0.5", "fixed_points": [0.0]},
    "G": {"num": [0.0, 1.0], "class": "strongly_monotone:1",
          "extra_classes": ["lipschitzian:1"], "fixed_points": [0.0]},
    "alpha": {"formula": "1/(n+2)"}, "beta": {"constant": 0.5},
    "mu": 1.0, "gamma_visc": 0.5, "enforce_ranges": False,
}

FAILURES = {
    # 1/(1-x) at its pole: the start maps to 1
    "pole": (dict(SCFPP_BASE, T={"num": [1.0], "den": [1.0, -1.0]}), 1.0, SolverError),
    # 3x^2 overflows to inf, and then inf - inf is NaN
    "overflow": (dict(SYNCHRONAL_BASE, T={"num": [0.0, 0.0, 3.0]}), 2.0, NonFiniteState),
    # x - 3 on the half-line: T^2 leaves the domain
    "escape": (dict(SCFPP_BASE, T={"num": [-3.0, 1.0],
                                   "domain": {"box": {"lower": [0], "upper": ["inf"]}}}),
               5.0, SolverError),
    # (2/3) x sin(1/x) shrinks the iterates until 1/x overflows
    "sine": (dict(SCFPP_BASE, T={"num": [0.0, 1.0]}, G={"catalog": "browderPetryshyn"}),
             1e-300, SolverError),
}


SFFPEP_BASE = json.loads((Path(__file__).parent.parent / "demos" / "configs"
                          / "sffpep_inline_rules.json").read_text())["problem"]
OVERFLOWS = {
    # 3x^2 in the viscosity step: its power overflows, and x becomes NaN
    "one block": (dict(SYNCHRONAL_BASE, T={"num": [0.0, 0.0, 3.0]}, reference=[0.0]),
                  [2.0], None),
    # T = -x: at every even n the step maps x to itself and the residual
    # |x - T^{n+1} x| = |2x| overflows, while x stays finite
    "residual only": (dict(SYNCHRONAL_BASE, T={"num": [0.0, -1.0]}, alpha={"constant": 0.5},
                           gamma_visc=4.0, reference=[0.0]), [4e307], None),
    # U = 3x^2 on the x block: x overflows while y is still finite
    "two blocks": (dict(SFFPEP_BASE, U={"num": [0.0, 0.0, 3.0]}, lam={"constant": 0.1},
                        reference=[[5.0], [1.25]]), [10.0], [15.0]),
}


def _overflow(problem, x0, y0):
    spec = build_spec_from_config(problem)
    with pytest.raises(NonFiniteState) as exc:
        run(spec, x0, y0, rule=StoppingRule(max_iters=50))
    return exc.value


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_a_float_run_fails_as_an_array_run_does(case):
    # the float finiteness test hands the failing state to the array check,
    # which names the iteration and keeps the last finite record
    problem, x0, y0 = OVERFLOWS[case]
    got = _overflow(problem, x0, y0)
    with array_lane():
        want = _overflow(problem, x0, y0)
    assert str(got) == str(want) and got.iteration == want.iteration > 0
    assert "non-finite state" in str(got) and "inf" in str(got)
    if case == "residual only":
        assert "x=[8.999999999999999e+307], residual=inf;" in str(got)
    assert_same_trace(IterationTrace(got.last_finite.n, [got.last_finite]),
                      IterationTrace(want.last_finite.n, [want.last_finite]))
    assert got.last_finite.dist_to_target is not None


def _failure(problem, x0):
    spec = build_spec_from_config(problem)
    with pytest.raises(SolverError) as exc:
        run(spec, [x0], rule=StoppingRule(max_iters=50))
    return exc.value


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failures_are_the_same_in_both_lanes(case, tmp_path, capsys):
    problem, x0, kind = FAILURES[case]
    got = _failure(problem, x0)
    with array_lane():
        want = _failure(problem, x0)
    assert type(got) is type(want) is kind
    assert str(got) == str(want) and got.iteration == want.iteration
    assert type(got.__cause__) is type(want.__cause__)
    if case == "escape":
        assert isinstance(got.__cause__, DomainEscape)
    if case == "sine":
        assert isinstance(got.__cause__, OverflowError) and got.iteration > 0
    if kind is NonFiniteState:
        a, b = got.last_finite, want.last_finite
        assert a.n == b.n and a.x.tobytes() == b.x.tobytes()
        assert repr(a.residual_primary) == repr(b.residual_primary)

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"problem": problem, "start": {"x": [x0]},
                               "stopping": {"max_iters": 50}}))
    argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path)]
    code = main(argv)
    err = capsys.readouterr().err
    with array_lane():
        assert main(argv) == code == 3
    assert capsys.readouterr().err == err == "numerical breakdown: %s\n" % got
