"""Distance monitors, fixed-point scans, and the decimal re-execution oracle."""

import json
import math
from dataclasses import replace
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from splitfp.diagnostics import (
    FejerOverflow,
    OracleUnsupported,
    PrecisionOracleConfig,
    fejer_check,
    find_fixed_points_1d,
    reexecute_high_precision,
)
from splitfp.config import build_spec_from_config
from splitfp.operators import (FixedPointMap, SequenceSpec, map_from_rule, operator_catalog,
                               relax)
from splitfp.presets import get_example, run_example
from splitfp.problems import IterationTrace, SFFPEP, ProblemSpec, StoppingRule, TraceRecord
from splitfp.projections import Ball, WholeSpace
from splitfp.rules import Rational1D
from splitfp.solvers import run
from splitfp.spaces import LinearMap


# ---------------------------------------------------------------------------
# fejer_check


def _constant_trace(value, count=5):
    records = [TraceRecord(n=i, x=np.array([value])) for i in range(count)]
    return IterationTrace(family="scfpp", records=records)


def test_fejer_constant_trace():
    rep = fejer_check(_constant_trace(3.0), [3.0])
    assert rep.monotone and rep.max_uptick == 0.0 and rep.first_violation is None


def test_fejer_on_reference_run():
    tr = run_example("bnm_t1")
    rep = fejer_check(tr, ([5.0], [1.25]), slack=1e-10)
    assert rep.monotone


def test_fejer_reversed_trace_flags_first_step():
    tr = run_example("bnm_t1")
    reversed_trace = IterationTrace(
        family=tr.family, records=list(reversed(tr.records))
    )
    rep = fejer_check(reversed_trace, ([5.0], [1.25]), slack=1e-10)
    assert not rep.monotone
    assert rep.first_violation[0] == 0
    assert rep.max_uptick > 0


def test_fejer_needs_two_records():
    with pytest.raises(ValueError):
        fejer_check(_constant_trace(1.0, count=1), [1.0])


@pytest.mark.parametrize("states, target, n", [
    # ||x_1 - x*||^2 is beyond the largest double
    ([(1.0, 1.0), (1e160, 1.0), (1.0, 1.0)], ([0.0], [0.0]), 1),
    # each square is finite, their sum is not
    ([(1.0, 1.0), (1.0, 1.0), (1e154, 1e154)], ([0.0], [0.0]), 2),
    # one variable: x_0 - x* overflows
    ([(1.7e308, None), (1.0, None)], [-1.7e308], 0),
], ids=["square", "sum", "one_variable"])
def test_fejer_refuses_where_a_distance_overflows(states, target, n):
    records = [TraceRecord(n=i, x=np.array([x]), y=None if y is None else np.array([y]))
               for i, (x, y) in enumerate(states)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no overflow warning escapes
        with pytest.raises(FejerOverflow) as exc:
            fejer_check(IterationTrace(family="sffpep", records=records), target)
    assert exc.value.n == n and str(exc.value).endswith("at n=%d" % n)


# ---------------------------------------------------------------------------
# find_fixed_points_1d


def test_fixed_point_scan_catalog_agreement():
    cat = operator_catalog()
    for name, interval, expected in (
        ("heDu", (0.0, 10.0), [2.0]),
        ("bigU", (0.0, 10.0), [5.0]),
        ("smallS", (0.0, 10.0), [1.25]),
        ("wqT", (0.0, 10.0), [1.0]),
        ("wqU", (0.0, 10.0), [0.0]),
    ):
        scan = find_fixed_points_1d(cat[name], interval, grid=4001)
        assert len(scan.roots) == len(expected)
        for root, want in zip(scan.roots, expected):
            assert abs(root - want) <= 1e-10
        for p in cat[name].known_fixed_points:
            assert scan.covers(p[0], tol=1e-10)


def test_fixed_point_scan_identity_flat_region():
    ident = operator_catalog()["identity"]
    scan = find_fixed_points_1d(ident, (-1.0, 1.0), grid=101)
    assert scan.roots == []
    assert len(scan.flat_regions) == 1
    lo, hi = scan.flat_regions[0]
    assert lo == -1.0 and hi == 1.0
    assert scan.covers(0.37)


def test_fixed_point_scan_bisects_a_root_between_grid_points():
    # x -> 2/x fixes sqrt(2), which no grid point of [0.5, 3] hits
    T = map_from_rule(Rational1D([2.0], [0.0, 1.0]), WholeSpace(1))
    for grid in (4, 101):
        scan = find_fixed_points_1d(T, (0.5, 3.0), grid=grid)
        assert scan.flat_regions == []
        assert len(scan.roots) == 1 and abs(scan.roots[0] - math.sqrt(2.0)) <= 1e-11
    # (x + 2)/3 on the grid {0, 2}: the first midpoint is the fixed point 1
    scan = find_fixed_points_1d(operator_catalog()["wqT"], (0.0, 2.0), grid=2)
    assert scan.roots == [1.0]


def test_fixed_point_scan_validation():
    ident = operator_catalog()["identity"]
    with pytest.raises(ValueError):
        find_fixed_points_1d(ident, (0.0, 1.0), grid=1)
    with pytest.raises(ValueError):
        find_fixed_points_1d(ident, (1.0, 1.0), grid=10)


# ---------------------------------------------------------------------------
# the decimal oracle


def test_oracle_config_floor():
    with pytest.raises(ValueError):
        PrecisionOracleConfig(digits=10)
    assert PrecisionOracleConfig(digits=25).digits == 25


def _printed_last_place(text):
    """One unit in the last printed place of a decimal literal."""
    digits_after_point = len(text.split(".")[1])
    return Decimal(10) ** -digits_after_point


def test_oracle_matches_reference_rows_to_all_printed_digits():
    # the reference rows were produced at 10 significant digits of working
    # precision (re-executing at that precision reproduces them verbatim),
    # so the printed digits are trustworthy to one unit in the last place
    ex = get_example("bnm_t1")
    hp = reexecute_high_precision(
        ex.spec, [10.0], [15.0], PrecisionOracleConfig(digits=30, max_n=3)
    )
    printed = {
        1: ("9.898293685", "12.74500000"),
        2: ("9.797736851", "10.85982000"),
        3: ("9.698337655", "9.283809520"),
    }
    for n, (px, py) in printed.items():
        rec = hp.records[n]
        assert abs(rec.x[0] - Decimal(px)) <= _printed_last_place(px)
        assert abs(rec.y[0] - Decimal(py)) <= _printed_last_place(py)


def test_oracle_self_consistency_25_vs_40_digits():
    ex = get_example("bnm_t1")
    lo = reexecute_high_precision(ex.spec, [10.0], [15.0],
                                  PrecisionOracleConfig(digits=25, max_n=50))
    hi = reexecute_high_precision(ex.spec, [10.0], [15.0],
                                  PrecisionOracleConfig(digits=40, max_n=50))
    for r25, r40 in zip(lo.records, hi.records):
        for a, b in ((r25.x[0], r40.x[0]), (r25.y[0], r40.y[0])):
            assert abs(a - b) <= Decimal("1e-20") * (1 + abs(b))


@pytest.mark.parametrize("ex_id", ["bnm_t1", "bnm_t2", "wq_t3", "wq_t4"])
def test_oracle_certifies_float64_traces(ex_id):
    ex = get_example(ex_id)
    start = ex.starts[0]
    trace = run(ex.spec, start[0], start[1], rule=StoppingRule(max_iters=100))
    hp = reexecute_high_precision(ex.spec, start[0], start[1],
                                  PrecisionOracleConfig(digits=25, max_n=100))
    for rec, hp_rec in zip(trace.records, hp.records):
        for got, want in ((rec.x[0], hp_rec.x[0]), (rec.y[0], hp_rec.y[0])):
            err = abs(Decimal(got) - want)
            assert err <= Decimal("1e-9") * (1 + abs(want)), (ex_id, rec.n)


def test_oracle_constant_trace_for_identity_blocks():
    ops = operator_catalog()
    spec = ProblemSpec(
        family=SFFPEP, U=ops["identity"], T=ops["identity"],
        A=LinearMap([[1.0]]), B=LinearMap([[1.0]]),
        C=WholeSpace(1), Q=WholeSpace(1),
        alpha=SequenceSpec.const(0.3), beta=SequenceSpec.const(0.4),
        lam=SequenceSpec.const(0.5),
    )
    hp = reexecute_high_precision(spec, [3.0], [3.0],
                                  PrecisionOracleConfig(digits=25, max_n=20))
    assert all(rec.x[0] == Decimal(3) and rec.y[0] == Decimal(3)
               for rec in hp.records)


def test_oracle_supports_one_variable_families():
    tr = run_example("scfpp_smallS", rule=StoppingRule(max_iters=30))
    hp = reexecute_high_precision(get_example("scfpp_smallS").spec, [10.0],
                                  config=PrecisionOracleConfig(digits=30, max_n=30))
    for rec, hp_rec in zip(tr.records, hp.records):
        assert abs(Decimal(rec.x[0]) - hp_rec.x[0]) <= Decimal("1e-12")

    tr = run_example("synchronal_demo", rule=StoppingRule(max_iters=30))
    hp = reexecute_high_precision(get_example("synchronal_demo").spec, [4.0],
                                  config=PrecisionOracleConfig(digits=30, max_n=30))
    for rec, hp_rec in zip(tr.records, hp.records):
        assert abs(Decimal(rec.x[0]) - hp_rec.x[0]) <= Decimal("1e-12")



def test_oracle_re_executes_a_relaxed_rule_map():
    ops = operator_catalog()
    spec = replace(get_example("bnm_t1").spec, U=relax(ops["bigU"], 0.3),
                   lam=SequenceSpec.const(0.05))
    trace = run(spec, [10.0], [15.0], rule=StoppingRule(max_iters=100))
    hp = reexecute_high_precision(spec, [10.0], [15.0],
                                  PrecisionOracleConfig(digits=30, max_n=100))
    assert len(hp.records) == len(trace.records) == 101
    for rec, hp_rec in zip(trace.records, hp.records):
        for got, want in ((rec.x[0], hp_rec.x[0]), (rec.y[0], hp_rec.y[0])):
            assert abs(Decimal(got) - want) <= Decimal("1e-9") * (1 + abs(want))


def _assert_oracle_certifies(spec, x0, y0=None, max_iters=100):
    """Every record of the float64 trace within 1e-9 relative of the oracle's."""
    trace = run(spec, x0, y0, rule=StoppingRule(max_iters=max_iters))
    hp = reexecute_high_precision(spec, x0, y0, PrecisionOracleConfig(
        digits=30, max_n=len(trace.records) - 1))
    assert len(hp.records) == len(trace.records) == max_iters + 1
    for rec, hp_rec in zip(trace.records, hp.records):
        pairs = [(rec.x[0], hp_rec.x[0])]
        if rec.y is not None:
            pairs.append((rec.y[0], hp_rec.y[0]))
        for got, want in pairs:
            assert abs(Decimal(got) - want) <= Decimal("1e-9") * (1 + abs(want)), rec.n


def test_oracle_certifies_an_inline_adaptive_config():
    # U and T are (x + 2)/3, declared nonexpansive and a contraction, so
    # both 0-demicontractive; TAx - Ax shrinks to the zero gate near x = 1
    third = {"num": [2.0, 1.0], "den": [3.0], "fixed_points": [1.0]}
    spec = build_spec_from_config({
        "family": "scfpp_adaptive", "A": [[1.0]], "alpha": {"constant": 0.3},
        "U": dict(third, **{"class": "nonexpansive"}),
        "T": dict(third, **{"class": "contraction:0.5"})})
    _assert_oracle_certifies(spec, [7.0])


SFFPEP_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "configs" / "sffpep_inline_rules.json"


@pytest.mark.parametrize("C, Q", [
    # x <= 8, and y <= 10/3 (a halfspace whose bound b/a is not a double)
    ({"box": {"lower": [0.0], "upper": [8.0]}}, {"halfspace": {"a": [3.0], "b": 10.0}}),
    # 0 <= x <= 8 and y >= 7/3, each as the intersection of two members
    ({"intersection": [{"box": {"lower": [0.0], "upper": [None]}},
                       {"halfspace": {"a": [1.0], "b": 8.0}},
                       {"halfspace": {"a": [0.0], "b": 1.0}}]},   # the whole line
     {"intersection": [{"halfspace": {"a": [-3.0], "b": -7.0}}, {"whole_space": 1}]}),
], ids=["box-halfspace", "intersections"])
def test_oracle_certifies_projected_equality_runs(C, Q):
    problem = json.loads(SFFPEP_CONFIG.read_text())["problem"]
    spec = build_spec_from_config(dict(problem, C=C, Q=Q, lam={"constant": 0.05}))
    _assert_oracle_certifies(spec, [10.0], [15.0])
    with pytest.raises(OracleUnsupported, match="is not an interval"):
        reexecute_high_precision(replace(spec, C=Ball([0.0], 8.0)), [10.0], [15.0])


def test_oracle_reads_y0_exactly_for_a_two_block_family():
    with pytest.raises(OracleUnsupported, match="one-block family takes no y0"):
        reexecute_high_precision(get_example("scfpp_smallS").spec, [10.0], [3.0])
    with pytest.raises(OracleUnsupported, match="two-block family needs y0"):
        reexecute_high_precision(get_example("bnm_t1").spec, [10.0])


def test_oracle_rejects_unsupported_problems():
    with pytest.raises(OracleUnsupported):
        reexecute_high_precision(get_example("extragradient_1d").spec, [10.0])
    with pytest.raises(OracleUnsupported):
        # matrix coupling and rule-free operators are outside the fragment
        reexecute_high_precision(get_example("adaptive_demo").spec,
                                 [1.0, 1.0, 1.0])
    spec = get_example("scfpp_smallS").spec
    with pytest.raises(OracleUnsupported,
                       match="^the oracle re-executes one-dimensional runs only$"):
        reexecute_high_precision(spec, [10.0, 1.0])
    bare = FixedPointMap(lambda x: (x + 5.0) / 5.0, WholeSpace(1), name="bare")
    with pytest.raises(OracleUnsupported,
                       match="^T carries no portable scalar rule; cannot re-execute$"):
        reexecute_high_precision(replace(spec, T=bare), [10.0])
