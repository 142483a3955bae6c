"""The columnar trace: the columns a run builds, and the records view over them.

A run turns each full block of states into one float64 column per field
as the block fills, and joins the blocks' columns when it stops, with the
bits of one build over every state.  ``trace.records`` builds a
``TraceRecord`` only when one is read, a block of fields at a time, and a
trace built from records holds the columns the run built.
"""

import contextlib
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from splitfp import cli, problems
from splitfp.cli import (build_spec_from_config, parse_trace_csv, write_trace_csv,
                         write_trace_json)
from splitfp.diagnostics import fejer_check
from splitfp.operators import FixedPointMap, Nonexpansive, SequenceSpec
from splitfp.presets import catalog, run_example
from splitfp.problems import IterationTrace, ProblemSpec, StoppingRule, TraceRecord
from splitfp.solvers import NonFiniteState, run
from splitfp.projections import WholeSpace
from splitfp.spaces import LinearMap, norm, row_norms

from helpers import array_lane

LANES = ("floats", "arrays")


def _lane(lane):
    return array_lane() if lane == "arrays" else contextlib.nullcontext()


def _run(ex_id, lane):
    with _lane(lane):
        return run_example(ex_id)


def _rebuilt(trace):
    return IterationTrace(trace.family, records=list(trace.records),
                          stop_reason=trace.stop_reason,
                          intermediates=trace.intermediates)


def assert_same_columns(got, want):
    assert got.columns.keys() == want.columns.keys()
    for name, col in want.columns.items():
        assert got.columns[name].dtype == col.dtype == np.float64, name
        assert got.columns[name].shape == col.shape, name
        assert got.columns[name].tobytes() == col.tobytes(), name
    assert got.absent.keys() == want.absent.keys()
    for name, mask in want.absent.items():
        assert np.array_equal(got.absent[name], mask), name


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("ex_id", sorted(catalog()))
def test_a_trace_built_from_its_records_has_its_columns(ex_id, lane, tmp_path):
    trace = _run(ex_id, lane)
    again = _rebuilt(trace)
    assert_same_columns(again, trace)
    write_trace_csv(trace, tmp_path / "run.csv")
    write_trace_csv(again, tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()


def test_a_parsed_csv_has_the_columns_of_the_run(tmp_path):
    trace = run_example("extragradient_1d")
    write_trace_csv(trace, tmp_path / "trace.csv")
    parsed = parse_trace_csv(tmp_path / "trace.csv")
    assert parsed.family == "parsed"
    assert_same_columns(parsed, trace)


def test_a_header_only_csv_parses_to_an_empty_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("n,x_0,step,residual_primary\n")
    parsed = parse_trace_csv(path)
    assert len(parsed) == 0 and list(parsed.records) == []
    assert list(parsed.columns) == ["n"]


def _json_dumps_text(trace):
    """The trace document as ``json.dumps(..., indent=2)`` writes it."""
    doc = {"family": trace.family, "stop_reason": trace.stop_reason,
           "columns": cli._trace_columns(trace),
           "records": [[cell or None for cell in cells] for cells in cli._trace_cells(trace)]}
    return json.dumps(doc, indent=2) + "\n"


def test_the_json_writer_writes_the_text_of_json_dumps(tmp_path):
    csv = tmp_path / "trace.csv"
    csv.write_text("n,x_0\n")
    records = [TraceRecord(0, np.array([1.0, -0.0]), residual_primary=math.nan),
               TraceRecord(1, np.array([math.inf, 1e-310]), step=0.5, cut_count=4)]
    traces = [run_example("bnm_t1"), run_example("extragradient_1d"),
              run_example("scfpp_smallS"), parse_trace_csv(csv),
              IterationTrace("t", records, stop_reason=None)]
    for trace in traces:
        write_trace_json(trace, tmp_path / "trace.json")
        assert (tmp_path / "trace.json").read_text() == _json_dumps_text(trace)
    assert _json_dumps_text(traces[3]).count("[]") == 1   # an empty trace's records


# ---------------------------------------------------------------------------
# records are built when they are read


class _Counting:
    def __init__(self):
        self.built = 0

    def __call__(self, *args, **kwargs):
        self.built += 1
        return TraceRecord(*args, **kwargs)


@pytest.fixture
def counting():
    counter = _Counting()
    with mock.patch.object(problems, "TraceRecord", counter):
        yield counter


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("ex_id", ["wq_t3", "synchronal_demo", "adaptive_demo",
                                   "extragradient_1d"])
def test_a_completed_run_builds_no_record(ex_id, lane, counting):
    trace = _run(ex_id, lane)
    assert counting.built == 0
    trace.final
    assert counting.built == 1
    trace.records[3], trace.records[-2]
    assert counting.built == 3
    assert len(trace.records[5:9]) == 4 and counting.built == 7
    assert len(trace.records) == len(trace) and counting.built == 7
    assert sum(1 for _ in trace.records) == len(trace)
    assert counting.built == 7 + len(trace)


def test_the_writers_and_the_fejer_check_build_no_record(counting, tmp_path):
    trace = run_example("wq_t3")
    write_trace_csv(trace, tmp_path / "trace.csv")
    parse_trace_csv(tmp_path / "trace.csv")
    assert fejer_check(trace, ([1.0], [1.0])).monotone
    assert counting.built == 0


def test_records_index_as_a_list_does():
    trace = run_example("bnm_t2")
    assert len(trace) == 101
    assert [rec.n for rec in trace.records[-3:]] == [98, 99, 100]
    assert [rec.n for rec in trace.records[10:1:-4]] == [10, 6, 2]
    assert trace.records[-101].n == 0
    for i in (101, -102):
        with pytest.raises(IndexError):
            trace.records[i]


# ---------------------------------------------------------------------------
# the fields of a record


def test_a_record_has_the_field_types_of_a_run_record():
    trace = run_example("extragradient_1d")
    first, second = trace.records[0], trace.records[1]
    assert type(first.n) is int and type(first.cut_count) is int
    assert first.cut_count == 0 and second.cut_count == 3
    for name in ("residual_primary", "dist_to_target"):
        assert type(getattr(first, name)) is float
    assert type(second.step) is float
    for vec in (second.x, second.u, second.z, second.w, second.r):
        assert vec.dtype == np.float64 and vec.shape == (1,)
        assert not vec.flags.writeable
    with pytest.raises(ValueError):
        second.x[0] = 0.0


def test_a_field_no_record_of_a_run_holds_is_none():
    # record 0 has no step and no intermediates; a one-block run no y, a run
    # without a reference no distance, a family without cuts no cut count
    spec = catalog()["scfpp_smallS"].spec
    trace = run(spec, [10.0], rule=StoppingRule(max_iters=3))
    no_reference = run(replace(spec, reference_solution=None), [10.0],
                       rule=StoppingRule(max_iters=3))
    for tr in (trace, no_reference):
        first, last = tr.records[0], tr.final
        assert first.step is None and first.u is None and first.residual_coupling is None
        assert last.step is not None and last.u is not None
        assert first.y is None and last.y is None and last.cut_count is None
        assert {"y", "z", "w", "r", "cut_count"}.isdisjoint(tr.columns)
        assert set(tr.absent) == {"step", "u", "residual_coupling"}
    assert trace.final.dist_to_target is not None
    assert "dist_to_target" not in no_reference.columns
    assert all(rec.dist_to_target is None for rec in no_reference.records)


def test_an_absent_value_is_none_and_a_nan_value_is_nan():
    # a column holds NaN where a record lacks the field, and a record may
    # hold a NaN of its own: only the mask tells them apart
    records = [TraceRecord(0, np.array([1.0]), residual_primary=math.nan),
               TraceRecord(1, np.array([np.nan]), u=np.array([np.nan, 2.0]), step=math.nan,
                           residual_primary=0.5, cut_count=4),
               TraceRecord(2, np.array([3.0]), u=np.array([1.0, 2.0]), step=None)]
    trace = IterationTrace("t", records, intermediates=("u",))
    assert {name: mask.tolist() for name, mask in trace.absent.items()} == {
        "u": [True, False, False], "step": [True, False, True],
        "residual_primary": [False, False, True], "cut_count": [True, False, True]}
    got = list(trace.records)
    assert got[0].step is None and math.isnan(got[1].step) and got[2].step is None
    assert math.isnan(got[0].residual_primary)
    assert got[0].u is None and got[1].u.tolist()[1] == 2.0 and math.isnan(got[1].u[0])
    assert math.isnan(got[1].x[0])
    assert [rec.cut_count for rec in got] == [None, 4, None]
    assert trace.columns["u"].shape == (3, 2)


# ---------------------------------------------------------------------------
# a state that is not finite


# synchronal_demo with T = 3x^2, which overflows beyond about 1e154
SQUARING = dict(catalog()["synchronal_demo"].problem, T={"num": [0.0, 0.0, 3.0]},
                reference=[0.0])


@pytest.mark.parametrize("lane", LANES)
def test_a_start_that_is_not_finite_builds_its_one_record(lane, counting):
    # T(x) at x = 1e200 is inf, so the start's residual is
    spec = build_spec_from_config(SQUARING)
    with _lane(lane):
        with pytest.raises(NonFiniteState) as info:
            run(spec, [1e200], rule=StoppingRule(max_iters=5))
    assert str(info.value) == ("iteration 0: non-finite state x=[1e+200], residual=inf; "
                               "the start")
    assert info.value.iteration == 0 and info.value.last_finite is None
    assert counting.built == 1


@pytest.mark.parametrize("lane", LANES)
def test_a_state_that_is_not_finite_builds_two_records(lane, counting):
    spec = build_spec_from_config(SQUARING)
    with _lane(lane):
        with pytest.raises(NonFiniteState) as info:
            run(spec, [1e100], rule=StoppingRule(max_iters=5))
    # x_1 = 7.5e199, and T(x_1) overflows in the second step
    err = info.value
    assert err.iteration == 1 and counting.built == 2
    last = err.last_finite
    assert type(last) is TraceRecord and last.n == 1
    assert last.x.tolist() == [7.500000000000001e+199]
    assert str(err) == ("iteration 1: non-finite state x=[nan], residual=inf; last finite "
                        "state n=1: x=[7.500000000000001e+199], residual=3.0000000000000002e+200")


# ---------------------------------------------------------------------------
# distances over a column


POINTS = [0.0, -0.0, 1.5, -2.5e-300, 5e-324, 1e154, -1e155, 1e200, -1.7976931348623157e308,
          math.inf, -math.inf, math.nan]


def test_row_norms_of_1d_points_have_the_bits_of_norm():
    col = np.array(POINTS).reshape(-1, 1)
    with np.errstate(over="ignore"):
        want = [norm(row) for row in col]
    got = row_norms(col)
    assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]
    assert got[7] == 1e200 and got[8] == 1.7976931348623157e308   # v*v overflows


def test_row_norms_of_2d_points_are_norm_row_by_row():
    rows = np.array([[3.0, 4.0], [1e200, 1e200], [-0.0, 0.0], [math.nan, 1.0]])
    with np.errstate(over="ignore"):
        want = [norm(row) for row in rows]
    assert row_norms(rows).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# a trace in blocks


def test_a_trace_built_from_an_iterator_of_records_has_its_columns():
    trace = run_example("bnm_t2")
    for records in ((rec for rec in trace.records), iter(trace)):
        again = IterationTrace("sffpep", records=records, stop_reason=trace.stop_reason,
                               intermediates=trace.intermediates)
        assert len(again.columns) == 11
        assert_same_columns(again, trace)


def _rotation_spec():
    # a 2-D scfpp run on arrays, whose state never settles
    c, s = math.cos(1.0), math.sin(1.0)
    rotation = LinearMap([[c, -s], [s, c]])
    plane, origin = WholeSpace(2), ([0.0, 0.0],)
    return ProblemSpec(
        family="scfpp", A=LinearMap([[1.0, 0.5], [0.0, 1.0]]),
        T=FixedPointMap(lambda x: rotation.apply(x), plane, Nonexpansive(),
                        known_fixed_points=origin),
        G=FixedPointMap(lambda x: x, plane, Nonexpansive(), known_fixed_points=origin),
        alpha=SequenceSpec.const(0.5), gamma=0.05, reference_solution=[0.0, 0.0])


SYNCHRONAL = catalog()["synchronal_demo"]
BLOCK_RUNS = {
    "synchronal_demo": lambda: run_example("synchronal_demo"),
    "wq_t3": lambda: run_example("wq_t3"),
    "rotation_1100": lambda: run(_rotation_spec(), [1.0, 2.0],
                                 rule=StoppingRule(max_iters=1100)),
    **{"rows_%d" % (steps + 1): lambda steps=steps: run(
        SYNCHRONAL.spec, [4.0], rule=StoppingRule(max_iters=steps))
       for steps in (1023, 1024, 1025)},
    "target_in_block_2": lambda: run(SYNCHRONAL.spec, [4.0],
                                     rule=StoppingRule(max_iters=5000, target_tol=1e-3)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_RUNS))
def test_a_trace_of_many_blocks_has_the_bits_of_one_block(case, monkeypatch, tmp_path):
    with monkeypatch.context() as m:
        m.setattr(problems, "_BLOCK", 10 ** 9)
        want = BLOCK_RUNS[case]()
    got = BLOCK_RUNS[case]()
    if case == "target_in_block_2":
        assert got.stop_reason == "target_tol" and 1025 < len(got) <= 2048
    assert_same_columns(got, want)
    assert (got.stop_reason, got.intermediates) == (want.stop_reason, want.intermediates)
    write_trace_csv(want, tmp_path / "one.csv")
    write_trace_csv(got, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("lane", LANES)
def test_a_state_that_overflows_at_a_block_boundary_names_the_last_finite_state(lane):
    # x grows by 1.5 a step under U = 3x, T = I, alpha = 0.5, and the state
    # after the 1,024th step, the first past a full block, overflows
    doc = {"family": "scfpp_adaptive",
           "U": {"num": [0.0, 3.0], "class": "demicontractive:0", "fixed_points": [0.0]},
           "T": {"num": [0.0, 1.0], "class": "demicontractive:0", "fixed_points": [0.0]},
           "A": [[1.0]], "alpha": {"constant": 0.5}, "enforce_ranges": False}
    with _lane(lane):
        with pytest.raises(NonFiniteState) as info:
            run(build_spec_from_config(doc), [1.0], rule=StoppingRule(max_iters=5000))
    err = info.value
    assert str(err) == (
        "iteration 1023: non-finite state x=[inf], residual=inf; last finite state n=1023: "
        "x=[8.98846567431158e+307], residual=8.98846567431158e+307")
    last = err.last_finite
    assert (err.iteration, last.n, last.step, last.residual_coupling) == (1023, 1023, 0.0, 0.0)
    assert last.x.tolist() == [8.98846567431158e+307]
    assert last.u.tolist() == [4.49423283715579e+307]
    assert last.residual_primary == 8.98846567431158e+307


def _bits(rec):
    return tuple(None if v is None else (type(v), np.asarray(v).tobytes())
                 for v in (getattr(rec, name) for name in problems._FIELDS))


def test_a_slice_of_the_records_reads_as_each_record_does():
    trace = run(SYNCHRONAL.spec, [4.0], rule=StoppingRule(max_iters=3000))
    assert len(trace) == 3001
    for rows in (slice(None, None, -1), slice(3000, 10, -7), slice(5, 5), slice(1020, 1030),
                 slice(None, None, 1023), slice(-5, None)):
        want = [_bits(trace[i]) for i in range(len(trace))[rows]]
        assert [_bits(rec) for rec in trace.records[rows]] == want
    assert [_bits(rec) for rec in trace] == [_bits(trace[i]) for i in range(len(trace))]


def _traced_peak(work):
    """What ``work()`` returns, and the peak bytes it held under tracemalloc
    above what was held when it started."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = work()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _synchronal_demo():
    run(SYNCHRONAL.spec, [4.0], rule=StoppingRule(max_iters=3))   # builds the power loops
    return run(SYNCHRONAL.spec, [4.0], rule=SYNCHRONAL.default_rule)


def test_a_long_run_holds_its_states_by_the_block():
    # synchronal_demo records 15,001 states: kept as values until the run
    # stops they would peak near 8 MB, and as columns they take under 1 MB
    trace, peak = _traced_peak(_synchronal_demo)
    assert len(trace) == 15001
    assert peak <= 2.5e6


def test_a_walk_of_the_records_holds_one_block_of_fields():
    trace = _synchronal_demo()
    count, peak = _traced_peak(lambda: sum(1 for _ in trace.records))
    assert count == len(trace) == 15001
    assert peak <= 1e6
