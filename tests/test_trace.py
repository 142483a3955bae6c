"""The columnar trace: the columns a run builds, and the records view over them.

A run keeps each state's values and builds one float64 column per field
when it stops.  ``trace.records`` builds a ``TraceRecord`` only when one is
read, and a trace built from records holds the columns the run built.
"""

import contextlib
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from splitfp import cli, problems
from splitfp.cli import (build_spec_from_config, parse_trace_csv, write_trace_csv,
                         write_trace_json)
from splitfp.diagnostics import fejer_check
from splitfp.presets import catalog, run_example
from splitfp.problems import IterationTrace, StoppingRule, TraceRecord
from splitfp.solvers import NonFiniteState, run
from splitfp.spaces import norm, row_norms

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
