"""Tests of the benchmark itself: smoke runs, and checks that catch bad outputs.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import splitfp  # noqa: E402
import workloads  # noqa: E402
from splitfp.problems import IterationTrace, TraceRecord  # noqa: E402
import timing  # noqa: E402
from timing import Op  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                    "--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    per_pass = 3 + sum(workloads.POINTS_PER_SET.values())
    expected_failed = result["attempted"] // per_pass
    assert result["failed"] == (expected_failed if workload == "cuts" else 0)


def test_traced_run_reports_every_layer_metric():
    result = _bench("--workload", "cuts", "--seed", "3", "--seconds", "0.1",
                    "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYER_METRICS) == set(result["metrics"])
    assert result["metrics"]["projections.cut_calls"]["value"] == 3 * (91 + 25)


def test_tracer_restores_the_program_and_derives_self_time():
    tracer = Tracer()
    original = splitfp.FixedPointMap.__call__, splitfp.run, splitfp.solvers.power_apply
    tracer.install()
    try:
        splitfp.run_example("scfpp_smallS")
    finally:
        tracer.uninstall()
    assert original == (splitfp.FixedPointMap.__call__, splitfp.run,
                        splitfp.solvers.power_apply)
    m = layer_metrics(tracer)
    assert m["solvers.iterations"] == 23
    assert m["presets.catalog_calls"] == 1
    assert m["operators.power_calls"] == 2 * 23
    assert 0 < m["solvers.driver_self_s"] < m["operators.power_s"] + m["solvers.step_self_s"]


# ---------------------------------------------------------------------------
# cli checks


@pytest.fixture(scope="module")
def cli_pass(tmp_path_factory):
    w = workloads.CliWorkload(5, tmp_path_factory.mktemp("cli"), ROOT)
    ops = w.run_pass()
    assert w.check(ops) == []
    return w, ops


def _with_output(ops, label, output):
    return [Op(op.label, op.seconds, output if op.label == label else op.output)
            for op in ops]


def _rewrite(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return text


def test_cli_check_catches_an_unexpected_exit_code(cli_pass):
    w, ops = cli_pass
    bad = _with_output(ops, "verify:heDu", (1, "", "boom"))
    assert any("exit code 1" in p for p in w.check(bad))


def test_cli_check_catches_a_wrong_table_row(cli_pass):
    w, ops = cli_pass
    op = next(op for op in ops if op.label == "reproduce:t1")
    code, out, err = op.output
    bad = _with_output(ops, op.label, (code, out.replace("\n1 9.898293685", "\n1 9.898303685"),
                                       err))
    problems = w.check(bad)
    assert any("row 1" in p and "the table has" in p for p in problems)


def test_cli_check_catches_an_inexact_or_nonfinite_csv_cell(cli_pass, tmp_path):
    rows, _ = workloads.parse_csv_exact(_csv(tmp_path, "0.10000000000000001"), [], "t")
    assert rows is not None
    for cell in ("0.1000", "nan", "inf"):
        problems = []
        assert workloads.parse_csv_exact(_csv(tmp_path, cell), problems, "t") == (None, None)
        assert problems


def _csv(tmp_path, cell):
    path = tmp_path / "trace.csv"
    path.write_text("n,x_0\n0,%s\n" % cell)
    return path


def test_cli_check_catches_nan_in_a_summary(cli_pass):
    w, ops = cli_pass
    path = w._out_dir("preset:wq_t4", "csv") / "summary.json"
    text = path.read_text()
    summary = json.loads(text)
    _rewrite(path, '"final_residual": %s' % json.dumps(summary["final_residual"]),
             '"final_residual": NaN')
    try:
        assert any("not strict JSON" in p for p in w.check(ops))
    finally:
        path.write_text(text)


def test_cli_check_catches_a_non_monotone_fejer_report(cli_pass):
    w, ops = cli_pass
    path = w._out_dir("preset:bnm_t1", "csv") / "summary.json"
    text = _rewrite(path, '"monotone": true', '"monotone": false')
    try:
        assert any("Fejér report not monotone" in p for p in w.check(ops))
    finally:
        path.write_text(text)


def test_cli_check_catches_a_final_iterate_off_the_oracle(cli_pass):
    w, ops = cli_pass
    out_dir = w._out_dir("preset:scfpp_smallS", "csv")
    summary_path, csv_path = out_dir / "summary.json", out_dir / "trace.csv"
    summary = json.loads(summary_path.read_text())
    old = "%.17g" % summary["final_x"][0]
    new = "%.17g" % (summary["final_x"][0] + 1e-6)
    texts = (_rewrite(summary_path, json.dumps(summary["final_x"][0]), new),
             csv_path.read_text())
    lines = texts[1].rstrip("\n").split("\n")
    lines[-1] = lines[-1].replace(old, new, 1)
    csv_path.write_text("\n".join(lines) + "\n")
    try:
        problems = w.check(ops)
        assert any("decimal re-execution" in p for p in problems), problems
    finally:
        summary_path.write_text(texts[0])
        csv_path.write_text(texts[1])


def test_cli_fingerprint_sees_a_changed_file(cli_pass):
    w, ops = cli_pass
    before = w.fingerprint(ops)
    path = w._out_dir("preset:bnm_t2", "csv") / "residual.svg"
    text = _rewrite(path, "steelblue", "red")
    try:
        assert w.fingerprint(ops) != before
    finally:
        path.write_text(text)
    assert w.fingerprint(ops) == before


# ---------------------------------------------------------------------------
# powers checks


def _trace(xs, stop="max_iters", cuts=None):
    records = [TraceRecord(n=n, x=np.atleast_1d(np.asarray(x, dtype=float)),
                           cut_count=None if cuts is None else cuts(n))
               for n, x in enumerate(xs)]
    return IterationTrace(family="t", records=records, stop_reason=stop)


def test_powers_check_catches_a_wrong_synchronal_stop(tmp_path):
    w = workloads.PowersWorkload(1, tmp_path, ROOT)
    rot = splitfp.run(w.rot_spec, w.rot_x0, rule=w.rot_rule)
    good = _trace([[4.0], [1.00005]], stop="target_tol")
    for bad in (_trace([[4.0], [1.00005]], stop="max_iters"),
                _trace([[4.0], [1.001]], stop="target_tol")):
        ops = [Op("synchronal", 0.0, bad), Op("rotation", 0.0, rot)]
        assert any("synchronal" in p for p in w.check(ops))
    ops = [Op("synchronal", 0.0, good), Op("rotation", 0.0, rot)]
    assert w.check(ops) == []
    assert w.iterations == 1 + workloads.ROTATION_ITERS


def test_rotation_check_catches_drift_and_growth():
    x0 = [1.2, -0.4]
    ref = workloads.rotation_reference(x0, workloads.ROTATION_ITERS)
    assert workloads.check_rotation(_trace(ref), x0) == []
    drifted = [x.copy() for x in ref]
    drifted[10] = drifted[10] + 1e-6
    assert any("matrix_power" in p for p in workloads.check_rotation(_trace(drifted), x0))
    grown = [x * 1.0 for x in ref]
    grown[200] = grown[199] * 1.001
    assert any("grows" in p for p in workloads.check_rotation(_trace(grown), x0))


# ---------------------------------------------------------------------------
# cuts checks


def test_cut_run_check_catches_each_property():
    def check(xs, cuts=lambda n: 3 * n):
        return workloads.check_cut_run("r", _trace(xs, cuts=cuts), lambda x: x[0] >= 0)

    assert check([[10.0], [8.0], [5.0]]) == []
    assert any("outside C" in p for p in check([[10.0], [-1.0], [-2.0]]))
    assert any("cuts after step" in p for p in check([[10.0], [8.0]], cuts=lambda n: n))
    assert any("decreases" in p for p in check([[10.0], [8.0], [9.0]]))


def test_projection_check_catches_infeasible_and_suboptimal_points():
    descs = workloads.PROJECTION_SETS["proj2d"]
    body = splitfp.Intersection([workloads.build_body(d) for d in descs])
    feasible = workloads.feasible_samples(descs, __import__("random").Random(0), 200)
    x = np.array([3.0, 3.0])
    p = splitfp.project(body, x)
    assert workloads.check_projection(descs, x, p, feasible) == []
    assert any("outside" in q for q in workloads.check_projection(descs, x, x, feasible))
    inner = np.array([0.5, 0.5])
    assert any("feasible point" in q
               for q in workloads.check_projection(descs, x, inner, feasible))


def test_cuts_check_catches_an_extragradient_run_that_misses_one(tmp_path):
    w = workloads.CutsWorkload(2, tmp_path, ROOT)
    ops = w.run_pass()
    assert w.check(ops) == []
    assert [op.label for op in ops if op.error is not None] == ["lens"]
    eg1d = next(op for op in ops if op.label == "eg1d")
    eg1d.output.records[-1].x = np.array([1.5])
    assert any("expected 1.0" in p for p in w.check(ops))


def test_body_distance_matches_closed_forms():
    p = np.array([3.0, 4.0])
    assert workloads.body_distance(("ball", (0.0, 0.0), 1.0), p) == 4.0
    assert workloads.body_distance(("box", (0.0, 0.0), (3.0, 1.0)), p) == 3.0
    assert math.isclose(workloads.body_distance(("halfspace", (1.0, 1.0), 1.0), p),
                        6.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# timing


def test_scaling_uses_the_reference_samples_around_an_operation():
    host = timing.HostSpeed()
    host.times = [0.0, 1.0, 2.0]
    host.seconds = [timing.REFERENCE_NOMINAL_S, 2 * timing.REFERENCE_NOMINAL_S,
                    4 * timing.REFERENCE_NOMINAL_S]
    assert host.factor(0.1, 0.9) == pytest.approx(1 / 1.5)
    assert host.factor(1.1, 1.9) == pytest.approx(1 / 3.0)
    assert host.factor(2.5, 2.6) == pytest.approx(1 / 4.0)   # no sample after: last one
    assert host.factor(0.5, 2.5) == pytest.approx(3 / 7.0)   # samples during count too
    assert host.spent(0.5, 2.5) == pytest.approx(6 * timing.REFERENCE_NOMINAL_S)
    timer = timing.PassTimer(host=timing.HostSpeed())
    ops = []
    timer(ops, "a", lambda: 1)
    timer(ops, "b", lambda: 1 / 0)
    timer.finish(ops)
    assert [op.error is None for op in ops] == [True, False]
    assert len(timer.host.times) == 2                       # before "a" and at the end
    assert all(op.scaled > 0 for op in ops)


def test_samples_taken_inside_a_long_operation_are_left_out_of_it():
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    host = timing.HostSpeed()
    timer = timing.PassTimer(host=host)
    ops = []
    with host.sampling():
        timer(ops, "long", lambda: busy(4 * timing.SAMPLE_INTERVAL_S))
    timer.finish(ops)
    (op,) = ops
    inside = host.spent(op.start, op.end)
    assert inside > 0
    assert op.seconds == pytest.approx(op.end - op.start - inside)
    assert op.scaled > 0
