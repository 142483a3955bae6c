"""Command-line interface: exit codes, trace round-trips, outputs."""

import dataclasses
import json
import math
import os
import re
import stat
import warnings
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from splitfp import cli, config, presets
from splitfp.cli import main, parse_trace_csv, write_residual_svg, write_trace_csv
from splitfp.operators import (CLASS_TOKENS, FixedPointMap, SequenceSpec, class_from_token,
                               operator_catalog)
from splitfp.presets import catalog, run_example
from splitfp.problems import IterationTrace, ProblemSpec, StoppingRule, TraceRecord
from splitfp.projections import WholeSpace
from splitfp.solvers import SolverError, run
from splitfp.spaces import LinearMap


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BNM_CONFIG = {"problem": {"example": "bnm_t1"}}


def test_run_reference_example(tmp_path, capsys):
    cfg = write_config(tmp_path, BNM_CONFIG)
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path),
                 "--max-iters", "250"])
    assert code == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["stop_reason"] == "max_iters"
    assert abs(summary["final_x"][0] - 5.000975458) < 1e-4
    assert summary["fejer"]["monotone"]

    csv_lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 252  # header + 251 records
    svg = (tmp_path / "residual.svg").read_text()
    ET.fromstring(svg)  # well-formed, self-contained
    assert "polyline" in svg
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved["final_residual"] == summary["final_residual"]


def test_run_single_iteration_two_rows(tmp_path):
    cfg = write_config(tmp_path, BNM_CONFIG)
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path),
                 "--max-iters", "1"])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + n=0 + n=1


def test_run_inline_problem_and_json_format(tmp_path):
    doc = {
        "problem": {
            "family": "scfpp",
            "T": {"catalog": "smallS"},
            "G": {"catalog": "smallS"},
            "A": [[1.0]],
            "alpha": {"constant": 0.5},
            "gamma": 0.5,
            "reference": [1.25],
        },
        "start": {"x": [10.0]},
        "stopping": {"max_iters": 30},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path),
                 "--format", "json"])
    assert code == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["columns"][0] == "n"
    assert len(trace["records"]) == 31
    # first step matches the hand-derived value 4.4
    x_col = trace["columns"].index("x_0")
    assert abs(float(trace["records"][1][x_col]) - 4.4) < 1e-12


def test_a_bare_number_is_a_constant_sequence(tmp_path):
    problem = dict(SCFPP_INLINE["problem"], alpha=0.5)
    assert config.build_spec_from_config(problem).alpha == SequenceSpec.const(0.5)
    for name, doc in (("bare", dict(SCFPP_INLINE, problem=problem)), ("object", SCFPP_INLINE)):
        cfg = write_config(tmp_path, doc, name=name + ".json")
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
    assert ((tmp_path / "bare" / "trace.csv").read_bytes()
            == (tmp_path / "object" / "trace.csv").read_bytes())


def test_run_inline_rule_operator(tmp_path):
    doc = {
        "problem": {
            "family": "sffpep",
            "U": {"num": [5.0, 0.0, 1.0], "den": [1.0, 1.0],
                  "domain": {"box": {"lower": [0], "upper": ["inf"]}},
                  "class": "quasi_nonexpansive", "fixed_points": [5.0]},
            "T": {"num": [5.0, 1.0], "den": [5.0],
                  "class": "quasi_nonexpansive", "fixed_points": [1.25]},
            "A": [[1.0]], "B": [[4.0]],
            "C": {"whole_space": 1}, "Q": {"whole_space": 1},
            "alpha": {"constant": 0.2}, "beta": {"constant": 0.125},
            "lam": {"constant": 0.0},
            "enforce_ranges": False,
        },
        "start": {"x": [10.0], "y": [15.0]},
        "stopping": {"max_iters": 3},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
    assert code == 0
    parsed = parse_trace_csv(tmp_path / "trace.csv")
    assert parsed.records[1].x[0] == pytest.approx(9.898293685, abs=1e-6)


def test_run_config_errors_exit_2(tmp_path):
    missing = str(tmp_path / "absent.json")
    assert main(["run", "--config", missing, "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    invalid = write_config(
        tmp_path,
        {"problem": {"family": "scfpp", "T": {"catalog": "smallS"},
                     "G": {"catalog": "smallS"}, "A": [[1.0]],
                     "alpha": {"constant": 0.5}, "gamma": 5.0},
         "start": {"x": [1.0]}},
        name="invalid.json",
    )
    assert main(["run", "--config", invalid, "--out-dir", str(tmp_path)]) == 2


def test_run_unwritable_output_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BNM_CONFIG)
    # a path under a regular file cannot become a directory, even for root
    plain_file = tmp_path / "occupied"
    plain_file.write_text("x")
    code = main(["run", "--config", cfg, "--out-dir",
                 str(plain_file / "out"), "--max-iters", "1"])
    assert code == 2
    capsys.readouterr()
    # a trace named after an existing directory cannot be written: no
    # summary is printed
    (tmp_path / "out" / "taken").mkdir(parents=True)
    cfg = write_config(tmp_path, dict(BNM_CONFIG, outputs={"trace": "taken"}))
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                 "--max-iters", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("cannot write outputs: ")
    assert err.endswith("%s'\n" % (tmp_path / "out" / "taken"))


OUTPUT_NAMES = ("trace.csv", "residual.svg", "summary.json")


def run_example_into(tmp_path, example, out_dir, *flags):
    """``run`` of a preset into ``out_dir``; the bytes of each output."""
    cfg = write_config(tmp_path, {"problem": {"example": example}}, name=example + ".json")
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir), *flags]) == 0
    return [(out_dir / name).read_bytes() for name in OUTPUT_NAMES]


def test_a_rerun_writes_a_shorter_trace_over_a_longer_one(tmp_path):
    fresh = run_example_into(tmp_path, "bnm_t1", tmp_path / "fresh")
    longer = run_example_into(tmp_path, "synchronal_demo", tmp_path / "out")
    assert all(len(old) > len(new) for old, new in zip(longer[:2], fresh[:2]))
    assert run_example_into(tmp_path, "bnm_t1", tmp_path / "out") == fresh


def test_a_rerun_replaces_its_outputs_and_leaves_links_to_them(tmp_path):
    out = tmp_path / "out"
    old = run_example_into(tmp_path, "bnm_t1", out)
    for name in OUTPUT_NAMES:
        os.link(out / name, tmp_path / ("old_" + name))
    new = run_example_into(tmp_path, "bnm_t1", out, "--max-iters", "3")
    assert all(a != b for a, b in zip(old, new))
    assert [(tmp_path / ("old_" + name)).read_bytes() for name in OUTPUT_NAMES] == old


def test_an_output_that_is_a_symlink_becomes_a_regular_file(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    (out / "trace.csv").symlink_to(target)
    fresh = run_example_into(tmp_path, "bnm_t1", tmp_path / "fresh")
    assert run_example_into(tmp_path, "bnm_t1", out) == fresh
    assert not (out / "trace.csv").is_symlink()
    assert target.read_text() == "kept\n"


def test_an_output_that_is_a_device_or_a_fifo_is_written_through(tmp_path):
    fresh = run_example_into(tmp_path, "bnm_t1", tmp_path / "fresh")
    out = tmp_path / "out"
    out.mkdir()
    (out / "residual.svg").symlink_to(os.devnull)
    os.mkfifo(out / "summary.json")
    reader = os.open(out / "summary.json", os.O_RDONLY | os.O_NONBLOCK)
    try:
        cfg = write_config(tmp_path, BNM_CONFIG)
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        piped = b"".join(iter(partial(os.read, reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert os.readlink(out / "residual.svg") == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert stat.S_ISFIFO(os.lstat(out / "summary.json").st_mode)
    assert [(out / "trace.csv").read_bytes(), piped] == [fresh[0], fresh[2]]


def test_an_output_whose_directory_refuses_the_unlink_is_written_through(tmp_path, monkeypatch):
    out = tmp_path / "out"
    fresh = run_example_into(tmp_path, "bnm_t1", tmp_path / "fresh")
    run_example_into(tmp_path, "synchronal_demo", out)

    def refuse(path, missing_ok=False):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "unlink", refuse)
    assert run_example_into(tmp_path, "bnm_t1", out) == fresh


def test_run_numerical_breakdown_exit_3(tmp_path):
    doc = dict(BNM_CONFIG)
    doc["problem"] = {"example": "extragradient_1d"}
    doc["flags"] = {"cut_cap": 5}
    cfg = write_config(tmp_path, doc)
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path),
                 "--max-iters", "10"])
    assert code == 3


SCFPP_INLINE = {
    "problem": {
        "family": "scfpp",
        "T": {"num": [5.0, 1.0], "den": [5.0], "class": "quasi_nonexpansive",
              "extra_classes": ["lipschitzian:4"], "fixed_points": [1.25]},
        "G": {"catalog": "smallS"},
        "A": [[1.0]],
        "alpha": {"constant": 0.5},
        "gamma": 0.5,
    },
    "start": {"x": [10.0]},
    "stopping": {"max_iters": 5},
}


@pytest.mark.parametrize("doc, extra_args", [
    ({"problem": {"example": "extragradient_1d"}, "flags": {"cut_cap": 1}}, []),
    (dict(SCFPP_INLINE, flags={"gamma_bound": "bogus"}), []),
    ({"problem": {"example": "wq_t3"}, "flags": {"wq_branch": "sideways"}}, []),
    (BNM_CONFIG, ["--tol", "-1"]),
    (BNM_CONFIG, ["--max-iters", "0"]),
], ids=["cut_cap", "gamma_bound", "wq_branch", "tol", "max_iters"])
def test_run_flags_and_overrides_are_validated(tmp_path, doc, extra_args):
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]
                + extra_args) == 2


@pytest.mark.parametrize("doc", [
    {"problem": {"example": "extragradient_1d"}, "flags": {"cut_cap": None}},
    dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], gamma="abc")),
    dict(SCFPP_INLINE, start={"x": "abc"}),
], ids=["cut_cap_null", "gamma_string", "start_string"])
def test_run_wrong_typed_config_values_exit_2(tmp_path, doc, capsys):
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("domain", [
    {"box": {"lower": ["nan"], "upper": [20.0]}},
    {"halfspace": {"a": [1.0], "b": float("nan")}},
    {"ball": {"center": [float("nan")], "radius": 20.0}},
    {"intersection": [{"whole_space": 1},
                      {"ball": {"center": [0.0], "radius": float("nan")}}]},
], ids=["box", "halfspace", "ball", "intersection"])
def test_run_rejects_a_nan_in_a_set(tmp_path, capsys, domain):
    # json reads NaN, and a box bound parses "nan"
    T = dict(SCFPP_INLINE["problem"]["T"], domain=domain)
    doc = dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], T=T))
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: problem.T.domain.") and "got nan" in err


def test_run_unknown_flag_exits_2(tmp_path, capsys):
    doc = {"problem": {"example": "bnm_t1"}, "flags": {"wq-branch": "sideways"}}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "unknown keys flags.wq-branch (known: wq_branch," in capsys.readouterr().err


def test_run_unknown_stopping_key_exits_2(tmp_path, capsys):
    doc = {"problem": {"example": "bnm_t1"}, "stopping": {"max_iter": 5}}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown keys stopping.max_iter" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("doc, path", [
    # a misspelled top-level key used to run silently from the preset's start
    ({"problem": {"example": "bnm_t1"}, "strat": {"x": [1.0]}}, "strat"),
    ({"problem": {"example": "bnm_t1"}, "outputs": {"sumary": "s.json"}},
     "outputs.sumary"),
])
def test_run_unknown_config_key_exits_2(tmp_path, capsys, doc, path):
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown keys %s (known: " % path in err
    known = "problem, start, stopping, outputs, flags" if "." not in path else \
        "trace, summary, plot"
    assert err.rstrip().endswith("(known: %s)" % known)
    assert not (tmp_path / "trace.csv").exists()


def test_summary_names_the_trace_relative_to_the_out_dir(tmp_path, capsys):
    doc = dict(BNM_CONFIG, outputs={"trace": "t1.csv"}, stopping={"max_iters": 5})
    cfg = write_config(tmp_path, doc)
    summaries = []
    for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["trace"] == "t1.csv"
        summaries.append((out / "summary.json").read_bytes())
        assert (out / "t1.csv").exists()
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("domain, what", [
    ({"ball": {"center": [float("inf")], "radius": 1.0}}, "ball.center[0]"),
    ({"halfspace": {"a": [float("-inf")], "b": 1.0}}, "halfspace.a[0]"),
    ({"intersection": [{"whole_space": 1},
                       {"ball": {"center": [float("-inf")], "radius": 1.0}}]},
     "intersection[1].ball.center[0]"),
], ids=["ball", "halfspace", "intersection"])
def test_run_rejects_an_infinite_normal_or_centre(tmp_path, capsys, domain, what):
    T = dict(SCFPP_INLINE["problem"]["T"], domain=domain)
    doc = dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], T=T))
    cfg = write_config(tmp_path, doc)   # json writes the infinities as Infinity
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: problem.T.domain.%s: " % what)
    assert "expected a finite number" in err


def _sffpep_inline(**problem):
    doc = json.loads((REPO / "demos" / "configs" / "sffpep_inline_rules.json").read_text())
    doc["problem"].update(problem)
    return doc


@pytest.mark.parametrize("problem, path", [
    ({"C": {"box": {"lower": ["-inf"], "upper": ["-inf"]}}}, "problem.C.box"),
    ({"Q": {"halfspace": {"a": [1.0], "b": float("-inf")}}}, "problem.Q.halfspace"),
    ({"C": {"intersection": [{"box": {"lower": [0.0], "upper": [None]}},
                             {"halfspace": {"a": [-1.0], "b": float("-inf")}}]}},
     "problem.C.intersection[1].halfspace"),
], ids=["box", "halfspace", "intersection"])
def test_run_rejects_a_set_empty_by_itself(tmp_path, capsys, problem, path):
    err = assert_rejected(tmp_path, capsys, _sffpep_inline(**problem), path)
    assert err.rstrip().endswith("is empty")


def test_an_intersection_of_non_empty_sets_is_found_empty_at_run_time(tmp_path, capsys):
    # x >= 2 and x <= 1: each member is non-empty, the breakdown exits 3
    doc = _sffpep_inline(C={"intersection": [{"box": {"lower": [2.0], "upper": [None]}},
                                             {"halfspace": {"a": [1.0], "b": 1.0}}]})
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: iteration 0: ") and "empty" in err


@pytest.mark.parametrize("domain", [
    {"ball": {"center": [0.0], "radius": float("inf")}},
    {"halfspace": {"a": [1.0], "b": float("inf")}},
], ids=["ball", "halfspace"])
def test_run_takes_an_infinite_radius_or_offset_as_the_whole_space(tmp_path, domain):
    T = dict(SCFPP_INLINE["problem"]["T"], domain=domain)
    doc = dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], T=T))
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0


SYNCHRONAL_NO_REFERENCE = {k: v for k, v in catalog()["synchronal_demo"].problem.items()
                           if k != "reference"}


@pytest.mark.parametrize("problem, start, message", [
    ({"example": "bnm_t1"}, {"x": [1.0, 2.0], "y": [1.0]},
     "x0 has 2 entries; sffpep expects 1, the columns of A"),
    ({"example": "bnm_t1"}, {"x": [1.0], "y": [1.0, 2.0]},
     "y0 has 2 entries; sffpep expects 1, the columns of B"),
    # synchronal_vip has no A: its start is checked against T's dimension,
    # not broadcast through the 1-D maps
    (SYNCHRONAL_NO_REFERENCE, {"x": [4.0, 1.0]},
     "x0 has 2 entries; synchronal_vip expects 1, the dimension of T"),
    (SYNCHRONAL_NO_REFERENCE, {"x": []},
     "x0 has 0 entries; synchronal_vip expects 1, the dimension of T"),
    # a y start given to a one-block family is refused, not dropped
    ({"example": "scfpp_smallS"}, {"x": [10.0], "y": [3.0, 4.0]},
     "family 'scfpp' iterates one block; y0 given"),
], ids=["x", "y", "synchronal-two-entries", "synchronal-empty", "one-block-y"])
def test_run_start_of_the_wrong_dimension_exits_2(tmp_path, capsys, problem, start,
                                                  message):
    cfg = write_config(tmp_path, {"problem": problem, "start": start})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


def test_internal_error_exits_3_with_a_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("planted fault")

    monkeypatch.setattr("splitfp.cli.cmd_list_examples", broken)
    assert main(["list-examples"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: planted fault")
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: planted fault" in err


SYNCHRONAL_INLINE = {
    "problem": {
        "family": "synchronal_vip",
        "f": {"num": [0.0, 0.5], "class": "contraction:0.5", "fixed_points": [0.0]},
        "G": {"num": [0.0, 1.0], "class": "strongly_monotone:1",
              "extra_classes": ["lipschitzian:1"]},
        "alpha": {"formula": "1/(n+2)"},
        "beta": {"constant": 0.5},
        "mu": 1.0,
        "gamma_visc": 0.5,
        "enforce_ranges": False,
    },
    "stopping": {"max_iters": 50},
}


@pytest.mark.parametrize("T, x0, message", [
    ({"num": [0.0, 0.0, 3.0]}, 2.0, "iteration 3: non-finite state"),
    ({"num": [1.0], "den": [1.0, -1.0]}, 1.0, "iteration 0: division by zero"),
], ids=["nan", "pole"])
def test_run_breakdown_exits_3_without_a_summary(tmp_path, capsys, T, x0, message):
    doc = dict(SYNCHRONAL_INLINE, start={"x": [x0]},
               problem=dict(SYNCHRONAL_INLINE["problem"], T=T))
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    # an output directory is created only for a run that completes
    out_dir = tmp_path / "not-yet"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()


def test_run_gamma_bound_flag_sets_the_gamma_cap(tmp_path, capsys):
    # gamma = 0.5 lies below 1/||AA*|| = 1 but above 1/K = 1/4 for the
    # declared Lipschitz constant K = 4 of T
    cfg = write_config(tmp_path, SCFPP_INLINE, name="l_star.json")
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    doc = dict(SCFPP_INLINE, flags={"gamma_bound": "lipschitz"})
    cfg = write_config(tmp_path, doc, name="lipschitz.json")
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "gamma = 0.5 outside (0, 0.25)" in capsys.readouterr().err


def test_run_extragradient_summary_reports_departure(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": {"example": "extragradient_1d"}})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["departure_from_start"]["non_decreasing"]
    assert summary["departure_from_start"]["final"] == pytest.approx(9.0, abs=1e-5)


def test_csv_round_trip_is_exact(tmp_path):
    trace = run_example("bnm_t1", rule=StoppingRule(max_iters=40))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    parsed = parse_trace_csv(path)
    assert len(parsed.records) == len(trace.records)
    for a, b in zip(trace.records, parsed.records):
        assert a.n == b.n
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        for slot in ("u", "z", "w", "r"):
            va, vb = getattr(a, slot), getattr(b, slot)
            assert (va is None) == (vb is None)
            if va is not None:
                assert np.array_equal(va, vb)
        assert a.residual_primary == b.residual_primary
        assert a.dist_to_target == b.dist_to_target


def test_csv_of_a_parsed_trace_keeps_each_block_dimension(tmp_path):
    # x is 2-D and y 1-D: a parsed trace has no family, and its y-block
    # intermediates u, r still take y's dimension
    plane = WholeSpace(2)
    spec = ProblemSpec(
        family="sffpep", U=FixedPointMap(lambda x: 0.5 * x, plane),
        T=operator_catalog()["identity"], A=LinearMap([[1.0, 2.0]]),
        B=LinearMap([[1.0]]), C=plane, Q=WholeSpace(1),
        alpha=SequenceSpec.const(0.5), beta=SequenceSpec.const(0.5),
        lam=SequenceSpec.const(0.5), enforce_ranges=False)
    trace = run(spec, [1.0, 2.0], [3.0], rule=StoppingRule(max_iters=3))
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    write_trace_csv(trace, first)
    parsed = parse_trace_csv(first)
    assert parsed.family == "parsed"
    assert [parsed.records[1].u.shape, parsed.records[1].z.shape] == [(1,), (2,)]
    write_trace_csv(parsed, again)
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("residual, y_lo", [(0.01, "-2.0"), (None, "0.0")])
def test_residual_svg_of_a_single_point(tmp_path, residual, y_lo):
    # a trace with one residual, and a trace with none (drawn as the point
    # (0, 0)): a single point, at the lower left of unit ranges (n in [0, 1],
    # log10 residual from y_lo)
    trace = IterationTrace("scfpp", [TraceRecord(0, np.array([1.0]),
                                                 residual_primary=residual)])
    write_residual_svg(trace, tmp_path / "residual.svg")
    svg = (tmp_path / "residual.svg").read_text()
    ET.fromstring(svg)
    assert '<polyline points="50.00,350.00" ' in svg
    labels = re.findall(r'font-size="11">([^<]*)</text>', svg)
    assert labels == ["0", "1", y_lo, "%.1f" % (float(y_lo) + 1.0)]


def _polyline_one_point_at_a_time(trace, width=640, height=400, margin=50):
    """The polyline points of ``write_residual_svg``, one point at a time."""
    series = [(n, math.log10(max(r, 1e-300)))
              for n, r in zip(trace.columns["n"].astype(int).tolist(),
                              trace.field_values("residual_primary"))
              if r is not None] or [(0, 0.0)]
    xs, ys = [n for n, _ in series], [v for _, v in series]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    x_hi += x_hi == x_lo
    y_hi += y_hi == y_lo
    return " ".join("%.2f,%.2f" % (
        margin + (n - x_lo) / (x_hi - x_lo) * (width - 2 * margin),
        height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin))
        for n, v in series)


@pytest.mark.parametrize("residuals", [
    [None, 1.0, math.nan, 0.0, 5e-324, math.inf],
    [None, math.inf, 1.0],
    [None, math.nan],
    [None, math.nan, 3.0, 2.0],
    [None] + np.logspace(-320, 300, 257).tolist(),
    [None] + (10.0 ** np.random.default_rng(7).uniform(-16, 4, 2001)).tolist(),
])
def test_residual_svg_polyline_has_the_bits_of_one_point_at_a_time(tmp_path, residuals):
    # the polyline is computed on arrays; a NaN, an inf or a residual below
    # the floor is drawn as one point at a time draws it, with no warning
    n = len(residuals)
    trace = IterationTrace("parsed", values={
        "n": [float(k) for k in range(n)], "x": [[0.0]] * n,
        "residual_primary": residuals})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_residual_svg(trace, tmp_path / "residual.svg")
    svg = (tmp_path / "residual.svg").read_text()
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    assert points == _polyline_one_point_at_a_time(trace)


def test_repeated_runs_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BNM_CONFIG)
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "a"),
          "--max-iters", "60"])
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "b"),
          "--max-iters", "60"])
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_reproduce_t2_all_rows_stationary(capsys):
    assert main(["reproduce", "t2"]) == 0
    out = capsys.readouterr().out
    assert out.count("5.000000000 1.250000000") >= 100
    assert "all 101 pinned rows reproduced" in out


def test_reproduce_t1(capsys):
    assert main(["reproduce", "t1"]) == 0
    out = capsys.readouterr().out
    # row n=3 (the reference carries a final-digit artifact of its own
    # 10-digit working precision; the run agrees to 1e-6)
    row3 = [ln for ln in out.split("\n") if ln.startswith("3 ")][0]
    assert row3.split()[1].startswith("9.69833765")


def test_reproduce_t3_and_t4(capsys):
    assert main(["reproduce", "t3"]) == 0
    out = capsys.readouterr().out
    assert "4.916472663" in out
    assert main(["reproduce", "t4"]) == 0  # trajectory only, nothing pinned


def test_reproduce_unknown_table():
    assert main(["reproduce", "t9"]) == 2


def test_reproduce_exits_1_on_a_mismatched_row_and_3_on_a_breakdown(monkeypatch, capsys):
    # t3 with its second pinned row moved 1.0 away, then with a run that
    # breaks down
    example = presets.get_example("wq_t3")
    row = example.expected[1]
    moved = dataclasses.replace(row, values=(row.values[0] + 1.0, *row.values[1:]))
    pinned = dataclasses.replace(example, expected=(example.expected[0], moved,
                                                    *example.expected[2:]))
    monkeypatch.setattr(presets, "get_example", lambda name: pinned)
    assert main(["reproduce", "t3"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("n x_n y_n\n") and "pinned rows reproduced" not in out
    assert re.fullmatch(r"MISMATCH row n=%d expected \S+ got \S+ delta 1\.000e\+00\n"
                        % row.n, err)

    def breakdown(self, *args, **kwargs):
        raise SolverError("iteration 2: planted breakdown", 2)

    monkeypatch.setattr(presets.NamedExample, "run", breakdown)
    assert main(["reproduce", "t3"]) == 3
    assert capsys.readouterr() == ("", "numerical breakdown: iteration 2: "
                                       "planted breakdown\n")


def test_verify_exit_codes(capsys, monkeypatch):
    assert main(["verify", "heDu", "quasi_nonexpansive", "--samples", "200"]) == 0
    capsys.readouterr()
    assert main(["verify", "heDu", "nonexpansive"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out  # a witness pair is printed
    assert main(["verify", "heDu", "declared", "--samples", "100"]) == 0
    capsys.readouterr()
    assert main(["verify", "nosuch", "nonexpansive"]) == 2
    assert main(["verify", "heDu", "nosuchclass"]) == 2
    # class needing fixed points against an operator with none is a usage error
    assert main(["verify", "identity", "contraction:0.5"]) == 1
    capsys.readouterr()
    # an operator that declares no class: verify_class refuses the None class
    bare = FixedPointMap(lambda x: x, WholeSpace(1), name="bare")
    monkeypatch.setattr(cli, "operator_catalog", lambda: {"bare": bare})
    assert main(["verify", "bare", "declared"]) == 2
    assert capsys.readouterr() == ("", "cannot verify: unsupported operator class None\n")


@pytest.mark.parametrize("samples", ["0", "-3", "ten"])
def test_verify_rejects_a_sample_count_below_one(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "heDu", "declared", "--samples", samples])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be a positive integer" in err and "internal error" not in err


def test_verify_names_an_invalid_class_parameter(capsys):
    assert main(["verify", "wqU", "demicontractive:1.5"]) == 2
    err = capsys.readouterr().err
    assert "invalid parameter for class demicontractive" in err
    assert "requires k in [0,1), got 1.5" in err and "unknown" not in err
    assert main(["verify", "wqU", "demicontractive:abc"]) == 2
    assert "invalid parameter" in capsys.readouterr().err
    # a class without a scalar parameter refuses one
    for token in ("nonexpansive:abc", "asymptotically_nonexpansive:7"):
        assert main(["verify", "identity", token]) == 2
        err = capsys.readouterr().err
        assert "invalid parameter for class %s: the class takes no parameter" \
            % token.partition(":")[0] in err
    assert main(["verify", "wqU", "nosuchclass"]) == 2
    assert "unknown operator class 'nosuchclass'" in capsys.readouterr().err


def test_verify_identity_across_classes(capsys):
    classes = [
        "nonexpansive", "quasi_nonexpansive", "firmly_quasi_nonexpansive",
        "demicontractive", "strictly_pseudocontractive", "directed",
        "lipschitzian", "uniformly_lipschitzian", "strongly_monotone",
        "asymptotically_nonexpansive", "asymptotically_quasi_nonexpansive",
        "total_asymptotically_nonexpansive",
        "total_quasi_asymptotically_nonexpansive",
    ]
    for cls in classes:
        assert main(["verify", "identity", cls, "--samples", "100"]) == 0, cls
        capsys.readouterr()


def test_readme_lists_the_class_tokens():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z_]+)` \|[^|\n]*\|([^|\n]*)\|$", readme, flags=re.M)
    assert [token for token, _ in rows] == list(CLASS_TOKENS)
    # the implies column names the tokens of the default record's edges
    for token, implies in rows:
        assert re.findall(r"`([a-z_]+)`", implies) == [
            c.token for c in class_from_token(token).implies], token


def test_list_examples_formats(capsys):
    assert main(["list-examples"]) == 0
    text = capsys.readouterr().out
    assert "bnm_t1" in text and "extragradient_1d" in text
    assert main(["list-examples", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert {d["id"] for d in docs} >= {"bnm_t1", "wq_t3"}


def test_main_parses_each_call_afresh(tmp_path, capsys):
    # the parser is built once, and no call's flags leak into the next
    cfg = write_config(tmp_path, BNM_CONFIG)
    for name, flags in (("a", ["--format", "json"]), ("b", []), ("c", ["--format", "json"])):
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / name),
                     "--max-iters", "3", *flags]) == 0
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
        "residual.svg", "summary.json", "trace.csv"]
    for name in ("a", "c"):
        assert (tmp_path / name / "trace.json").is_file()
        assert not (tmp_path / name / "trace.csv").exists()
    capsys.readouterr()
    assert main(["list-examples", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert main(["list-examples"]) == 0
    text = capsys.readouterr().out
    assert [line.split()[0] for line in text.splitlines()
            if not line.startswith(" ")] == [d["id"] for d in docs]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith("usage: splitfp run ")
    assert cli._parser() is cli._parser()


def test_wq_branch_flag_changes_first_row(tmp_path):
    doc = {"problem": {"example": "wq_t3"}}
    cfg = write_config(tmp_path, doc)
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "sw"),
          "--max-iters", "1", "--wq-branch", "swapped"])
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "ap"),
          "--max-iters", "1", "--wq-branch", "as_printed"])
    sw = parse_trace_csv(tmp_path / "sw" / "trace.csv")
    ap = parse_trace_csv(tmp_path / "ap" / "trace.csv")
    assert sw.records[1].x[0] == pytest.approx(4.916472663, abs=1e-6)
    assert abs(ap.records[1].x[0] - sw.records[1].x[0]) > 1e-3


# ---------------------------------------------------------------------------
# the run-config schema: a bad key exits 2, names its JSON path, writes nothing

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted((REPO / "demos" / "configs").glob("*.json"))


def _inline(**problem):
    return dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], **problem))


def _inline_T(**keys):
    return _inline(T=dict(SCFPP_INLINE["problem"]["T"], **keys))


def _json_path(path):
    return "".join("[%d]" % p if isinstance(p, int) else "." + p for p in path)[1:]


def assert_rejected(tmp_path, capsys, doc, path):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    # the message opens with the path, or lists it among the unknown keys
    assert re.search(r"(error: |unknown keys )%s[: ]" % re.escape(path), err), err
    assert not out.exists()
    return err


@pytest.mark.parametrize("doc, path", [
    (_inline(refrence=[1.25]), "problem.refrence"),
    ({"problem": {"example": "bnm_t1", "lam": {"constant": 1.0}}}, "problem.lam"),
    (_inline(T={"num": [5.0, 1.0], "clas": "quasi_nonexpansive"}), "problem.T.clas"),
    (_inline_T(domian={"whole_space": 1}), "problem.T.domian"),
    (_inline(alpha={"constant": 0.5, "tail": 3}), "problem.alpha"),
    (_inline_T(domain={"box": {"lower": [0], "upper": [9], "uper": [9]}}),
     "problem.T.domain.box.uper"),
    (_inline_T(domain={"whole_space": 1, "box": {"lower": [0], "upper": [9]}}),
     "problem.T.domain"),
    (dict(SCFPP_INLINE, start={"x": [10.0], "z": [1.0]}), "start.z"),
    ({key: v for key, v in SCFPP_INLINE.items() if key != "start"}, "start.x"),
    (_inline(alpha={"constnt": 0.5}), "problem.alpha.constnt"),
    (_inline(cut_cap=5.7), "problem.cut_cap"),
    ({"problem": {"example": "extragradient_1d"}, "flags": {"cut_cap": 5.7}},
     "flags.cut_cap"),
    (dict(SCFPP_INLINE, start={"x": [[10.0]]}), "start.x[0]"),
    (dict(SCFPP_INLINE, start=[10.0]), "start"),
    (dict(BNM_CONFIG, outputs={"trace": 5}), "outputs.trace"),
    ({"problem": [1]}, "problem"),
    ([1], "top level"),
    (dict(SCFPP_INLINE, stopping={"max_iters": 2.7}), "stopping.max_iters"),
    (_inline(enforce_ranges="no"), "problem.enforce_ranges"),
    (_inline(gamma=True), "problem.gamma"),
    # an integer beyond the doubles used to exit 3 converting to float
    (_inline(gamma=10 ** 400), "problem.gamma"),
    (dict(SCFPP_INLINE, start={"x": [10 ** 400]}), "start.x[0]"),
    (_inline(G={"catalog": "smallS", "class": "nonexpansive"}), "problem.G.class"),
    (_inline(G={"catalog": "nosuch"}), "problem.G.catalog"),
    (_inline_T(**{"class": "nosuchclass"}), "problem.T.class"),
    (_inline(alpha={"formula": "n^2"}), "problem.alpha"),
    (_inline_T(den=[0.0]), "problem.T"),
    # a preset id get_example does not know, a ProblemSpec error, no family
    ({"problem": {"example": "nosuch"}}, "problem.example"),
    (dict(SCFPP_INLINE, problem={"family": "scfpp"}), "problem"),
    (_inline(gamma=5), "problem"),
    ({"problem": {"A": [[1.0]]}, "start": {"x": [1.0]}}, "problem.family"),
    # a flag the spec rejects once it is applied
    ({"problem": {"example": "extragradient_1d"}, "flags": {"cut_cap": 1}},
     "flags.cut_cap"),
    ({"problem": {"example": "scfpp_smallS"}, "flags": {"gamma_bound": "lipschitz"}},
     "flags.gamma_bound"),
    # a parameter given to a class that takes none
    (_inline_T(**{"class": "nonexpansive:1"}), "problem.T.class"),
    (_inline_T(extra_classes=["asymptotically_nonexpansive:7"]),
     "problem.T.extra_classes[0]"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_run_config_rejects_a_bad_key_naming_its_path(tmp_path, capsys, doc, path):
    assert_rejected(tmp_path, capsys, doc, path)


@pytest.mark.parametrize("slot", ["u_relax", "t_relax"])
def test_a_relaxation_weight_beyond_one_exits_2_naming_its_entry(tmp_path, capsys, slot):
    # with enforce_ranges off the range row only warns, and relax() refuses
    # the weight; the error used to name no entry ("problem: relaxation ...")
    doc = {"problem": dict(catalog()["wq_t3"].problem, **{slot: [1.5]}),
           "start": {"x": [5.0], "y": [5.0]}}
    err = assert_rejected(tmp_path, capsys, doc, "problem.%s[0]" % slot)
    assert err == ("configuration error: problem.%s[0]: relaxation weight 1.5 must "
                   "lie in (0, 1]\n" % slot)


def _key_paths(doc, path=()):
    """The path of every key of ``doc``, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(doc, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


def _misspelt(doc, path):
    """A copy of ``doc`` whose key at ``path`` has its last letter doubled,
    and the JSON path of the misspelt key."""
    edited = json.loads(json.dumps(doc))
    parent = edited
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    parent[key + key[-1]] = parent.pop(key)
    return edited, _json_path(path[:-1] + (key + key[-1],))


SWEPT = {p.stem: json.loads(p.read_text()) for p in DEMO_CONFIGS}
SWEPT["SCFPP_INLINE"] = SCFPP_INLINE


@pytest.mark.parametrize("doc, path", [
    (doc, path) for doc in SWEPT.values() for path in _key_paths(doc)
], ids=["%s:%s" % (name, _json_path(path))
        for name, doc in SWEPT.items() for path in _key_paths(doc)])
def test_run_config_rejects_every_misspelt_key(tmp_path, capsys, doc, path):
    edited, misspelt = _misspelt(doc, path)
    err = assert_rejected(tmp_path, capsys, edited, misspelt)
    assert "unknown keys %s (known: " % misspelt in err


@pytest.mark.parametrize("config, preset", [
    ("scfpp_inline", "scfpp_smallS"), ("sffpep_inline_rules", "bnm_t1"),
    # each preset's own problem document, written out as a plain config
    *(("document", preset) for preset in catalog()),
])
def test_demo_config_writes_the_presets_trace(tmp_path, config, preset):
    preset_cfg = write_config(tmp_path, {"problem": {"example": preset}})
    demo_cfg = REPO / "demos" / "configs" / (config + ".json")
    if config == "document":
        ex = catalog()[preset]
        demo_cfg = tmp_path / "document.json"
        demo_cfg.write_text(json.dumps({
            "problem": ex.problem, "start": dict(zip(("x", "y"), ex.starts[0])),
            "stopping": dataclasses.asdict(ex.default_rule)}, allow_nan=False))
    outputs = []
    for cfg, out in ((preset_cfg, tmp_path / "preset"), (demo_cfg, tmp_path / "demo")):
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("trace.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_adaptive_run_reads_the_demicontractive_constant_a_class_implies(
        tmp_path, capsys):
    # with a fixed point, nonexpansive and contraction maps are 0-demicontractive
    halving = {"num": [0.0, 0.5], "fixed_points": [0.0]}
    doc = {"problem": {"family": "scfpp_adaptive",
                       "U": dict(halving, **{"class": "nonexpansive"}),
                       "T": dict(halving, **{"class": "contraction:0.5"}),
                       "A": [[1.0]], "alpha": {"constant": 0.5}},
           "start": {"x": [1.0]}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert abs(json.loads((out / "summary.json").read_text())["final_x"][0]) < 1e-12


def _schema_keys():
    """Every key of every table of the run-config parser."""
    problem_keys = set(config._PROBLEM_TYPES) | {"example"}   # a preset's one key
    tables = [cli._CONFIG, config._OPERATOR, config._SET, config._SEQUENCE]
    tables += [parse.args[1] for table in (cli._CONFIG, config._SET)
               for parse in table.values() if isinstance(parse, partial)]
    return problem_keys.union(*tables)


def test_readme_schema_block_lists_every_table_key():
    readme = (REPO / "README.md").read_text()
    block = readme.split("### Run-config schema", 1)[1].split("```")[1]
    listed = set(re.findall(r'"([A-Za-z_]+)":', block))
    keys = _schema_keys()
    assert not keys - listed, "missing from the README: %s" % sorted(keys - listed)
    assert not listed - keys, "not in the tables: %s" % sorted(listed - keys)


def test_fejer_check_that_overflows_is_reported_not_raised(tmp_path, capsys):
    doc = {
        "problem": {
            "family": "sffpep", "U": {"num": [0, 2]}, "T": {"num": [0, 1]},
            "A": [[1]], "B": [[1]], "C": {"whole_space": 1}, "Q": {"whole_space": 1},
            "alpha": {"constant": 0.5}, "beta": {"constant": 0.5},
            "lam": {"constant": 0.5}, "reference": [[0], [0]], "enforce_ranges": False,
        },
        "start": {"x": [1e160], "y": [1]},
        "stopping": {"max_iters": 3},
    }
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["fejer"] == {"monotone": None, "overflow_at": 0}


@pytest.mark.parametrize("reference", [[[5.0], [1.25]], [5.0, 1.25]])
def test_reference_of_another_dimension_is_rejected(tmp_path, capsys, reference):
    # both used to run, with dist_to_target taken over a broadcast 2-vector
    cfg = write_config(tmp_path, _inline(reference=reference))
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: the reference x* has 2 entries; x0 has 1\n"
    assert not (tmp_path / "out").exists()


def test_two_block_reference_needs_both_blocks(tmp_path, capsys):
    # a one-block reference for sffpep used to exit 3 with an IndexError
    doc = json.loads((REPO / "demos" / "configs" / "sffpep_inline_rules.json").read_text())
    doc["problem"]["reference"] = [5.0]
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "family 'sffpep' takes a reference [x*, y*]" in capsys.readouterr().err


def _preset_problem(ex_id, **changes):
    return dict(catalog()[ex_id].problem, enforce_ranges=False, **changes)


_HALVING = {"num": [0.0, 0.5], "class": "nonexpansive", "fixed_points": [0.0]}

# family -> (problem, start, the slot, its dimension, the space's name and
# dimension); scfpep runs swapped, so U_family acts in the y block
SPACE_MISMATCHES = {
    "scfpp": ({"family": "scfpp", "T": {"num": [0.0, 0.5]}, "G": {"num": [0.0, 0.5]},
               "A": [[1, 0], [0, 1]], "alpha": {"constant": 0.5}, "gamma": 0.5,
               "enforce_ranges": False},
              {"x": [0.5, 0.5]}, "G acts in dimension 1; scfpp applies it in the "
                                 "columns of A, dimension 2"),
    "scfpp_adaptive": ({"family": "scfpp_adaptive", "U": _HALVING, "T": _HALVING,
                        "A": [[1], [0]], "alpha": {"constant": 0.5}},
                       {"x": [0.5]}, "T acts in dimension 1; scfpp_adaptive applies it "
                                     "in the rows of A, dimension 2"),
    "synchronal_vip": (_preset_problem("synchronal_demo", T="scaledNeg"), {"x": [4.0]},
                       "f acts in dimension 1; synchronal_vip applies it in the "
                       "dimension of T, dimension 3"),
    "sffpep": (_preset_problem("bnm_t1", Q={"whole_space": 2}), {"x": [10], "y": [15]},
               "Q acts in dimension 2; sffpep applies it in the columns of B, "
               "dimension 1"),
    "scfpep": (_preset_problem("wq_t3", U_family=["scaledNeg"]), {"x": [5], "y": [5]},
               "U_family[0] acts in dimension 3; scfpep applies it in the columns "
               "of B, dimension 1"),
    "extragradient_sffpp": (_preset_problem("extragradient_1d", G="scaledNeg"),
                            {"x": [10.0]}, "G acts in dimension 3; extragradient_sffpp "
                                           "applies it in the rows of A, dimension 1"),
}


@pytest.mark.parametrize("family", sorted(SPACE_MISMATCHES))
def test_a_slot_of_another_dimension_than_its_space_is_rejected(tmp_path, capsys, family):
    # each used to run to the end, or exit 3 with a dimension error
    problem, start, message = SPACE_MISMATCHES[family]
    cfg = write_config(tmp_path, {"problem": problem, "start": start,
                                  "stopping": {"max_iters": 3}})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "configuration error: problem: %s\n" % message
    assert not (tmp_path / "out").exists()


def test_b_with_other_rows_than_a_is_rejected(tmp_path, capsys):
    # this used to exit 3
    doc = {"problem": _preset_problem("bnm_t1", B=[[4.0], [1.0]]),
           "start": {"x": [10.0], "y": [15.0]}}
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: problem: B has 2 rows and A has 1; Ax - By needs one space\n")


def test_an_inline_rule_with_a_2d_domain_is_rejected(tmp_path, capsys):
    # a rule map is 1-D; this used to exit 3 projecting a 1-D point
    problem = _preset_problem("scfpp_smallS", T={
        "num": [0.0, 0.5], "domain": {"box": {"lower": [0, 0], "upper": [1, 1]}}})
    doc = {"problem": problem, "start": {"x": [0.5]}}
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: problem.T: a rule map is 1-D, but its domain has "
        "dimension 2\n")
