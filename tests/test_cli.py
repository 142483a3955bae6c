"""Command-line interface: exit codes, trace round-trips, outputs."""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from splitfp.cli import main, parse_trace_csv, write_trace_csv
from splitfp.operators import CLASS_TOKENS
from splitfp.presets import run_example
from splitfp.problems import StoppingRule


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


def test_run_unwritable_output_exit_2(tmp_path):
    cfg = write_config(tmp_path, BNM_CONFIG)
    # a path under a regular file cannot become a directory, even for root
    plain_file = tmp_path / "occupied"
    plain_file.write_text("x")
    code = main(["run", "--config", cfg, "--out-dir",
                 str(plain_file / "out"), "--max-iters", "1"])
    assert code == 2


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
    assert err.startswith("configuration error: set {") and "has a NaN" in err


def test_run_unknown_flag_exits_2(tmp_path, capsys):
    doc = {"problem": {"example": "bnm_t1"}, "flags": {"wq-branch": "sideways"}}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "unknown flags wq-branch" in capsys.readouterr().err


def test_run_unknown_stopping_key_exits_2(tmp_path, capsys):
    doc = {"problem": {"example": "bnm_t1"}, "stopping": {"max_iter": 5}}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown keys stopping.max_iter" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("domain, what", [
    ({"ball": {"center": [float("inf")], "radius": 1.0}}, "centre"),
    ({"halfspace": {"a": [float("-inf")], "b": 1.0}}, "normal"),
    ({"intersection": [{"whole_space": 1},
                       {"ball": {"center": [float("-inf")], "radius": 1.0}}]}, "centre"),
], ids=["ball", "halfspace", "intersection"])
def test_run_rejects_an_infinite_normal_or_centre(tmp_path, capsys, domain, what):
    T = dict(SCFPP_INLINE["problem"]["T"], domain=domain)
    doc = dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], T=T))
    cfg = write_config(tmp_path, doc)   # json writes the infinities as Infinity
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: set {")
    assert "has an infinite %s" % what in err


@pytest.mark.parametrize("domain", [
    {"ball": {"center": [0.0], "radius": float("inf")}},
    {"halfspace": {"a": [1.0], "b": float("inf")}},
], ids=["ball", "halfspace"])
def test_run_takes_an_infinite_radius_or_offset_as_the_whole_space(tmp_path, domain):
    T = dict(SCFPP_INLINE["problem"]["T"], domain=domain)
    doc = dict(SCFPP_INLINE, problem=dict(SCFPP_INLINE["problem"], T=T))
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("start, message", [
    ({"x": [1.0, 2.0], "y": [1.0]}, "x0 has 2 entries; A expects 1"),
    ({"x": [1.0], "y": [1.0, 2.0]}, "y0 has 2 entries; B expects 1"),
], ids=["x", "y"])
def test_run_start_of_the_wrong_dimension_exits_2(tmp_path, capsys, start, message):
    doc = {"problem": {"example": "bnm_t1"}, "start": start}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


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


def test_verify_exit_codes(capsys):
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
    listed = re.findall(r"^\| `([a-z_]+)` \|", readme, flags=re.M)
    assert listed == list(CLASS_TOKENS)


def test_list_examples_formats(capsys):
    assert main(["list-examples"]) == 0
    text = capsys.readouterr().out
    assert "bnm_t1" in text and "extragradient_1d" in text
    assert main(["list-examples", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert {d["id"] for d in docs} >= {"bnm_t1", "wq_t3"}


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
