"""Command-line front end.

Subcommands:

- ``run``: load a JSON problem configuration, drive the solver, emit a
  trace (CSV or JSON), a JSON summary, and a self-contained SVG residual
  chart.
- ``reproduce``: rerun the recurrence behind one of the bundled reference
  tables (t1..t4), print the rows at 10 significant digits, and check the
  pinned values.
- ``verify``: sampling-check an operator class declaration.
- ``list-examples``: enumerate the named example configurations.

Exit codes: 0 success, 1 failed check, 2 configuration or validation
error, 3 numerical breakdown.
"""

import argparse
import json
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import presets
from .diagnostics import fejer_check
from .operators import (
    CLASS_TOKENS,
    ClassMismatch,
    SequenceSpec,
    class_from_token,
    map_from_rule,
    operator_catalog,
    verify_class,
)
from .problems import (
    FAMILIES,
    IterationTrace,
    ProblemSpec,
    StoppingRule,
    TraceRecord,
    ValidationError,
)
from .projections import Ball, Box, Halfspace, Intersection, WholeSpace
from .rules import rule_from_config
from .solvers import SolverError, run
from .spaces import LinearMap, norm

__all__ = ["main", "write_trace_csv", "parse_trace_csv", "write_trace_json",
           "write_residual_svg", "build_spec_from_config"]

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_BREAKDOWN = 3

_TABLE_IDS = {"t1": "bnm_t1", "t2": "bnm_t2", "t3": "wq_t3", "t4": "wq_t4"}


# ---------------------------------------------------------------------------
# configuration parsing


def _set_from_config(doc):
    if "whole_space" in doc:
        return WholeSpace(int(doc["whole_space"]))
    if "box" in doc:
        def bound(v, default):
            if v is None:
                return default
            return float(v)  # "inf" / "-inf" strings parse directly
        lower = [bound(v, -np.inf) for v in doc["box"]["lower"]]
        upper = [bound(v, np.inf) for v in doc["box"]["upper"]]
        body, numbers, finite = Box(lower, upper), lower + upper, None
    elif "halfspace" in doc:
        body = Halfspace(doc["halfspace"]["a"], doc["halfspace"]["b"])
        numbers, finite = [*body.a, body.b], ("normal", body.a)
    elif "ball" in doc:
        body = Ball(doc["ball"]["center"], doc["ball"]["radius"])
        numbers, finite = [*body.center, body.radius], ("centre", body.center)
    elif "intersection" in doc:
        return Intersection([_set_from_config(d) for d in doc["intersection"]])
    else:
        raise ValidationError("unknown set description %r" % (doc,))
    # json reads NaN, and float() parses "nan"
    if any(math.isnan(v) for v in numbers):
        raise ValidationError("set %r has a NaN" % (doc,))
    # an infinite offset or radius is the whole space; an infinite normal
    # or centre describes no set
    if finite and np.isinf(finite[1]).any():
        raise ValidationError("set %r has an infinite %s" % (doc, finite[0]))
    return body


def _operator_from_config(doc, cat):
    if isinstance(doc, str):
        doc = {"catalog": doc}
    if "catalog" in doc:
        name = doc["catalog"]
        if name not in cat:
            raise ValidationError("unknown catalog operator %r" % (name,))
        return cat[name]
    rule = rule_from_config(doc)
    domain = _set_from_config(doc["domain"]) if "domain" in doc else WholeSpace(1)
    declared = class_from_token(doc["class"]) if "class" in doc else None
    extra = tuple(class_from_token(t) for t in doc.get("extra_classes", ()))
    return map_from_rule(
        rule,
        domain,
        declared_class=declared,
        known_fixed_points=[[v] for v in doc.get("fixed_points", ())],
        name=doc.get("name", "inline"),
        extra_classes=extra,
    )


def build_spec_from_config(problem):
    """Build a ProblemSpec from the ``problem`` object of a run config."""
    cat = operator_catalog()
    kwargs = {"family": problem["family"]}
    for slot in ("T", "G", "U", "f"):
        if slot in problem:
            kwargs[slot] = _operator_from_config(problem[slot], cat)
    for fam_slot, rel_slot, w_slot in (
        ("U_family", "u_relax", "u_weights"),
        ("T_family", "t_relax", "t_weights"),
    ):
        if fam_slot in problem:
            kwargs[fam_slot] = tuple(
                _operator_from_config(d, cat) for d in problem[fam_slot]
            )
            kwargs[rel_slot] = tuple(problem.get(rel_slot, ()))
            kwargs[w_slot] = tuple(problem.get(w_slot, ()))
    for mat_slot in ("A", "B"):
        if mat_slot in problem:
            kwargs[mat_slot] = LinearMap(problem[mat_slot])
    for set_slot in ("C", "Q"):
        if set_slot in problem:
            kwargs[set_slot] = _set_from_config(problem[set_slot])
    for seq_slot in ("alpha", "beta", "lam", "gamma_seq"):
        if seq_slot in problem:
            kwargs[seq_slot] = SequenceSpec.from_config(problem[seq_slot])
    for scalar_slot in ("gamma", "mu", "gamma_visc", "cut_cap"):
        if scalar_slot in problem:
            kwargs[scalar_slot] = problem[scalar_slot]
    if "reference" in problem:
        kwargs["reference_solution"] = problem["reference"]
    for flag in ("branch_assignment", "gamma_bound_choice", "enforce_ranges"):
        if flag in problem:
            kwargs[flag] = problem[flag]
    return ProblemSpec(**kwargs)


# run-config flag -> the ProblemSpec field it sets
_FLAG_FIELDS = {
    "wq_branch": "branch_assignment",
    "gamma_bound": "gamma_bound_choice",
    "cut_cap": "cut_cap",
}

_STOPPING_KEYS = ("max_iters", "residual_tol", "stagnation_tol", "target_tol")


def _load_run_config(path, args):
    """Read a run config into (spec, start, rule, outputs).

    Flags and command-line overrides build new specs and rules through
    ``dataclasses.replace``, so they are validated like any other field.
    """
    with open(path) as fh:
        config = json.load(fh)
    flags = dict(config.get("flags", {}))
    unknown = sorted(set(flags) - set(_FLAG_FIELDS))
    if unknown:
        raise ValidationError("unknown flags %s (known: %s)"
                              % (", ".join(unknown), ", ".join(_FLAG_FIELDS)))
    if args.wq_branch:
        flags["wq_branch"] = args.wq_branch
    if "cut_cap" in flags:
        flags["cut_cap"] = int(flags["cut_cap"])

    problem = config["problem"]
    start = config.get("start", {})
    if "example" in problem:
        example = presets.get_example(problem["example"])
        spec = example.spec
        if not start:
            start = dict(zip(("x", "y"), example.starts[0]))
        rule = example.default_rule
    else:
        spec = build_spec_from_config(problem)
        rule = None
    start = {key: np.asarray(value, dtype=float) for key, value in start.items()}
    overrides = {field: flags[flag] for flag, field in _FLAG_FIELDS.items()
                 if flag in flags}
    if overrides:
        spec = replace(spec, **overrides)

    stopping = config.get("stopping", {})
    unknown = sorted(set(stopping) - set(_STOPPING_KEYS))
    if unknown:
        raise ValidationError("unknown keys %s (known: %s)" % (
            ", ".join("stopping." + key for key in unknown),
            ", ".join(_STOPPING_KEYS)))
    if stopping or rule is None:
        rule = StoppingRule(
            max_iters=int(stopping.get("max_iters", 1000)),
            residual_tol=stopping.get("residual_tol"),
            stagnation_tol=stopping.get("stagnation_tol"),
            target_tol=stopping.get("target_tol"),
        )
    if args.max_iters is not None:
        rule = replace(rule, max_iters=args.max_iters)
    if args.tol is not None:
        rule = replace(rule, residual_tol=args.tol)
    outputs = config.get("outputs", {})
    return spec, start, rule, outputs


# ---------------------------------------------------------------------------
# trace serialization


def _fmt(v):
    return "%.17g" % v


def _trace_columns(trace):
    first = trace.records[0]
    cols = ["n"]
    cols += ["x_%d" % i for i in range(first.x.shape[0])]
    if first.y is not None:
        cols += ["y_%d" % i for i in range(first.y.shape[0])]
    # each intermediate has the dimension of the block it belongs to; a
    # parsed trace has no family, and its slots take the x dimension
    family = FAMILIES.get(trace.family)
    y_block = family.y_block if family else ""
    for slot in trace.intermediates:
        vec = first.y if slot in y_block else first.x
        cols += ["%s_%d" % (slot, i) for i in range(vec.shape[0])]
    cols += ["step", "residual_primary", "residual_coupling", "dist_to_target",
             "cut_count"]
    return cols


def _record_cells(rec, cols):
    by_vector = {"x": rec.x, "y": rec.y, "u": rec.u, "z": rec.z, "w": rec.w,
                 "r": rec.r}
    cells = []
    for col in cols:
        if col == "n":
            cells.append(str(rec.n))
        elif col == "cut_count":
            cells.append("" if rec.cut_count is None else str(rec.cut_count))
        elif col in ("step", "residual_primary", "residual_coupling",
                     "dist_to_target"):
            v = getattr(rec, col)
            cells.append("" if v is None else _fmt(v))
        else:
            name, idx = col.rsplit("_", 1)
            vec = by_vector[name]
            cells.append("" if vec is None else _fmt(vec[int(idx)]))
    return cells


def write_trace_csv(trace, path):
    """Comma-separated trace, header row, LF endings, 17 significant digits."""
    cols = _trace_columns(trace)
    lines = [",".join(cols)]
    for rec in trace.records:
        lines.append(",".join(_record_cells(rec, cols)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def parse_trace_csv(path):
    """Read back a trace CSV; float cells round-trip exactly."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    cols = lines[0].split(",")
    vector_slots = {}
    for col in cols:
        if "_" in col and col.rsplit("_", 1)[1].isdigit():
            name, idx = col.rsplit("_", 1)
            vector_slots.setdefault(name, 0)
            vector_slots[name] = max(vector_slots[name], int(idx) + 1)
    records = []
    for ln in lines[1:]:
        cells = dict(zip(cols, ln.split(",")))
        vectors = {}
        for name, dim in vector_slots.items():
            vals = [cells["%s_%d" % (name, i)] for i in range(dim)]
            vectors[name] = (
                None if any(v == "" for v in vals)
                else np.array([float(v) for v in vals])
            )

        def scalar(col_name):
            v = cells.get(col_name, "")
            return None if v == "" else float(v)

        records.append(
            TraceRecord(
                n=int(cells["n"]),
                x=vectors.get("x"),
                y=vectors.get("y"),
                u=vectors.get("u"),
                z=vectors.get("z"),
                w=vectors.get("w"),
                r=vectors.get("r"),
                step=scalar("step"),
                residual_primary=scalar("residual_primary"),
                residual_coupling=scalar("residual_coupling"),
                dist_to_target=scalar("dist_to_target"),
                cut_count=(
                    None if cells.get("cut_count", "") == ""
                    else int(cells["cut_count"])
                ),
            )
        )
    intermediates = tuple(s for s in ("u", "z", "w", "r") if s in vector_slots)
    return IterationTrace(family="parsed", records=records,
                          intermediates=intermediates)


def write_trace_json(trace, path):
    cols = _trace_columns(trace)
    doc = {
        "family": trace.family,
        "stop_reason": trace.stop_reason,
        "columns": cols,
        "records": [
            [cell if cell != "" else None for cell in _record_cells(rec, cols)]
            for rec in trace.records
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_residual_svg(trace, path, width=640, height=400):
    """Self-contained SVG line chart of log10(residual) against n."""
    pts = [
        (rec.n, rec.residual_primary)
        for rec in trace.records
        if rec.residual_primary is not None
    ]
    floor = 1e-300
    series = [(n, math.log10(max(r, floor))) for n, r in pts]
    margin = 50
    if not series:
        series = [(0, 0.0)]
    xs = [p[0] for p in series]
    ys = [p[1] for p in series]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    poly = " ".join("%.2f,%.2f" % (sx(n), sy(v)) for n, v in series)
    svg = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="100%" height="100%" fill="white"/>',
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (margin, margin, margin, height - margin),
        '<text x="%d" y="%d" font-size="12">n</text>'
        % (width - margin + 8, height - margin + 4),
        '<text x="%d" y="%d" font-size="12" transform="rotate(-90 14 %d)">'
        "log10 residual</text>" % (14, (height // 2), (height // 2)),
        '<text x="%d" y="%d" font-size="11">%d</text>'
        % (margin - 4, height - margin + 16, int(x_lo)),
        '<text x="%d" y="%d" font-size="11">%d</text>'
        % (width - margin - 12, height - margin + 16, int(x_hi)),
        '<text x="%d" y="%d" font-size="11">%.1f</text>'
        % (6, height - margin + 4, y_lo),
        '<text x="%d" y="%d" font-size="11">%.1f</text>' % (6, margin + 4, y_hi),
        '<polyline points="%s" fill="none" stroke="steelblue" stroke-width="1.5"/>'
        % poly,
        "</svg>",
    ]
    Path(path).write_text("\n".join(svg) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args):
    try:
        spec, start, rule, outputs = _load_run_config(args.config, args)
    except (OSError, KeyError, ValueError, TypeError) as err:
        # TypeError: a config value of the wrong JSON type
        print("configuration error: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    try:
        x0 = start["x"]
        y0 = start.get("y")
        trace = run(spec, x0, y0, rule=rule)
    except SolverError as err:
        print("numerical breakdown: %s" % err, file=sys.stderr)
        return _EXIT_BREAKDOWN
    except (ValidationError, KeyError) as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print("cannot create output directory: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG

    trace_name = outputs.get("trace", "trace.%s" % args.format)
    summary_name = outputs.get("summary", "summary.json")
    plot_name = outputs.get("plot", "residual.svg")
    trace_path = out_dir / trace_name
    try:
        if args.format == "json":
            write_trace_json(trace, trace_path)
        else:
            write_trace_csv(trace, trace_path)
        write_residual_svg(trace, out_dir / plot_name)
    except OSError as err:
        print("cannot write outputs: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG

    final = trace.final
    summary = {
        "family": trace.family,
        "stop_reason": trace.stop_reason,
        "iterations": final.n,
        "final_x": final.x.tolist(),
        "final_y": None if final.y is None else final.y.tolist(),
        "final_residual": final.residual_primary,
        "dist_to_target": final.dist_to_target,
        "range_warnings": list(spec.warnings),
        "trace": str(trace_path),
    }
    if spec.reference_solution is not None:
        target = (
            spec.reference_solution
            if spec.two_variable
            else spec.reference_solution[0]
        )
        report = fejer_check(trace, target, slack=1e-8)
        summary["fejer"] = {
            "monotone": report.monotone,
            "max_uptick": report.max_uptick,
            "first_violation": report.first_violation,
        }
    if FAMILIES[spec.family].accumulates_cuts:
        x0 = trace.records[0].x
        departures = [norm(rec.x - x0) for rec in trace.records]
        summary["departure_from_start"] = {
            "non_decreasing": all(
                b >= a - 1e-12 for a, b in zip(departures, departures[1:])
            ),
            "final": departures[-1],
        }
    try:
        (out_dir / summary_name).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as err:
        print("cannot write outputs: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    print(json.dumps(summary, indent=2))
    return _EXIT_OK


def _format_sig10(v):
    # alternate form keeps trailing zeros: 10 significant digits, always
    return "%#.10g" % v


def cmd_reproduce(args):
    table = args.table
    if table not in _TABLE_IDS:
        print("unknown table id %r (use t1..t4)" % table, file=sys.stderr)
        return _EXIT_CONFIG
    example = presets.get_example(_TABLE_IDS[table])
    try:
        trace = example.run()
    except SolverError as err:
        print("numerical breakdown: %s" % err, file=sys.stderr)
        return _EXIT_BREAKDOWN
    print("n x_n y_n")
    for rec in trace.records:
        print(
            "%d %s %s"
            % (rec.n, _format_sig10(rec.x[0]), _format_sig10(rec.y[0]))
        )
    failures = []
    for row in example.expected:
        rec = trace.records[row.n]
        got = (rec.x[0],) if len(row.values) == 1 else (rec.x[0], rec.y[0])
        for g, want, tol in zip(got, row.values, row.tolerances):
            if abs(g - want) > tol:
                failures.append((row.n, want, g, abs(g - want)))
    if failures:
        for n, want, got, delta in failures:
            print(
                "MISMATCH row n=%d expected %.10g got %.10g delta %.3e"
                % (n, want, got, delta),
                file=sys.stderr,
            )
        return _EXIT_CHECK_FAILED
    print("all %d pinned rows reproduced" % len(example.expected))
    return _EXIT_OK


def cmd_verify(args):
    cat = operator_catalog()
    if args.operator not in cat:
        print("unknown operator %r; known: %s"
              % (args.operator, ", ".join(sorted(cat))), file=sys.stderr)
        return _EXIT_CONFIG
    T = cat[args.operator]
    if args.cls == "declared":
        claimed = T.declared_class
        if claimed is None:
            print("operator declares no class", file=sys.stderr)
            return _EXIT_CONFIG
    else:
        try:
            claimed = class_from_token(args.cls)
        except ValueError as err:
            print(err, file=sys.stderr)
            return _EXIT_CONFIG
    try:
        report = verify_class(T, claimed, samples=args.samples, seed=args.seed)
    except ClassMismatch as err:
        print("cannot verify: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    print(report.to_text(), end="")
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def cmd_list_examples(args):
    docs = [ex.to_doc() for ex in presets.catalog().values()]
    if args.format == "json":
        print(json.dumps(docs, indent=2))
    else:
        for doc in docs:
            print(
                "%-18s family=%-20s starts=%d pinned_rows=%d"
                % (doc["id"], doc["family"], len(doc["starts"]),
                   len(doc["expected_rows"]))
            )
            if doc["notes"]:
                print("    %s" % doc["notes"])
    return _EXIT_OK


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitfp",
        description="Split fixed-point solvers: run, reproduce reference "
                    "tables, verify operator classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the run config")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument("--max-iters", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None,
                       help="override the residual tolerance")
    p_run.add_argument("--wq-branch", choices=["as_printed", "swapped"],
                       default=None)
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="rerun a bundled reference table")
    p_rep.add_argument("table", help="t1, t2, t3, or t4")
    p_rep.set_defaults(func=cmd_reproduce)

    p_ver = sub.add_parser("verify", help="sampling-check an operator class")
    p_ver.add_argument("operator", help="catalog operator id")
    p_ver.add_argument("cls", metavar="class",
                       help="'declared' or a class token, optionally with "
                            "a parameter (demicontractive:0.5): %s"
                            % ", ".join(CLASS_TOKENS))
    p_ver.add_argument("--samples", type=_positive_int, default=1000)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-examples", help="list named configurations")
    p_list.add_argument("--format", choices=["text", "json"], default="text")
    p_list.set_defaults(func=cmd_list_examples)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as err:
        print("numerical breakdown: %s" % err, file=sys.stderr)
        return _EXIT_BREAKDOWN
    except Exception as err:  # keep the exit-code contract: {0, 1, 2, 3}
        print("internal error: %s" % err, file=sys.stderr)
        traceback.print_exc()
        return _EXIT_BREAKDOWN


if __name__ == "__main__":
    sys.exit(main())
