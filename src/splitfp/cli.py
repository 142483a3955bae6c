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
from dataclasses import fields, replace
from functools import cache, partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import presets
from .config import (_FIELD, _KINDS, _PROBLEM_TYPES, _object, _string, _vector,
                     build_spec_from_config)
from .diagnostics import FejerOverflow, fejer_check
from .operators import (CLASS_TOKENS, ClassMismatch, class_from_token, operator_catalog,
                        verify_class)
from .problems import FAMILIES, IterationTrace, StoppingRule, ValidationError
from .solvers import SolverError, run
from .spaces import row_norms

__all__ = ["main", "write_trace_csv", "parse_trace_csv", "write_trace_json",
           "write_residual_svg", "build_spec_from_config"]

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_BREAKDOWN = 3

_TABLE_IDS = {"t1": "bnm_t1", "t2": "bnm_t2", "t3": "wq_t3", "t4": "wq_t4"}


# ---------------------------------------------------------------------------
# run configs: the top level; the ``problem`` schema is in ``config``


def _problem(value, path):
    """(spec, start, stopping rule or None) of a preset or an inline problem."""
    if not (isinstance(value, dict) and "example" in value):
        return build_spec_from_config(value), {}, None
    preset = _object(dict, {"example": _string}, value, path)   # takes no other key
    try:
        example = presets.get_example(preset["example"])
    except KeyError as err:
        raise ValidationError("%s.example: %s" % (path, err.args[0])) from None
    return example.spec, dict(zip(("x", "y"), example.starts[0])), example.default_rule


_CONFIG = {
    "problem": _problem,
    "start": partial(_object, dict, {"x": _vector, "y": _vector}),
    "stopping": partial(_object, dict, {f.name: _KINDS[f.type]
                                        for f in fields(StoppingRule)}),
    "outputs": partial(_object, dict, dict.fromkeys(("trace", "summary", "plot"),
                                                    _string)),
    # a flag sets a ProblemSpec field, and shares its parser
    "flags": partial(_object, dict, {
        flag: _KINDS[_PROBLEM_TYPES[_FIELD.get(flag, flag)]]
        for flag in ("wq_branch", "gamma_bound", "cut_cap")}),
}


def _load_run_config(path, args):
    """Read a run config into (spec, start, rule, outputs).

    Flags and command-line overrides build new specs and rules through
    ``dataclasses.replace``, so they are validated like any other field.
    """
    with open(path) as fh:
        config = _object(dict, _CONFIG, json.load(fh), "")
    # without a problem: "problem: expected an object, got None"
    spec, start, rule = config.get("problem") or _problem(None, "problem")
    start = config.get("start") or start
    if "x" not in start:
        raise ValidationError("start.x: missing")
    flags = config.get("flags", {})
    if args.wq_branch:
        flags["wq_branch"] = args.wq_branch
    for flag, value in flags.items():   # one at a time, so an error names its flag
        try:
            spec = replace(spec, **{_FIELD.get(flag, flag): value})
        except ValidationError as err:
            raise ValidationError("flags.%s: %s" % (flag, err)) from None
    if config.get("stopping") or rule is None:
        rule = StoppingRule(**{"max_iters": 1000, **config.get("stopping", {})})
    overrides = {"max_iters": args.max_iters, "residual_tol": args.tol}
    rule = replace(rule, **{key: v for key, v in overrides.items() if v is not None})
    start = {key: np.asarray(value, dtype=float) for key, value in start.items()}
    return spec, start, rule, config.get("outputs", {})


# ---------------------------------------------------------------------------
# trace serialization


_fmt = "%.17g".__mod__   # 17 significant digits: every double round-trips
_quoted = '"%.17g"'.__mod__   # the same, as a JSON string


def _vector_slots(trace):
    """The vector slots of a trace in column order, each with its dimension."""
    cols = trace.columns
    slots = [(slot, cols[slot].shape[1]) for slot in ("x", "y") if slot in cols]
    # an intermediate no record holds has the dimension of its block; a
    # parsed trace has no family, so x's
    family = FAMILIES.get(trace.family)
    y_block = family.y_block if family else ""
    for slot in trace.intermediates:
        held = cols.get(slot, cols["y" if slot in y_block else "x"])
        slots.append((slot, held.shape[1]))
    return slots


# the scalar columns, after n and the vector entries
_SCALARS = ("step", "residual_primary", "residual_coupling", "dist_to_target", "cut_count")


def _trace_columns(trace):
    cols = ["n"]
    cols += ["%s_%d" % (slot, i) for slot, dim in _vector_slots(trace)
             for i in range(dim)]
    return cols + list(_SCALARS)


def _trace_cells(trace, fmt=_fmt, absent=""):
    """Each record's cells, in the order of :func:`_trace_columns`: ``fmt``
    of each value, and ``absent`` where a record lacks one.  A count (``n``,
    ``cut_count``) is held as a float, which ``_fmt`` writes as the
    integer."""
    columns = [trace.field_values("n")]
    columns += [trace.field_values(slot, i) for slot, dim in _vector_slots(trace)
                for i in range(dim)]
    columns += [trace.field_values(name) for name in _SCALARS]
    return zip(*([absent if v is None else fmt(v) for v in column] for column in columns))


def _write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8 with LF endings, in a new file.

    An existing regular file of that name is unlinked, not truncated: ext4
    flushes a file truncated at open when it is closed, tens of
    milliseconds a file.  So a link to an old output keeps the old bytes,
    and a symlink to a regular file is replaced by a regular file.  Any
    other path (a device such as ``/dev/null``, a symlink to one, a FIFO)
    is written through, and so is a file whose directory refuses the
    unlink.  Nothing is fsynced.
    """
    path = Path(path)
    if path.is_file():
        try:
            path.unlink(missing_ok=True)
        except PermissionError:
            pass
    path.write_text(text, encoding="utf-8", newline="\n")


def write_trace_csv(trace, path):
    """Comma-separated trace, header row, LF endings, 17 significant digits."""
    lines = [",".join(_trace_columns(trace))]
    lines += map(",".join, _trace_cells(trace))
    _write_text(path, "\n".join(lines) + "\n")


def parse_trace_csv(path):
    """Read back a trace CSV; float cells round-trip exactly."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    table = list(zip(*(ln.split(",") for ln in lines[1:]))) or [()] * len(header)
    cells = dict(zip(header, table))

    def floats(column):
        return [None if c == "" else float(c) for c in column]

    vector_slots = {}   # slot -> dimension
    for col in header:
        name, _, idx = col.rpartition("_")
        if name and idx.isdigit():
            vector_slots[name] = max(vector_slots.get(name, 0), int(idx) + 1)
    values = {"n": floats(cells["n"])}
    for name, dim in vector_slots.items():
        entries = zip(*(floats(cells["%s_%d" % (name, i)]) for i in range(dim)))
        values[name] = [None if None in row else row for row in entries]
    for name in _SCALARS:
        values[name] = floats(cells.get(name, ()))
    intermediates = tuple(s for s in ("u", "z", "w", "r") if s in vector_slots)
    return IterationTrace(family="parsed", intermediates=intermediates, values=values)


def _json_list(items, indent):
    """A list of encoded JSON items laid out as ``json.dumps(..., indent=2)``
    lays it out ``indent`` spaces deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def write_trace_json(trace, path):
    """The text of ``json.dumps(doc, indent=2)`` of the trace document
    (family, stop reason, columns, and each record's cells as strings, null
    where a record lacks one), built from the cells directly: a cell is
    ``%.17g`` of a float in quotes, which needs no escaping."""
    records = [_json_list(cells, 4) for cells in _trace_cells(trace, _quoted, "null")]
    fields = (("family", json.dumps(trace.family)),
              ("stop_reason", json.dumps(trace.stop_reason)),
              ("columns", _json_list([json.dumps(c) for c in _trace_columns(trace)], 2)),
              ("records", _json_list(records, 2)))
    text = "{\n" + ",\n".join('  "%s": %s' % field for field in fields) + "\n}\n"
    _write_text(path, text)


def write_residual_svg(trace, path, width=640, height=400):
    """Self-contained SVG line chart of log10(residual) against n.

    Each residual's log10 is ``math.log10`` of a Python float; the polyline's
    coordinates are computed on arrays, with the operations and in the
    order of one point at a time, and written with one ``%`` format.
    """
    held = [(n, r) for n, r in zip(trace.columns["n"].astype(int).tolist(),
                                   trace.field_values("residual_primary"))
            if r is not None] or [(0, 1.0)]   # no residual: the point (0, log10 1)
    xs, rs = zip(*held)
    ys = list(map(math.log10, np.maximum(rs, 1e-300).tolist()))   # floored, as max(r, 1e-300)
    margin = 50
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    with np.errstate(all="ignore"):   # as Python floats: an inf or NaN, silently
        sx = margin + (np.array(xs) - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        sy = height - margin - (np.array(ys) - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
    poly = ("%.2f,%.2f " * len(xs) % tuple(np.column_stack((sx, sy)).ravel().tolist()))[:-1]
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
    _write_text(path, "\n".join(svg) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args):
    try:
        spec, start, rule, outputs = _load_run_config(args.config, args)
    except (OSError, KeyError, ValueError) as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    try:
        trace = run(spec, start["x"], start.get("y"), rule=rule)
    except ValidationError as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG

    final = trace.final
    trace_name = outputs.get("trace", "trace.%s" % args.format)
    summary = {
        "family": trace.family,
        "stop_reason": trace.stop_reason,
        "iterations": final.n,
        "final_x": final.x.tolist(),
        "final_y": None if final.y is None else final.y.tolist(),
        "final_residual": final.residual_primary,
        "dist_to_target": final.dist_to_target,
        "range_warnings": list(spec.warnings),
        "trace": trace_name,   # relative to --out-dir
    }
    ref = spec.reference_solution
    if ref is not None:
        try:
            report = fejer_check(trace, ref if spec.two_variable else ref[0], 1e-8)
        except FejerOverflow as err:   # no check can be made
            summary["fejer"] = {"monotone": None, "overflow_at": err.n}
        else:
            summary["fejer"] = {"monotone": report.monotone,
                                "max_uptick": report.max_uptick,
                                "first_violation": report.first_violation}
    if "cut_count" in trace.columns:
        xs = trace.columns["x"]
        departures = row_norms(xs - xs[0]).tolist()
        summary["departure_from_start"] = {
            "non_decreasing": all(
                b >= a - 1e-12 for a, b in zip(departures, departures[1:])
            ),
            "final": departures[-1],
        }
    summary_text = json.dumps(summary, indent=2)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print("cannot create output directory: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    try:
        write = write_trace_json if args.format == "json" else write_trace_csv
        write(trace, out_dir / trace_name)
        write_residual_svg(trace, out_dir / outputs.get("plot", "residual.svg"))
        _write_text(out_dir / outputs.get("summary", "summary.json"), summary_text + "\n")
    except OSError as err:
        print("cannot write outputs: %s" % err, file=sys.stderr)
        return _EXIT_CONFIG
    print(summary_text)
    return _EXIT_OK


def cmd_reproduce(args):
    table = args.table
    if table not in _TABLE_IDS:
        print("unknown table id %r (use t1..t4)" % table, file=sys.stderr)
        return _EXIT_CONFIG
    example = presets.get_example(_TABLE_IDS[table])
    cols = example.run().columns
    xs, ys = cols["x"][:, 0].tolist(), cols["y"][:, 0].tolist()
    # the alternate form keeps trailing zeros: 10 significant digits, always
    print("n x_n y_n")
    print(("%d %#.10g %#.10g\n" * len(xs)) % tuple(chain.from_iterable(
        zip(cols["n"].tolist(), xs, ys))), end="")
    failures = []
    for row in example.expected:
        got = (xs[row.n],) if len(row.values) == 1 else (xs[row.n], ys[row.n])
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


@cache
def _parser():
    """The argument parser, built once per process as ``presets.catalog()``
    is; each ``parse_args`` call fills a fresh namespace, and ``main``
    looks the subcommand's handler up at each call."""
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

    p_rep = sub.add_parser("reproduce", help="rerun a bundled reference table")
    p_rep.add_argument("table", help="t1, t2, t3, or t4")

    p_ver = sub.add_parser("verify", help="sampling-check an operator class")
    p_ver.add_argument("operator", help="catalog operator id")
    p_ver.add_argument("cls", metavar="class",
                       help="'declared' or a class token, optionally with "
                            "a parameter (demicontractive:0.5): %s"
                            % ", ".join(CLASS_TOKENS))
    p_ver.add_argument("--samples", type=_positive_int, default=1000)
    p_ver.add_argument("--seed", type=int, default=1)

    p_list = sub.add_parser("list-examples", help="list named configurations")
    p_list.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {"run": cmd_run, "reproduce": cmd_reproduce, "verify": cmd_verify,
               "list-examples": cmd_list_examples}[args.command]
    try:
        return handler(args)
    except SolverError as err:
        print("numerical breakdown: %s" % err, file=sys.stderr)
        return _EXIT_BREAKDOWN
    except Exception as err:  # keep the exit-code contract: {0, 1, 2, 3}
        print("internal error: %s" % err, file=sys.stderr)
        traceback.print_exc()
        return _EXIT_BREAKDOWN


if __name__ == "__main__":
    sys.exit(main())
