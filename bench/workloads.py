"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from a seed in ``__init__`` (the set-up a
user pays once per process), runs one *pass* over a fixed list of
operations in :meth:`run_pass`, and checks a pass's outputs in
:meth:`check` against values computed here, apart from the program, or
against properties the method must have.  Every pass of one workload object
produces identical outputs, so :meth:`fingerprint` lets the runner check
later passes by comparison with a checked one.

- ``cli``: the command-line front end, in-process, on many short 1-D solves.
- ``powers``: two solves dominated by recomputing iterate powers.
- ``cuts``: extra-gradient runs with cut accumulation and direct
  projections onto intersections (Dykstra).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from decimal import Decimal
from pathlib import Path

import numpy as np

import splitfp
import splitfp.cli
import splitfp.diagnostics
from splitfp.operators import Nonexpansive, QuasiNonexpansive

from timing import PassTimer


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _trace_bytes(trace):
    parts = [trace.stop_reason.encode()]
    for rec in trace.records:
        parts.append(rec.x.tobytes())
        if rec.y is not None:
            parts.append(rec.y.tobytes())
        parts.append(repr((rec.residual_primary, rec.cut_count)).encode())
    return b"".join(parts)


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


def strict_json(text):
    """Parse JSON, rejecting NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# cli


# Rows of the reference tables as printed in the paper, pinned at the
# tolerances the tables' precision allows: n -> ((x, y), (tol_x, tol_y)).
TABLE_ROWS = {
    "t1": {
        1: ((9.898293685, 12.74500000), (1e-6, 1e-6)),
        2: ((9.797736851, 10.85982000), (1e-6, 1e-6)),
        3: ((9.698337655, 9.283809520), (1e-6, 1e-6)),
        248: ((5.001051418, 1.250000002), (1e-4, 1e-6)),
        249: ((5.001012726, 1.250000002), (1e-4, 1e-6)),
        250: ((5.000975458, 1.250000002), (1e-4, 1e-6)),
    },
    "t2": {n: ((5.0, 1.25), (1e-9, 1e-9)) for n in range(101)},
    "t3": {1: ((4.916472663, None), (1e-6, None))},
    "t4": {},
}
TABLE_LENGTHS = {"t1": 250, "t2": 100, "t3": 2000, "t4": 149}
# the preset each table is computed from
TABLE_PRESETS = {"t1": "bnm_t1", "t2": "bnm_t2", "t3": "wq_t3", "t4": "wq_t4"}
# presets run through ``run`` (``synchronal_demo`` belongs to ``powers``),
# and the catalog operators ``verify`` checks; fixed here, so that a preset
# or operator added to the program does not change the workload
RUN_PRESETS = ("adaptive_demo", "bnm_t1", "bnm_t2", "extragradient_1d",
               "scfpp_smallS", "wq_t3", "wq_t4")
ALL_PRESETS = RUN_PRESETS + ("synchronal_demo",)
VERIFY_OPERATORS = ("ballMap", "bigU", "browderPetryshyn", "heDu", "identity",
                    "scaledNeg", "smallS", "wqT", "wqU")
VERIFY_SAMPLES = 1000   # the CLI's default
# run configs outside the decimal oracle's fragment (3-D, cut accumulation)
ORACLE_UNSUPPORTED = {"preset:adaptive_demo", "preset:extragradient_1d"}
ORACLE_TOL = 1e-9     # relative agreement of final iterates with the oracle
FEJER_SLACK = 1e-8    # the slack the CLI itself applies


class CliWorkload:
    """A fixed list of CLI commands run in-process through ``splitfp.cli.main``.

    Many short 1-D solves, so per-command costs dominate: config parsing,
    rebuilding the preset catalog, operator-call wrappers, the Fejér check
    and CSV/SVG writing.  The seed shuffles the command order and picks the
    sampling seed of each ``verify``.
    """

    name = "cli"

    def __init__(self, seed, workdir, root):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for ex_id in RUN_PRESETS:
            path = cfg_dir / ("%s.json" % ex_id)
            path.write_text(json.dumps({"problem": {"example": ex_id}}))
            self.configs["preset:%s" % ex_id] = path
        demo_configs = sorted((Path(root) / "demos" / "configs").glob("*.json"))
        if len(demo_configs) != 3:
            raise FileNotFoundError("expected the three configs in demos/configs/")
        for path in demo_configs:
            self.configs["demo:%s" % path.stem] = path
        self.json_config = "demo:%s" % demo_configs[0].stem

        commands = [("reproduce:%s" % t, ["reproduce", t]) for t in TABLE_PRESETS]
        for label, path in self.configs.items():
            commands.append(("run:%s" % label, self._run_argv(label, path, "csv")))
        commands.append(("runjson:%s" % self.json_config, self._run_argv(
            self.json_config, self.configs[self.json_config], "json")))
        for op in VERIFY_OPERATORS:
            commands.append(("verify:%s" % op, [
                "verify", op, "declared", "--seed", str(rng.randrange(1, 2**31))]))
        commands.append(("list-examples", ["list-examples"]))
        rng.shuffle(commands)
        self.commands = commands
        self.iterations = None

    def _out_dir(self, label, fmt):
        return self.workdir / "out" / ("%s-%s" % (label.replace(":", "-"), fmt))

    def _run_argv(self, label, path, fmt):
        return ["run", "--config", str(path), "--out-dir",
                str(self._out_dir(label, fmt)), "--format", fmt]

    def run_pass(self, timer=None):
        timer = timer or PassTimer()
        ops = []
        for label, argv in self.commands:
            def command(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = splitfp.cli.main(argv)
                return code, out.getvalue(), err.getvalue()
            timer(ops, label, command)
        return ops

    def written_files(self):
        out = self.workdir / "out"
        return sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []

    def fingerprint(self, ops):
        parts = [(op.label, op.output, type(op.error).__name__) for op in ops]
        for path in self.written_files():
            parts.append(str(path.relative_to(self.workdir)))
            parts.append(path.read_bytes())
        return _digest(parts)

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.written_files())

    # -- checks --------------------------------------------------------------

    def check(self, ops):
        problems = []
        by_label = {op.label: op for op in ops}
        runs = {}
        iterations = 0
        # CSV runs first: the reproduce and JSON-format checks compare with them
        for label in sorted(by_label, key=lambda lb: not lb.startswith("run:")):
            op = by_label[label]
            if op.error is not None:
                continue
            code, out, err = op.output
            if code != 0:
                problems.append("%s: exit code %d, expected 0 (%s)"
                                % (label, code, err.strip()[-200:]))
                continue
            kind, _, arg = label.partition(":")
            if kind == "run":
                loaded = self._check_run(arg, problems)
                if loaded is not None:
                    runs[arg] = loaded
                    iterations += loaded[0]["iterations"]
            elif kind == "runjson":
                self._check_json_trace(arg, runs.get(arg), problems)
                iterations += runs[arg][0]["iterations"] if arg in runs else 0
            elif kind == "reproduce":
                iterations += TABLE_LENGTHS[arg]
                self._check_reproduce(arg, out, runs.get("preset:%s" % TABLE_PRESETS[arg]),
                                      problems)
            elif kind == "verify":
                self._check_verify(arg, out, problems)
            else:
                self._check_list(out, problems)
        self.iterations = iterations
        return problems

    def _load_summary(self, label, fmt):
        out_dir = self._out_dir(label, fmt)
        outputs = json.loads(self.configs[label].read_text()).get("outputs", {})
        summary = strict_json((out_dir / outputs.get("summary", "summary.json")).read_text())
        return summary, out_dir / Path(summary["trace"]).name

    def _check_run(self, label, problems):
        try:
            summary, trace_path = self._load_summary(label, "csv")
        except (OSError, ValueError, KeyError) as err:
            problems.append("run:%s: summary is not strict JSON: %s" % (label, err))
            return None
        rows, cols = parse_csv_exact(trace_path, problems, "run:%s" % label)
        if rows is None:
            return None
        if len(rows) != summary["iterations"] + 1:
            problems.append("run:%s: %d CSV rows for %d iterations"
                            % (label, len(rows), summary["iterations"]))
        x_cols = [i for i, c in enumerate(cols) if c.startswith("x_")]
        final_x = [rows[-1][i] for i in x_cols]
        if final_x != summary["final_x"]:
            problems.append("run:%s: CSV final x %r differs from summary %r"
                            % (label, final_x, summary["final_x"]))
        spec, start = self._spec_and_start(label)
        if spec.reference_solution is not None:
            self._check_fejer(label, spec, summary, rows, cols, problems)
        if label not in ORACLE_UNSUPPORTED:
            self._check_oracle(label, spec, start, summary, problems)
        return summary, rows, cols

    def _spec_and_start(self, label):
        doc = json.loads(self.configs[label].read_text())
        problem = doc["problem"]
        if "example" in problem:
            ex = splitfp.get_example(problem["example"])
            start = [list(np.atleast_1d(s)) for s in ex.starts[0]]
            return ex.spec, start
        start = [doc["start"]["x"]] + ([doc["start"]["y"]] if "y" in doc["start"] else [])
        return splitfp.cli.build_spec_from_config(problem), start

    def _check_fejer(self, label, spec, summary, rows, cols, problems):
        fejer = summary.get("fejer")
        if fejer is None or fejer.get("monotone") is not True:
            problems.append("run:%s: Fejér report not monotone: %r" % (label, fejer))
        ref = spec.reference_solution
        blocks = [("x_", ref[0])] + ([("y_", ref[1])] if spec.two_variable else [])
        dists = []
        for row in rows:
            sq = 0.0
            for prefix, target in blocks:
                vec = [row[i] for i, c in enumerate(cols) if c.startswith(prefix)]
                sq += float(sum((a - b) ** 2 for a, b in zip(vec, target)))
            dists.append(sq if spec.two_variable else math.sqrt(sq))
        for n in range(len(dists) - 1):
            if dists[n + 1] > dists[n] + FEJER_SLACK:
                problems.append("run:%s: distance to the reference grows at n=%d"
                                % (label, n))
                break

    def _check_oracle(self, label, spec, start, summary, problems):
        config = splitfp.PrecisionOracleConfig(digits=30, max_n=summary["iterations"])
        try:
            hp = splitfp.reexecute_high_precision(
                spec, start[0], start[1] if len(start) > 1 else None, config)
        except splitfp.diagnostics.OracleUnsupported as err:
            problems.append("run:%s: oracle refused: %s" % (label, err))
            return
        final = hp.records[-1]
        pairs = list(zip(summary["final_x"], final.x))
        if final.y is not None:
            pairs += list(zip(summary["final_y"], final.y))
        for got, want in pairs:
            if abs(Decimal(got) - want) > Decimal(ORACLE_TOL) * (1 + abs(want)):
                problems.append("run:%s: final iterate %r differs from the decimal "
                                "re-execution %s" % (label, got, want))

    def _check_json_trace(self, label, loaded, problems):
        try:
            summary, trace_path = self._load_summary(label, "json")
            doc = strict_json(trace_path.read_text())
        except (OSError, ValueError, KeyError) as err:
            problems.append("runjson:%s: not strict JSON: %s" % (label, err))
            return
        if loaded is None:
            problems.append("runjson:%s: no CSV run to compare with" % label)
            return
        csv_summary, rows, cols = loaded
        json_rows = [[None if c is None else float(c) for c in rec]
                     for rec in doc["records"]]
        if doc["columns"] != cols or json_rows != rows:
            problems.append("runjson:%s: JSON trace differs from the CSV trace" % label)
        if summary["final_x"] != csv_summary["final_x"]:
            problems.append("runjson:%s: summary differs from the CSV run" % label)

    def _check_reproduce(self, table, out, loaded, problems):
        """Rows n = 0..N, the paper's values at the pinned rows, and agreement
        at 10 significant digits with the preset's CSV trace."""
        rows = parse_reproduce(out, problems, table)
        if rows is None:
            return
        if sorted(rows) != list(range(TABLE_LENGTHS[table] + 1)):
            problems.append("reproduce %s: rows are not n = 0..%d"
                            % (table, TABLE_LENGTHS[table]))
            return
        for n, (values, tols) in TABLE_ROWS[table].items():
            for got, want, tol in zip(rows[n], values, tols):
                if want is not None and abs(got - want) > tol:
                    problems.append("reproduce %s: row %d has %r, the table has %r"
                                    % (table, n, got, want))
        last = out.rstrip().splitlines()[-1]
        if not (last.startswith("all ") and last.endswith(" pinned rows reproduced")):
            problems.append("reproduce %s: missing the closing verdict" % table)
        if loaded is None:
            problems.append("reproduce %s: no preset run to compare with" % table)
            return
        _, csv_rows, cols = loaded
        xi, yi = cols.index("x_0"), cols.index("y_0")
        for n, (x, y) in rows.items():
            want = (float("%.10g" % csv_rows[n][xi]), float("%.10g" % csv_rows[n][yi]))
            if (x, y) != want:
                problems.append("reproduce %s: row %d %r differs from the run trace %r"
                                % (table, n, (x, y), want))
                return

    def _check_verify(self, op_name, out, problems):
        lines = out.splitlines()
        if not lines or "verdict=PASS" not in lines[0]:
            problems.append("verify %s: no PASS verdict" % op_name)
        elif sum(1 for ln in lines[1:] if ln.endswith(" PASS")) != VERIFY_SAMPLES:
            problems.append("verify %s: expected %d passing samples"
                            % (op_name, VERIFY_SAMPLES))

    def _check_list(self, out, problems):
        listed = {ln.split()[0] for ln in out.splitlines() if ln and not ln[0].isspace()}
        expected = set(ALL_PRESETS)
        if listed != expected:
            problems.append("list-examples: lists %s, expected %s"
                            % (sorted(listed), sorted(expected)))


def parse_csv_exact(path, problems, label):
    """Rows of a trace CSV as floats (None for empty cells), or None on failure.

    Every cell must be finite and must print back to the same text at 17
    significant digits, so the file carries the computed doubles exactly.
    """
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as err:
        problems.append("%s: cannot read the trace: %s" % (label, err))
        return None, None
    cols, rows = table[0], []
    for line in table[1:]:
        row = []
        for col, cell in zip(cols, line):
            if cell == "":
                row.append(None)
                continue
            value = int(cell) if col in ("n", "cut_count") else float(cell)
            text = str(value) if isinstance(value, int) else "%.17g" % value
            if not math.isfinite(value) or text != cell:
                problems.append("%s: cell %r in column %s is not an exact finite "
                                "number" % (label, cell, col))
                return None, None
            row.append(value)
        if len(line) != len(cols):
            problems.append("%s: ragged CSV row" % label)
            return None, None
        rows.append(row)
    return rows, cols


def parse_reproduce(out, problems, table):
    """``{n: (x, y)}`` from the rows ``reproduce`` prints, or None."""
    lines = out.splitlines()
    if not lines or lines[0] != "n x_n y_n":
        problems.append("reproduce %s: missing header" % table)
        return None
    rows = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or not parts[0].isdigit():
            continue
        x, y = float(parts[1]), float(parts[2])
        if not (math.isfinite(x) and math.isfinite(y)):
            problems.append("reproduce %s: non-finite row %d" % (table, int(parts[0])))
            return None
        rows[int(parts[0])] = (x, y)
    return rows


# ---------------------------------------------------------------------------
# powers


ROTATION_ANGLE = 1.0
ROTATION_GAMMA = 0.05
ROTATION_ITERS = 250
ROTATION_TOL = 1e-9   # agreement with the matrix_power recurrence, times ||x0||
SYNCHRONAL_TARGET = 1e-4


def rotation_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_reference(x0, iters, theta=ROTATION_ANGLE, gamma=ROTATION_GAMMA):
    """x_{n+1} = x_n + gamma (R^{n+1} - I) x_n, the scfpp step with A = I, G = id."""
    R = rotation_matrix(theta)
    xs = [np.asarray(x0, dtype=float)]
    for n in range(iters):
        x = xs[-1]
        xs.append(x + gamma * (np.linalg.matrix_power(R, n + 1) @ x - x))
    return xs


class PowersWorkload:
    """Two solves dominated by recomputing ``T^{n+1}`` from scratch each step.

    ``synchronal_demo`` powers a rule-backed 1-D map with early exit; the
    rotation problem powers a matrix-backed 2-D map that never settles, so
    its cost grows as n^2.  The seed picks the rotation's start.
    """

    name = "powers"

    def __init__(self, seed, workdir, root):
        rng = random.Random(seed)
        example = splitfp.get_example("synchronal_demo")
        self.sync_spec = example.spec
        self.sync_x0 = list(example.starts[0][0])
        self.sync_rule = splitfp.StoppingRule(max_iters=100000,
                                              target_tol=SYNCHRONAL_TARGET)
        rot = splitfp.LinearMap(rotation_matrix(ROTATION_ANGLE))
        plane = splitfp.WholeSpace(2)
        origin = ([0.0, 0.0],)
        # look ``apply`` up on every call, so a traced run sees the calls
        T = splitfp.FixedPointMap(lambda x: rot.apply(x), plane, Nonexpansive(),
                                  known_fixed_points=origin, name="rotation")
        G = splitfp.FixedPointMap(lambda x: x, plane, Nonexpansive(),
                                  known_fixed_points=origin, name="identity2")
        self.rot_spec = splitfp.ProblemSpec(
            family="scfpp", T=T, G=G, A=splitfp.LinearMap(np.eye(2)),
            alpha=splitfp.SequenceSpec.const(0.5), gamma=ROTATION_GAMMA)
        angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(1.0, 2.0)
        self.rot_x0 = [radius * math.cos(angle), radius * math.sin(angle)]
        self.rot_rule = splitfp.StoppingRule(max_iters=ROTATION_ITERS)
        self.iterations = None

    def run_pass(self, timer=None):
        timer = timer or PassTimer()
        ops = []
        timer(ops, "synchronal", lambda: splitfp.run(
            self.sync_spec, self.sync_x0, rule=self.sync_rule))
        timer(ops, "rotation", lambda: splitfp.run(
            self.rot_spec, self.rot_x0, rule=self.rot_rule))
        return ops

    def fingerprint(self, ops):
        return _digest([(op.label, type(op.error).__name__) for op in ops]
                       + [_trace_bytes(op.output) for op in ops if op.error is None])

    def check(self, ops):
        problems = []
        by_label = {op.label: op for op in ops}
        sync, rot = by_label["synchronal"].output, by_label["rotation"].output
        iterations = 0
        if sync is not None:
            iterations += len(sync.records) - 1
            final = float(sync.final.x[0])
            if sync.stop_reason != "target_tol" or abs(final - 1.0) > SYNCHRONAL_TARGET:
                problems.append("synchronal: stopped on %s at %r, expected target_tol "
                                "within %g of 1" % (sync.stop_reason, final,
                                                    SYNCHRONAL_TARGET))
        if rot is not None:
            iterations += len(rot.records) - 1
            problems += check_rotation(rot, self.rot_x0)
        self.iterations = iterations
        return problems


def check_rotation(trace, x0):
    problems = []
    xs = [rec.x for rec in trace.records]
    if len(xs) != ROTATION_ITERS + 1:
        return ["rotation: %d records, expected %d" % (len(xs), ROTATION_ITERS + 1)]
    ref = rotation_reference(x0, ROTATION_ITERS)
    scale = float(np.linalg.norm(x0))
    for n, (got, want) in enumerate(zip(xs, ref)):
        if np.linalg.norm(got - want) > ROTATION_TOL * scale:
            problems.append("rotation: x_%d = %s, the matrix_power recurrence "
                            "gives %s" % (n, got.tolist(), want.tolist()))
            break
    norms = [float(np.linalg.norm(x)) for x in xs]
    for n in range(len(norms) - 1):
        if norms[n + 1] > norms[n] * (1.0 + 1e-12):
            problems.append("rotation: distance to 0 grows at n=%d" % n)
            break
    return problems


# ---------------------------------------------------------------------------
# cuts


EG2D_ITERS = 25          # well before the false infeasibility at iteration 51
EG2D_X0 = (10.0, -3.0)
# Points per set and their distances from the ball's centre.  Most 2-D
# points project in two Dykstra sweeps, so the median operation is such a
# projection on every seed; the 3-D points reach farther and carry more of
# the slow corner cases.
POINTS_PER_SET = {"proj2d": 900, "proj3d": 300}
POINT_RADII = {"proj2d": (0.5, 3.0), "proj3d": (0.5, 5.0)}
FEASIBLE_SAMPLES = 400
BODY_TOL = 1e-9          # distance of a projection to each member body
OPTIMALITY_TOL = 1e-7    # slack on ||p - x|| <= ||f - x|| for feasible f

# Intersections with interior: ("box", lo, hi), ("ball", center, radius),
# ("halfspace", a, b) meaning {z : <a, z> <= b}.
PROJECTION_SETS = {
    "proj2d": (
        ("box", (-1.0, -1.0), (2.0, 2.0)),
        ("ball", (0.5, 0.5), 2.0),
        ("halfspace", (1.0, 1.0), 2.0),
    ),
    "proj3d": (
        ("box", (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        ("ball", (0.0, 0.0, 0.0), 1.3),
        ("halfspace", (1.0, -1.0, 1.0), 1.0),
    ),
}
# two balls overlapping in a lens with interior, and a point above it
LENS = (("ball", (0.0, 0.0), 1.0), ("ball", (2.0, 0.0), 1.01))
LENS_POINT = (1.0, 3.0)


def body_distance(desc, p):
    """Euclidean distance from ``p`` to a body, computed from its description."""
    kind = desc[0]
    if kind == "box":
        return float(np.linalg.norm(p - np.clip(p, desc[1], desc[2])))
    if kind == "ball":
        return max(0.0, float(np.linalg.norm(p - np.asarray(desc[1]))) - desc[2])
    a = np.asarray(desc[1])
    return max(0.0, float(a @ p) - desc[2]) / float(np.linalg.norm(a))


def build_body(desc):
    kind = desc[0]
    if kind == "box":
        return splitfp.Box(desc[1], desc[2])
    if kind == "ball":
        return splitfp.Ball(desc[1], desc[2])
    return splitfp.Halfspace(desc[1], desc[2])


def stratified_points(rng, center, count, radii):
    """Points around ``center`` spread evenly over directions and distances.

    Directions are equally spaced angles (2-D) or a Fibonacci sphere (3-D)
    under a seeded rotation; distances follow a golden-ratio sequence with a
    seeded offset.  Dykstra's cost varies strongly with where a point lies,
    so an even spread keeps the work per pass nearly the same for every seed.
    """
    dim = len(center)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    offset = rng.random()
    if dim == 2:
        turn = rng.random()
        dirs = [(math.cos(2 * math.pi * (k + turn) / count),
                 math.sin(2 * math.pi * (k + turn) / count)) for k in range(count)]
    else:
        q, r = np.linalg.qr(np.array([[rng.gauss(0.0, 1.0) for _ in range(3)]
                                      for _ in range(3)]))
        rotation = q * np.sign(np.diag(r))
        dirs = []
        for k in range(count):
            z = 1.0 - 2.0 * (k + 0.5) / count
            rho, phi = math.sqrt(1.0 - z * z), 2.0 * math.pi * k * golden
            dirs.append(rotation @ (rho * math.cos(phi), rho * math.sin(phi), z))
    lo, hi = radii
    return [center + (lo + (hi - lo) * ((k * golden + offset) % 1.0)) * np.asarray(d)
            for k, d in enumerate(dirs)]


def feasible_samples(descs, rng, count):
    """Points inside every body, by rejection from the first body's box."""
    lo, hi = np.asarray(descs[0][1]), np.asarray(descs[0][2])
    found = []
    while len(found) < count:
        p = lo + (hi - lo) * np.array([rng.random() for _ in lo])
        if all(body_distance(d, p) == 0.0 for d in descs):
            found.append(p)
    return np.array(found)


def check_projection(descs, x, p, feasible):
    """Problems with ``p`` as the projection of ``x`` onto the intersection."""
    problems = []
    for d in descs:
        dist = body_distance(d, p)
        if dist > BODY_TOL:
            problems.append("projection of %s lies %.3e outside %s"
                            % (x.tolist(), dist, d[0]))
    gap = float(np.linalg.norm(p - x))
    closest = float(np.min(np.linalg.norm(feasible - x, axis=1)))
    if closest < gap - OPTIMALITY_TOL:
        problems.append("a feasible point is %.6g from %s, the projection %.6g"
                        % (closest, x.tolist(), gap))
    return problems


def check_cut_run(label, trace, in_C):
    """Iterates after x0 in C, 3n cuts after step n, ||x_n - x0|| never shrinking."""
    problems = []
    x0 = trace.records[0].x
    departures = [float(np.linalg.norm(rec.x - x0)) for rec in trace.records]
    for rec in trace.records:
        if rec.n > 0 and not in_C(rec.x):
            problems.append("%s: x_%d = %s is outside C" % (label, rec.n, rec.x.tolist()))
            break
        if rec.cut_count != 3 * rec.n:
            problems.append("%s: %r cuts after step %d, expected %d"
                            % (label, rec.cut_count, rec.n, 3 * rec.n))
            break
    for n in range(len(departures) - 1):
        if departures[n + 1] < departures[n] - 1e-12:
            problems.append("%s: ||x_n - x0|| decreases at n=%d" % (label, n))
            break
    return problems


class CutsWorkload:
    """Projections and cut bookkeeping: Dykstra sweeps dominate.

    The 1-D extra-gradient preset takes the interval fast path, the 2-D
    orthant run re-runs Dykstra over C and all 3n cuts every step, and the
    direct projections hit fixed 2-D and 3-D intersections at seeded points.
    The lens projection fails on every pass (a fault in the program) and is
    counted as failed.
    """

    name = "cuts"

    def __init__(self, seed, workdir, root):
        rng = random.Random(seed)
        example = splitfp.get_example("extragradient_1d")
        self.eg1d_spec = example.spec
        self.eg1d_x0 = list(example.starts[0][0])
        self.eg1d_rule = example.default_rule
        plane = splitfp.WholeSpace(2)
        shift = np.array([1.0, 2.0])
        T = splitfp.FixedPointMap(lambda x: (x + shift) / 2.0, plane,
                                  QuasiNonexpansive(),
                                  known_fixed_points=([1.0, 2.0],), name="halfway")
        G = splitfp.FixedPointMap(lambda x: x, plane, Nonexpansive(),
                                  known_fixed_points=([0.0, 0.0],), name="identity2")
        self.eg2d_spec = splitfp.ProblemSpec(
            family="extragradient_sffpp", T=T, G=G, A=splitfp.LinearMap(np.eye(2)),
            C=splitfp.Box([0.0, 0.0], [np.inf, np.inf]), Q=plane,
            alpha=splitfp.SequenceSpec.const(0.5), beta=splitfp.SequenceSpec.const(0.5),
            gamma_seq=splitfp.SequenceSpec.const(0.5))
        self.eg2d_rule = splitfp.StoppingRule(max_iters=EG2D_ITERS)
        self.sets = {}
        for label, descs in PROJECTION_SETS.items():
            center = np.asarray(next(d[1] for d in descs if d[0] == "ball"))
            points = stratified_points(rng, center, POINTS_PER_SET[label],
                                       POINT_RADII[label])
            self.sets[label] = (
                descs,
                splitfp.Intersection([build_body(d) for d in descs]),
                points,
                feasible_samples(descs, rng, FEASIBLE_SAMPLES),
            )
        self.lens = splitfp.Intersection([build_body(d) for d in LENS])
        self.iterations = None

    def run_pass(self, timer=None):
        timer = timer or PassTimer()
        ops = []
        timer(ops, "eg1d", lambda: splitfp.run(
            self.eg1d_spec, self.eg1d_x0, rule=self.eg1d_rule))
        timer(ops, "eg2d", lambda: splitfp.run(
            self.eg2d_spec, list(EG2D_X0), rule=self.eg2d_rule))
        for label, (_, body, points, _) in self.sets.items():
            for x in points:
                timer(ops, label, lambda: splitfp.project(body, x))
        timer(ops, "lens", lambda: splitfp.project(self.lens, LENS_POINT))
        return ops

    def fingerprint(self, ops):
        parts = []
        for op in ops:
            parts.append((op.label, type(op.error).__name__))
            if op.error is None:
                out = op.output
                parts.append(out.tobytes() if isinstance(out, np.ndarray)
                             else _trace_bytes(out))
        return _digest(parts)

    def check(self, ops):
        problems = []
        iterations = 0
        point_iter = {label: iter(entry[2]) for label, entry in self.sets.items()}
        for op in ops:
            if op.label in point_iter:
                x = next(point_iter[op.label])
            if op.error is not None:
                continue
            out = op.output
            if op.label == "eg1d":
                iterations += len(out.records) - 1
                problems += check_cut_run("eg1d", out, lambda x: x[0] >= -BODY_TOL)
                if abs(float(out.final.x[0]) - 1.0) > 1e-6:
                    problems.append("eg1d: ends at %r, expected 1.0" % float(out.final.x[0]))
            elif op.label == "eg2d":
                iterations += len(out.records) - 1
                problems += check_cut_run("eg2d", out, lambda x: bool(np.all(x >= -BODY_TOL)))
                if len(out.records) != EG2D_ITERS + 1:
                    problems.append("eg2d: %d records, expected %d"
                                    % (len(out.records), EG2D_ITERS + 1))
            elif op.label == "lens":
                problems += ["lens: %s" % p for p in check_projection(
                    LENS, np.asarray(LENS_POINT), out,
                    np.array([[1.0, 0.0]]))]
            else:
                descs, _, _, feasible = self.sets[op.label]
                problems += ["%s: %s" % (op.label, p) for p in
                             check_projection(descs, x, out, feasible)]
        self.iterations = iterations
        return problems


WORKLOADS = {w.name: w for w in (CliWorkload, PowersWorkload, CutsWorkload)}
