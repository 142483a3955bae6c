"""The scaling probes: how a run's cost grows with its length.

- the 2-D rotation ``scfpp`` run (T a rotation by 1 rad, G the identity,
  A = I), whose ``T^{n+1}`` is recomputed from scratch each step: seconds
  for the whole run of n iterations;
- the 2-D orthant extra-gradient run (T(x) = (x + (1, 2)) / 2, G the
  identity, C the nonnegative orthant), whose cut set grows by three cuts
  each step: milliseconds per iteration over n iterations;
- the 1-D ``synchronal_demo`` run from x = 4, whose trace holds a record
  per step: the ``tracemalloc`` peak of the run of n iterations, in bytes
  per row of its trace (n + 1 rows);
- ``splitfp run`` of ``bnm_t1`` through ``cli.main``, ``--rewrite`` K
  times into one output directory that already holds its outputs and K
  times into a fresh directory each: the median seconds of each, and
  their ratio.

Each rotation and orthant time is the best of ``--repeats`` runs in one
process, which the script pins to one CPU, and each peak is taken once,
after an untraced run.  The output is one JSON line with the figures keyed
by n, and the Python, numpy and platform it ran on.  It measures, and does
not gate: the exit status is 0 unless a run fails or stops short of n
iterations.  Standard library and the checkout's ``src/splitfp`` only:

    python tools/probes.py                                   # n as in ROADMAP.md
    python tools/probes.py --rotation 250 --orthant 100 --synchronal 4000 --repeats 1 --rewrite 5
"""

import argparse
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import splitfp  # noqa: E402
from splitfp import cli  # noqa: E402
from splitfp.operators import Nonexpansive, QuasiNonexpansive  # noqa: E402

PLANE = splitfp.WholeSpace(2)
IDENTITY = splitfp.FixedPointMap(lambda x: x, PLANE, Nonexpansive(),
                                 known_fixed_points=([0.0, 0.0],), name="identity2")
ROTATION_X0 = [1.5, 0.5]
ORTHANT_X0 = [10.0, -3.0]
SYNCHRONAL_X0 = [4.0]


def rotation_spec():
    c, s = math.cos(1.0), math.sin(1.0)
    rot = splitfp.LinearMap([[c, -s], [s, c]])
    T = splitfp.FixedPointMap(lambda x: rot.apply(x), PLANE, Nonexpansive(),
                              known_fixed_points=([0.0, 0.0],), name="rotation")
    return splitfp.ProblemSpec(family="scfpp", T=T, G=IDENTITY,
                               A=splitfp.LinearMap([[1.0, 0.0], [0.0, 1.0]]),
                               alpha=splitfp.SequenceSpec.const(0.5), gamma=0.05)


def orthant_spec():
    T = splitfp.FixedPointMap(lambda x: (x + [1.0, 2.0]) / 2.0, PLANE, QuasiNonexpansive(),
                              known_fixed_points=([1.0, 2.0],), name="halfway")
    half = splitfp.SequenceSpec.const(0.5)
    return splitfp.ProblemSpec(
        family="extragradient_sffpp", T=T, G=IDENTITY,
        A=splitfp.LinearMap([[1.0, 0.0], [0.0, 1.0]]),
        C=splitfp.Box([0.0, 0.0], [math.inf, math.inf]), Q=PLANE,
        alpha=half, beta=half, gamma_seq=half)


def run_n(spec, x0, n):
    """The trace of ``spec``'s run of n iterations from x0; exits if it stops short."""
    trace = splitfp.run(spec, list(x0), rule=splitfp.StoppingRule(max_iters=n))
    if trace.stop_reason != "max_iters" or len(trace) != n + 1:
        raise SystemExit("probes: the run stopped at %s after %d records, not at n = %d"
                         % (trace.stop_reason, len(trace), n))
    return trace


def best_run_s(spec, x0, n, repeats):
    """The shortest of ``repeats`` timed runs of ``spec`` for n iterations."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        run_n(spec, x0, n)
        best = min(best, perf_counter() - t0)
    return best


def peak_bytes_per_row(spec, x0, n):
    """The ``tracemalloc`` peak of ``spec``'s run of n iterations, over its
    n + 1 rows, after an untraced run that builds what a run reuses."""
    run_n(spec, x0, 1)
    tracemalloc.start()
    try:
        run_n(spec, x0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n + 1)


def rewrite_run_s(k):
    """The median seconds of k ``run bnm_t1`` calls into one directory that
    holds their outputs, of k calls into a fresh directory each (the two
    alternating, after an untimed call), and the ratio of the first to the
    second."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "bnm_t1.json")
        config.write_text(json.dumps({"problem": {"example": "bnm_t1"}}))

        def run_s(out_dir):
            t0 = perf_counter()
            with redirect_stdout(io.StringIO()):   # the summary
                code = cli.main(["run", "--config", str(config), "--out-dir", out_dir])
            if code != 0:
                raise SystemExit("probes: run bnm_t1 exited %d" % code)
            return perf_counter() - t0

        same = str(Path(tmp, "same"))
        run_s(same)
        times = [(run_s(same), run_s(str(Path(tmp, "fresh%d" % i)))) for i in range(k)]
    same_s, fresh_s = (statistics.median(side) for side in zip(*times))
    return {"same_dir": round(same_s, 5), "fresh_dir": round(fresh_s, 5),
            "ratio": round(same_s / fresh_s, 3)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rotation", type=int, nargs="+", default=[250, 500, 1000, 2000],
                        help="iterations of the rotation scfpp run")
    parser.add_argument("--orthant", type=int, nargs="+", default=[100, 200, 400, 800],
                        help="iterations of the orthant extra-gradient run")
    parser.add_argument("--synchronal", type=int, nargs="+", default=[4000, 16000, 64000],
                        help="iterations of the synchronal_demo run, traced for its peak")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per figure; the best counts")
    parser.add_argument("--rewrite", type=int, default=10,
                        help="run bnm_t1 calls into one directory, and into fresh ones")
    args = parser.parse_args(argv)
    rotation, orthant = rotation_spec(), orthant_spec()
    synchronal = splitfp.catalog()["synchronal_demo"].spec
    print(json.dumps({
        "rotation_scfpp_s": {n: round(best_run_s(rotation, ROTATION_X0, n, args.repeats), 5)
                             for n in args.rotation},
        "orthant_extragradient_ms_per_iter": {
            n: round(1e3 * best_run_s(orthant, ORTHANT_X0, n, args.repeats) / n, 5)
            for n in args.orthant},
        "synchronal_peak_bytes_per_row": {
            n: round(peak_bytes_per_row(synchronal, SYNCHRONAL_X0, n), 1)
            for n in args.synchronal},
        "rewrite_run_s": rewrite_run_s(args.rewrite),
        "rewrite": args.rewrite,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "platform": platform.platform(),
    }))
    return 0


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):   # one CPU, as bench/run.py pins itself
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
