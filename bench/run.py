"""Benchmark for splitfp: one named workload, end to end or layer by layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload cli|powers|cuts --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is installed.
A run times set-up in fresh interpreters, runs one warm-up pass (checked in
full against values computed here, outside the timed region), then repeats
identical passes while the next one would still end within ``--seconds``.  Each later pass must
reproduce the checked outputs exactly.  Times are scaled to a nominal host
speed (see ``timing.py``).  The last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each a median over
passes.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones from the traced passes plus the tracing
overhead (median traced pass minus median untraced pass); the spans of the
last traced pass are written to ``.bench_out/spans-<workload>.npz``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# The benchmark's own modules import numpy and splitfp, so they are imported
# inside the functions that need them: a set-up probe must time those imports.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60


def _use_checkout_sources():
    """Put the checkout's ``src/`` first on the path; fail if it is missing."""
    package = ROOT / "src" / "splitfp" / "__init__.py"
    if not package.is_file():
        raise SystemExit("bench: no splitfp sources at %s" % package.parent)
    sys.path.insert(0, str(ROOT / "src"))


def _pin_to_one_cpu():
    """Keep this process, and the set-up probes it starts, on one CPU.

    The host slows its CPUs independently of each other, and a reference
    sample describes the CPU it ran on, so operations and samples share one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe_setup(workload, seed):
    """Time importing splitfp and building one workload's inputs, in this process."""
    _use_checkout_sources()
    t0 = perf_counter()
    import splitfp  # noqa: F401  (timed: every CLI call and script pays it)
    import workloads
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workloads.WORKLOADS[workload](seed, workdir, ROOT)
        elapsed = perf_counter() - t0
    print(repr(elapsed))


def _setup_seconds(workload, seed, host):
    """Median scaled set-up time over fresh interpreters started one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=False)
        end = perf_counter()
        host.sample()
        if proc.returncode != 0:
            raise SystemExit("bench: set-up probe failed:\n%s" % proc.stderr)
        elapsed = float(proc.stdout.strip().splitlines()[-1])
        times.append(elapsed * host.factor(start, end))
    return statistics.median(times)


def _timed_pass(w, host, tracer=None):
    """One pass; returns (scaled seconds, raw seconds, ops).

    Untraced passes also sample the host's speed inside operations; traced
    passes only between them, so that span times hold no sampling.
    """
    import contextlib

    from timing import PassTimer

    timer = PassTimer(tracer, host)
    with host.sampling() if tracer is None else contextlib.nullcontext():
        ops = w.run_pass(timer)
    timer.finish(ops)
    return sum(op.scaled for op in ops), sum(op.seconds for op in ops), ops


def _summary(wall, ops):
    """What a run keeps of a checked pass, so memory does not grow with passes:
    (scaled seconds, median scaled operation ms, attempted, failed)."""
    return (wall, statistics.median(op.scaled for op in ops) * 1e3, len(ops),
            sum(op.error is not None for op in ops))


def _end_to_end(w, passes, setup_s):
    walls = [p[0] for p in passes]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "iters_per_s": (statistics.median((w.iterations or 0) / wall for wall in walls),
                        "1/s"),
        "op_ms_p50": (statistics.median(p[1] for p in passes), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(w, host, seconds, problems, reference):
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    plain, passes, layers = [], [], []
    t_end = perf_counter() + seconds
    last = 0.0
    while not passes or perf_counter() + last < t_end:
        t_pair = perf_counter()
        plain.append(_timed_pass(w, host)[0])
        tracer.reset()
        tracer.install()
        try:
            wall, raw, ops = _timed_pass(w, host, tracer)
        finally:
            tracer.uninstall()
        passes.append(_summary(wall, ops))
        if w.fingerprint(ops) != reference:
            problems.append("a traced pass changed the outputs")
        sample = layer_metrics(tracer)
        for name in sample:
            if LAYER_METRICS[name] == "s":
                sample[name] *= wall / raw
        sample["cli.bytes_written"] = w.bytes_written() if hasattr(w, "bytes_written") else 0
        layers.append(sample)
        last = perf_counter() - t_pair
    tracer.save(OUT_DIR / ("spans-%s.npz" % w.name))
    metrics = {name: (statistics.median(s[name] for s in layers), LAYER_METRICS[name])
               for name in LAYER_METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(p[0] for p in passes) - statistics.median(plain), "s")
    return metrics, passes


def run(workload, seed, seconds, trace):
    _use_checkout_sources()
    import workloads
    from timing import HostSpeed

    OUT_DIR.mkdir(exist_ok=True)
    _pin_to_one_cpu()
    host = HostSpeed()
    setup_s = None if trace else _setup_seconds(workload, seed, host)
    workdir = tempfile.mkdtemp(prefix="tmp-%s-" % workload, dir=OUT_DIR)
    try:
        w = workloads.WORKLOADS[workload](seed, workdir, ROOT)
        warm = w.run_pass()
        try:
            problems = w.check(warm)
        except Exception as exc:  # a malformed output must not end the run
            problems = ["checking the warm-up pass raised %s: %s"
                        % (type(exc).__name__, exc)]
        reference = w.fingerprint(warm)
        for op in warm:
            if op.error is not None:
                print("bench: %s failed: %s: %s" % (op.label, type(op.error).__name__,
                                                    op.error), file=sys.stderr)
        if trace:
            metrics, passes = _per_layer(w, host, seconds, problems, reference)
        else:
            passes = []
            t_end = perf_counter() + seconds
            last = 0.0
            # no pass starts that would end after ``seconds``, judged by the last one
            while not passes or perf_counter() + last < t_end:
                t_pass = perf_counter()
                wall, _, ops = _timed_pass(w, host)
                passes.append(_summary(wall, ops))
                if w.fingerprint(ops) != reference:
                    problems.append("pass %d changed the outputs" % len(passes))
                del ops
                last = perf_counter() - t_pass
            metrics = _end_to_end(w, passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("bench: check failed: %s" % problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p[2] for p in passes),
        "failed": sum(p[3] for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["cli", "powers", "cuts"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
