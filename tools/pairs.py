"""Run the benchmark in two checkouts, in alternating pairs, and compare them.

Each pair runs ``bench/run.py`` once in the parent checkout and once in the
changed one, each in its own checkout directory; the side that runs first
alternates from pair to pair, so a drift in the host's speed falls on both
sides alike.  For each end-to-end metric of ``BENCHMARK.json`` it prints
both sides' medians and quartiles, the change/parent ratio of the medians
and the number of pairs the change won.  Standard library only.

    python tools/pairs.py --parent ../parent --change . --workload cuts --seed 7 --pairs 10

A metric is worse than its bound when the change's median is worse than
the parent's by more than ``bound`` times the parent's median, in the
direction the metric's ``better`` names.  The exit status is 1 when a median
is worse than its bound, or when a run reports ``correct`` false or a failed
operation, and 0 otherwise.  Each run's metrics line goes to stderr as it
arrives.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """The lower quartile, the median and the upper quartile of ``values``,
    interpolated between order statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, metrics):
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s end-to-end
    entries) from the paired runs ``parent[i]`` and ``change[i]``, each a
    dict of metric values.

    A row holds the name, each side's quartiles, the change/parent ratio of
    the medians, the pairs the change won (strictly better than the parent
    run it was paired with), how far the change's median is worse than the
    parent's as a fraction of the parent's (negative when better), and
    whether that exceeds the bound.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        old_q, new_q = quartiles(old), quartiles(new)
        worse = (new_q[1] - old_q[1]) / old_q[1]
        if not lower:
            worse = -worse
        won = sum(n < o if lower else n > o for o, n in zip(old, new))
        rows.append({"name": name, "unit": metric["unit"], "parent": old_q,
                     "change": new_q, "ratio": new_q[1] / old_q[1], "won": won,
                     "pairs": len(old), "worse": worse, "over": worse > metric["bound"]})
    return rows


def format_rows(rows):
    """The rows of :func:`summarize` as a text table."""
    lines = ["%-12s %-26s %-26s %6s %5s" % ("metric", "parent q1/median/q3",
                                             "change q1/median/q3", "ratio", "won")]
    for row in rows:
        lines.append("%-12s %-26s %-26s %6.3f %2d/%-2d%s" % (
            row["name"], "/".join("%.4g" % v for v in row["parent"]),
            "/".join("%.4g" % v for v in row["change"]), row["ratio"], row["won"],
            row["pairs"], "  WORSE THAN ITS BOUND" if row["over"] else ""))
    return "\n".join(lines)


def run_bench(checkout, workload, seed, seconds):
    """The metrics line of one ``bench/run.py`` run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float,
                        help="each run's --seconds (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    faulty = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], args.workload, args.seed, seconds)
            print("pair %d %s: %s" % (pair + 1, side, json.dumps(result)), file=sys.stderr)
            faulty += result["correct"] is not True or result["failed"] != 0
            runs[side].append({name: m["value"] for name, m in result["metrics"].items()})
    rows = summarize(runs["parent"], runs["change"], spec["end_to_end"])
    print("%s, seed %d, %d pairs of %g s runs" % (args.workload, args.seed, args.pairs, seconds))
    print(format_rows(rows))
    if faulty:
        print("%d runs were not correct or had a failed operation" % faulty)
    return 1 if faulty or any(row["over"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
