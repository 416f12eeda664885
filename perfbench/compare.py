#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage:
    python3 perfbench/compare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are each a `runs.jsonl` file (the benchmark appends one
`{"record": ...}` line per run to `.bench_out/runs.jsonl`) or a directory of
such files. For every workload and metric the tool prints each side's
median and quartiles, the share of paired runs the head wins (runs pair by
seed, or by position when the sides share no seed), and a verdict:

  improved    the head wins at least 9 in 10 pairs (ties count for neither)
              and its median beats the base median by more than the base's
              own quartile spread;
  worse       the head median is worse than the base median by more than
              the metric's bound;
  unresolved  the base's quartile spread, as a share of its median, is wider
              than the bound, and the head neither beats every base run nor
              loses to every one;
  no worse    otherwise.

Per-layer metrics have no bound; they are listed with their figures and the
verdict `-`. So is an end-to-end metric on a workload outside its SCOPE.
Runs flagged invalid by the benchmark are left out and counted. A seed run
both untraced and traced counts once per metric, the untraced reading
first. The exit code is 1 when any end-to-end metric is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

IMPROVED_SHARE = 0.9

# Workloads on which an end-to-end metric is judged. Every run reports every
# end-to-end metric, but open-loop throughput is the offered rate, and on
# gateway-hot every request is one sample, so samples_per_s repeats
# throughput_rps there; a metric not listed is judged on every workload.
SCOPE = {
    "throughput_rps": {"gateway-hot"},
    "samples_per_s": {"scenario-temporal"},
}


def load_runs(path):
    """Every record in a runs file, or in the *.jsonl files of a directory."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = []
    for file in files:
        for line in file.read_text().splitlines():
            line = line.strip()
            if line.startswith('{"record"'):
                runs.append(json.loads(line)["record"])
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound, base_seeds=None, head_seeds=None):
    """Return (verdict, win_share) for one metric.

    `base` and `head` are lists of values; seeds, when given, pair the runs,
    and runs pair by position when no seed is shared.
    """
    if len(base) < 2 or len(head) < 2:
        return "unresolved", None
    sign = 1.0 if better == "lower" else -1.0
    q1, base_med, q3 = quartiles(base)
    head_med = statistics.median(head)
    scale = abs(base_med) or 1.0

    pairs = []
    if base_seeds is not None and head_seeds is not None:
        by_seed = dict(zip(base_seeds, base))
        pairs = [(by_seed[s], h) for s, h in zip(head_seeds, head) if s in by_seed]
    if not pairs:
        pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    losses = sum(1 for b, h in pairs if sign * (h - b) > 0)
    share = wins / (wins + losses) if wins + losses else None

    gain = sign * (base_med - head_med)
    if bound is None:
        return "-", share
    if share is not None and share >= IMPROVED_SHARE and gain > (q3 - q1):
        return "improved", share
    worse_frac = -gain / scale
    if (q3 - q1) / scale > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "no worse", share
        if worse_frac > bound and all(sign * (h - b) > 0 for h in head for b in base):
            return "worse", share
        return "unresolved", share
    if worse_frac > bound:
        return "worse", share
    return "no worse", share


def compare(base_runs, head_runs, benchmark):
    """Rows of (workload, metric, unit, base q, head q, share, verdict)."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    betters = {m["name"]: (m["better"], None) for m in benchmark["per_layer"]}
    betters.update(bounds)
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]

    def readings(runs, workload, name):
        """(seed, value, unit) per seed; an untraced run wins over a traced one."""
        by_seed = {}
        for r in sorted(runs, key=lambda r: -r.get("trace", 0)):
            if r["workload"] == workload and r.get("valid", True) and name in r["metrics"]:
                by_seed[r["seed"]] = (r["seed"], r["metrics"][name]["value"], r["metrics"][name]["unit"])
        return list(by_seed.values())

    for workload in workloads:
        for name, (better, bound) in betters.items():
            if workload not in SCOPE.get(name, {workload}):
                bound = None
            b = [(s, v) for s, v, _ in readings(base_runs, workload, name)]
            h = [(s, v) for s, v, _ in readings(head_runs, workload, name)]
            if not b or not h:
                continue
            unit = readings(base_runs, workload, name)[0][2]
            result, share = verdict(
                [v for _, v in b],
                [v for _, v in h],
                better,
                bound,
                [s for s, _ in b],
                [s for s, _ in h],
            )
            rows.append(
                (workload, name, unit, quartiles([v for _, v in b]), quartiles([v for _, v in h]), share, result)
            )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    for label, runs in (("base", base_runs), ("head", head_runs)):
        invalid = sum(1 for r in runs if not r.get("valid", True))
        print(f"{label}: {len(runs)} runs, {invalid} invalid (left out)")
    fmt = "{:<18} {:<36} {:>36} {:>36} {:>6} {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict"))
    worse = False
    for workload, name, unit, (bq1, bm, bq3), (hq1, hm, hq3), share, result in compare(
        base_runs, head_runs, benchmark
    ):
        worse |= result == "worse"
        print(
            fmt.format(
                workload,
                f"{name} [{unit}]",
                f"{bm:.6g} [{bq1:.6g}, {bq3:.6g}]",
                f"{hm:.6g} [{hq1:.6g}, {hq3:.6g}]",
                "-" if share is None else f"{share:.0%}",
                result,
            )
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
