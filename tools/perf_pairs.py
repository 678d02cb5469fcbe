"""Alternating pairs of benchmark runs on two checkouts, and their summary.

    python tools/perf_pairs.py PARENT CHANGE --workload W --pairs N [--seed S] [--seconds T]

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
once in each checkout, with that checkout as the working directory. PARENT
runs first in even pairs and CHANGE in odd ones, so neither side always
meets the host in the same state. Each run's last stdout line is its result
object; a run that exits non-zero, or whose last line is not one, stops the
tool, which prints the tail of that run's stderr.

For each end-to-end metric in PARENT's BENCHMARK.json the tool prints each
pair's two values as the pair finishes; at the end, both medians, the
parent's quartiles and their distance (`statistics.quantiles(n=4)`), and in
how many pairs the change is better by the metric's `better` (ties count for
neither side). Last come the failed and attempted units summed over each
side's runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
STDERR_TAIL = 20  # lines of a failed run's stderr to print


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's result object; SystemExit with its stderr's tail
    if the run fails or prints no result object last."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode} "
                         f"without a result object\n{tail}")
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """The summary of (parent, change) result pairs for each metric of
    `metrics` (BENCHMARK.json's `end_to_end` entries)."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = [tuple(r["metrics"][name]["value"] for r in pair) for pair in pairs]
        parent = [p for p, _ in values]
        q1, q3 = _quartiles(parent)
        rows.append({
            "name": name, "unit": metric["unit"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(c for _, c in values),
            "parent_q1": q1, "parent_q3": q3,
            "change_wins": sum(sign * (c - p) > 0 for p, c in values),
        })
    units = {side: {key: sum(pair[i][key] for pair in pairs) for key in ("failed", "attempted")}
             for i, side in enumerate(SIDES)}
    return {"pairs": len(pairs), "metrics": rows, "units": units}


def report(summary: dict) -> list[str]:
    """The summary as lines of text."""
    lines = [f"{'metric':14s} {'parent median':>14s} {'change median':>14s} "
             f"{'parent q1':>12s} {'parent q3':>12s} {'q3 - q1':>10s}  change wins"]
    for m in summary["metrics"]:
        lines.append(f"{m['name']:14s} {m['parent_median']:14.6g} {m['change_median']:14.6g} "
                     f"{m['parent_q1']:12.6g} {m['parent_q3']:12.6g} "
                     f"{m['parent_q3'] - m['parent_q1']:10.4g}  "
                     f"{m['change_wins']} of {summary['pairs']}")
    lines.append("units failed/attempted: " + ", ".join(
        f"{side} {u['failed']}/{u['attempted']}" for side, u in summary["units"].items()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        seed, order = args.seed + i, (0, 1) if i % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
        pairs.append(tuple(pair))
        print(f"pair {i + 1} seed {seed}, {SIDES[order[0]]} first, parent/change: " + ", ".join(
            f"{m['name']} {pair[0]['metrics'][m['name']]['value']:.6g}/"
            f"{pair[1]['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.seconds:g} s per run")
    print("\n".join(report(summarize(metrics, pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
