"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --seeds 1-10 --sets 2 --trace --out perfbench/baseline.json

Runs `run.py` once per (set, workload, seed), untraced, one at a time, and
prints for each end-to-end metric the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median. With
`--trace`, each set also makes one traced run per workload at the first seed
and checks that the per-layer counts repeat exactly across sets, as must
each seed's `final_loss`. Every end-to-end spread above a third of its bound
is flagged; by the benchmark's contract, that of `setup_s` is not held to its
bound. `--out` writes every value to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from run import PER_LAYER, ROOT, _child


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result, which must be correct, with its wall time and its
    report's final_loss added."""
    t0 = time.perf_counter()
    result, report = _child(workload, seed, seconds, trace)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct")
    result["wall_s"] = time.perf_counter() - t0
    result["final_loss"] = report.get("final_loss", {}).get("value")
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    out = {"seeds": seeds, "seconds": args.seconds, "sets": []}
    ok = True
    for s in range(args.sets):
        result = {}
        for w in (wl["name"] for wl in bench["workloads"]):
            runs = [_run(w, seed, args.seconds, 0) for seed in seeds]
            result[w] = {k: summarize([r["metrics"][k]["value"] for r in runs])
                         for k in runs[0]["metrics"]}
            result[w]["final_loss"] = [r["final_loss"] for r in runs]
            print(f"set {s + 1} {w:15s} run wall time: max {max(r['wall_s'] for r in runs):.1f} s, "
                  f"total {sum(r['wall_s'] for r in runs):.0f} s", flush=True)
            for k in bounds:
                v = result[w][k]
                flag = ""
                if v["spread"] > bounds[k] / 3:
                    flag = f"  above a third of bound {bounds[k]}"
                print(f"set {s + 1} {w:15s} {k:12s} median {v['median']:12.4f} "
                      f"q1 {v['q1']:12.4f} q3 {v['q3']:12.4f} spread {v['spread']:.4f}{flag}",
                      flush=True)
            if args.trace:
                traced = _run(w, seeds[0], args.seconds, 1)["metrics"]
                result[w]["per_layer"] = traced
        out["sets"].append(result)
    if args.sets > 1:
        first = out["sets"][0]
        for later in out["sets"][1:]:
            for w, metrics in later.items():
                for k, v in metrics.items():
                    if k == "final_loss":  # per seed, must repeat exactly
                        if v != first[w][k]:
                            ok = False
                            print(f"{w} final_loss differs: {v} != {first[w][k]}")
                        continue
                    if k == "per_layer":  # traced run: counts must repeat exactly
                        for name, m in v.items():
                            exact = name in PER_LAYER and PER_LAYER[name][1][0] in ("calls", "count")
                            if exact and m["value"] != first[w][k][name]["value"]:
                                ok = False
                                print(f"{w} {name}: count {m['value']} != {first[w][k][name]['value']}")
                        continue
                    change = v["median"] / first[w][k]["median"] - 1
                    if change > bounds[k]:
                        ok = False
                    print(f"{w:15s} {k:12s} median change {change:+.4f} (bound {bounds[k]})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
