"""Repeated runs of one commit: medians, quartiles and spreads of every metric.

    python3 perfbench/steadiness.py

For each workload, runs `run.py --trace 0` for `run_seconds` once per seed
(seeds 100 to 109), in two consecutive sets, and reports for each
end-to-end metric the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
against the metric's bound in BENCHMARK.json, and how far the second set's
median moved from the first's, in the metric's worse direction.  One
`--trace 1` run per workload adds the per-layer figures of the same commit.
Each run's record (machine, commit, seed, exit codes, calibration loop) is
kept in the report, written to baseline/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(100, 110)
SETS = 2
REPORT = ROOT / "perfbench" / "baseline" / "steadiness.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {**record["record"], "result": result}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first` (negative if better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": list(SEEDS), "sets": SETS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                runs.append(run_once(workload, seed, seconds, 0))
                r = runs[-1]
                print(f"{workload} set {s + 1} seed {seed}: failed {r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()), flush=True)
            sets.append(runs)
        entry = {"sets": []}
        for runs in sets:
            summary = {}
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]] for r in runs]
                summary[metric["name"]] = summarize(values, metric["bound"])
            calibration = statistics.median(r["calibration_ms"]["start"] for r in runs)
            entry["sets"].append({"summary": summary, "calibration_ms": calibration, "runs": runs})
        entry["second_vs_first"] = {
            m["name"]: {"worse_by": worse_by(entry["sets"][0]["summary"][m["name"]]["median"],
                                             entry["sets"][-1]["summary"][m["name"]]["median"],
                                             m["better"]),
                        "bound": m["bound"]}
            for m in spec["end_to_end"]}
        entry["traced"] = run_once(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = entry
        for i, s in enumerate(entry["sets"], start=1):
            print(f"{workload} set {i}: median calibration loop {s['calibration_ms']:.2f} ms")
            for name, v in s["summary"].items():
                moved = entry["second_vs_first"][name]["worse_by"]
                print(f"{workload} set {i} {name}: median {v['median']:.5g} "
                      f"q1 {v['q1']:.5g} q3 {v['q3']:.5g} spread {v['spread']:.4f} "
                      f"(bound {v['bound']})"
                      + (f" second set worse by {moved:.4f}" if i > 1 else ""), flush=True)
    REPORT.parent.mkdir(parents=True, exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
