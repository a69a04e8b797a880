"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/collect.py --runs 10 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
for every workload in BENCHMARK.json, seeds 1 to ``--runs``, each for
``run_seconds`` from BENCHMARK.json.
For each workload and metric it reports the median, the quartiles and the
spread, which is the interquartile range over the median, as
``statistics.quantiles(values, n=4)`` gives it; the bounds in
BENCHMARK.json are set against that spread.  ``--traced`` adds one traced
run per workload (seed 1) for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    *report, last = done.stdout.strip().splitlines()
    result, report = json.loads(last), json.loads("\n".join(report))
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in report["metrics"].items()},
        "units": {k: v["unit"] for k, v in report["metrics"].items()},
        "tail": report.get("tail"),
        "cpus": report.get("cpus"),
        "conditions": report["conditions"],
    }


def summarise(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs if r["metrics"].get(name) is not None]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["units"][name],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, seconds, 0))
            m = runs[-1]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in m.items()),
                  file=sys.stderr)
        entry = {"summary": summarise(runs), "runs": runs}
        if args.traced:
            entry["traced"] = run_once(workload, 1, seconds, 1)
        summary["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:16} {name:17} median {s['median']:.4g} {s['unit']:5} spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
