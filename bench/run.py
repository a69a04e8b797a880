"""vacalc benchmark: cold Wick queries, warm axiom sweeps, symbolic formal calculus.

    python3 bench/run.py --workload wick-cold --seed 1 --seconds 35 --trace 0

Run from the repository root (any directory works: paths are resolved from
this file).  The benchmark imports vacalc from ``src/`` next to this
directory and nowhere else.  See ``bench/README.md`` for the workloads and
metrics.

The last line of standard output is the result, one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics.  The
lines before it are a readable JSON report with every metric, the tail
percentile and its sample count, the failures and the run's conditions.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("wick-cold", "sweep-warm", "formal-symbolic")
# Units of the metrics that BENCHMARK.json does not declare (report only).
REPORT_UNITS = {"fail_ratio": "ratio", "identities_per_s": "1/s"}

# Per-seed mix as (always, strata, draws): the slowest catalogue entries, by
# latency at the reference commit, run in every mix, so the heavy tail is the
# same for all seeds; the rest are cut into cost strata and the same number
# is drawn from each.  sweep-warm runs every (check, algebra) pair.
MIX = {"wick-cold": (14, 32, 6), "formal-symbolic": (20, 28, 6)}
# Entries that failed at the reference commit are left out of the timed mix;
# each run verifies a seeded sample of them, untimed.
KNOWN_SAMPLE = 40
# The timed phase runs in SLICES slices that take up to CPUS of the CPUs the
# process may use in turn, pinned to one at a time.  The vCPUs of a shared host differ in speed: on
# the 2-vCPU machine this benchmark was built on, one often ran the same ops
# 40-60% slower than the other for a whole run, and which one changed from
# run to run, so a run's figures depended on where the kernel placed it.  An op's latency is its fastest execution on
# any of them.  Each CPU has a fair schedule that resumes in each of its
# slices: every op gets about the same share of time, by its reference-commit
# latency, so a cheap op runs up to MAX_EXECS times on a CPU and a slow one at
# least once.  A CPU's speed also drifts within a run, so each CPU takes
# several slices spread over the run.
CPUS = 2
SLICES = 8
MAX_EXECS = 30
SETUP_RUNS = 15  # set-up probes in a run
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
MIN_BEYOND = 10

# Runs in a fresh interpreter: the timer covers importing vacalc and the
# workload's one-time set-up (building every presentation it uses, with
# their axiom checks, and parsing the .vac definition).
SETUP_CODE = r"""
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
workload = sys.argv[2]
if workload == "formal-symbolic":
    from vacalc import formal_dist, mode_algebra
else:
    from vacalc.frontend import cli
from vacalc.lie_conformal import BUILTIN_NAMES, builtin
for name in BUILTIN_NAMES:
    builtin(name)
if workload == "wick-cold":
    from vacalc.frontend.parser import parse_definition
    with open(sys.argv[3], encoding="utf-8") as handle:
        parse_definition(handle.read())
print(time.perf_counter() - start)
"""


def declared_metrics():
    """(end-to-end names, per-layer names, units) from BENCHMARK.json."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(REPORT_UNITS)
    return [m["name"] for m in bench["end_to_end"]], [m["name"] for m in bench["per_layer"]], units


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_vacalc():
    if not (SRC / "vacalc" / "__init__.py").is_file():
        fail(f"vacalc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import vacalc

    if not Path(vacalc.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported vacalc from {vacalc.__file__}, not from {SRC}")


def measure_setup(workload, runs):
    """Set-up times of ``runs`` fresh interpreters."""
    vac = HERE / "data" / "superfermion.vac"
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), workload, str(vac)]
    times = []
    for _ in range(runs):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Op:
    """One catalogue entry ready to run: ``call`` invokes vacalc only."""

    def __init__(self, entry, call, value_of, raw_of):
        self.entry = entry
        self.call = call
        self.value_of = value_of
        # An output whose raw form (stdout text, or the pickled result) equals
        # that of one already found equal to the reference is equal to it
        # too; this spares re-canonicalising the outputs of repeated runs.
        self.raw_of = raw_of
        self.verified = set()

    def check(self, outcome, output):
        """'ok', 'known' (failing exactly as it did at the reference commit,
        with the same exception or exit code) or 'wrong'."""
        from catalogue import outcome_label

        if outcome not in (0, "ok"):
            return "known" if outcome_label(outcome) == self.entry["seed_outcome"] else "wrong"
        raw = self.raw_of(output)
        if raw in self.verified:
            return "ok"
        try:
            value = self.value_of(output)
        except (ValueError, KeyError, IndexError, TypeError):
            return "wrong"
        if value != self.entry["ref"]:
            return "wrong"
        self.verified.add(raw)
        return "ok"


def load_catalogue(workload):
    """(entries that succeeded at the reference commit, entries that failed
    there).  Only the first are timed; the second are verified untimed."""
    path = HERE / "data" / f"{workload}.json"
    if not path.is_file():
        fail(f"catalogue {path} is missing")
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    ok = [e for e in entries if e["seed_outcome"] == "ok"]
    return ok, [e for e in entries if e["seed_outcome"] != "ok"]


def draw_mix(workload, entries, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-warm":
        groups = {}
        for e in entries:
            groups.setdefault((e["algebra"], e["args"][0]), []).append(e)
        mix = [rng.choice(groups[key]) for key in sorted(groups)]
    else:
        take_all, buckets, per_bucket = MIX[workload]
        ranked = sorted(entries, key=lambda e: (-e["seed_ms"], e["id"]))
        mix, rest = ranked[:take_all], ranked[take_all:]
        size = math.ceil(len(rest) / buckets)
        for b in range(buckets):
            stratum = rest[b * size:(b + 1) * size]
            mix += rng.sample(stratum, min(per_bucket, len(stratum)))
    rng.shuffle(mix)
    return mix


def sample_known(workload, entries, seed):
    rng = random.Random(f"{workload}:{seed}:known")
    return sorted(rng.sample(entries, min(KNOWN_SAMPLE, len(entries))), key=lambda e: e["id"])


def build_ops(workload, mix):
    import canon
    import catalogue

    if workload == "formal-symbolic":
        algebras = catalogue.formal_algebras()
        return [
            Op(e, _library_call(catalogue.formal_call(e, algebras)), canon.library_value, pickle.dumps)
            for e in mix
        ]
    ops = []
    for e in mix:
        argv = catalogue.cli_argv(e)
        _, _, params, pinned = catalogue.ALGEBRAS[e["algebra"]]

        def value_of(stdout, e=e, params=params, pinned=pinned):
            return canon.cli_value(e["kind"], e["fmt"], stdout, params, pinned)

        ops.append(Op(e, lambda argv=argv: catalogue.run_cli(argv), value_of, str))
    return ops


def _library_call(fn):
    def call():
        try:
            return "ok", fn()
        except Exception as exc:  # a crash is a failed op, not a failed run
            return type(exc).__name__, None
    return call


def run_pass(ops, tracer=None):
    """Run every op once.  Returns (outputs, seconds spent in op calls)."""
    outputs, spent = [], 0.0
    for op in ops:
        gc.collect()
        t0 = time.perf_counter()
        outputs.append(tracer.call(op.call) if tracer else op.call())
        spent += time.perf_counter() - t0
    return outputs, spent


def run_timed(ops, seconds, tally, between):
    """Run the ops for ``seconds`` of op time in SLICES equal slices, which
    take the CPUs in turn.  Returns {cpu: each op's execution times there}.
    ``between(spent, cpu)`` runs after each execution, outside the timer."""
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    cpus = allowed[:CPUS]
    times = {cpu: [[] for _ in ops] for cpu in cpus}
    queues = {cpu: [(0.0, i) for i in range(len(ops))] for cpu in cpus}
    spent = 0.0
    try:
        for k in range(SLICES):
            cpu = cpus[k % len(cpus)]
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            spent = fair_schedule(ops, queues[cpu], seconds * (k + 1) / SLICES, spent, times[cpu],
                                  k >= SLICES - len(cpus), tally, lambda spent: between(spent, cpu))
    finally:
        if cpus[0] is not None:
            os.sched_setaffinity(0, allowed)
    return times


def fair_schedule(ops, queue, until, spent, times, last, tally, between):
    """Execute ops from ``queue`` until ``spent`` reaches ``until``, appending
    each op's execution times to ``times``; in the ``last`` slice of a CPU,
    go on until every op has run there.

    ``queue`` is a heap of (reference time spent, op index) and carries over
    between a CPU's slices.  The next op is always the one with the least
    reference time spent so far on this CPU: its executions there times its
    reference-commit latency, ties going to the earlier op of the mix.  So
    every op's executions spread evenly over the CPU's slices, and their
    order depends on the mix alone.  An op stops after MAX_EXECS executions
    on a CPU.  Every output is checked as it arrives, and each execution
    starts from a collected heap, as in a fresh process: the garbage cycles
    an earlier one left behind are freed outside the timer."""
    clock = time.perf_counter
    while queue:
        if spent >= until:
            if not last:
                break
            queue[:] = [(v, i) for v, i in queue if not times[i]]
            heapq.heapify(queue)
            if not queue:
                break
        virtual, i = heapq.heappop(queue)
        op = ops[i]
        gc.collect()
        t0 = clock()
        outcome, output = op.call()
        elapsed = clock() - t0
        times[i].append(elapsed)
        spent += elapsed
        tally_one(tally, op, op.check(outcome, output), outcome)
        if len(times[i]) < MAX_EXECS:
            heapq.heappush(queue, (virtual + op.entry["seed_ms"], i))
        between(spent)
    return spent


def new_tally():
    return {"attempted": 0, "failed": 0, "wrong": [], "known": {}}


def tally_one(tally, op, status, outcome):
    tally["attempted"] += 1
    if status != "ok":
        tally["failed"] += 1
    if status == "wrong":
        tally["wrong"].append(op.entry["id"])
    if status == "known":
        tally["known"][str(outcome)] = tally["known"].get(str(outcome), 0) + 1


def verify(ops, outputs, tally):
    for op, (outcome, output) in zip(ops, outputs):
        tally_one(tally, op, op.check(outcome, output), outcome)


def tail(latencies):
    """The highest ladder percentile with at least MIN_BEYOND samples above
    its nearest-rank position: (percentile, value, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank


def conditions(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "traced": bool(args.trace),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing makes set iteration, and so every call count
        # of a traced run, repeat exactly between processes.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    cond = conditions(args)
    import_vacalc()
    end_to_end, per_layer, units = declared_metrics()

    entries, known_failing = load_catalogue(args.workload)
    ops = build_ops(args.workload, draw_mix(args.workload, entries, args.seed))
    # First-call costs (lazy imports, caches of re/json), paid on cheap ops.
    for op in sorted(ops, key=lambda op: op.entry["seed_ms"])[:5]:
        op.call()
    # Entries that failed at the reference commit run once, untimed: each
    # must still fail the same way or return its reference value.
    known_ops = build_ops(args.workload, sample_known(args.workload, known_failing, args.seed))
    known_tally = new_tally()
    verify(known_ops, run_pass(known_ops)[0], known_tally)
    # The references and inputs live as long as the run; keep the cyclic
    # collector from rescanning them during every timed op.
    gc.collect()
    gc.freeze()
    tally = new_tally()
    report = {"conditions": cond, "mix_size": len(ops)}

    if args.trace:
        from layers import Tracer

        outputs, plain = run_pass(ops)
        verify(ops, outputs, tally)
        with Tracer() as tracer:
            outputs, traced = run_pass(ops, tracer=tracer)
        verify(ops, outputs, tally)
        values = tracer.metrics()
        values["trace_overhead_ratio"] = traced / plain
        report["untraced_s"], report["traced_s"] = plain, traced
        names = per_layer
    else:
        measure_setup(args.workload, 1)  # writes the bytecode caches
        # Set-up probes run every 1/SETUP_RUNS of the run, so they span it.
        setup = {}

        def between(spent, cpu):
            done = sum(map(len, setup.values()))
            if done < SETUP_RUNS and spent >= done * args.seconds / SETUP_RUNS:
                setup.setdefault(cpu, []).extend(measure_setup(args.workload, 1))

        times = run_timed(ops, args.seconds, tally, between)
        # An op's latency is its fastest execution: interference from other
        # processes on the host only ever adds time.  Each op is one sample
        # of the tail percentile, so the percentile depends on the mix alone.
        best = [min(min(t[i]) for t in times.values()) for i in range(len(ops))]
        p, tail_value, beyond = tail(best)
        values = {
            # Like an op's latency, set-up time is taken on the faster CPU.
            "setup_s": min(map(statistics.median, setup.values())),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_ratio": tally["failed"] / tally["attempted"],
        }
        if args.workload == "sweep-warm":
            # Every output equals its reference, so each op verifies the
            # reference's CheckReport.checked identities.
            values["identities_per_s"] = sum(op.entry["ref"][3] for op in ops) / sum(best)
        report.update(
            cpus={
                str(cpu): {
                    "op_s": sum(map(sum, t)),
                    "executions": sum(map(len, t)),
                    "op_p50_ms": statistics.median(map(min, t)) * 1e3,
                    "op_tail_ms": tail([min(x) for x in t])[1] * 1e3,
                    "setup_s": statistics.median(setup[cpu]) if cpu in setup else None,
                }
                for cpu, t in times.items()
            },
            tail={"percentile": p, "samples": len(best), "beyond": beyond},
        )
        names = end_to_end

    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report["failures"] = {"known_at_reference_commit": tally["known"], "wrong_entry_ids": sorted(set(tally["wrong"]))}
    report["untimed_known_failing"] = {
        "entries": known_tally["attempted"],
        "failed": known_tally["failed"],
        "fail_ratio": known_tally["failed"] / known_tally["attempted"] if known_ops else 0.0,
        "outcomes": known_tally["known"],
        "wrong_entry_ids": sorted(known_tally["wrong"]),
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": not tally["wrong"] and not known_tally["wrong"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
