"""The benchmark's cross-checks of its committed references, run as a
script, and a replay of its whole catalogue through its own op checks."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_crosscheck_passes():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "crosscheck.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "crosscheck: ok"


def test_catalogue_replays_to_its_references(monkeypatch):
    # Every entry of bench/data, also those that failed at the commit that
    # recorded the catalogue, must now return its reference value.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    replayed, wrong = 0, []
    for workload in bench.WORKLOADS:
        ok, failed_at_reference = bench.load_catalogue(workload)
        for op in bench.build_ops(workload, ok + failed_at_reference):
            outcome, output = op.call()
            replayed += 1
            if op.check(outcome, output) != "ok":
                wrong.append(op.entry["id"])
    assert replayed == 840
    assert not wrong, wrong
