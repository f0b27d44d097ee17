"""Self-test of the benchmark, at the smoke sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from varhardy import maximal, norms  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        line = rf"^{re.escape(m['name'])}: \S+ {re.escape(m['unit'])}$"
        assert re.search(line, proc.stdout, re.M), m


def _failures(setup):
    plan = setup(3, workloads.SMOKE, 1)
    records, _ = run.timed_phase(plan, 1)
    run.apply_group_checks(plan, records)
    return run.summarize_checks(records, workloads.KNOWN_FAILING)


def test_clean_smoke_fails_only_the_known_check():
    for name, (setup, _) in workloads.WORKLOADS.items():
        _, unexpected, failing = _failures(setup)
        assert unexpected == 0, (name, failing)
        assert set(failing) <= {workloads.KNOWN_FAILING}


def test_planted_norm_error_is_counted(monkeypatch):
    real = norms.batch_restricted_norms

    def planted(*args, **kwargs):
        vals, qidx = real(*args, **kwargs)
        return vals * (1 + 1e-3), qidx

    monkeypatch.setattr(norms, "batch_restricted_norms", planted)
    failed, unexpected, failing = _failures(workloads.setup_constants)
    assert failed >= 1 and unexpected >= 1
    assert "constants.exact_one" in failing


def test_planted_maximal_error_is_counted(monkeypatch):
    real = maximal.grid_maximal

    def planted(*args, **kwargs):
        return real(*args, **kwargs) * (1 + 1e-3)

    monkeypatch.setattr(maximal, "grid_maximal", planted)
    _, unexpected, failing = _failures(workloads.setup_maximal)
    assert unexpected >= 1
    assert "maximal.m1_1d" in failing


def test_refuses_to_run_without_the_program_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in BENCH.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    try:
        proc = _bench("--workload", "constants", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
