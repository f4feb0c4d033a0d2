"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs the first job of each workload traced and checks that every metric in
BENCHMARK.json is emitted with its unit and that the exact counters repeat
across two calls with the same seed.  One short end-to-end run checks the
output contract, and a copy without the package sources must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reports import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "ratio"}


def _first_job_traced(workload, out):
    cli = run.import_cli()
    tallies, _tracer, metrics = run.trace_pass(cli, workload.pass_jobs(7, 0)[:1], out)
    return tallies, metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_job_traced_emits_every_layer_metric_and_repeats(name, tmp_path):
    workload = WORKLOADS[name]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    first_tallies, first = _first_job_traced(workload, tmp_path / "a.json")
    second_tallies, second = _first_job_traced(workload, tmp_path / "b.json")

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in first.items()}
    for tallies in (first_tallies, second_tallies):
        assert all(t.failed == 0 for t in tallies)
        assert len({t.digest.hexdigest() for t in tallies}) == 1
    assert first_tallies[0].digest.hexdigest() == second_tallies[0].digest.hexdigest()
    exact = {k: v for k, (v, u) in first.items() if u in EXACT_UNITS}
    assert exact == {k: v for k, (v, u) in second.items() if u in EXACT_UNITS}
    assert first["cli.main.calls"][0] == 1


def test_gate_fails_a_wrong_answer_or_exit_code():
    validate = run.import_cli().validate_report
    report = {"schema_version": 1, "command": "factor", "seed": 0, "config": {},
              "results": {"outcome": "factored", "factor": 5}, "timings": {"total_s": 0.1}}
    argv = ["factor", "--n", "77"]
    assert gate(argv, 0, 0, report, validate) == "no proper factor of 77: outcome factored, factor 5"
    report["results"]["factor"] = 7
    assert gate(argv, 0, 0, report, validate) is None
    assert gate(argv, 3, 0, report, validate) == "exit code 3, want 0"
    del report["results"]["outcome"]
    assert gate(argv, 0, 0, report, validate).startswith("malformed results")


def test_end_to_end_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact-lab", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    jobs = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("jobs: "))[6:])
    assert jobs["samples"] == 6 and jobs["job_tail_s"]["percentile"] == 100.0
    assert all(jobs[k]["unit"] for k in ("job_p50_s", "job_tail_s", "fail_share"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "exact-lab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
