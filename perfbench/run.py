#!/usr/bin/env python3
"""The qfactor benchmark: run one workload, gate its outputs, print metrics.

    python3 perfbench/run.py --workload oracle-mix --seed 1 --seconds 56 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/`, and scratch files go under `.bench_build/perfbench/`.  Each job is
one `qfactor` command line executed in-process through
`qfactor.cli.main(argv + ["--out", <file>])`, so the timed path is the user's,
report building and writing included.

`--trace 0` runs one whole untraced pass over the job list and then goes on
through later passes, job by job, until about `seconds` of job time is
measured, and prints the end-to-end metrics.  `--trace 1` runs every job of one pass untraced and then again
under the tracer, and prints the per-layer metrics; the difference between
the two is the tracing overhead.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the lines before it carry the environment, the job-time percentiles, the
transcript digest and the exact counters read from the reports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reports import Counters, Digest, gate
from tracer import Tracer
from workloads import EXPECTED_EXIT, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10


def import_cli():
    """The package's CLI module, imported from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qfactor import cli

    return cli


def run_job(cli, argv: list[str], out: Path) -> tuple[float, str | None, dict | None]:
    """Time one command line; return (seconds, problem or None, report)."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
    except Exception as exc:  # a crash is a failed job, never a dropped one
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None
    elapsed = time.perf_counter() - start
    report = None
    if out.exists():
        try:
            report = json.loads(out.read_text())
        except json.JSONDecodeError as exc:
            return elapsed, f"unreadable report: {exc}", None
    return elapsed, gate(argv, code, EXPECTED_EXIT, report, cli.validate_report), report


class Tally:
    """Job times, failures, digest and counters of a set of jobs.

    Jobs are keyed by their index in the job list.  The digest covers the
    first run of each index, which is the first pass: the seed alone fixes
    it, so runs of one seed compare however many jobs they make.
    """

    def __init__(self):
        self.job_s: list[float] = []
        self.by_job: dict[int, list[float]] = {}
        self.failed = 0
        self.digest = Digest()
        self.counters = Counters()

    def run_job(self, cli, index: int, argv: list[str], out: Path) -> None:
        elapsed, problem, report = run_job(cli, argv, out)
        if index not in self.by_job:
            self.digest.add(report)
        self.by_job.setdefault(index, []).append(elapsed)
        self.job_s.append(elapsed)
        if problem:
            self.failed += 1
            print(f"FAIL {' '.join(argv)}: {problem}", file=sys.stderr)
        else:
            self.counters.add(report)

    @property
    def attempted(self) -> int:
        return len(self.job_s)

    @property
    def passes(self) -> float:
        return len(self.job_s) / len(self.by_job)

    def pass_s(self) -> float:
        """One pass over the job list, each job at the median of its times.

        Each job's samples are spread over the run, so a slow spell of the
        host moves one sample of a job, not the whole estimate."""
        return sum(statistics.median(times) for times in self.by_job.values())


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup(workload, seed: int, out: Path):
    """Imports, input generation and warm-up: everything before the first
    timed job.  Returns the CLI module and the jobs of the first pass."""
    cli = import_cli()
    jobs = workload.pass_jobs(seed, 0)
    for argv in workload.warmup:
        run_job(cli, [*argv, "--seed", "0"], out)
    return cli, jobs


def measure_setup(workload, seed: int) -> float:
    """Interpreter start to the end of setup, in a fresh process."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def environment(workload: str, seed: int) -> dict:
    import numpy

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "workload": workload,
        "seed": seed,
    }


def later_jobs(workload, seed: int):
    """(index, argv) of every job after the first pass, pass after pass."""
    for pass_index in itertools.count(1):
        yield from enumerate(workload.pass_jobs(seed, pass_index))


def end_to_end(workload, seed: int, seconds: int, out: Path) -> tuple[list[Tally], dict]:
    """Untraced jobs and the end-to-end metrics.

    The first pass runs whole.  Later jobs follow while the next one, at its
    first-pass time, would end nearer to `seconds` of measured job time than
    stopping does, so a run may end inside a pass.  The host's speed drifts
    over tens of seconds, so the three set-up samples are taken before the
    first pass, after it, and after the last job rather than in one burst.
    """
    setup_samples = [measure_setup(workload, seed)]
    cli, jobs = setup(workload, seed, out)
    tally = Tally()
    for index, argv in enumerate(jobs):
        tally.run_job(cli, index, argv, out)
    first_pass = list(tally.job_s)
    setup_samples.append(measure_setup(workload, seed))
    for index, argv in later_jobs(workload, seed):
        if sum(tally.job_s) + first_pass[index] / 2 >= seconds:
            break
        tally.run_job(cli, index, argv, out)
    setup_samples.append(measure_setup(workload, seed))
    tail_s, percentile = tail(tally.job_s)
    # Job percentiles are one job's sample or two, so they carry the host's
    # whole speed swing; they are printed here but not gated as metrics.
    print("jobs: " + json.dumps({
        "job_p50_s": {"value": statistics.median(tally.job_s), "unit": "s"},
        "job_tail_s": {"value": tail_s, "unit": "s", "percentile": percentile},
        "samples": len(tally.job_s),
        "fail_share": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        "passes": tally.passes,
        "job_s_total": sum(tally.job_s),
        "setup_samples_s": setup_samples,
    }))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s": (tally.pass_s(), "s"),
        "success_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "attempts_per_factor": (tally.counters.attempts_per_factor(), "attempts"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [tally], metrics


def trace_pass(cli, jobs: list[list[str]], out: Path) -> tuple[list[Tally], Tracer, dict]:
    """Run each job untraced and then traced; return both tallies, the tracer
    and the per-layer metrics.

    The two runs of a job follow each other, so both see the same host speed
    and the difference of their sums is the tracing overhead.
    """
    plain, tally, tracer = Tally(), Tally(), Tracer()
    for index, argv in enumerate(jobs):
        plain.run_job(cli, index, argv, out)
        tracer.job = index
        with tracer:
            tally.run_job(cli, index, argv, out)
    metrics = tracer.metrics()
    metrics["pipeline.attempts"] = (tally.counters.values["attempts"], "count")
    metrics["pipeline.candidates"] = (tally.counters.values["candidates"], "count")
    metrics["pipeline.candidates_in_lattice_ratio"] = (tally.counters.candidates_in_lattice_ratio(), "ratio")
    metrics["tracing.pass_s"] = (sum(tally.job_s), "s")
    metrics["tracing.overhead_s"] = (sum(tally.job_s) - sum(plain.job_s), "s")
    return [plain, tally], tracer, metrics


def traced(workload, seed: int, out: Path) -> tuple[list[Tally], dict]:
    """Per-layer metrics from one traced pass; spans go to a file."""
    cli, jobs = setup(workload, seed, out)
    tallies, tracer, metrics = trace_pass(cli, jobs, out)
    spans = SCRATCH / f"trace-{workload.name}-seed{seed}.json"
    spans.write_text(json.dumps({
        "fields": ["id", "parent", "job", "name", "start_s", "end_s"],
        "jobs": jobs,
        "spans": tracer.spans,
    }))
    top = sorted(tracer.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:5]
    print("self_s top: " + json.dumps({name: round(st[2], 4) for name, st in top}))
    print(f"spans: {spans.relative_to(ROOT)}")
    return tallies, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qfactor" / "__init__.py").is_file():
        print(f"error: no qfactor sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix=f"{workload.name}-") as tmp:
        out = Path(tmp) / "report.json"
        if args.setup_only:
            setup(workload, args.seed, out)
            print(time.time())
            return 0
        import_cli()
        print("env: " + json.dumps(environment(workload.name, args.seed)))
        if args.trace:
            tallies, metrics = traced(workload, args.seed, out)
        else:
            tallies, metrics = end_to_end(workload, args.seed, args.seconds, out)
    # every tally of a run covers the same seeded jobs, so they share one digest
    digests = {t.digest.hexdigest() for t in tallies}
    if len(digests) > 1:
        print("FAIL the same seeded jobs wrote different transcripts", file=sys.stderr)
    print("transcript_sha256: " + json.dumps({"workload": workload.name, "seed": args.seed,
                                               "sha256": sorted(digests)}))
    print("counters: " + json.dumps({"passes": tallies[-1].passes, **tallies[-1].counters.values}))
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
