"""Correctness gate, transcript digest and exact counters over job reports.

Every job writes its JSON report through `--out`.  The gate validates it and
checks the answer; the digest hashes it with `timings` removed, so drift in
a seeded transcript shows in every run; the counters are read from the
reports, never from timers.
"""

from __future__ import annotations

import hashlib
import json


def gate(argv: list[str], exit_code: int, expected_exit: int, report: dict | None, validate) -> str | None:
    """The problem with one job's outcome, or None when it is correct."""
    if exit_code != expected_exit:
        return f"exit code {exit_code}, want {expected_exit}"
    if report is None:
        return "no report written"
    try:
        validate(report)
        return _check_answer(argv, report["command"], report["results"])
    except ValueError as exc:
        return f"invalid report: {exc}"
    except (KeyError, TypeError) as exc:
        return f"malformed results: {exc!r}"


def _check_answer(argv: list[str], command: str, results: dict) -> str | None:
    if command == "factor":
        N = int(argv[argv.index("--n") + 1])
        f = results["factor"]
        if results["outcome"] != "factored" or not isinstance(f, int) or not (1 < f < N and N % f == 0):
            return f"no proper factor of {N}: outcome {results['outcome']}, factor {f}"
    elif command == "check":
        failed = [s["name"] for s in results["suites"] if not s["passed"]]
        if failed or not results["passed"]:
            return f"check suites failed: {failed}"
    elif command == "simulate":
        for entry in results["configs"]:
            if entry["z1_bounds_pass"] is False or entry["gap_pass"] is False:
                return f"simulate bound failed at d={entry['d']} D={entry['D']} R={entry['R']}"
    elif command == "sample":
        D, samples = results["D"], results["samples"]
        if len(samples) != results["m"] or any(not 0 <= k < D for s in samples for k in s["w_indices"]):
            return "sample indices off the grid or wrong count"
    return None


class Digest:
    """sha256 over job reports in job order, without their timings."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, report: dict | None) -> None:
        body = None if report is None else {k: v for k, v in report.items() if k != "timings"}
        self._hash.update(json.dumps(body, sort_keys=True).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Counters:
    """Exact work counters summed over the reports that passed the gate."""

    FIELDS = ("factored", "attempts", "candidates", "candidates_in_lattice",
              "det", "witness_bound", "lattice_vectors")

    def __init__(self):
        self.values = dict.fromkeys(self.FIELDS, 0)

    def add(self, report: dict) -> None:
        """Add a report that passed the gate."""
        v, results = self.values, report["results"]
        command = report["command"]
        if command == "factor":
            transcript = results["transcript"]
            v["factored"] += 1
            v["attempts"] += results["attempts_used"]
            for attempt in transcript.get("attempts", ()):
                v["candidates"] += len(attempt["candidates"])
                v["candidates_in_lattice"] += sum(c["in_lattice"] for c in attempt["candidates"])
            if "lattice" in transcript:
                v["det"] += transcript["lattice"]["det"]
            if "witness" in transcript:
                v["witness_bound"] += transcript["witness"]["bound"]
                v["lattice_vectors"] += transcript["witness"]["lattice_vectors"]
        elif command == "sample":
            v["det"] += results["det"]
        elif command == "simulate":
            v["det"] += sum(entry["det"] for entry in results["configs"])

    def attempts_per_factor(self) -> float:
        return self.values["attempts"] / self.values["factored"] if self.values["factored"] else 0.0

    def candidates_in_lattice_ratio(self) -> float:
        c = self.values["candidates"]
        return self.values["candidates_in_lattice"] / c if c else 0.0
