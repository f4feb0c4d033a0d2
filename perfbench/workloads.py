"""The benchmark's workloads: fixed job mixes of `qfactor` command lines.

Every workload is closed-loop with one client: a single process runs its
jobs one after another, with no threads, so no layer ever waits on another.
The (N, d, R) mix of a workload never changes.  Per-job `--seed` values are
drawn from the workload seed and the pass index, so one workload seed always
gives the same jobs, and each pass of a run samples fresh transcripts.

There are two workloads, not more, so that each run can be long: the host's
speed drifts over tens of seconds, and only long runs average that out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Every listed job must exit with this code; anything else is a failure.
EXPECTED_EXIT = 0

# Seeds per radius of the 221/d=1 sweep.  Its retries are nearly all of the
# seed-to-seed variation of attempts_per_factor: over ten workload seeds the
# metric spread by 0.11 of its median at 10 seeds per radius and by 0.085 at
# 40, which costs about 3 s more per pass.
SWEEP_SEEDS = 40


def _factor(n: int, d: int, *extra: str) -> tuple[str, ...]:
    return ("factor", "--n", str(n), "--d", str(d), *extra)


@dataclass(frozen=True)
class Workload:
    """One job mix, with the tiny jobs that warm each command path up."""

    name: str
    jobs: tuple[tuple[str, ...], ...]
    warmup: tuple[tuple[str, ...], ...]

    def pass_jobs(self, seed: int, pass_index: int) -> list[list[str]]:
        """The argv of every job in one pass, each with its drawn seed."""
        rng = random.Random(f"{self.name}/{seed}/{pass_index}")
        return [[*argv, "--seed", str(rng.randrange(1 << 32))] for argv in self.jobs]


WORKLOADS = {
    w.name: w
    for w in (
        # Oracle factoring, the lab's normal use, in two parts.  At the selected
        # radius, dense gauss.coordinate_masses tables (D = 2^18..2^21) dominate
        # and no two jobs share an (N, d); the sample job keeps cmd_sample's own
        # preparation.  With R pinned below the selected radius (the
        # success-against-radius sweep), grids stay small (D <= 4096), so
        # witness certification (box scans through hom_image) and LLL at
        # k = 10..12 dominate; its 221/d=1 jobs share one (N, d) and
        # retry attempts: the inputs that share work.  They come first, so a
        # run that ends inside a pass still repeats them: they are cheap, and
        # their retries are where attempts_per_factor varies from seed to seed.
        Workload(
            name="oracle-mix",
            jobs=(
                *(_factor(221, 1, "--radius", str(r)) for r in (16, 32) for _ in range(SWEEP_SEEDS)),
                _factor(77, 2),
                _factor(143, 2),
                _factor(221, 2),
                _factor(323, 2),
                _factor(1147, 2),
                _factor(221, 3),
                _factor(1147, 3),
                ("sample", "--n", "437", "--d", "3"),
                _factor(1147, 3, "--radius", "64"),
                _factor(1147, 3, "--radius", "256"),
                _factor(3127, 3, "--radius", "256"),
                _factor(10403, 3, "--radius", "256"),
                _factor(1147, 4, "--radius", "256"),
                _factor(1147, 4, "--radius", "1024"),
            ),
            warmup=(
                _factor(35, 1),
                ("sample", "--n", "35", "--d", "1"),
                _factor(221, 1, "--radius", "16"),
            ),
        ),
        # The only workload through qsim: exact statevector factoring, the
        # simulate sweep and every check suite.  It reaches gauss through many
        # tiny concentration tables and LLL through short-cover lattices.
        Workload(
            name="exact-lab",
            jobs=(
                *(_factor(n, 1, "--mode", "statevector") for n in (15, 35, 91, 77)),
                ("simulate", "--n", "77", "--sweep", "1:16:4;2:32:8;3:32:4.62", "--trials", "2000"),
                ("check", "--suite", "all", "--trials", "2000"),
            ),
            warmup=(
                _factor(15, 1, "--mode", "statevector"),
                ("simulate", "--n", "15", "--sweep", "1:16:4", "--trials", "10"),
                ("check", "--suite", "poisson", "--trials", "10"),
            ),
        ),
    )
}
