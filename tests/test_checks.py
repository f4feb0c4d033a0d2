"""The batched generation and separation suites against per-trial loops.

The references below draw and decide one trial at a time, as the suites
did before their trials were batched; a batched suite must return the same
dict for every seed and trial count.
"""

import numpy as np
import pytest

from qfactor.checks import (
    _full_rank_mod_p,
    _prime_factors,
    _random_tiny_lattice,
    frequency_verdict,
    generation_suite,
    separation_suite,
)
from qfactor.relattice import dual_structure_from_basis


def rank_mod_p_reference(rows, p):
    a = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def generation_suite_reference(trials=2000, seed=0, ranks=(1, 2, 3, 4), moduli=(2, 3, 4)):
    rng = np.random.default_rng(seed)
    cases = []
    all_passed = True
    for r in ranks:
        for t in moduli:
            primes = _prime_factors(t)
            successes = 0
            for _ in range(trials):
                vecs = rng.integers(0, t, size=(r + 4, r))
                rows = [[int(x) for x in row] for row in vecs]
                if all(rank_mod_p_reference(rows, p) == r for p in primes):
                    successes += 1
            verdict = frequency_verdict(successes, trials, 0.5)
            verdict["rank"] = r
            verdict["modulus"] = t
            cases.append(verdict)
            all_passed &= verdict["passed"]
    return {"name": "generation", "passed": all_passed, "cases": cases}


def scaled_coset_reference(dual, x):
    return tuple(
        sum(row[j] * x[j] * (dual.det // dual.snf_diag[j]) for j in range(dual.d)) % dual.det
        for row in dual.u_transpose
    )


def separation_suite_reference(trials=2000, seed=0, det_cap=64):
    rng = np.random.default_rng(seed)
    lattices = [[[2]], [[12]], [[64]]]
    lattices += [_random_tiny_lattice(rng, 2, det_cap) for _ in range(2)]
    lattices += [_random_tiny_lattice(rng, 3, det_cap) for _ in range(2)]
    per_lattice = []
    all_passed = True
    for basis in lattices:
        d = len(basis)
        m = d + 4
        dual = dual_structure_from_basis(basis)
        det = dual.det
        eps_scaled = (4 * det) ** (-1.0 / m) / 3.0 * det
        reps = np.array(
            [r for r in dual.quotient_reps() if any(r)], dtype=np.int64
        ).reshape(det - 1, d) if det > 1 else None
        successes = 0
        for _ in range(trials):
            cosets = np.array(
                [scaled_coset_reference(dual, [int(rng.integers(s)) for s in dual.snf_diag])
                 for _ in range(m)],
                dtype=np.int64,
            ).T
            if reps is None:
                successes += 1
                continue
            r = reps @ cosets % det
            dist = np.minimum(r, det - r)
            if bool(np.all(np.any(dist > eps_scaled, axis=1))):
                successes += 1
        verdict = frequency_verdict(successes, trials, 0.25)
        verdict["basis"] = basis
        verdict["det"] = det
        per_lattice.append(verdict)
        all_passed &= verdict["passed"]
    return {"name": "separation", "passed": all_passed, "cases": per_lattice}


@pytest.mark.parametrize("trials", [1, 7, 200])
@pytest.mark.parametrize("seed", range(5))
def test_generation_suite_matches_per_trial_reference(seed, trials):
    assert generation_suite(trials=trials, seed=seed) == generation_suite_reference(trials, seed)


@pytest.mark.parametrize("trials", [1, 7, 200])
@pytest.mark.parametrize("seed", range(5))
def test_separation_suite_matches_per_trial_reference(seed, trials):
    assert separation_suite(trials=trials, seed=seed) == separation_suite_reference(trials, seed)


def test_separation_reference_seeds_reach_a_unimodular_lattice():
    # the det == 1 branch (no nonzero coset to separate) is among the cases
    # compared above
    dets = {case["det"] for seed in range(5) for case in separation_suite(trials=1, seed=seed)["cases"]}
    assert 1 in dets


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_rank_mod_p_matches_reference(p):
    rng = np.random.default_rng(p)
    for r in range(1, 6):
        vecs = rng.integers(-9, 10, size=(300, r + int(rng.integers(0, 4)), r))
        got = _full_rank_mod_p(vecs, p)
        want = [rank_mod_p_reference(m.tolist(), p) == r for m in vecs]
        assert got.tolist() == want
