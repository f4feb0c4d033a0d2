"""The batched generation and separation suites against per-trial loops.

The references below draw and decide one trial at a time, as the suites
did before their trials were batched; a batched suite must return the same
dict for every seed and trial count, whether its trials fit in one block
or are split into several.  The short-cover suite, which reduces each
lattice once, is held to the form that extracts and enumerates on the
unreduced basis.  The exact binomial p-value is held to its scalar loop
the same way.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qfactor import checks, intmat
from qfactor.arith import ParameterError
from qfactor.checks import (
    BLOCK_CELLS,
    _full_rank_mod_p,
    _prime_factors,
    _random_tiny_lattice,
    binomial_lower_pvalue,
    frequency_verdict,
    generation_suite,
    run_suites,
    separation_suite,
    short_cover_suite,
)
from qfactor.latred import LatticeBasis, enumerate_lattice_vectors, extract_short_generators, lll_reduce
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


def short_cover_suite_reference(n_lattices=100, seed=0, k_max=5, entry_bound=20):
    """Reduce once for T, then extract (reducing again) and enumerate on the
    basis as drawn."""
    rng = np.random.default_rng(seed)
    failures = []
    checked_vectors = 0
    for case in range(n_lattices):
        k = int(rng.integers(2, k_max + 1))
        while True:
            m = [[int(rng.integers(-entry_bound, entry_bound + 1)) for _ in range(k)] for _ in range(k)]
            if intmat.determinant(m):
                break
        basis = LatticeBasis(vectors=tuple(tuple(r) for r in m))
        first = lll_reduce(basis).basis.vectors[0]
        T = math.isqrt(sum(x * x for x in first)) + 1
        gens = extract_short_generators(basis, T * T)
        short = enumerate_lattice_vectors(basis, T * T)
        checked_vectors += len(short)
        norm_cap = k * (1 << k) * T * T
        for g in gens:
            if sum(x * x for x in g) > norm_cap:
                failures.append({"case": case, "kind": "norm", "vector": list(g)})
        if gens:
            rows = intmat.hermite_basis([list(g) for g in gens], k)
            for v in short:
                if not intmat.lattice_contains(rows, list(v)):
                    failures.append({"case": case, "kind": "cover", "vector": list(v)})
        elif short:
            failures.append({"case": case, "kind": "cover-empty", "count": len(short)})
    return {
        "name": "short-cover",
        "passed": not failures,
        "lattices": n_lattices,
        "vectors_checked": checked_vectors,
        "failures": failures[:10],
    }


@pytest.mark.parametrize("seed", range(5))
def test_short_cover_suite_matches_two_reduction_reference(seed):
    assert short_cover_suite(seed=seed) == short_cover_suite_reference(seed=seed)


def test_run_suites_refuses_an_unknown_name_before_any_suite_runs(monkeypatch):
    def refuse(trials, seed):
        raise AssertionError("a suite ran")

    monkeypatch.setitem(checks.SUITES, "tail", refuse)
    with pytest.raises(ParameterError, match="unknown suite 'nonsense'"):
        run_suites(["tail", "nonsense"])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_rank_mod_p_matches_reference(p):
    rng = np.random.default_rng(p)
    for r in range(1, 6):
        vecs = rng.integers(-9, 10, size=(300, r + int(rng.integers(0, 4)), r))
        got = _full_rank_mod_p(vecs, p)
        want = [rank_mod_p_reference(m.tolist(), p) == r for m in vecs]
        assert got.tolist() == want


# the default blocks hold 409 trials of the det-64 separation case and 4096
# of the r = 4 generation cases; the counts below straddle both, and the
# smaller budgets split every case into blocks of one or a few trials
@pytest.mark.parametrize("cells, trials", [
    (BLOCK_CELLS, 409), (BLOCK_CELLS, 410), (BLOCK_CELLS, 819), (BLOCK_CELLS, 4097),
    (1, 50), (97, 410),
])
@pytest.mark.parametrize("suite", [separation_suite, generation_suite])
def test_blocked_suites_match_one_unblocked_draw(suite, cells, trials, monkeypatch):
    monkeypatch.setattr(checks, "BLOCK_CELLS", cells)
    blocked = suite(trials=trials, seed=3)
    monkeypatch.setattr(checks, "BLOCK_CELLS", 1 << 40)  # every trial in one block
    assert blocked == suite(trials=trials, seed=3)


def test_suite_memory_does_not_grow_with_trials(monkeypatch):
    # One unblocked draw held 561 MB (separation) and 56 MB (generation) at
    # 60,000 trials.  The exact binomial verdict is stubbed out: it is not
    # what this bounds.
    monkeypatch.setattr(checks, "frequency_verdict", lambda successes, trials, p: {"passed": True})
    for suite in (separation_suite, generation_suite):
        tracemalloc.start()
        try:
            suite(trials=60_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, suite.__name__


def binomial_lower_pvalue_reference(successes, trials, p):
    """The scalar loop: one lgamma expression and one exp per term."""
    if successes >= trials:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    lgn = math.lgamma(trials + 1)
    logs = [
        lgn - math.lgamma(i + 1) - math.lgamma(trials - i + 1) + i * lp + (trials - i) * lq
        for i in range(successes + 1)
    ]
    peak = max(logs)
    return min(1.0, math.exp(peak) * sum(math.exp(x - peak) for x in logs))


def test_binomial_pvalue_matches_scalar_loop():
    # both tails, the peak, and tails long enough that exp underflows to 0
    rng = np.random.default_rng(5)
    cases = []
    for trials, p in itertools.product([1, 2, 10, 300, 2000, 4097, 60_000],
                                       [1e-9, 0.01, 0.25, 0.5, 0.9, 1 - 1e-9]):
        picks = {0, 1, trials // 4, trials // 2, trials - 1, trials, int(rng.integers(trials + 1))}
        cases += [(s, trials, p) for s in sorted(picks) if trials < 60_000 or s < trials // 2]
    cases += [(int(rng.integers(t + 1)), t, float(rng.random())) for t in rng.integers(1, 5000, size=200)]
    for successes, trials, p in cases:
        got = binomial_lower_pvalue(successes, trials, p)
        assert got == binomial_lower_pvalue_reference(successes, trials, p), (successes, trials, p)
