"""Seeded property suites shared by the CLI `check` command and the tests.

Each suite returns a JSON-friendly dict with a top-level `passed` flag.
Frequency guarantees are accepted by an exact one-sided binomial test: a
suite fails only when the observed rate is below the guaranteed rate at
99% confidence.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import intmat
from .arith import ParameterError
from .latred import (
    LatticeBasis,
    enumerate_lattice_vectors,
    extract_short_generators,
    lll_reduce,
)
from .relattice import dual_structure_from_basis

CONFIDENCE_ALPHA = 0.01
BLOCK_CELLS = 1 << 17  # array entries per trial block of a batched suite


# math.exp returns exactly 0.0 for every argument below this
_EXP_UNDERFLOW = -745.2


@lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only table of log(j!) = math.lgamma(j + 1) for j = 0..n."""
    table = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    table.flags.writeable = False
    return table


def binomial_lower_pvalue(successes: int, trials: int, p: float) -> float:
    """P[Bin(trials, p) <= successes], computed exactly in log space.

    The log terms are built elementwise in the order a scalar loop would
    use, and summed left to right with math.exp, so the value matches the
    term-by-term sum bit for bit; terms that exp rounds to 0.0 are skipped.
    """
    if successes >= trials:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    lf = _log_factorials(trials)
    i = np.arange(successes + 1)
    logs = lf[trials] - lf[i] - lf[trials - i] + i * lp + (trials - i) * lq
    peak = float(logs.max())
    shifted = logs - peak
    return min(1.0, math.exp(peak) * sum(map(math.exp, shifted[shifted >= _EXP_UNDERFLOW].tolist())))


def frequency_verdict(successes: int, trials: int, guaranteed: float) -> dict:
    pvalue = binomial_lower_pvalue(successes, trials, guaranteed)
    return {
        "successes": successes,
        "trials": trials,
        "frequency": successes / trials,
        "guaranteed": guaranteed,
        "pvalue_below": pvalue,
        "passed": pvalue >= CONFIDENCE_ALPHA,
    }


def _random_tiny_lattice(rng, d: int, det_cap: int) -> list[list[int]]:
    while True:
        m = [[int(rng.integers(-4, 5)) for _ in range(d)] for _ in range(d)]
        det = abs(intmat.determinant(m))
        if 0 < det <= det_cap:
            return m


def separation_suite(trials: int = 2000, seed: int = 0, det_cap: int = 64) -> dict:
    """Uniform dual cosets separate every nonzero primal coset.

    For each tiny lattice, draw m = d+4 uniform cosets of L*/Z^d and check
    exhaustively that every nonzero element of Z^d/L has some inner product
    at least eps = (4 det)^{-1/m}/3 away from the integers.  Guaranteed
    frequency of the event: 1/4.  Whether the coset of quotient element q
    is far from the integers against primal coset rho is tabulated once
    per lattice, for every q (in C order over the Smith diagonal) and
    every nonzero rho; a drawn coset then looks its row up by its
    mixed-radix index.  The trials of a lattice are drawn and decided in
    blocks of about BLOCK_CELLS table entries, one call per block, which
    yields the same stream as drawing them trial by trial and bounds the
    memory.
    """
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
        eps_scaled = (4 * det) ** (-1.0 / m) / 3.0 * det  # compare against min(r, det-r)
        reps = np.array([r for r in dual.quotient_reps() if any(r)], dtype=np.int64).reshape(-1, d)
        r = dual.scaled_coset(np.indices(dual.snf_diag).reshape(d, -1).T) @ reps.T % det
        far = np.minimum(r, det - r) > eps_scaled  # det x (det - 1)
        block = max(1, BLOCK_CELLS // (m * det))
        successes = 0
        for start in range(0, trials, block):
            x = rng.integers(0, dual.snf_diag, size=(min(block, trials - start), m, d))
            hits = far[np.ravel_multi_index(np.moveaxis(x, -1, 0), dual.snf_diag)]  # rows x m x (det - 1)
            # at det = 1 there is no nonzero coset to separate, and all() of nothing holds
            successes += int(np.all(np.any(hits, axis=1), axis=1).sum())
        verdict = frequency_verdict(successes, trials, 0.25)
        verdict["basis"] = basis
        verdict["det"] = det
        per_lattice.append(verdict)
        all_passed &= verdict["passed"]
    return {"name": "separation", "passed": all_passed, "cases": per_lattice}


def _full_rank_mod_p(vecs: np.ndarray, p: int) -> np.ndarray:
    """For a stack of k x r integer matrices (k >= r), whether each has rank
    r modulo the prime p.

    Gaussian elimination runs on the whole stack at once.  A matrix keeps
    full rank only if every column finds a pivot, so pivot c always lands in
    row c; a matrix that misses one is marked and its later rows are moot.
    """
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    a = vecs % p
    stack = np.arange(a.shape[0])
    full = np.ones(a.shape[0], dtype=bool)
    for c in range(a.shape[2]):
        nonzero = a[:, c:, c] != 0
        full &= nonzero.any(axis=1)
        piv = c + nonzero.argmax(axis=1)
        a[stack, c], a[stack, piv] = a[stack, piv], a[stack, c]
        a[:, c] = a[:, c] * inverse[a[:, c, c]][:, None] % p
        a[:, c + 1:] = (a[:, c + 1:] - a[:, c + 1:, c, None] * a[:, c, None]) % p
    return full


def _prime_factors(t: int) -> list[int]:
    out = []
    x = t
    p = 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out.append(x)
    return out


def generation_suite(trials: int = 2000, seed: int = 0, ranks=(1, 2, 3, 4), moduli=(2, 3, 4)) -> dict:
    """r+4 uniform elements generate (Z_t)^r with guaranteed frequency 1/2.

    Generation is decided exactly: for each prime p | t the elements must
    have full rank r modulo p.  The trials of an (r, t) case are drawn in
    blocks of about BLOCK_CELLS entries, one call per block, which yields
    the same stream as drawing them trial by trial, and each block's ranks
    are decided by one batched elimination per prime.
    """
    rng = np.random.default_rng(seed)
    cases = []
    all_passed = True
    for r in ranks:
        for t in moduli:
            block = max(1, BLOCK_CELLS // ((r + 4) * r))
            successes = 0
            for start in range(0, trials, block):
                vecs = rng.integers(0, t, size=(min(block, trials - start), r + 4, r))
                generated = np.ones(len(vecs), dtype=bool)
                for p in _prime_factors(t):
                    generated &= _full_rank_mod_p(vecs, p)
                successes += int(generated.sum())
            verdict = frequency_verdict(successes, trials, 0.5)
            verdict["rank"] = r
            verdict["modulus"] = t
            cases.append(verdict)
            all_passed &= verdict["passed"]
    return {"name": "generation", "passed": all_passed, "cases": cases}


def short_cover_suite(n_lattices: int = 100, seed: int = 0, k_max: int = 5, entry_bound: int = 20) -> dict:
    """Short-generator extraction covers every short lattice vector.

    Random integer lattices; for each, every enumerated vector of norm <= T
    must lie in the integer span of the extracted generators, and each
    generator must respect the sqrt(k) 2^{k/2} T norm bound.  Hard pass/fail.
    """
    rng = np.random.default_rng(seed)
    failures = []
    checked_vectors = 0
    for case in range(n_lattices):
        k = int(rng.integers(2, k_max + 1))
        while True:
            m = [[int(rng.integers(-entry_bound, entry_bound + 1)) for _ in range(k)] for _ in range(k)]
            if intmat.determinant(m):
                break
        # extraction reduces again, which leaves a reduced basis as it is;
        # enumeration lists the same vectors on any basis, in fewer nodes
        # on a reduced one
        basis = lll_reduce(LatticeBasis(vectors=tuple(tuple(r) for r in m))).basis
        T = math.isqrt(sum(x * x for x in basis.vectors[0])) + 1
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


def _theta_counts(d: int, max_sq: int) -> np.ndarray:
    """Number of integer vectors of each squared norm up to max_sq, in Z^d."""
    one = np.zeros(max_sq + 1)
    one[0] = 1.0
    k = 1
    while k * k <= max_sq:
        one[k * k] = 2.0
        k += 1
    out = np.zeros(max_sq + 1)
    out[0] = 1.0
    for _ in range(d):
        out = np.convolve(out, one)[: max_sq + 1]
    return out


def tail_suite(d_max: int = 6, s_values=(0.75, 1.0, 1.5, 2.0)) -> dict:
    """Gaussian mass of Z^d beyond radius sqrt(d) s is below 2^-d of the total.

    Also: when the shortest nonzero vector exceeds sqrt(d) s, the mass away
    from the origin is at most 2 * 2^-d.
    """
    cases = []
    all_passed = True
    for d in range(1, d_max + 1):
        for s in s_values:
            max_sq = int(math.ceil(s * s * (d + 60)))
            counts = _theta_counts(d, max_sq)
            weights = counts * np.exp(-math.pi * np.arange(max_sq + 1) / (s * s))
            total = float(weights.sum())
            tail = float(weights[np.arange(max_sq + 1) > d * s * s].sum())
            ok = tail < 2.0 ** (-d) * total
            cases.append({"d": d, "s": s, "tail": tail, "total": total, "passed": ok})
            all_passed &= ok
        s_small = 0.9 / math.sqrt(d)
        max_sq = int(math.ceil(s_small * s_small * (d + 60))) + 2
        counts = _theta_counts(d, max_sq)
        weights = counts * np.exp(-math.pi * np.arange(max_sq + 1) / (s_small * s_small))
        away = float(weights[1:].sum())
        ok = away <= 2.0 * 2.0 ** (-d)
        cases.append({"d": d, "s": s_small, "mass_off_origin": away, "passed": ok})
        all_passed &= ok
    return {"name": "tail", "passed": all_passed, "cases": cases}


def poisson_suite(scales=(0.5, 1.0, 2.0, 3.0), widths=(0.5, 1.0, math.sqrt(2), 3.0)) -> dict:
    """Summation identity for one-dimensional lattices cZ and Gaussians:
    sum rho_s(c k) = (s/c) sum exp(-pi s^2 k^2 / c^2), within 2^-40."""
    tol = 2.0 ** -40
    cases = []
    all_passed = True
    for c in scales:
        for s in widths:
            k1 = int(math.ceil(6 * s / c)) + 2
            lhs = sum(math.exp(-math.pi * (c * k) ** 2 / (s * s)) for k in range(-k1, k1 + 1))
            k2 = int(math.ceil(6 * c / s)) + 2
            rhs = (s / c) * sum(
                math.exp(-math.pi * (s * k) ** 2 / (c * c)) for k in range(-k2, k2 + 1)
            )
            err = abs(lhs - rhs)
            ok = err <= tol * max(1.0, abs(lhs))
            cases.append({"c": c, "s": s, "lhs": lhs, "rhs": rhs, "error": err, "passed": ok})
            all_passed &= ok
    return {"name": "poisson", "passed": all_passed, "cases": cases, "tolerance": tol}


SUITES = {
    "separation": lambda trials, seed: separation_suite(trials=trials, seed=seed),
    "generation": lambda trials, seed: generation_suite(trials=trials, seed=seed),
    "short-cover": lambda trials, seed: short_cover_suite(n_lattices=max(trials // 20, 10), seed=seed),
    "tail": lambda trials, seed: tail_suite(),
    "poisson": lambda trials, seed: poisson_suite(),
}


def unknown_suite(names) -> str | None:
    """Why `names` cannot be run, if one of them is not a suite."""
    unknown = [name for name in names if name not in SUITES]
    return f"unknown suite {unknown[0]!r}; options: {sorted(SUITES)}" if unknown else None


def run_suites(names, trials: int = 2000, seed: int = 0) -> dict:
    """Run the named suites in order; an unknown name is refused before any runs."""
    problem = unknown_suite(names)
    if problem:
        raise ParameterError(problem)
    results = [SUITES[name](trials, seed) for name in names]
    return {"suites": results, "passed": all(r["passed"] for r in results)}
