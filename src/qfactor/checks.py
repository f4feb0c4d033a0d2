"""Seeded property suites shared by the CLI `check` command and the tests.

Each suite returns a JSON-friendly dict with a top-level `passed` flag.
Frequency guarantees are accepted by an exact one-sided binomial test: a
suite fails only when the observed rate is below the guaranteed rate at
99% confidence.

The generation and separation suites decide each trial by one exact mask
test: every drawn element reads a bitmask from a read-only table, in which
a set bit names a way the trial could fail (a hyperplane holding the
element, a primal coset the element does not separate), and the trial
passes iff the bitwise AND of its elements' masks is empty.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import intmat
from .arith import ParameterError, integer_root
from .gauss import EXP_ZERO
from .latred import (
    LatticeBasis,
    enumerate_lattice_vectors,
    extract_short_generators,
    lll_reduce,
)
from .relattice import dual_structure_from_basis

CONFIDENCE_ALPHA = 0.01
BLOCK_CELLS = 1 << 17  # array entries per trial block of a batched suite


@lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only table of log(j!) = math.lgamma(j + 1) for j = 0..n."""
    table = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    table.flags.writeable = False
    return table


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of uint64 words; bit j of row i is bits[i, j], and the padding
    bits of the last word are zero."""
    padded = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 64), dtype=bool)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _none_survive(masks: np.ndarray) -> np.ndarray:
    """For a stack of trials x elements x words masks, whether the AND of
    each trial's masks is empty.  An AND over no words is empty."""
    return ~np.bitwise_and.reduce(masks, axis=1).any(axis=-1)


def binomial_lower_pvalue(successes: int, trials: int, p: float) -> float:
    """P[Bin(trials, p) <= successes], computed exactly in log space.

    The log terms are built elementwise in the order a scalar loop would
    use, and summed left to right with math.exp, so the value matches the
    term-by-term sum bit for bit; terms below gauss.EXP_ZERO, which exp
    rounds to 0.0, are skipped.
    """
    if successes >= trials:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    lf = _log_factorials(trials)
    i = np.arange(successes + 1)
    logs = lf[trials] - lf[i] - lf[trials - i] + i * lp + (trials - i) * lq
    peak = float(logs.max())
    shifted = logs - peak
    return min(1.0, math.exp(peak) * sum(map(math.exp, shifted[shifted > EXP_ZERO].tolist())))


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


def _random_tiny_lattice(rng, d: int) -> list[list[int]]:
    while True:
        m = rng.integers(-4, 5, size=(d, d)).tolist()
        det = abs(intmat.determinant(m))
        if 0 < det <= 64:
            return m


@lru_cache(maxsize=64)
def _separation_masks(snf_diag: tuple[int, ...], m: int) -> np.ndarray:
    """Read-only table of the primal cosets each dual coset fails to
    separate, for m draws on the quotient with Smith diagonal `snf_diag`.

    Row x (quotient elements in C order over the diagonal, 0 first) has bit
    y - 1 set iff nonzero primal coset y is within eps = (4 det)^{-1/m}/3 of
    the integers against x.  On the diagonal the pairing is
    sum_j x_j y_j / s_j mod 1 (see DualStructure), so det times it is the
    integer r = sum_j x_j y_j (det / s_j) mod det, below d det^2 before the
    reduction and so exact in int64.  It is within eps iff
    (3 min(r, det - r))^m 4 det <= det^m, that is iff min(r, det - r) <= near,
    found in Python ints.  At det = 1 the rows have no words.
    """
    det = math.prod(snf_diag)
    near = integer_root(det**m // (4 * det), m) // 3
    coords = np.indices(snf_diag).reshape(len(snf_diag), -1).T  # every quotient element; 0 first
    r = coords * [det // s for s in snf_diag] @ coords[1:].T % det
    table = _pack_bits(np.minimum(r, det - r) <= near)  # det x (det - 1) bits
    table.flags.writeable = False
    return table


def separation_suite(trials: int = 2000, seed: int = 0) -> dict:
    """Uniform dual cosets separate every nonzero primal coset.

    For each tiny lattice (det <= 64), draw m = d+4 uniform cosets of
    L*/Z^d and check exhaustively that every nonzero element of Z^d/L has
    some inner product at least eps = (4 det)^{-1/m}/3 away from the
    integers.  Guaranteed frequency of the event: 1/4.  Each drawn coset
    looks up, by its mixed-radix index on the Smith diagonal, the mask of
    primal cosets it leaves within eps (`_separation_masks`, built once per
    diagonal and m), and the m draws separate every nonzero coset iff the
    AND of their masks is empty; at det = 1 there is none to separate, and
    every trial passes.  The trials of a lattice are drawn and decided in
    blocks of about BLOCK_CELLS table entries, one call per block, which
    yields the same stream as drawing them trial by trial and bounds the
    memory.
    """
    rng = np.random.default_rng(seed)
    lattices = [[[2]], [[12]], [[64]]]
    lattices += [_random_tiny_lattice(rng, 2) for _ in range(2)]
    lattices += [_random_tiny_lattice(rng, 3) for _ in range(2)]
    per_lattice = []
    all_passed = True
    for basis in lattices:
        d = len(basis)
        m = d + 4
        dual = dual_structure_from_basis(basis)
        det = dual.det
        masks = _separation_masks(tuple(dual.snf_diag), m)
        block = max(1, BLOCK_CELLS // (m * det))
        successes = 0
        for start in range(0, trials, block):
            x = rng.integers(0, dual.snf_diag, size=(min(block, trials - start), m, d))
            drawn = masks[np.ravel_multi_index(np.moveaxis(x, -1, 0), dual.snf_diag)]  # rows x m x words
            successes += int(_none_survive(drawn).sum())
        verdict = frequency_verdict(successes, trials, 0.25)
        verdict["basis"] = basis
        verdict["det"] = det
        per_lattice.append(verdict)
        all_passed &= verdict["passed"]
    return {"name": "separation", "passed": all_passed, "cases": per_lattice}


@lru_cache(maxsize=16)
def _hyperplane_masks(p: int, r: int) -> np.ndarray:
    """Read-only table of the hyperplanes of F_p^r that hold each vector.

    Row v (vectors in C order, so row sum_j v_j p^{r-1-j}) has bit h set iff
    h . v = 0 mod p, for the (p^r - 1)/(p - 1) normals h whose first nonzero
    entry is 1, one per hyperplane.  The bits are built one word of 64
    normals at a time.
    """
    vecs = np.indices((p,) * r).reshape(r, p**r).T
    lead = (vecs * ((vecs != 0).cumsum(axis=1) == 1)).sum(axis=1)  # first nonzero entry, or 0
    normals = vecs[lead == 1]
    words = [_pack_bits(vecs @ normals[w : w + 64].T % p == 0) for w in range(0, len(normals), 64)]
    table = np.concatenate([np.zeros((len(vecs), 0), dtype="<u8"), *words], axis=1)
    table.flags.writeable = False
    return table


def _full_rank_mod_p(vecs: np.ndarray, p: int) -> np.ndarray:
    """For a stack of k x r integer matrices, whether each has rank r
    modulo the prime p.

    k rows span F_p^r iff no hyperplane holds all of them, so each row
    reads its hyperplane mask (`_hyperplane_masks`) and a matrix has full
    rank iff the AND of its rows' masks is empty; with k < r some
    hyperplane always survives.
    """
    r = vecs.shape[2]
    residues = vecs - vecs // p * p  # vecs % p; numpy divides by a scalar faster than it takes `%`
    index = residues @ p ** np.arange(r - 1, -1, -1, dtype=np.int64)
    return _none_survive(_hyperplane_masks(p, r)[index])


def generation_suite(trials: int = 2000, seed: int = 0) -> dict:
    """r+4 uniform elements generate (Z_t)^r with guaranteed frequency 1/2,
    for r = 1..4 and t = 2, 3, 4.

    Generation is decided exactly: for each prime p | t the elements must
    have full rank r modulo p, that is, the AND of their hyperplane masks
    mod p must be empty.  The trials of an (r, t) case are drawn in blocks
    of about BLOCK_CELLS entries, one call per block, which yields the same
    stream as drawing them trial by trial, and each block is decided by one
    batched mask test per prime.
    """
    rng = np.random.default_rng(seed)
    cases = []
    all_passed = True
    for r in (1, 2, 3, 4):
        for t, primes in ((2, (2,)), (3, (3,)), (4, (2,))):  # t and the primes dividing it
            block = max(1, BLOCK_CELLS // ((r + 4) * r))
            successes = 0
            for start in range(0, trials, block):
                vecs = rng.integers(0, t, size=(min(block, trials - start), r + 4, r))
                generated = np.ones(len(vecs), dtype=bool)
                for p in primes:
                    generated &= _full_rank_mod_p(vecs, p)
                successes += int(generated.sum())
            verdict = frequency_verdict(successes, trials, 0.5)
            verdict["rank"] = r
            verdict["modulus"] = t
            cases.append(verdict)
            all_passed &= verdict["passed"]
    return {"name": "generation", "passed": all_passed, "cases": cases}


def short_cover_suite(n_lattices: int = 100, seed: int = 0) -> dict:
    """Short-generator extraction covers every short lattice vector.

    Random integer lattices of rank 2..5 with entries in [-20, 20], each
    LLL-reduced once; T is just above the first reduced vector's norm.
    Every enumerated vector of norm <= T must lie in the integer span of
    the extracted generators, and each generator must respect the
    sqrt(k) 2^{k/2} T norm bound.  Hard pass/fail.
    """
    rng = np.random.default_rng(seed)
    failures = []
    checked_vectors = 0
    for case in range(n_lattices):
        k = int(rng.integers(2, 6))
        while True:
            m = rng.integers(-20, 21, size=(k, k)).tolist()
            if intmat.determinant(m):
                break
        reduced = lll_reduce(LatticeBasis(vectors=tuple(tuple(r) for r in m)))
        T = math.isqrt(sum(x * x for x in reduced.basis.vectors[0])) + 1
        gens = extract_short_generators(reduced, T * T)
        short = enumerate_lattice_vectors(reduced, T * T)
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


def tail_suite() -> dict:
    """Gaussian mass of Z^d beyond radius sqrt(d) s is below 2^-d of the
    total, for d = 1..6 and s = 0.75, 1, 1.5, 2.

    Also: when the shortest nonzero vector exceeds sqrt(d) s, the mass away
    from the origin is at most 2 * 2^-d.
    """
    cases = []
    all_passed = True
    for d in range(1, 7):
        for s in (0.75, 1.0, 1.5, 2.0):
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


def poisson_suite() -> dict:
    """Summation identity for one-dimensional lattices cZ and Gaussians:
    sum rho_s(c k) = (s/c) sum exp(-pi s^2 k^2 / c^2), within 2^-40, for
    c = 0.5, 1, 2, 3 and s = 0.5, 1, sqrt(2), 3."""
    tol = 2.0 ** -40
    cases = []
    all_passed = True
    for c in (0.5, 1.0, 2.0, 3.0):
        for s in (0.5, 1.0, math.sqrt(2), 3.0):
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
