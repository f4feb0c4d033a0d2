"""Exact fraction-free integer LLL reduction, short-generator extraction,
lattice-ball enumeration, and the extended lattice that embeds noisy dual
samples.

All arithmetic is exact: LLL runs on the integer Gram-Schmidt data of de
Weger and Cohen (Alg. 2.6.7) and hands its final data to its readers in
an LLLResult, so short-generator extraction and enumeration read it
instead of computing it again; each reduced basis has one Gram-Schmidt
computation.  Enumeration scales every squared norm it compares to one
common integer denominator and brackets each level's coefficients with an
integer square root, so no float enters a lattice decision.  At
desk-scale dimensions exactness is affordable and removes every
floating-point soundness question from the downstream guarantees.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arith import ParameterError, ResourceLimitError


@dataclass(frozen=True)
class LatticeBasis:
    """Integer basis vectors of a full-rank lattice."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vectors:
            raise ParameterError("empty basis")
        k = len(self.vectors[0])
        if any(len(v) != k for v in self.vectors):
            raise ParameterError("ragged basis")

    @property
    def rank(self) -> int:
        return len(self.vectors)


def _as_basis(basis) -> LatticeBasis:
    if isinstance(basis, LatticeBasis):
        return basis
    return LatticeBasis(vectors=tuple(tuple(int(x) for x in v) for v in basis))


def gram_schmidt(vectors):
    """Exact Gram-Schmidt data: (mu, b_star, sq_norms) over Fractions.

    Not called in this package; kept bound for perfbench's tracer.
    """
    n = len(vectors)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b_star: list[list[Fraction]] = []
    sq: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in vectors[i]]
        for j in range(i):
            if sq[j] == 0:
                raise ParameterError("rank-deficient basis")
            mu_ij = sum(Fraction(vectors[i][t]) * b_star[j][t] for t in range(len(v))) / sq[j]
            mu[i][j] = mu_ij
            v = [a - mu_ij * b for a, b in zip(v, b_star[j])]
        b_star.append(v)
        sq.append(sum(x * x for x in v))
    if any(s == 0 for s in sq):
        raise ParameterError("rank-deficient basis")
    return mu, b_star, sq


def _nearest_int(num: int, den: int) -> int:
    """The integer nearest num/den (den > 0); ties round up, so 1/2 -> 1
    and -1/2 -> 0."""
    return (2 * num + den) // (2 * den)


LLL_DELTA = Fraction(3, 4)  # the Lovasz constant


@dataclass(frozen=True)
class LLLResult:
    """A reduced basis and its integer Gram-Schmidt data, as
    `_integral_gram_schmidt` defines it: dets[0] = 1 and
    dets[i + 1] = B_0 ... B_i, so B_i = dets[i + 1] / dets[i] is the squared
    Gram-Schmidt norm of vector i, and lam[i][j] = dets[j + 1] mu_ij for
    j < i."""

    basis: LatticeBasis
    dets: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]


def _integral_gram_schmidt(vecs):
    """Fraction-free Gram-Schmidt data (dets, lam) of a basis.

    dets[0] = 1 and dets[i + 1] = B_0 ... B_i, the Gram determinant of the
    first i + 1 vectors (B_j the squared Gram-Schmidt norm of vector j);
    lam[i][j] = dets[j + 1] mu_ij for j < i.  All are integers, and every
    division in the recurrence is exact (Cohen, Alg. 2.6.7, step 2).
    """
    n = len(vecs)
    dets = [1] * (n + 1)
    lam = [[0] * i for i in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(a * b for a, b in zip(vecs[i], vecs[j]))
            for t in range(j):
                u = (dets[t + 1] * u - lam[i][t] * lam[j][t]) // dets[t]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ParameterError("rank-deficient basis")
            else:
                dets[i + 1] = u
    return dets, lam


def lll_reduce(basis) -> LLLResult:
    """LLL-reduce a full-rank integer basis with exact integer arithmetic.

    Output spans the same lattice, is size-reduced (|mu_ij| <= 1/2), and
    satisfies the Lovasz condition with delta = LLL_DELTA = 3/4, so
    consecutive Gram-Schmidt norms decay by at most sqrt(2).

    The loop is fraction-free (de Weger 1989; Cohen, Alg. 2.6.7): it keeps
    the integer data (dets, lam) of `_integral_gram_schmidt` and updates
    it in place on each reduction and swap, with exact divisions only, so
    the data it returns is that of the reduced basis.  Row k is
    size-reduced against k-1 down to 0 before each Lovasz test.
    """
    p, q = LLL_DELTA.numerator, LLL_DELTA.denominator
    b = _as_basis(basis)
    vecs = [list(v) for v in b.vectors]
    n = len(vecs)
    dets, lam = _integral_gram_schmidt(vecs)

    k = 1
    while k < n:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            dj = dets[j + 1]
            r = _nearest_int(row[j], dj)
            if r:
                vecs[k] = [a - r * c for a, c in zip(vecs[k], vecs[j])]
                for t, x in enumerate(lam[j]):
                    row[t] -= r * x
                row[j] -= r * dj
        # B_k < (delta - mu_{k,k-1}^2) B_{k-1}, multiplied by q dets[k] dets[k-1]
        lk = row[k - 1]
        if q * (dets[k + 1] * dets[k - 1] + lk * lk) < p * dets[k] * dets[k]:
            vecs[k - 1], vecs[k] = vecs[k], vecs[k - 1]
            # lam[k][k-1] keeps its value; only dets[k] and columns k-1, k
            # of the rows below change (Cohen's SWAPI)
            lam[k - 1], lam[k] = row[: k - 1], lam[k - 1] + [lk]
            d_lo, d_mid, d_hi = dets[k - 1], dets[k], dets[k + 1]
            new_mid = (d_lo * d_hi + lk * lk) // d_mid
            for i in range(k + 1, n):
                li = lam[i]
                t = li[k]
                li[k] = (d_hi * li[k - 1] - lk * t) // d_mid
                li[k - 1] = (new_mid * t + lk * li[k]) // d_hi
            dets[k] = new_mid
            k = max(k - 1, 1)
        else:
            k += 1
    return LLLResult(
        basis=LatticeBasis(vectors=tuple(tuple(v) for v in vecs)),
        dets=tuple(dets),
        lam=tuple(tuple(row) for row in lam),
    )


def extract_short_generators(reduced: LLLResult, norm_bound_sq) -> list[tuple[int, ...]]:
    """Generators covering every vector of norm <= T of the lattice that
    `reduced`, an lll_reduce result, spans, where norm_bound_sq = T^2 (an
    int or a Fraction, compared exactly).

    Keep the prefix z_1..z_l of the reduced basis, where l is the first
    index whose Gram-Schmidt norm reaches 2^{k/2} T (all k vectors if none
    does).  Every returned vector has norm at most sqrt(k) 2^{k/2} T, and
    any lattice vector of norm <= T is an integer combination of the output.
    """
    t_sq = Fraction(norm_bound_sq)
    if t_sq <= 0:
        raise ParameterError("norm bound must be positive")
    k, dets = reduced.basis.rank, reduced.dets
    # B_i >= (2^{k/2} T)^2 = 2^k T^2, cross-multiplied by dets[i] and T^2's denominator
    num, den = (1 << k) * t_sq.numerator, t_sq.denominator
    ell = next((i for i in range(k) if dets[i + 1] * den >= num * dets[i]), k)
    return [tuple(v) for v in reduced.basis.vectors[:ell]]


def enumerate_coefficients(
    reduced: LLLResult, norm_bound_sq, node_cap=None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The coefficient row x of every nonzero lattice vector sum_i x_i b_i
    of squared norm <= norm_bound_sq (an int or a Fraction), exactly, with
    that squared norm, on the basis b of `reduced`, an lll_reduce result:
    an iterator of (x, norm_sq) pairs, so no member list is built.  The
    bound is checked at the call: a negative one raises ParameterError.

    Fincke-Pohst enumeration over the integer Gram-Schmidt data (dets, lam)
    that LLL leaves in `reduced`.  With B_i = dets[i+1] / dets[i] and
    mu_ti = lam[t][i] / dets[i+1], coefficient x at level i uses
    (x + sum_{t>i} c_t mu_ti)^2 B_i = (x dets[i+1] + S_i)^2 / (dets[i] dets[i+1])
    of the squared bound, where S_i = sum_{t>i} c_t lam[t][i].  The bound
    and every such part are integers over one common denominator M.  With M
    times the remaining bound at level i and r = isqrt(remaining // scale_i),
    the admitted x are exactly the integers with |x dets[i+1] + S_i| <= r:
    one interval, whose ends are floor divisions, so no value outside it is
    tried and no float is used (the exact Fincke-Pohst interval of Schnorr
    and Euchner, 1994).  The walk is depth-first, each level's interval in
    increasing order, and runs as one loop over the level index.  Each
    admitted coefficient value at each level is one enumeration node,
    counted when the level is entered; with node_cap set, a search that
    would admit more nodes raises ResourceLimitError, at any bound.  A
    leaf's squared norm is what its levels used of the squared bound,
    divided by M: an exact division, because the levels' parts sum to M
    times the squared norm.
    """
    t_sq = Fraction(norm_bound_sq)
    if t_sq < 0:
        raise ParameterError("squared norm bound must be nonnegative")
    return _fincke_pohst(reduced, t_sq, node_cap)


def _fincke_pohst(reduced: LLLResult, t_sq: Fraction, node_cap):
    """The walk of enumerate_coefficients, apart so that its bound check runs at the call."""
    n, dets, lam = reduced.basis.rank, reduced.dets, reduced.lam
    pairs = [dets[i] * dets[i + 1] for i in range(n)]
    M = math.lcm(t_sq.denominator, *pairs)
    scale = [M // p for p in pairs]  # M times level i's part is (x dets[i+1] + S_i)^2 scale[i]
    top = t_sq.numerator * (M // t_sq.denominator)  # M times the squared bound
    coeffs = [0] * n  # the current coefficient of each level
    highs = [0] * n  # the last admitted coefficient of each level above 0
    sums = [0] * n  # S_i of each level above 0
    left = [0] * n  # M times the squared norm the levels <= i may still use
    left[n - 1] = top
    nodes = 0
    i = n - 1
    while True:
        # enter level i: admitted are |x d_i + s_i| <= r, r = isqrt(left[i] // scale_i)
        d_i, scale_i = dets[i + 1], scale[i]
        s_i = sum(coeffs[t] * lam[t][i] for t in range(i + 1, n))
        r = math.isqrt(left[i] // scale_i)
        lo, hi = -((r + s_i) // d_i), (r - s_i) // d_i
        nodes += hi - lo + 1
        if node_cap is not None and nodes > node_cap:
            raise ResourceLimitError(f"enumeration exceeds {node_cap} nodes")
        if i == 0:
            base = top - left[0]
            for x in range(lo, hi + 1):
                coeffs[0] = x
                if any(coeffs):
                    yield tuple(coeffs), (base + (x * d_i + s_i) ** 2 * scale_i) // M
            i = 1
        else:
            coeffs[i], highs[i], sums[i] = lo - 1, hi, s_i
        # step the lowest level >= i that has a coefficient left, then descend
        while i < n and coeffs[i] == highs[i]:
            i += 1
        if i == n:
            return
        x = coeffs[i] = coeffs[i] + 1
        left[i - 1] = left[i] - (x * dets[i + 1] + sums[i]) ** 2 * scale[i]
        i -= 1


def combine_rows(basis, rows) -> list[tuple[int, ...]]:
    """The lattice vectors sum_i x_i b_i, one for each coefficient row x."""
    vecs = _as_basis(basis).vectors
    out = []
    for x in rows:
        vec = [0] * len(vecs[0])
        for c, bv in zip(x, vecs):
            if c:
                vec = [a + c * e for a, e in zip(vec, bv)]
        out.append(tuple(vec))
    return out


def enumerate_lattice_vectors(reduced: LLLResult, norm_bound_sq, node_cap=None) -> list[tuple[int, ...]]:
    """All nonzero vectors of squared norm <= norm_bound_sq of the lattice
    that `reduced`, an lll_reduce result, spans, in the order and under the
    node cap of enumerate_coefficients."""
    leaves = enumerate_coefficients(reduced, norm_bound_sq, node_cap)
    return combine_rows(reduced.basis, (x for x, _ in leaves))


# the dimension k = d + m of the extended lattice, which exact LLL reduces
# on every attempt; its cost grows steeply with k, from seconds past this
# cap to minutes at k = 481
DIM_CAP = 128


@dataclass(frozen=True)
class ExtendedLattice:
    """The (d+m)-dimensional integral embedding of m noisy dual samples.

    Sample i is the grid point w_i = J_i / D, given by its integer indices
    J_i in [0, D)^d.  The block matrix [[I_d, 0], [J, D I_m]], with J = D W,
    is integral; its columns are stored as basis vectors.  Short vectors of
    this lattice project (first d coordinates) onto relation-lattice
    candidates.
    """

    d: int
    m: int
    D: int
    basis: LatticeBasis


def build_extended_lattice(d: int, indices, D: int) -> ExtendedLattice:
    """Assemble the embedding matrix for m >= d+4 samples on the 1/D grid,
    each given by its d integer indices."""
    samples = [tuple(w) for w in indices]
    m = len(samples)
    if m < d + 4:
        raise ParameterError("need at least d+4 samples")
    for w in samples:
        if len(w) != d:
            raise ParameterError("sample dimension mismatch")
        for j in w:
            if not isinstance(j, int) or not 0 <= j < D:
                raise ParameterError(f"sample index {j!r} is not an integer in [0, {D})")
    dim = d + m
    vectors = []
    for j in range(d):
        col = [0] * dim
        col[j] = 1
        for i, w in enumerate(samples):
            col[d + i] = w[j]
        vectors.append(tuple(col))
    for i in range(m):
        col = [0] * dim
        col[d + i] = D
        vectors.append(tuple(col))
    return ExtendedLattice(d=d, m=m, D=D, basis=LatticeBasis(vectors=tuple(vectors)))


def recover_relation_vectors(ext: ExtendedLattice, T, delta_sq) -> list[tuple[int, ...]]:
    """Candidate relation vectors from the extended lattice.

    A relation vector u of norm <= T lifts into the extended lattice with
    norm at most T (1 + m D^2 delta^2)^{1/2} when every sample is within
    delta of its coset, so the short-generator extraction runs at that
    bound on the LLL-reduced embedding; candidates are the nonzero
    first-d-coordinate projections.  Membership of candidates in the
    relation lattice is the caller's check.
    """
    t_sq = Fraction(T) ** 2
    lift_sq = t_sq * (1 + ext.m * ext.D ** 2 * Fraction(delta_sq))
    gens = extract_short_generators(lll_reduce(ext.basis), lift_sq)
    seen = set()
    candidates = []
    for g in gens:
        head = tuple(g[: ext.d])
        if any(head) and head not in seen:
            seen.add(head)
            candidates.append(head)
    return candidates
