"""The relation lattice of an instance and its dual-quotient structure.

The relation lattice L collects integer exponent vectors z with
prod a_i^{z_i} = 1 mod N; the sign sublattice L0 additionally forces
prod b_i^{z_i} into {+-1}.  A vector of L outside L0 exhibits a nontrivial
square root of unity, and gcd then yields a factor.  L is built exactly by
BFS over the Cayley graph of the subgroup generated by the a_i, and the
quotient L*/Z^d is made samplable through a Smith decomposition.

The short vectors of L are listed by exact Fincke-Pohst enumeration over an
LLL-reduced basis (ball_census).  The list is complete because the basis
generates all of L: its determinant is checked against the BFS group order.
Each listed vector is still confirmed by the homomorphism before it is
classified against L0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import numpy as np

from . import intmat, latred
from .arith import (
    FactoringInstance,
    ParameterError,
    ResourceLimitError,
    base_product,
    hom_image,
)

GROUP_CAP = 1 << 22
ENUM_CAP = 1 << 22  # enumeration nodes: coefficient values tried, over all levels


class DomainError(ValueError):
    """A vector fails a membership precondition."""


@dataclass(frozen=True)
class RelationLattice:
    """Full-rank lattice of exponent relations for one instance.

    `basis` holds d generating vectors in row-echelon (Hermite) form; `det`
    equals the index [Z^d : L], i.e. the order of the subgroup the a_i
    generate.
    """

    inst: FactoringInstance
    basis: tuple[tuple[int, ...], ...]
    det: int

    @property
    def d(self) -> int:
        return self.inst.d


def build_relation_lattice(inst: FactoringInstance, group_cap: int = GROUP_CAP) -> RelationLattice:
    """BFS the subgroup <a_1..a_d> of Z_N^*, harvesting one relation per
    cycle-closing edge, and return the Hermite basis of the harvest.

    The BFS-discovered group order is the lattice determinant; it is
    cross-checked against the basis determinant and any mismatch is a hard
    internal error.
    """
    N, d = inst.N, inst.d
    exps: dict[int, tuple[int, ...]] = {1: (0,) * d}
    frontier = [1]
    relations: set[tuple[int, ...]] = set()
    while frontier:
        nxt = []
        for g in frontier:
            eg = exps[g]
            for i, ai in enumerate(inst.a):
                h = g * ai % N
                cand = tuple(x + (1 if j == i else 0) for j, x in enumerate(eg))
                known = exps.get(h)
                if known is None:
                    if len(exps) >= group_cap:
                        raise ResourceLimitError(
                            f"subgroup exceeds cap {group_cap}; shrink N or d"
                        )
                    exps[h] = cand
                    nxt.append(h)
                else:
                    rel = tuple(x - y for x, y in zip(cand, known))
                    if any(rel):
                        relations.add(rel)
        frontier = nxt
    group_order = len(exps)
    rows = intmat.hermite_basis(sorted(relations), d)
    if len(rows) != d:
        raise AssertionError("relation harvest is rank-deficient")
    det = abs(intmat.determinant(rows))
    if det != group_order:
        raise AssertionError(
            f"basis determinant {det} != BFS group order {group_order}"
        )
    return RelationLattice(inst=inst, basis=tuple(tuple(r) for r in rows), det=det)


def classify(rel: RelationLattice, z) -> dict:
    """Where z sits: {"in_lattice", "in_sign", "gcd"}.

    z is in L when prod a_i^{z_i} = 1 mod N, checked by the homomorphism.
    Only then is in_sign set: whether b = prod b_i^{z_i} mod N lies in
    {1, N-1}.  Only outside the sign sublattice is gcd(b-1, N) taken; b is
    then a square root of unity distinct from +-1, so the gcd is proper.
    Negative exponents go through modular inverses.
    """
    inst = rel.inst
    entry = {"in_lattice": hom_image(inst, z) == 1, "in_sign": None, "gcd": None}
    if entry["in_lattice"]:
        bp = base_product(inst, z)
        entry["in_sign"] = bp == 1 or bp == inst.N - 1
        if not entry["in_sign"]:
            entry["gcd"] = gcd(bp - 1, inst.N)
    return entry


def in_L0(rel: RelationLattice, z) -> bool:
    """True iff prod b_i^{z_i} mod N lies in {1, N-1}.  Requires z in L."""
    c = classify(rel, z)
    if not c["in_lattice"]:
        raise DomainError("vector is not in the relation lattice")
    return c["in_sign"]


@dataclass(frozen=True)
class DualStructure:
    """Exact uniform sampling of the finite quotient L*/Z^d.

    Built from a Smith decomposition U B V = diag(s) of a basis matrix B of
    L: mapping x in Z_{s_1} x ... x Z_{s_d} through U^T diag(1/s_i) hits
    every dual coset exactly once, so uniform x gives uniform cosets.
    """

    snf_diag: tuple[int, ...]
    u_transpose: tuple[tuple[int, ...], ...]
    u_inverse: tuple[tuple[int, ...], ...]
    det: int

    @property
    def d(self) -> int:
        return len(self.snf_diag)

    def coset(self, x) -> tuple[Fraction, ...]:
        """Dual coset representative in [0,1)^d for quotient coordinates x."""
        frac = [Fraction(int(xi), si) for xi, si in zip(x, self.snf_diag, strict=True)]
        v = [sum(row[j] * frac[j] for j in range(self.d)) for row in self.u_transpose]
        return tuple(c % 1 for c in v)

    def sample(self, rng) -> tuple[Fraction, ...]:
        x = [int(rng.integers(s)) for s in self.snf_diag]
        return self.coset(x)

    def all_cosets(self):
        for x in itertools.product(*(range(s) for s in self.snf_diag)):
            yield self.coset(x)

    def scaled_coset(self, x) -> np.ndarray:
        """The cosets for quotient coordinates x, scaled by det into integer
        vectors mod det: an array of shape (..., d) maps to one of the same
        shape, one matrix product mod det for all of them."""
        scale = [
            [row[j] * (self.det // s) % self.det for j, s in enumerate(self.snf_diag)]
            for row in self.u_transpose
        ]
        # each entry sums d products of two numbers below det
        dtype = np.int64 if self.d * self.det ** 2 < 1 << 63 else object
        return np.asarray(x, dtype=dtype) @ np.array(scale, dtype=dtype).T % self.det

    def quotient_reps(self) -> list[tuple[int, ...]]:
        """Coset representatives of the primal quotient Z^d / L."""
        reps = []
        for y in itertools.product(*(range(s) for s in self.snf_diag)):
            u = intmat.mat_vec([list(r) for r in self.u_inverse], list(y))
            reps.append(tuple(u))
        return reps


def dual_structure_from_basis(basis_vectors) -> DualStructure:
    """DualStructure for the lattice generated by the given integer vectors
    (full-rank, square count)."""
    vecs = [list(v) for v in basis_vectors]
    d = len(vecs[0])
    if len(vecs) != d:
        raise ParameterError("need exactly d basis vectors")
    cols = intmat.transpose(vecs)  # columns of the matrix are the vectors
    u, diag, _v = intmat.smith_normal_form(cols)
    if any(s == 0 for s in diag):
        raise ParameterError("basis is rank-deficient")
    det = prod(diag)
    return DualStructure(
        snf_diag=tuple(diag),
        u_transpose=tuple(tuple(r) for r in intmat.transpose(u)),
        u_inverse=tuple(tuple(r) for r in intmat.unimodular_inverse(u)),
        det=det,
    )


def dual_cosets(rel: RelationLattice) -> DualStructure:
    dual = dual_structure_from_basis(rel.basis)
    if dual.det != rel.det:
        raise AssertionError("dual quotient size disagrees with lattice determinant")
    return dual


@dataclass(frozen=True)
class BallCensus:
    """The nonzero vectors of L with norm <= a bound, split by L0."""

    members: tuple[tuple[int, ...], ...]
    outside: tuple[tuple[int, ...], ...]  # the members outside the sign sublattice

    def witness(self) -> tuple[int, ...] | None:
        """A shortest member outside L0; ties go to the lexicographically
        smallest vector."""
        return min(self.outside, key=lambda z: (sum(x * x for x in z), z), default=None)


def ball_census(rel: RelationLattice, bound, enum_cap: int = ENUM_CAP) -> BallCensus:
    """Every nonzero vector of L with norm <= bound, each classified once.

    The vectors come from one exact enumeration over the LLL-reduced basis,
    capped at enum_cap enumeration nodes.  in_L0 confirms each one by the
    homomorphism before testing the sign sublattice.
    """
    if int(bound) < 0:
        raise ParameterError("bound must be nonnegative")
    reduced = latred.lll_reduce(rel.basis).basis
    members = latred.enumerate_lattice_vectors(
        reduced, norm_bound_sq=Fraction(bound) ** 2, node_cap=enum_cap
    )
    outside = tuple(z for z in members if not in_L0(rel, z))
    return BallCensus(members=tuple(members), outside=outside)


def shortest_nontrivial_witness(
    rel: RelationLattice, bound, enum_cap: int = ENUM_CAP
):
    """A shortest vector of L \\ L0 with norm <= bound, or None.

    Taken from the ball census: exact enumeration over the lattice basis,
    every vector confirmed by the homomorphism.  Among several shortest
    witnesses the lexicographically smallest is returned.
    """
    return ball_census(rel, bound, enum_cap).witness()
