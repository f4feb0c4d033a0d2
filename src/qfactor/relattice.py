"""The relation lattice of an instance and its dual-quotient structure.

The relation lattice L collects integer exponent vectors z with
prod a_i^{z_i} = 1 mod N; the sign sublattice L0 additionally forces
prod b_i^{z_i} into {+-1}.  A vector of L outside L0 exhibits a nontrivial
square root of unity, and gcd then yields a factor.  L is built exactly by
coset expansion of the subgroup generated by the a_i, one generator at a
time, and the subgroup is listed from L's Hermite diagonal; the quotient
L*/Z^d is made samplable through a Smith decomposition, whose diagonal
alone pairs dual cosets with primal ones.

The witness is searched for in balls of growing radius, each walked in one
streamed pass of exact Fincke-Pohst enumeration over an LLL-reduced basis
(find_witness), as coefficient rows on that basis, and none is kept but the
shortest rows outside L0; the enumeration reads the Gram-Schmidt data the
reduction leaves behind.  A walk is complete because the basis generates all
of L: its determinant is checked against the subgroup order.  The reduced
rows are confirmed in L by the homomorphism, so every enumerated vector is
in L by construction, and the parities of its coefficients decide whether
it lies in L0; the witness is confirmed by the homomorphism too.
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
    hom_image,
    power_grid,
    power_product,
)

# subgroup order; the coset expansion holds up to this many residues, each
# in a list and a position dict (about 100 bytes per element)
GROUP_CAP = 1 << 22
ENUM_CAP = 1 << 22  # enumeration nodes of one walk: admitted coefficient values, over all levels


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


def build_relation_lattice(inst: FactoringInstance) -> RelationLattice:
    """Expand the subgroup <a_1..a_d> of Z_N^* one generator at a time and
    return the Hermite basis of its relations (coset expansion, after
    Buchmann, Jacobson and Teske, Math. Comp. 1997).

    G_{j-1} lists <a_1..a_{j-1}> with prod a_i^{e_i} at position
    e_1 + k_1 (e_2 + k_2 (e_3 + ...)), so a position read in mixed radix
    k_1..k_{j-1} is a discrete logarithm.  k_j is the least k >= 1 with
    a_j^k in G_{j-1}; if a_j^{k_j} = prod a_i^{e_i}, row j is
    (-e_1, ..., -e_{j-1}, k_j, 0, ..., 0), and G_j lists a_j^p g for p < k_j
    (outer) and g in G_{j-1} (inner), as one arith.power_grid over the box
    k_j x ... x k_1.  The rows are triangular and generate every relation
    (reduce its last coordinate first), and prod k_j is the group order,
    cross-checked against the Hermite basis determinant; any mismatch is a
    hard internal error.  A subgroup of more than GROUP_CAP elements is
    refused before it is listed.
    """
    N, d = inst.N, inst.d
    cap = GROUP_CAP
    group = [1]
    where = {1: 0}  # position of each element of the group listed so far
    radices: list[int] = []
    rows = []
    for j, a in enumerate(inst.a):
        size = len(group)
        power, k = a % N, 1
        while power not in where:
            if (k + 1) * size > cap:
                raise ResourceLimitError(f"subgroup exceeds cap {cap}; shrink N or d")
            power = power * a % N
            k += 1
        pos, row = where[power], []
        for r in radices:
            pos, e = divmod(pos, r)
            row.append(-e)
        rows.append(row + [k] + [0] * (d - j - 1))
        radices.append(k)
        if k > 1 and j + 1 < d:  # the last expansion is never looked up
            # a_1 is the fastest digit, so the axes run a_j .. a_1
            group = power_grid(inst.a[j::-1], N, radices[::-1]).ravel().tolist()
            where = dict(zip(group, range(len(group))))
    group_order = prod(radices)
    basis = intmat.hermite_basis(rows, d)
    if len(basis) != d:
        raise AssertionError("relation rows are rank-deficient")
    det = abs(intmat.determinant(basis))
    if det != group_order:
        raise AssertionError(
            f"basis determinant {det} != subgroup order {group_order}"
        )
    return RelationLattice(inst=inst, basis=tuple(tuple(r) for r in basis), det=det)


def subgroup_elements(rel: RelationLattice) -> np.ndarray:
    """The subgroup <a_1..a_d>, ascending (power_grid's dtype): one
    arith.power_grid over the box prod_i {0..h_ii-1} of the Hermite
    diagonal.  The basis is upper triangular with positive pivots, so each
    coset of L has exactly one point in that box: det distinct elements."""
    diagonal = [row[i] for i, row in enumerate(rel.basis)]
    return np.sort(power_grid(rel.inst.a, rel.inst.N, diagonal).ravel())


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
        bp = power_product(inst.b, z, inst.N)
        entry["in_sign"] = bp == 1 or bp == inst.N - 1
        if not entry["in_sign"]:
            entry["gcd"] = gcd(bp - 1, inst.N)
    return entry


@dataclass(frozen=True)
class DualStructure:
    """Exact uniform sampling of the finite quotient L*/Z^d.

    Built from a Smith decomposition U B V = diag(s) of a basis matrix B of
    L: mapping x in Z_{s_1} x ... x Z_{s_d} through U^T diag(1/s_i) hits
    every dual coset exactly once, so uniform x gives uniform cosets.  The
    primal cosets Z^d / L are U^{-1} y for y in the same box, and the two
    pair through the diagonal alone:
    <U^T diag(1/s) x, U^{-1} y> = sum_j x_j y_j / s_j.
    """

    snf_diag: tuple[int, ...]
    u_transpose: tuple[tuple[int, ...], ...]
    det: int

    @property
    def d(self) -> int:
        return len(self.snf_diag)

    def coset(self, x) -> tuple[Fraction, ...]:
        """Dual coset representative in [0,1)^d for quotient coordinates x:
        U^T (x_j / s_j) mod 1, summed in integers over the common
        denominator det."""
        det = self.det
        scaled = [int(xi) * (det // si) for xi, si in zip(x, self.snf_diag, strict=True)]
        return tuple(
            Fraction(sum(r * y for r, y in zip(row, scaled)) % det, det) for row in self.u_transpose
        )

    def sample(self, rng) -> tuple[Fraction, ...]:
        return self.coset([_uniform_below(rng, s) for s in self.snf_diag])

    def all_cosets(self):
        for x in itertools.product(*(range(s) for s in self.snf_diag)):
            yield self.coset(x)


def _uniform_below(rng, s: int) -> int:
    """A uniform draw from {0..s-1}: numpy's own rng.integers(s) wherever
    its int64 range allows (s <= 2^63), and above that s.bit_length()
    random bits from rng.bytes, drawn again until they fall below s."""
    if s <= 1 << 63:
        return int(rng.integers(s))
    bits = s.bit_length()
    while True:
        x = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        if x < s:
            return x


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
        det=det,
    )


def dual_cosets(rel: RelationLattice) -> DualStructure:
    dual = dual_structure_from_basis(rel.basis)
    if dual.det != rel.det:
        raise AssertionError("dual quotient size disagrees with lattice determinant")
    return dual


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the short-witness certification."""

    found: bool
    vector: tuple[int, ...] | None
    norm_sq: int | None
    bound: int
    lattice_vectors: int  # nonzero lattice vectors in the last ball walked


def find_witness(rel: RelationLattice, bound) -> WitnessReport:
    """Find a shortest vector of L outside L0 with norm <= bound.

    Each walk takes the coefficient rows x of squared norm <= limit from one
    exact enumeration over the LLL-reduced basis B, capped at ENUM_CAP
    nodes; each member is z = x B.  limit starts at the least squared norm
    of a row of B and grows 4-fold up to bound^2, until a walk meets a row
    outside L0; every walk lies in the bound's ball.  b(z) = prod b_i^{z_i}
    mod N maps L into the square roots of 1 and is a homomorphism, so it is
    trivial on 2L and depends only on the parities of x: the product of
    b(B_i) over the odd coefficients, kept in a table per parity mask.  Each
    reduced row B_i is confirmed in L by the homomorphism.  Only the outside
    rows tied at the least squared norm so far are kept; the last walk holds
    every vector that short, so the witness, the lexicographically smallest
    of them once assembled, is the whole ball's.  classify confirms it.
    """
    if int(bound) < 0:
        raise ParameterError("bound must be nonnegative")
    reduced = latred.lll_reduce(rel.basis)
    basis, inst, N = reduced.basis, rel.inst, rel.inst.N
    row_signs = []
    for row in basis.vectors:
        if hom_image(inst, row) != 1:
            raise AssertionError(f"reduced row {row} is not a relation")
        row_signs.append(power_product(inst.b, row, N))
    signs = {}  # parity mask of x -> b of its members
    bound_sq = Fraction(bound) ** 2
    limit = min(bound_sq, *(sum(c * c for c in row) for row in basis.vectors))
    while True:
        members, least, tied = 0, None, []  # the least outside squared norm, and its rows
        for x, sq in latred.enumerate_coefficients(reduced, limit, node_cap=ENUM_CAP):
            members += 1
            mask = tuple(c & 1 for c in x)
            b = signs.get(mask)
            if b is None:
                b = signs[mask] = power_product(row_signs, mask, N)
            if b != 1 and b != N - 1:
                if least is None or sq < least:
                    least, tied = sq, [x]
                elif sq == least:
                    tied.append(x)
        if tied or limit == bound_sq:
            break
        limit = min(bound_sq, 4 * limit)
    witness = None
    if tied:
        witness = min(latred.combine_rows(basis, tied))
        if classify(rel, witness)["in_sign"] is not False:
            raise AssertionError(f"witness {witness} is not outside the sign sublattice")
    return WitnessReport(
        found=witness is not None,
        vector=witness,
        norm_sq=least,
        bound=int(bound),
        lattice_vectors=members,
    )


def shortest_nontrivial_witness(rel: RelationLattice, bound):
    """A shortest vector of L \\ L0 with norm <= bound, or None.

    Taken from find_witness: exact enumeration over the lattice basis, every
    vector confirmed by the homomorphism.  Among several shortest witnesses
    the lexicographically smallest is returned.
    """
    return find_witness(rel, bound).vector
