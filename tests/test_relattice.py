import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lattice_reference import quotient_reps, scaled_coset, unimodular_inverse

from qfactor import intmat, latred
from qfactor.arith import (
    FactoringInstance,
    FactorFound,
    ParameterError,
    ResourceLimitError,
    hom_image,
    is_probable_prime,
    perfect_power_root,
    power_product,
)
from qfactor.relattice import (
    DualStructure,
    RelationLattice,
    build_relation_lattice,
    classify,
    dual_cosets,
    dual_structure_from_basis,
    shortest_nontrivial_witness,
)


def bfs_relation_lattice_reference(inst, group_cap=1 << 22):
    """The former construction, kept as the reference: BFS over the Cayley
    graph of <a_1..a_d>, one relation per cycle-closing edge, then the
    Hermite basis of the harvest, its determinant checked against the
    number of elements the BFS found."""
    N, d = inst.N, inst.d
    exps = {1: (0,) * d}
    frontier = [1]
    relations = set()
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
                        raise ResourceLimitError(f"subgroup exceeds cap {group_cap}")
                    exps[h] = cand
                    nxt.append(h)
                else:
                    rel = tuple(x - y for x, y in zip(cand, known))
                    if any(rel):
                        relations.add(rel)
        frontier = nxt
    rows = intmat.hermite_basis(sorted(relations), d)
    assert len(rows) == d
    det = abs(intmat.determinant(rows))
    assert det == len(exps)
    return RelationLattice(inst=inst, basis=tuple(tuple(r) for r in rows), det=det)


def coset_relation_lattice_reference(inst):
    """The coset expansion as first written, kept as the reference: G_j is
    listed from G_{j-1} by a list of the powers of a_j and a nested
    comprehension, a_j^p g for p < k_j (outer) and g in G_{j-1} (inner)."""
    N, d = inst.N, inst.d
    group = [1]
    where = {1: 0}
    radices = []
    rows = []
    for j, a in enumerate(inst.a):
        power, k = a % N, 1
        while power not in where:
            power = power * a % N
            k += 1
        pos, row = where[power], []
        for r in radices:
            pos, e = divmod(pos, r)
            row.append(-e)
        rows.append(row + [k] + [0] * (d - j - 1))
        radices.append(k)
        if k > 1 and j + 1 < d:
            powers = [1]
            for _ in range(k - 1):
                powers.append(powers[-1] * a % N)
            group = [p * g % N for p in powers for g in group]
            where = dict(zip(group, range(len(group))))
    basis = intmat.hermite_basis(rows, d)
    assert len(basis) == d
    det = abs(intmat.determinant(basis))
    assert det == math.prod(radices)
    return RelationLattice(inst=inst, basis=tuple(tuple(r) for r in basis), det=det)


def subgroup_oracle(gens, N):
    """Independent closure enumeration of <gens> in Z_N^*."""
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for g in frontier:
            for a in gens:
                h = g * a % N
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def lattice_contains(rel, z) -> bool:
    """Membership via exact lattice algebra (not the homomorphism); the
    reference the homomorphism's verdict is checked against."""
    return intmat.lattice_contains([list(r) for r in rel.basis], list(z))


class DomainError(ValueError):
    """A vector fails a membership precondition."""


def in_L0(rel, z) -> bool:
    """True iff prod b_i^{z_i} mod N lies in {1, N-1}, through classify.
    Requires z in L."""
    c = classify(rel, z)
    if not c["in_lattice"]:
        raise DomainError("vector is not in the relation lattice")
    return c["in_sign"]


def extract_factor(rel, z) -> int:
    """Nontrivial factor of N from a vector of L \\ L0, through classify;
    kept here as the reference for classify's gcd."""
    c = classify(rel, z)
    if not c["in_lattice"]:
        raise DomainError("vector is not in the relation lattice")
    if c["in_sign"]:
        raise DomainError("vector lies in the sign sublattice")
    if not 1 < c["gcd"] < rel.inst.N:
        raise AssertionError("square root of unity failed to split N")
    return c["gcd"]


def prod_mod(a, z, N):
    r = 1
    for ai, zi in zip(a, z):
        r = r * pow(ai, zi, N) % N
    return r


@pytest.fixture(scope="module")
def rel15():
    return build_relation_lattice(FactoringInstance.build(15, 1))


def test_build_simple_order_two(rel15):
    # 4^2 = 16 = 1 mod 15, confirmed by enumeration
    assert subgroup_oracle([4], 15) == {1, 4}
    assert rel15.basis == ((2,),)
    assert rel15.det == 2


def test_build_degenerate_unit_base():
    inst = FactoringInstance.build(15, 1, b=(1,))
    rel = build_relation_lattice(inst)
    assert rel.basis == ((1,),)
    assert rel.det == 1


def test_build_77_matches_enumeration_oracle():
    inst = FactoringInstance.build(77, 2)
    rel = build_relation_lattice(inst)
    assert rel.det == len(subgroup_oracle([4, 9], 77))
    # membership agreement on a box of exponent vectors
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = tuple(int(rng.integers(-20, 21)) for _ in range(2))
        in_lattice = lattice_contains(rel, z)
        in_kernel = prod_mod(inst.a, z, 77) == 1
        assert in_lattice == in_kernel


def test_group_cap_enforced(monkeypatch):
    monkeypatch.setattr("qfactor.relattice.GROUP_CAP", 3)
    with pytest.raises(ResourceLimitError):
        build_relation_lattice(FactoringInstance.build(77, 2))


@pytest.fixture(scope="module")
def rel21():
    return build_relation_lattice(FactoringInstance.build(21, 1))


def test_classify_examples(rel15, rel21):
    # 2^2 = 4: in L (4^2 = 1 mod 15), not +-1, gcd(4 - 1, 15) = 3
    assert classify(rel15, (2,)) == {"in_lattice": True, "in_sign": False, "gcd": 3}
    assert classify(rel15, (4,)) == {"in_lattice": True, "in_sign": True, "gcd": None}
    # 4^1 != 1 mod 15: membership fails, so nothing further is computed
    assert classify(rel15, (1,)) == {"in_lattice": False, "in_sign": None, "gcd": None}
    # 2^3 = 8 mod 21 squares to 1 and splits 21; 8^2 = 1 is in the sign sublattice
    assert classify(rel21, (3,)) == {"in_lattice": True, "in_sign": False, "gcd": 7}
    assert classify(rel21, (6,)) == {"in_lattice": True, "in_sign": True, "gcd": None}


def test_classify_agrees_with_in_L0_and_extract_factor(rel15, rel21):
    for rel in (rel15, rel21):
        for z in range(-8, 9):
            c = classify(rel, (z,))
            if not c["in_lattice"]:
                with pytest.raises(DomainError):
                    in_L0(rel, (z,))
                continue
            assert in_L0(rel, (z,)) is c["in_sign"]
            if c["in_sign"]:
                with pytest.raises(DomainError):
                    extract_factor(rel, (z,))
            else:
                assert extract_factor(rel, (z,)) == c["gcd"]


def test_in_L0_examples(rel15):
    assert in_L0(rel15, (4,)) is True  # 2^4 = 16 = 1
    assert in_L0(rel15, (2,)) is False  # 2^2 = 4 not in {1, 14}
    assert in_L0(rel15, (0,)) is True
    with pytest.raises(DomainError):
        in_L0(rel15, (1,))  # 4^1 != 1, not in the lattice


def test_extract_factor_examples(rel15):
    assert extract_factor(rel15, (2,)) == 3  # gcd(4 - 1, 15)
    assert extract_factor(rel15, (-2,)) in (3, 5)  # 2^-2 = 4 mod 15, same residue
    rel21 = build_relation_lattice(FactoringInstance.build(21, 1))
    # 2^3 = 8, 8^2 = 64 = 1 mod 21, 8 not in {1, 20}
    assert prod_mod((4,), (3,), 21) == 1
    assert extract_factor(rel21, (3,)) == 7


def test_extract_factor_rejects_sign_sublattice(rel15):
    with pytest.raises(DomainError):
        extract_factor(rel15, (4,))
    with pytest.raises(DomainError):
        extract_factor(rel15, (1,))


def test_dual_cosets_two_element(rel15):
    dual = dual_cosets(rel15)
    assert dual.snf_diag == (2,)
    assert sorted(dual.all_cosets()) == [(Fraction(0),), (Fraction(1, 2),)]


def test_dual_cosets_trivial_lattice():
    inst = FactoringInstance.build(15, 1, b=(1,))
    dual = dual_cosets(build_relation_lattice(inst))
    assert list(dual.all_cosets()) == [(Fraction(0),)]


def test_dual_structure_diag_2_3():
    dual = dual_structure_from_basis([[2, 0], [0, 3]])
    assert dual.det == 6
    from math import prod

    assert prod(dual.snf_diag) == 6
    assert len(set(dual.all_cosets())) == 6


def test_dual_pairing_integrality():
    rng = np.random.default_rng(7)
    bases = [[[2]], [[2, 0], [0, 3]], [[4, 1], [0, 3]]]
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = [[int(rng.integers(-4, 5)) for _ in range(d)] for _ in range(d)]
        if intmat.determinant(m) == 0:
            continue
        bases.append(m)
    for basis in bases:
        dual = dual_structure_from_basis(basis)
        for v in dual.all_cosets():
            for u in basis:
                pairing = sum(Fraction(ui) * vi for ui, vi in zip(u, v))
                assert pairing.denominator == 1


def test_dual_quotient_reps_cover():
    # the U-based representatives that the separation reference pairs with
    dual = dual_structure_from_basis([[2, 0], [0, 3]])
    reps = quotient_reps(dual)
    assert len(reps) == 6
    # all distinct modulo the lattice diag(2,3)
    seen = {(r[0] % 2, r[1] % 3) for r in reps}
    assert len(seen) == 6


def coset_reference(dual, x):
    """U^T diag(1/s) x mod 1, in Fractions throughout."""
    frac = [Fraction(int(xi), si) for xi, si in zip(x, dual.snf_diag, strict=True)]
    v = [sum(row[j] * frac[j] for j in range(dual.d)) for row in dual.u_transpose]
    return tuple(c % 1 for c in v)


@pytest.mark.parametrize("N,d", [(77, 2), (437, 3), (1147, 3), (10403, 3), (1147, 4)])
def test_cosets_match_fraction_reference(N, d):
    dual = dual_cosets(build_relation_lattice(FactoringInstance.build(N, d)))
    for x in itertools.product(*(range(s) for s in dual.snf_diag)):
        assert dual.coset(x) == coset_reference(dual, x)


def test_scaled_cosets_match_fractions():
    # the U-based scaled cosets that the separation reference draws
    dual = dual_structure_from_basis([[4, 1], [0, 3]])
    for x, v in zip(
        itertools.product(*(range(s) for s in dual.snf_diag)), dual.all_cosets()
    ):
        scaled = scaled_coset(dual, list(x))
        for s, f in zip(scaled, v):
            assert Fraction(s, dual.det) % 1 == f


@settings(max_examples=200, deadline=None)
@given(s=st.integers((1 << 63) - 64, (1 << 63) + 64) | st.integers(2, 1 << 200), seed=st.integers(0, 1 << 32))
def test_dual_sample_draws_every_smith_entry_exactly(s, seed):
    # 2^63 is the largest entry numpy's rng.integers(s) accepts: up to it
    # the draw is numpy's own, so every stream and digest stays as it was;
    # above it the draw is still exact, in {0..s-1}, and reproducible
    dual = DualStructure(snf_diag=(s,), u_transpose=((1,),), det=s)

    def sample_64():
        rng = np.random.default_rng(seed)
        return [int(dual.sample(rng)[0] * s) for _ in range(64)]

    draws = sample_64()
    assert draws == sample_64()
    assert all(0 <= x < s for x in draws)
    if s <= 1 << 63:
        rng = np.random.default_rng(seed)
        assert draws == [int(rng.integers(s)) for _ in range(64)]
    else:
        assert max(draws) >= s // 4  # the draws reach the top of the range


@pytest.mark.parametrize("basis", [[[4, 1], [0, 3]], [[3, 1 << 33], [0, 1 << 33]], [[(1 << 35) + 1, 7], [0, 1 << 30]]])
def test_smith_diagonal_pairs_dual_and_primal_cosets(basis):
    # <coset(x), U^{-1} y> = sum_j x_j y_j / s_j mod 1: the pairing that
    # checks.separation_suite tabulates, on dets past int64 range too
    dual = dual_structure_from_basis(basis)
    u_inverse = unimodular_inverse([list(col) for col in zip(*dual.u_transpose)])
    rng = random.Random(5)  # past int64 range
    draws = [[rng.randrange(s) for s in dual.snf_diag] for _ in range(12)]
    for x in draws:
        v = dual.coset(x)
        for y in draws:
            u = [sum(a * b for a, b in zip(row, y)) for row in u_inverse]
            pairing = sum(Fraction(a) * b for a, b in zip(u, v)) % 1
            assert pairing == sum(Fraction(a * b, s) for a, b, s in zip(x, y, dual.snf_diag)) % 1


def test_witness_examples(rel15):
    assert shortest_nontrivial_witness(rel15, 2) in ((2,), (-2,))
    assert shortest_nontrivial_witness(rel15, 1) is None
    assert shortest_nontrivial_witness(rel15, 0) is None


def test_witness_enum_cap(monkeypatch):
    monkeypatch.setattr("qfactor.relattice.ENUM_CAP", 100)
    # the witness of 77 at d = 2 lies in the first ball walked, of 2 vectors
    rel = build_relation_lattice(FactoringInstance.build(77, 2))
    assert shortest_nontrivial_witness(rel, 100) == (-1, 2)
    # 33 at d = 1 has none, so the whole ball, of 401 nodes, is walked
    rel = build_relation_lattice(FactoringInstance.build(33, 1))
    with pytest.raises(ResourceLimitError):
        shortest_nontrivial_witness(rel, 1000)


def test_witness_absent_when_sign_sublattice_fills():
    # 2^5 = 32 = -1 mod 33: every relation vector stays in the sign sublattice
    rel = build_relation_lattice(FactoringInstance.build(33, 1))
    assert shortest_nontrivial_witness(rel, 30) is None


def test_minkowski_short_vector_bound():
    # a nonzero lattice vector of norm <= sqrt(d) 2^{n/d} always shows up
    for N, d in [(15, 1), (21, 1), (77, 1), (77, 2), (143, 2)]:
        inst = FactoringInstance.build(N, d)
        rel = build_relation_lattice(inst)
        bound = (d**0.5) * 2 ** (inst.n / d)
        r = int(bound)
        found = None
        for z in itertools.product(range(-r, r + 1), repeat=d):
            if any(z) and sum(x * x for x in z) <= bound * bound:
                if prod_mod(inst.a, z, N) == 1:
                    found = z
                    break
        assert found is not None


def test_sign_sublattice_closed_under_addition():
    inst = FactoringInstance.build(77, 2)
    rel = build_relation_lattice(inst)
    members = [
        z
        for z in itertools.product(range(-8, 9), repeat=2)
        if prod_mod(inst.a, z, 77) == 1 and in_L0(rel, z)
    ]
    for z1 in members:
        for z2 in members:
            s = tuple(a + b for a, b in zip(z1, z2))
            if all(abs(x) <= 8 for x in s) and prod_mod(inst.a, s, 77) == 1:
                assert in_L0(rel, s)


def test_basis_columns_are_relations():
    for N, d in [(15, 1), (77, 2), (221, 2), (143, 2)]:
        inst = FactoringInstance.build(N, d)
        rel = build_relation_lattice(inst)
        for col in rel.basis:
            assert prod_mod(inst.a, col, N) == 1
        assert abs(intmat.determinant([list(r) for r in rel.basis])) == rel.det
        assert rel.det <= N  # index bounded by the modulus


# the (N, d) of every benchmark job and warm-up, both workloads and the
# simulate sweep, plus 10403 at larger d
LATTICE_INSTANCES = [
    (15, 1), (35, 1), (77, 1), (91, 1), (221, 1), (77, 2), (143, 2), (221, 2), (323, 2),
    (1147, 2), (77, 3), (221, 3), (437, 3), (1147, 3), (3127, 3), (10403, 3), (1147, 4),
    (10403, 4), (10403, 6), (10403, 8),
]


@pytest.mark.parametrize("N,d", LATTICE_INSTANCES)
def test_coset_expansion_matches_bfs_reference(N, d):
    inst = FactoringInstance.build(N, d)
    assert build_relation_lattice(inst) == bfs_relation_lattice_reference(inst)


@settings(max_examples=150, deadline=None)
@given(N=st.integers(7, (1 << 13) - 1).map(lambda k: 2 * k + 1), d=st.integers(1, 8))
def test_coset_expansion_matches_bfs_reference_on_odd_composites(N, d):
    assume(not is_probable_prime(N))
    try:
        inst = FactoringInstance.build(N, d)
    except (FactorFound, ParameterError):  # a base shares a factor, or N is a perfect power
        return
    assert build_relation_lattice(inst) == bfs_relation_lattice_reference(inst)


# The BFS reference costs about 0.6 s per 20-bit case and the coset
# expansion about 20 ms, so the sweep up to 2^20 runs against the former
# expansion.  N is drawn by bit length first, so that every size up to 20
# bits shows, and coprime to the first five primes, so that every d builds.
ODD_BELOW_2_20 = (
    st.integers(4, 20)
    .flatmap(lambda n: st.integers(1 << (n - 2), (1 << (n - 1)) - 1))
    .map(lambda k: 2 * k + 1)
    .filter(lambda N: math.gcd(N, 3 * 5 * 7 * 11) == 1)
)


@settings(max_examples=80, deadline=None)
@given(N=ODD_BELOW_2_20, d=st.integers(1, 5))
def test_coset_expansion_matches_its_former_listing_below_2_20(N, d):
    assume(not is_probable_prime(N) and perfect_power_root(N) is None)
    inst = FactoringInstance.build(N, d)
    assert build_relation_lattice(inst) == coset_relation_lattice_reference(inst)


# Hermite bases the BFS built for 1022117 = 1009 * 1013, both of det 255,024
BASES_1022117 = {
    5: ((1, 0, 0, 11, 2038), (0, 1, 0, 3, 9126), (0, 0, 1, 5, 7966), (0, 0, 0, 22, 8368),
        (0, 0, 0, 0, 11592)),
    6: ((1, 0, 0, 1, 6, 2456), (0, 1, 0, 1, 13, 1501), (0, 0, 1, 1, 9, 4289), (0, 0, 0, 2, 20, 2140),
        (0, 0, 0, 0, 21, 847), (0, 0, 0, 0, 0, 6072)),
}


@pytest.mark.parametrize("d", sorted(BASES_1022117))
def test_coset_expansion_pins_the_20_bit_bases(d):
    rel = build_relation_lattice(FactoringInstance.build(1022117, d))
    assert rel.basis == BASES_1022117[d]
    assert rel.det == 255024


@pytest.mark.parametrize("N,d,order", [(77, 2, 15), (10403, 4, 2550), (1022117, 5, 255024)])
def test_group_cap_bounds_the_subgroup_order(monkeypatch, N, d, order):
    inst = FactoringInstance.build(N, d)
    monkeypatch.setattr("qfactor.relattice.GROUP_CAP", order)
    assert build_relation_lattice(inst).det == order
    for cap in (order - 1, 4):
        monkeypatch.setattr("qfactor.relattice.GROUP_CAP", cap)
        with pytest.raises(ResourceLimitError):
            build_relation_lattice(inst)


@pytest.mark.parametrize("N,d", [(77, 2), (221, 3), (1147, 4)])
def test_reduced_basis_parity_decides_the_sign(N, d):
    inst = FactoringInstance.build(N, d)
    rel = build_relation_lattice(inst)
    reduced = latred.lll_reduce(rel.basis)
    signs = [power_product(inst.b, row, N) for row in reduced.basis.vectors]
    r = 3 if d < 4 else 2
    # the ball of radius r sqrt(d) covers the box [-r, r]^d
    rows, norms_sq = zip(*latred.enumerate_coefficients(reduced, r * r * d))
    members = latred.combine_rows(reduced.basis, rows)
    for x, z, sq in zip(rows, members, norms_sq):
        assert sum(c * c for c in z) == sq
        assert hom_image(inst, z) == 1
        b = 1
        for c, s in zip(x, signs):
            if c & 1:
                b = b * s % N
        assert b == power_product(inst.b, z, N)
    box = {z for z in itertools.product(range(-r, r + 1), repeat=d)
           if any(z) and hom_image(inst, z) == 1}
    assert box <= set(members)
