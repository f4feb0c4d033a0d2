"""The witness search against the box scans and the listing census.

`box_scan_reference` is an early certification, kept here only as an
oracle: one (2r+1)^d box loop for the shortest witness and a second one for
the member and outside-sign counts, with every point decided by the
homomorphism.  `box_scan_numpy` walks the same box with per-coordinate power
tables so the large benchmark instances stay cheap; it is checked against
the reference on every small case.  `census_reference` lists the whole ball
by `enumerate_lattice_vectors` and classifies every member on its own.  The
search walks growing balls and stops at the first that holds a witness, so
it must find the witness these name, and, when there is none, count the
whole ball's members.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfactor import latred
from qfactor.arith import (
    FactoringInstance,
    FactorFound,
    ParameterError,
    ResourceLimitError,
    hom_image,
    power_product,
)
from qfactor.pipeline import certify_assumption, default_witness_bound
from qfactor.relattice import (
    build_relation_lattice,
    find_witness,
    shortest_nontrivial_witness,
)
from test_relattice import in_L0


def census_reference(rel, bound_sq, node_cap=None):
    """(members, outside, witness) with every member of squared norm <=
    bound_sq listed, assembled and classified on its own: in_L0 confirms it
    by the homomorphism and then tests the sign sublattice.  The witness is
    the least outside member by (squared norm, vector)."""
    reduced = latred.lll_reduce(rel.basis)
    members = latred.enumerate_lattice_vectors(reduced, bound_sq, node_cap)
    outside = [z for z in members if not in_L0(rel, z)]
    witness = min(outside, key=lambda z: (sum(x * x for x in z), z), default=None)
    return members, outside, witness


def assert_report_matches(report, bound, witness, ball_size):
    """A report names the reference's witness at the bound it was given, and
    with no witness it counts the ball's ball_size members."""
    norm_sq = sum(x * x for x in witness) if witness else None
    assert (report.found, report.vector, report.norm_sq, report.bound) == (witness is not None, witness, norm_sq, int(bound))
    if witness is None:
        assert report.lattice_vectors == ball_size


def box_scan_reference(rel, bound):
    """(witness, members, outside) by two box loops."""
    inst = rel.inst
    r = int(bound)
    bound_sq = Fraction(bound) ** 2
    best = None
    best_sq = None
    for z in itertools.product(range(-r, r + 1), repeat=inst.d):
        if not any(z):
            continue
        sq = sum(x * x for x in z)
        if sq > bound_sq:
            continue
        if best_sq is not None and sq >= best_sq:
            continue
        if hom_image(inst, z) != 1:
            continue
        bp = power_product(inst.b, z, inst.N)
        if bp == 1 or bp == inst.N - 1:
            continue
        best, best_sq = tuple(z), sq
    members = 0
    outside = 0
    for z in itertools.product(range(-r, r + 1), repeat=inst.d):
        if not any(z):
            continue
        if sum(x * x for x in z) > bound_sq:
            continue
        if hom_image(inst, z) != 1:
            continue
        members += 1
        bp = power_product(inst.b, z, inst.N)
        if bp != 1 and bp != inst.N - 1:
            outside += 1
    return best, members, outside


def box_scan_numpy(rel, bound):
    """The same scan over the same box, vectorised; C order is the
    itertools.product order, so the first minimal hit is the box scan's."""
    inst, d, N = rel.inst, rel.d, rel.inst.N
    r = int(bound)
    span = np.arange(-r, r + 1)
    shape = (2 * r + 1,) * d

    def image(gens):
        out = np.ones(shape, dtype=np.int64)
        for i, g in enumerate(gens):
            table = np.array([pow(g, int(k), N) for k in span], dtype=np.int64)
            out = out * table.reshape([-1 if j == i else 1 for j in range(d)]) % N
        return out

    norm_sq = np.zeros(shape, dtype=np.int64)
    for i in range(d):
        norm_sq = norm_sq + (span**2).reshape([-1 if j == i else 1 for j in range(d)])
    ball = (norm_sq > 0) & (norm_sq <= math.floor(Fraction(bound) ** 2))
    members = ball & (image(inst.a) == 1)
    bp = image(inst.b)
    outside = members & (bp != 1) & (bp != N - 1)
    witness = None
    if outside.any():
        least = norm_sq[outside].min()
        flat = int(np.argmax((outside & (norm_sq == least)).ravel()))
        witness = tuple(int(k) - r for k in np.unravel_index(flat, shape))
    return witness, int(members.sum()), int(outside.sum())


# The (N, d) of every benchmark factor job and warm-up, each at its default bound.
BENCHMARK_INSTANCES = [
    (15, 1), (35, 1), (77, 1), (91, 1), (221, 1), (77, 2), (143, 2), (221, 2),
    (323, 2), (1147, 2), (221, 3), (1147, 3), (437, 3), (3127, 3), (10403, 3), (1147, 4),
]


@pytest.mark.parametrize("N,d", BENCHMARK_INSTANCES)
def test_census_matches_box_scan_on_benchmark_instances(N, d):
    inst = FactoringInstance.build(N, d)
    rel = build_relation_lattice(inst)
    bound = default_witness_bound(inst)
    witness, members, _ = box_scan_numpy(rel, bound)
    assert_report_matches(certify_assumption(inst, bound, rel=rel), bound, witness, members)
    assert shortest_nontrivial_witness(rel, bound) == witness


@pytest.mark.parametrize("N,d,bound", [
    *((N, d, None) for N, d in BENCHMARK_INSTANCES), (10403, 6, 6), (10403, 4, 22), (1022117, 5, 10),
    # the paper-radius bounds sqrt(d) 2^{n/d}, with 1,392 and 126 members
    (1022117, 5, 37), (1022117, 6, 14),
])
def test_parity_census_matches_per_member_reference(N, d, bound):
    rel = build_relation_lattice(FactoringInstance.build(N, d))
    if bound is None:
        bound = default_witness_bound(rel.inst)
    members, _, witness = census_reference(rel, Fraction(bound) ** 2)
    report = find_witness(rel, bound)
    assert_report_matches(report, bound, witness, len(members))
    assert report.lattice_vectors


SMALL_BOUNDS = [0, 1, 2, 3, 5, 8, Fraction(5, 2), Fraction(7, 3), 2.5, Fraction(99, 10)]


def _buildable(N, d):
    try:
        FactoringInstance.build(N, d)
    except FactorFound:
        return False
    return True


SMALL_INSTANCES = [
    (N, d) for N in (15, 33, 77, 143, 221) for d in (1, 2, 3) if _buildable(N, d)
]


@pytest.mark.parametrize("N,d", SMALL_INSTANCES)
def test_census_matches_box_scan_small_moduli(N, d):
    inst = FactoringInstance.build(N, d)
    rel = build_relation_lattice(inst)
    for bound in SMALL_BOUNDS + [default_witness_bound(inst)]:
        expected = box_scan_reference(rel, bound)
        assert box_scan_numpy(rel, bound) == expected
        witness, members, _ = expected
        assert_report_matches(certify_assumption(inst, bound, rel=rel), bound, witness, members)
        assert shortest_nontrivial_witness(rel, bound) == witness


def test_census_lists_each_ball_vector_once():
    rel = build_relation_lattice(FactoringInstance.build(221, 2))
    members, outside, _ = census_reference(rel, 24**2)
    assert len(set(members)) == len(members)
    assert set(outside) <= set(members)
    assert all(0 < sum(x * x for x in z) <= 24**2 for z in members)


def test_witness_tie_break_is_lexicographic():
    # four witnesses of norm^2 5 at N = 77, d = 3; the box scan kept the first
    rel = build_relation_lattice(FactoringInstance.build(77, 3))
    _, outside, witness = census_reference(rel, 12**2)
    ties = sorted(z for z in outside if sum(x * x for x in z) == 5)
    assert ties == [(-1, 2, 0), (0, -1, 2), (0, 1, -2), (1, -2, 0)]
    assert witness == (-1, 2, 0)
    assert shortest_nontrivial_witness(rel, 12) == (-1, 2, 0)
    assert box_scan_reference(rel, 12)[0] == (-1, 2, 0)
    # a witness and its negation always tie; the negative one comes first
    rel15 = build_relation_lattice(FactoringInstance.build(15, 1))
    assert shortest_nontrivial_witness(rel15, 8) == (-2,)


def test_enum_cap_counts_nodes_not_box_volume(monkeypatch):
    rel = build_relation_lattice(FactoringInstance.build(77, 2))
    # the ball of radius 100 holds 2084 lattice vectors: far more than 100
    # nodes, but the search meets its witness of norm^2 5 in the first ball
    assert len(census_reference(rel, 100**2)[0]) == 2084
    monkeypatch.setattr("qfactor.relattice.ENUM_CAP", 100)
    report = certify_assumption(rel.inst, 100, rel=rel)
    assert (report.vector, report.norm_sq, report.lattice_vectors) == ((-1, 2), 5, 2)
    # every relation of 33 at d = 1 is signed, so the whole ball of radius
    # 1000, 400 vectors and 401 nodes, is walked
    rel = build_relation_lattice(FactoringInstance.build(33, 1))
    with pytest.raises(ResourceLimitError):
        shortest_nontrivial_witness(rel, 1000)
    with pytest.raises(ResourceLimitError):
        certify_assumption(rel.inst, 1000, rel=rel)
    # the 4.1e6-point box of radius 22 at d = 4 holds 446 vectors, < 2000 nodes
    monkeypatch.setattr("qfactor.relattice.ENUM_CAP", 2000)
    rel = build_relation_lattice(FactoringInstance.build(10403, 4))
    assert shortest_nontrivial_witness(rel, 22) is not None


def test_negative_bound_rejected():
    rel = build_relation_lattice(FactoringInstance.build(15, 1))
    with pytest.raises(ParameterError):
        find_witness(rel, -1)


@pytest.mark.parametrize("N,d,bound,nodes", [(77, 2, 100, 2114), (10403, 4, 22, 588), (1022117, 6, 26, 8090)])
def test_enumeration_node_count_is_pinned(N, d, bound, nodes):
    # nodes is the least cap under which the search completes
    reduced = latred.lll_reduce(build_relation_lattice(FactoringInstance.build(N, d)).basis)
    bound_sq = Fraction(bound) ** 2
    assert list(latred.enumerate_coefficients(reduced, bound_sq, node_cap=nodes))
    with pytest.raises(ResourceLimitError, match=f"{nodes - 1} nodes"):
        list(latred.enumerate_coefficients(reduced, bound_sq, node_cap=nodes - 1))


def test_census_streams_its_members():
    # the ball of radius 11 holds 348,820 vectors, but the first ball walked
    # holds only the witness and its negation, so this takes about 1 ms
    inst = FactoringInstance.build(10403, 8)
    rel = build_relation_lattice(inst)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        report = certify_assumption(inst, 11, rel=rel)
        seconds.append(time.perf_counter() - start)
    assert (report.vector, report.norm_sq, report.lattice_vectors) == ((-1, -1, 0, 0, 0, 0, -1, 0), 3, 2)
    assert min(seconds) < 0.05, seconds


CAP = 5_000  # enumeration nodes per example, so every example stays cheap
# a bound is a multiple of the shortest reduced row's (rounded) norm, so the
# balls hold from no vector to thousands
SCALES = st.one_of(
    st.integers(0, 6),
    st.fractions(0, 6, max_denominator=60),
    st.floats(0, 6, allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(N=st.integers(15, (1 << 16) - 1), d=st.integers(1, 4), scale=SCALES)
@example(N=221, d=2, scale=2)
@example(N=77, d=3, scale=Fraction(5, 2))
@example(N=15, d=1, scale=1.5)
@example(N=77, d=2, scale=100)  # the bound's ball passes CAP; the first ball holds a witness
def test_streamed_census_matches_listing_reference(N, d, scale):
    try:
        inst = FactoringInstance.build(N, d)
    except (ParameterError, FactorFound):
        assume(False)
    rel = build_relation_lattice(inst)
    shortest = min(sum(c * c for c in row) for row in latred.lll_reduce(rel.basis).basis.vectors)
    bound = scale * math.isqrt(shortest)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qfactor.relattice.ENUM_CAP", CAP)
        try:
            members, _, witness = census_reference(rel, Fraction(bound) ** 2, node_cap=CAP)
        except ResourceLimitError:
            members = None
        try:
            report = find_witness(rel, bound)
        except ResourceLimitError:
            # every ball the search walks lies in the bound's
            assert members is None
            return
    if members is not None:
        assert_report_matches(report, bound, witness, len(members))
        return
    # the bound's ball passes the cap, so the search met a witness in a
    # smaller ball; no vector outside L0 is shorter
    assert report.found
    members, _, witness = census_reference(rel, report.norm_sq, node_cap=CAP)
    assert witness == report.vector
