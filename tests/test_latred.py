import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_reference import inverse_fractions, quotient_reps

from qfactor import checks, intmat, latred
from qfactor.arith import FactoringInstance, ParameterError, ResourceLimitError
from qfactor.gauss import GaussParams
from qfactor.latred import (
    LLL_DELTA,
    LatticeBasis,
    LLLResult,
    build_extended_lattice,
    enumerate_lattice_vectors,
    extract_short_generators,
    gram_schmidt,
    lll_reduce,
    recover_relation_vectors,
)
from qfactor.pipeline import PipelineConfig, certify_assumption, default_witness_bound, draw_samples, run_factoring
from qfactor.relattice import build_relation_lattice, dual_cosets, dual_structure_from_basis


def random_basis(rng, k, bound=9):
    while True:
        m = [[int(rng.integers(-bound, bound + 1)) for _ in range(k)] for _ in range(k)]
        if intmat.determinant(m):
            return m


def random_unimodular(rng, k, steps=12):
    u = intmat.identity(k)
    for _ in range(steps):
        i, j = rng.integers(0, k, 2)
        if i == j:
            continue
        q = int(rng.integers(-3, 4))
        u[int(i)] = [a + q * b for a, b in zip(u[int(i)], u[int(j)])]
    return u


def same_lattice(a, b) -> bool:
    """Equal canonical Hermite bases: a and b generate the same lattice,
    exactly when some unimodular T takes the rows of a to those of b."""
    dim = len(a[0])
    return intmat.hermite_basis(a, dim) == intmat.hermite_basis(b, dim)


def test_identity_basis_already_reduced():
    res = lll_reduce([[1, 0], [0, 1]])
    assert res.basis.vectors == ((1, 0), (0, 1))
    assert res.dets == (1, 1, 1)
    assert res.lam == ((), (0,))


def test_near_parallel_pair_finds_shortest():
    basis = [[201, 200], [200, 199]]
    res = lll_reduce(basis)
    shortest_reduced = min(sum(x * x for x in v) for v in res.basis.vectors)
    # enumeration oracle: the true minimum over the lattice
    enumerated = enumerate_lattice_vectors(res, 9)
    true_min = min(sum(x * x for x in v) for v in enumerated)
    assert shortest_reduced == true_min
    assert shortest_reduced <= min(sum(x * x for x in v) for v in basis)


def test_determinant_preserved_and_lattice_unchanged():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        base = random_basis(rng, k)
        perturbed = intmat.mat_mul(random_unimodular(rng, k), base)
        res = lll_reduce(perturbed)
        assert abs(intmat.determinant([list(v) for v in res.basis.vectors])) == abs(
            intmat.determinant(base)
        )
        assert same_lattice(res.basis.vectors, perturbed)
        assert same_lattice(res.basis.vectors, base)


def test_lll_postconditions():
    rng = np.random.default_rng(22)
    delta = LLL_DELTA
    for _ in range(40):
        k = int(rng.integers(2, 6))
        res = lll_reduce(random_basis(rng, k))
        vecs = [list(v) for v in res.basis.vectors]
        mu, _, sq = gram_schmidt(vecs)
        for i in range(k):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for i in range(1, k):
            assert sq[i] >= (delta - mu[i][i - 1] ** 2) * sq[i - 1]
            assert sq[i] >= sq[i - 1] / 2  # sqrt(2) decay at delta = 3/4
        # size-reduced implies ||z_i||^2 <= sum_{j<=i} gs_j^2
        for i in range(k):
            assert Fraction(sum(x * x for x in vecs[i])) <= sum(sq[: i + 1])


def test_lll_rejects_rank_deficient():
    with pytest.raises(ParameterError):
        lll_reduce([[1, 2], [2, 4]])


def fraction_lll_reference(basis, delta=LLL_DELTA) -> LLLResult:
    """The Fraction LLL loop: full exact Gram-Schmidt again after each swap.

    Same decisions as lll_reduce by construction; kept here only as the
    reference its integer bookkeeping must reproduce exactly.  The Gram
    determinants are the running products of the Fraction Gram-Schmidt
    norms, and lam[i][j] = dets[j + 1] mu_ij; each must come out an integer.
    """
    delta = Fraction(delta)
    vecs = [list(v) for v in basis]
    n = len(vecs)
    mu, _bs, sq = gram_schmidt(vecs)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + Fraction(1, 2))
            if q:
                vecs[k] = [a - q * c for a, c in zip(vecs[k], vecs[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if sq[k] < (delta - mu[k][k - 1] ** 2) * sq[k - 1]:
            vecs[k - 1], vecs[k] = vecs[k], vecs[k - 1]
            mu, _bs, sq = gram_schmidt(vecs)
            k = max(k - 1, 1)
        else:
            k += 1
    mu, _bs, sq = gram_schmidt(vecs)
    dets = [Fraction(1)]
    for g in sq:
        dets.append(dets[-1] * g)
    lam = [[dets[j + 1] * mu[i][j] for j in range(i)] for i in range(n)]
    assert all(x.denominator == 1 for x in dets)
    assert all(x.denominator == 1 for row in lam for x in row)
    assert same_lattice(vecs, basis)
    return LLLResult(
        basis=LatticeBasis(vectors=tuple(tuple(v) for v in vecs)),
        dets=tuple(int(x) for x in dets),
        lam=tuple(tuple(int(x) for x in row) for row in lam),
    )


# the oracle-mix (N, d) at every extended-lattice rank k = 2d + 4 = 6..12, at
# their pinned radii or, for the default-radius jobs, a small one
@pytest.mark.parametrize("N, d, R", [
    (221, 1, 16), (221, 1, 32), (143, 2, 64), (1147, 2, 128),
    (1147, 3, 64), (10403, 3, 256), (1147, 4, 256), (1147, 4, 1024),
])
def test_lll_matches_fraction_reference_on_extended_lattices(N, d, R):
    rel = build_relation_lattice(FactoringInstance.build(N, d))
    params = GaussParams.choose(d, float(R))
    D = params.D
    for seed in range(3 if d < 3 else 1):
        samples = draw_samples(seed, 0, d + 4, params, dual_cosets(rel))
        ext = build_extended_lattice(d, [s["w_indices"] for s in samples], D)
        assert ext.basis.rank == 2 * d + 4
        assert lll_reduce(ext.basis) == fraction_lll_reference(ext.basis.vectors)


def test_lll_matches_fraction_reference_on_short_cover_lattices():
    # the lattices of checks.short_cover_suite, plus relation-lattice bases
    rng = np.random.default_rng(0)
    bases = [random_basis(rng, int(rng.integers(2, 6)), bound=20) for _ in range(60)]
    for N, d in [(77, 2), (221, 2), (1147, 3), (10403, 3), (1147, 4)]:
        bases.append(build_relation_lattice(FactoringInstance.build(N, d)).basis)
    for basis in bases:
        assert lll_reduce(basis) == fraction_lll_reference(basis)


@pytest.mark.parametrize("delta", [Fraction(26, 100), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100), 1])
def test_lll_matches_fraction_reference_on_random_bases(monkeypatch, delta):
    # the integer Lovasz test at other values of the module constant
    monkeypatch.setattr(latred, "LLL_DELTA", Fraction(delta))
    rng = np.random.default_rng(41)
    for k in range(1, 10):
        for _ in range(3):
            bound = 10 ** int(rng.integers(1, 7))
            basis = random_basis(rng, k, bound=bound)
            assert lll_reduce(basis) == fraction_lll_reference(basis, Fraction(delta))


def test_each_reduction_computes_gram_schmidt_data_once(monkeypatch):
    # extraction and enumeration read LLL's data; short-cover reduces each
    # of its lattices once
    counts = {"lll": 0, "gs": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(latred, "_integral_gram_schmidt", counted("gs", latred._integral_gram_schmidt))
    reduce = counted("lll", latred.lll_reduce)
    monkeypatch.setattr(latred, "lll_reduce", reduce)
    monkeypatch.setattr(checks, "lll_reduce", reduce)
    assert run_factoring(PipelineConfig(N=221, d=2, seed=1)).factor in (13, 17)
    assert counts["lll"] >= 2 and counts["gs"] == counts["lll"]
    before = counts["lll"]
    checks.short_cover_suite(n_lattices=30, seed=1)
    assert counts["lll"] - before == 30
    assert counts["gs"] == counts["lll"]


@pytest.mark.parametrize("basis", [
    [[2, 0], [1, 5]],    # mu = 1/2: rounds to 1, leaving mu = -1/2
    [[2, 0], [-1, 5]],   # mu = -1/2: rounds to 0, no reduction
    [[4, 0, 0], [2, 6, 0], [-2, 3, 7]],
])
def test_lll_rounding_ties_match_reference(basis):
    assert lll_reduce(basis) == fraction_lll_reference(basis)


def test_lll_tie_reduces_half_but_keeps_minus_half():
    # mu = 1/2 rounds up to 1 and leaves -1/2; mu = -1/2 rounds to 0
    assert lll_reduce([[2, 0], [1, 5]]).basis.vectors == ((2, 0), (-1, 5))
    assert lll_reduce([[2, 0], [-1, 5]]).basis.vectors == ((2, 0), (-1, 5))


@pytest.mark.parametrize("basis", [
    [[1, 2], [2, 4]],
    [[0, 0]],
    [[1, 0], [0, 1], [1, 1]],   # more vectors than coordinates
    [[1, 2, 3], [0, 0, 0], [4, 5, 6]],
    [[3, 1, 4], [1, 5, 9], [4, 6, 13]],  # third row is the sum of the first two
])
def test_lll_rank_deficient_raises(basis):
    with pytest.raises(ParameterError, match="rank-deficient"):
        lll_reduce(basis)
    with pytest.raises(ParameterError):
        fraction_lll_reference(basis)


def test_extract_keeps_both_unit_vectors():
    assert extract_short_generators(lll_reduce([[1, 0], [0, 1]]), 1) == [(1, 0), (0, 1)]


def test_extract_empty_when_threshold_below_first():
    # k = 2: threshold 2^{k/2} T = 2 * 0.4 = 0.8 <= ||gs_1|| = 1
    assert extract_short_generators(lll_reduce([[1, 0], [0, 100]]), Fraction(4, 25)) == []


def test_extract_cover_on_random_lattices():
    rng = np.random.default_rng(23)
    for _ in range(25):
        k = 4
        reduced = lll_reduce(random_basis(rng, k, bound=12))
        T = math.isqrt(sum(x * x for x in reduced.basis.vectors[0])) + 1
        gens = extract_short_generators(reduced, T * T)
        cap = k * (1 << k) * T * T
        for g in gens:
            assert sum(x * x for x in g) <= cap
        short = enumerate_lattice_vectors(reduced, T * T)
        if gens:
            rows = intmat.hermite_basis([list(g) for g in gens], k)
            for v in short:
                assert intmat.lattice_contains(rows, list(v))
        else:
            assert not short


def fraction_enumerate_reference(basis, norm_bound_sq, node_cap=None):
    """Fincke-Pohst over Fraction Gram-Schmidt data, as enumerate_lattice_vectors
    ran before it moved to integers; returns (vectors, nodes admitted).

    A float bracket with slack around each level's range, and an exact
    Fraction test of each value in it; a node is a value the test admits.
    Kept here only as the reference the integer enumeration must reproduce
    exactly.
    """
    t_sq = Fraction(norm_bound_sq)
    vecs = [list(v) for v in getattr(basis, "vectors", basis)]
    n = len(vecs)
    mu, _bs, sq = gram_schmidt(vecs)
    out = []
    coeffs = [0] * n
    nodes = 0

    def descend(i, remaining):
        nonlocal nodes
        shift = sum(coeffs[t] * mu[t][i] for t in range(i + 1, n))
        radius = math.sqrt(float(remaining / sq[i])) + 1.0
        center = float(-shift)
        lo, hi = math.floor(center - radius), math.ceil(center + radius)
        for x in range(lo, hi + 1):
            used = (x + shift) ** 2 * sq[i]
            if used > remaining:
                continue
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise ResourceLimitError(f"enumeration exceeds {node_cap} nodes")
            coeffs[i] = x
            if i == 0:
                if any(coeffs):
                    vec = [0] * len(vecs[0])
                    for c, bv in zip(coeffs, vecs):
                        if c:
                            vec = [a + c * e for a, e in zip(vec, bv)]
                    out.append(tuple(vec))
            else:
                descend(i - 1, remaining - used)
        coeffs[i] = 0

    descend(n - 1, t_sq)
    return out, nodes


def assert_enumeration_matches_reference(reduced, norm_bound_sq):
    """Same list in the same order as the reference on the reduced basis,
    and the same node count: the reference's count passes as node_cap and
    one less is refused.  The squared norms read at the leaves are those of
    the listed vectors."""
    want, nodes = fraction_enumerate_reference(reduced.basis, norm_bound_sq)
    assert enumerate_lattice_vectors(reduced, norm_bound_sq) == want
    norms_sq = [sq for _, sq in latred.enumerate_coefficients(reduced, norm_bound_sq)]
    assert norms_sq == [sum(x * x for x in z) for z in want]
    assert enumerate_lattice_vectors(reduced, norm_bound_sq, node_cap=nodes) == want
    with pytest.raises(ResourceLimitError):
        enumerate_lattice_vectors(reduced, norm_bound_sq, node_cap=nodes - 1)


# the factor jobs of both benchmark workloads, at their certification bounds
BENCHMARK_INSTANCES = [
    (15, 1), (35, 1), (77, 1), (91, 1), (221, 1), (77, 2), (143, 2), (221, 2), (323, 2),
    (1147, 2), (221, 3), (437, 3), (1147, 3), (3127, 3), (10403, 3), (1147, 4),
]


@pytest.fixture(scope="module")
def benchmark_enumerations():
    """The (LLL result, squared bound) of every enumeration that
    certification of the benchmark instances and two short-cover suites
    make, recorded at the enumeration core that both reach, and of each
    instance's whole ball at its certification bound, which the witness
    search walks only when no smaller ball holds a witness."""
    calls = []
    core = latred.enumerate_coefficients

    def record(reduced, norm_bound_sq, node_cap=None):
        calls.append((reduced, norm_bound_sq))
        return core(reduced, norm_bound_sq, node_cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(latred, "enumerate_coefficients", record)
        for N, d in BENCHMARK_INSTANCES:
            inst = FactoringInstance.build(N, d)
            rel, bound = build_relation_lattice(inst), default_witness_bound(inst)
            certify_assumption(inst, bound, rel)
            record(lll_reduce(rel.basis), Fraction(bound) ** 2)
        for seed in (0, 1):
            checks.short_cover_suite(n_lattices=100, seed=seed)
    return calls


def test_integer_enumeration_matches_reference_on_benchmark_inputs(benchmark_enumerations):
    # one walk per certification but the three of 3127/d=3, one whole ball
    # per instance and one per short-cover lattice
    assert len(benchmark_enumerations) == 18 + len(BENCHMARK_INSTANCES) + 200
    for reduced, norm_bound_sq in benchmark_enumerations:
        assert reduced == lll_reduce(reduced.basis)
        assert_enumeration_matches_reference(reduced, norm_bound_sq)


# a bound is a multiple of the shortest basis row's (squared) norm, so the
# balls hold from no vector to thousands
SCALES = st.one_of(
    st.integers(0, 3),
    st.fractions(0, 3, max_denominator=60),
    st.floats(0, 3, allow_nan=False),
)


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(1, 8),
    entries=st.lists(st.integers(-9, 9), min_size=64, max_size=64),
    scale=SCALES,
    squared=st.booleans(),
)
def test_integer_enumeration_matches_reference_on_random_bases(k, entries, scale, squared):
    basis = [entries[i * k:(i + 1) * k] for i in range(k)]
    if not intmat.determinant(basis):
        basis = [[5 * int(i == j) + x for j, x in enumerate(row)] for i, row in enumerate(basis)]
    if not intmat.determinant(basis):
        return
    shortest = min(sum(x * x for x in row) for row in basis)
    if squared:
        bound_sq = scale * shortest
    else:
        bound_sq = Fraction(scale * math.isqrt(shortest)) ** 2
    reduced = lll_reduce(basis)
    try:
        fraction_enumerate_reference(reduced.basis, bound_sq, node_cap=3_000)
    except ResourceLimitError:
        with pytest.raises(ResourceLimitError):
            enumerate_lattice_vectors(reduced, bound_sq, node_cap=3_000)
        return
    assert_enumeration_matches_reference(reduced, bound_sq)


def test_enumeration_matches_box_oracle():
    rng = np.random.default_rng(24)
    for _ in range(30):
        basis = random_basis(rng, 2, bound=4)
        T = int(rng.integers(2, 7))
        got = set(enumerate_lattice_vectors(lll_reduce(basis), T * T))
        # oracle: coefficient box sized from the inverse basis, so that any
        # vector of norm <= T provably has coefficients inside the box
        inv = inverse_fractions(basis)
        cap = max(
            math.ceil(T * math.sqrt(sum(float(inv[i][j]) ** 2 for i in range(2))))
            for j in range(2)
        ) + 1
        want = set()
        for c1, c2 in itertools.product(range(-cap, cap + 1), repeat=2):
            if c1 == c2 == 0:
                continue
            v = tuple(c1 * a + c2 * b for a, b in zip(basis[0], basis[1]))
            if sum(x * x for x in v) <= T * T:
                want.add(v)
        assert got == want


def test_enumeration_exact_boundary():
    # norm exactly T must be included
    got = set(enumerate_lattice_vectors(lll_reduce([[1, 0], [0, 1]]), 4))
    assert (2, 0) in got and (0, -2) in got and (1, 1) in got
    assert (2, 1) not in got


def test_enumeration_node_cap_counts_coefficients_tried():
    # on 2Z at bound 4 the single level tries x = -2..2, each admitted: five nodes
    two = lll_reduce([[2]])
    assert enumerate_lattice_vectors(two, 16, node_cap=5) == [(-4,), (-2,), (2,), (4,)]
    with pytest.raises(ResourceLimitError):
        enumerate_lattice_vectors(two, 16, node_cap=4)


def test_enumeration_node_cap_refuses_a_bound_past_float_range():
    # a 2^1200 bound: the level interval is found in integers, so the cap
    # refuses it instead of a float bracket overflowing
    with pytest.raises(ResourceLimitError, match="10 nodes"):
        list(latred.enumerate_coefficients(lll_reduce([[2]]), 4**1200, node_cap=10))


@pytest.mark.parametrize("bound_sq", [-1, Fraction(-1, 3), -0.5])
def test_enumeration_refuses_a_negative_squared_bound(bound_sq):
    unit = lll_reduce([[1, 0], [0, 1]])
    with pytest.raises(ParameterError, match="nonnegative"):
        enumerate_lattice_vectors(unit, bound_sq)
    assert enumerate_lattice_vectors(unit, 0) == []


def test_extended_lattice_zero_samples_block_diagonal():
    ext = build_extended_lattice(1, [(0,)] * 5, 8)
    expected = [
        (1, 0, 0, 0, 0, 0),
        (0, 8, 0, 0, 0, 0),
        (0, 0, 8, 0, 0, 0),
        (0, 0, 0, 8, 0, 0),
        (0, 0, 0, 0, 8, 0),
        (0, 0, 0, 0, 0, 8),
    ]
    assert list(ext.basis.vectors) == expected


def test_extended_lattice_validation():
    w = [(0,)] * 5
    with pytest.raises(ParameterError):
        build_extended_lattice(1, w[:4], 8)  # too few samples
    for bad in (8, -1, Fraction(1, 3), 1.0):  # outside [0, D), or not an int
        with pytest.raises(ParameterError):
            build_extended_lattice(1, [(bad,)] * 5, 8)


def grid_indices(ws, D):
    """The integer indices D w of grid samples w."""
    return [tuple(int(x * D) for x in w) for w in ws]


def test_exact_samples_lift_with_no_penalty():
    # w_i = v_i exactly: the lift of u keeps its norm
    rel = build_relation_lattice(FactoringInstance.build(15, 1))  # L = 2Z
    dual = dual_structure_from_basis(rel.basis)
    u = (2,)
    w = [v for v in dual.all_cosets()] * 3  # 6 on-grid samples, D = 8
    w = w[:5]
    ext = build_extended_lattice(1, grid_indices(w, 8), 8)
    # combination (u, c) with c_i = -<w_i, u>: last coordinates vanish
    coeffs = [u[0]] + [-int(sum(Fraction(x) * ui for x, ui in zip(wi, u))) for wi in w]
    lifted = [0] * 6
    for c, vec in zip(coeffs, ext.basis.vectors):
        lifted = [a + c * b for a, b in zip(lifted, vec)]
    assert lifted[0] == 2 and all(x == 0 for x in lifted[1:])


def test_lift_norm_bound_with_noise():
    # explicit lift construction meets ||u|| (1 + m D^2 delta^2)^{1/2}
    rng = np.random.default_rng(31)
    for _ in range(20):
        basis = random_basis(rng, 2, bound=3)
        dual = dual_structure_from_basis(basis)
        D = 64
        m = 6
        samples = []
        deltas = []
        for _ in range(m):
            v = dual.sample(rng)
            w = tuple(Fraction(round(float(x) * D) % D, D) for x in v)
            dist = math.sqrt(
                sum(min(float(a - b) % 1, 1 - float(a - b) % 1) ** 2 for a, b in zip(w, v))
            )
            samples.append(w)
            deltas.append(dist)
        delta = max(max(deltas), 1e-9)
        ext = build_extended_lattice(2, grid_indices(samples, D), D)
        u = tuple(basis[0])
        coeffs = [u[0], u[1]] + [
            -round(sum(Fraction(x) * ui for x, ui in zip(wi, u))) for wi in samples
        ]
        lifted = [0] * (2 + m)
        for c, vec in zip(coeffs, ext.basis.vectors):
            lifted = [a + c * b for a, b in zip(lifted, vec)]
        assert lifted[:2] == list(u)
        norm_u = math.sqrt(sum(x * x for x in u))
        bound = norm_u * math.sqrt(1 + m * D * D * delta * delta)
        assert math.sqrt(sum(x * x for x in lifted)) <= bound * (1 + 1e-9)


def test_recover_candidates_in_lattice_when_noiseless():
    rel = build_relation_lattice(FactoringInstance.build(21, 1))  # L = 3Z
    dual = dual_structure_from_basis(rel.basis)
    # dual cosets are multiples of 1/3: exact on a 1/3072 grid.  D is sized
    # so the projection guarantee covers every extracted vector:
    # sqrt(k) 2^{k/2} T_lift < D (4 det)^{-1/m} / 6.
    D = 3072
    samples = [dual.coset([i % 3]) for i in range(5)]
    ext = build_extended_lattice(1, grid_indices(samples, D), D)
    cands = recover_relation_vectors(ext, T=3, delta_sq=Fraction(1, D * D))
    assert cands, "noiseless recovery must produce candidates"
    rows = intmat.hermite_basis([list(v) for v in rel.basis], 1)
    for c in cands:
        assert intmat.lattice_contains(rows, list(c))


def test_recover_second_part_projection_bound():
    # when the separation event holds, every extracted short vector of the
    # embedding projects into the lattice
    rng = np.random.default_rng(37)
    trials = kept = 0
    for _ in range(40):
        basis = random_basis(rng, 2, bound=3)
        det = abs(intmat.determinant(basis))
        if det > 64:
            continue
        dual = dual_structure_from_basis(basis)
        d, m = 2, 6
        D = 256
        vs, ws = [], []
        for _ in range(m):
            v = dual.sample(rng)
            vs.append(v)
            ws.append(tuple(Fraction(round(float(x) * D) % D, D) for x in v))
        delta = max(
            max(
                math.sqrt(sum(min(float(a - b) % 1, 1 - float(a - b) % 1) ** 2
                              for a, b in zip(w, v)))
                for w, v in zip(ws, vs)
            ),
            math.sqrt(d) / (2 * D),
        )
        eps = (4 * det) ** (-1.0 / m) / 3
        # exhaustive separation check over nonzero primal cosets
        event = True
        for u in quotient_reps(dual):
            if not any(u):
                continue
            if all(
                min(float(sum(Fraction(a) * b for a, b in zip(u, v)) % 1),
                    1 - float(sum(Fraction(a) * b for a, b in zip(u, v)) % 1)) <= eps
                for v in vs
            ):
                event = False
                break
        if not event:
            continue
        trials += 1
        ext = build_extended_lattice(d, grid_indices(ws, D), D)
        threshold = (1 / delta) * (4 * det) ** (-1.0 / m) / 6
        reduced = lll_reduce(ext.basis)
        rows = intmat.hermite_basis([list(v) for v in basis], d)
        for vec in reduced.basis.vectors:
            if math.sqrt(sum(x * x for x in vec)) < threshold and any(vec[:d]):
                kept += 1
                assert intmat.lattice_contains(rows, list(vec[:d]))
    assert trials >= 10 and kept >= 1  # the event and the bound actually fire
