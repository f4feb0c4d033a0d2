import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfactor.arith import (
    FactorFound,
    FactoringInstance,
    ParameterError,
    ResourceLimitError,
    power_grid,
    power_product,
    product_tree_exponentiation,
)
from qfactor import qsim
from qfactor.gauss import GaussParams, q_table
from qfactor.pipeline import PipelineConfig, draw_samples, run_factoring
from qfactor.qsim import (
    JointState,
    _axis_weights,
    apply_exponentiation,
    branch_distribution,
    build_gaussian_state,
    outcome_cdf,
    phi1_phi2_gap,
    qft_measure_distribution,
    sample_measurement,
    sampling_row,
)
from qfactor.relattice import build_relation_lattice, dual_cosets


def rel_for(N, d, b=None):
    return build_relation_lattice(FactoringInstance.build(N, d, b))


def dense_branches(joint):
    """The dense form of a joint state: one complex array per group element,
    the amplitudes where the register holds it and 0 elsewhere, keyed in
    first-appearance order (what apply_exponentiation once returned)."""
    amps = joint.amplitudes.ravel()
    labels = joint.labels.ravel()
    branches = {}
    for k, e in enumerate(joint.elements):
        branch = np.zeros(amps.size, dtype=complex)
        cells = labels == k
        branch[cells] = amps[cells]
        branches[e] = branch.reshape((joint.D,) * joint.d)
    return branches


def branch_distribution_reference(branch, D, d):
    """The per-branch transform of a dense branch: roll to computational
    order, ifftn, scale, squared magnitudes."""
    phys = branch
    for axis in range(d):
        phys = np.roll(phys, D // 2, axis=axis)
    return np.abs(np.fft.ifftn(phys) * D ** (d / 2)) ** 2


def qft_measure_distribution_reference(branches, D, d):
    """The branch rows added to P one branch at a time."""
    P = np.zeros((D,) * d)
    for branch in branches.values():
        P += branch_distribution_reference(branch, D, d)
    return P


def test_gaussian_state_d1_amplitudes():
    state = build_gaussian_state(GaussParams(R=1.0, D=4, d=1))
    amps = state.amplitudes.real
    # offset order: z = -2, -1, 0, 1
    expected = np.array([math.exp(-math.pi * z * z) for z in (-2, -1, 0, 1)])
    assert np.allclose(amps / amps[2], expected, rtol=1e-12)
    assert float(np.linalg.norm(state.amplitudes)) == pytest.approx(1.0, abs=2.0**-40)


def test_gaussian_state_tensor_structure():
    one = build_gaussian_state(GaussParams(R=3.0, D=8, d=1)).amplitudes.real
    two = build_gaussian_state(GaussParams(R=3.0, D=8, d=2)).amplitudes.real
    assert np.allclose(two, np.multiply.outer(one, one), rtol=1e-12)


def test_z1_mass_window_reference_config():
    params = GaussParams(R=8.0, D=32, d=2)
    assert params.in_tail_regime
    state = build_gaussian_state(params)
    ref = (8.0 / math.sqrt(2.0)) ** 2
    slack = 2.0 * 2.0**-2
    assert (1 - slack) * ref <= state.z1_squared <= (1 + slack) * ref


def test_simulation_guard(monkeypatch):
    monkeypatch.setattr("qfactor.qsim.STATEVECTOR_GUARD", 2**20)
    with pytest.raises(ResourceLimitError):
        build_gaussian_state(GaussParams(R=600.0, D=4096, d=2))


def state_prep_approximation(D: int, R: float, k: int):
    """One-dimensional Gaussian state prepared with only k exact qubits.

    The k most significant qubits receive their exact conditional
    amplitudes; every remaining qubit is the uniform plus state.  In state
    terms: within each block of 2^{log2 D - k} consecutive indices the
    approximate amplitude is flat, carrying the block's exact total mass.
    Returns (approximate amplitudes, fidelity |<exact|approx>|^2).
    """
    nbits = D.bit_length() - 1
    exact = _axis_weights(D, R)
    exact = exact / np.linalg.norm(exact)
    block = 1 << (nbits - k)
    masses = (exact ** 2).reshape(-1, block).sum(axis=1)
    approx = np.repeat(np.sqrt(masses / block), block)
    fidelity = float(np.dot(exact, approx) ** 2)
    return approx, fidelity


def test_state_prep_exact_when_all_qubits_rotated():
    _, fid = state_prep_approximation(64, 16.0, 6)
    assert abs(fid - 1.0) < 2.0**-40


def test_state_prep_k0_matches_uniform_overlap():
    D, R = 64, 16.0
    approx, fid = state_prep_approximation(D, R, 0)
    g = np.array([math.exp(-math.pi * (i - D // 2) ** 2 / R**2) for i in range(D)])
    g /= np.linalg.norm(g)
    uniform = np.full(D, 1 / math.sqrt(D))
    assert np.allclose(approx, uniform, rtol=1e-12)
    assert fid == pytest.approx(float(np.dot(uniform, g) ** 2), rel=1e-12)


def test_state_prep_fidelity_monotone():
    fids = [state_prep_approximation(64, 16.0, k)[1] for k in range(7)]
    for a, b in zip(fids, fids[1:]):
        assert b >= a - 1e-12


def test_exponentiation_branch_parity():
    # 4^z mod 15 alternates with the parity of the offset index
    rel = rel_for(15, 1)
    state = build_gaussian_state(GaussParams(R=2.0, D=8, d=1))
    joint = apply_exponentiation(state, rel)
    branches = dense_branches(joint)
    assert set(branches) == {1, 4}
    for idx in range(8):
        e = pow(4, idx, 15)
        assert joint.elements[joint.labels[idx]] == e
        assert branches[e][idx] == state.amplitudes[idx]
        other = 4 if e == 1 else 1
        assert branches[other][idx] == 0


def test_exponentiation_trivial_group_single_branch():
    rel = rel_for(15, 1, b=(1,))
    state = build_gaussian_state(GaussParams(R=2.0, D=8, d=1))
    joint = apply_exponentiation(state, rel)
    assert joint.elements == (1,)
    assert not joint.labels.any()
    assert np.allclose(dense_branches(joint)[1], state.amplitudes)


def test_exponentiation_support_and_marginals():
    # branch masses equal direct Gaussian mass of each residue class
    rel = rel_for(21, 1)
    params = GaussParams(R=3.0, D=16, d=1)
    state = build_gaussian_state(params)
    joint = apply_exponentiation(state, rel)
    assert float(np.vdot(joint.amplitudes, joint.amplitudes).real) == pytest.approx(1.0, abs=2.0**-40)
    direct = {}
    total = 0.0
    for idx in range(16):
        w = math.exp(-math.pi * (idx - 8) ** 2 / 9.0) ** 2
        e = pow(4, idx, 21)
        direct[e] = direct.get(e, 0.0) + w
        total += w
    for e, branch in dense_branches(joint).items():
        mass = float(np.vdot(branch, branch).real)
        assert mass == pytest.approx(direct[e] / total, rel=1e-10)
        # support: every populated cell carries exactly its own group element
        for idx in np.nonzero(branch)[0]:
            assert pow(4, int(idx), 21) == e


def test_qft_distribution_normalized_and_symmetric():
    rel = rel_for(15, 1, b=(1,))  # trivial lattice: dual coset is 0
    params = GaussParams(R=4.0, D=16, d=1)
    joint = apply_exponentiation(build_gaussian_state(params), rel)
    P = qft_measure_distribution(joint)
    assert abs(float(P.sum()) - 1.0) < 2.0**-40
    # mass concentrates near w = 0 and wraps symmetrically
    assert P[0] == P.max()
    for k in range(1, 16):
        assert P[k] == pytest.approx(P[16 - k], rel=1e-9)
    assert float(P[0] + P[1] + P[15] + P[2] + P[14]) > 0.95


def test_qft_unitarity_preserves_branch_mass():
    rel = rel_for(77, 2)
    params = GaussParams(R=4.0, D=8, d=2)
    joint = apply_exponentiation(build_gaussian_state(params), rel)
    P = qft_measure_distribution(joint)
    assert abs(float(P.sum()) - float(np.vdot(joint.amplitudes, joint.amplitudes).real)) < 2.0**-40


L1_BASELINES = {
    # (N, d, D, R) -> frozen ceiling on l1(P, Q), recorded at first run
    (15, 1, 16, 4.0): 3.5e-06,
}


def l1_distance(N, d, D, R):
    rel = rel_for(N, d)
    params = GaussParams(R=R, D=D, d=d)
    joint = apply_exponentiation(build_gaussian_state(params), rel)
    P = qft_measure_distribution(joint)
    Q = q_table(dual_cosets(rel), params)
    return float(np.abs(P - Q).sum())


def test_l1_regression_baseline():
    for (N, d, D, R), ceiling in L1_BASELINES.items():
        assert l1_distance(N, d, D, R) <= ceiling


def test_sample_measurement_hits_support():
    rel = rel_for(15, 1)
    params = GaussParams(R=4.0, D=16, d=1)
    joint = apply_exponentiation(build_gaussian_state(params), rel)
    P = qft_measure_distribution(joint)
    rng = np.random.default_rng(8)
    for _ in range(50):
        idx = sample_measurement(P, rng)
        assert P[idx] > 0


def test_sample_measurement_with_cumulated_table_draws_the_same():
    # the 77/d=1 statevector job's grid, cumulated once and drawn from often
    rel = rel_for(77, 1)
    params = GaussParams.choose(1, 4096.0)
    P = qft_measure_distribution(apply_exponentiation(build_gaussian_state(params), rel))
    cdf = outcome_cdf(P)
    assert np.array_equal(cdf, np.cumsum(P.ravel()))
    for seed in range(20):
        once = sample_measurement(P, np.random.default_rng(seed), cdf)
        assert once == sample_measurement(P, np.random.default_rng(seed))


def test_phi_gap_trivial_lattice_d1():
    rel = rel_for(15, 1, b=(1,))
    res = phi1_phi2_gap(rel, GaussParams(R=4.0, D=16, d=1))
    assert res.gap <= 2.0 * 2.0**-1  # vacuous bound, sanity only
    assert res.gap < 1e-4  # the actual truncation error is tiny here
    assert res.ratio == pytest.approx(1.0, abs=1e-6)


def test_phi_gap_decreases_when_D_doubles():
    rel = rel_for(15, 1)
    small = phi1_phi2_gap(rel, GaussParams(R=4.0, D=16, d=1))
    big = phi1_phi2_gap(rel, GaussParams(R=4.0, D=32, d=1))
    assert big.gap < small.gap


def test_phi_gap_guarantee_windows():
    for N, d, R in [(15, 1, 4.0), (77, 2, 4.0), (77, 2, 8.0)]:
        rel = rel_for(N, d)
        params = GaussParams.choose(d, R)
        res = phi1_phi2_gap(rel, params)
        assert res.gap <= 2.0 * 2.0**-d
        assert abs(res.ratio - 1.0) <= 2.0**-d
        # z1 agrees with the state builder's reported mass
        state = build_gaussian_state(params)
        assert res.z1**2 == pytest.approx(state.z1_squared, rel=1e-10)


def phi1_phi2_gap_reference(rel, params):
    """The gap with every box point listed by meshgrid, and each point's
    squared norm, cell and in-box flag built over the d coordinate arrays."""
    d, D, R, N = params.d, params.D, params.R, rel.inst.N
    B = max(int(math.ceil(qsim._BOX_RADII * R)) + 1, D // 2)
    flat = [g.ravel() for g in np.meshgrid(*([np.arange(-B, B + 1)] * d), indexing="ij")]
    rho_vals = np.exp(-math.pi * sum(y.astype(float) ** 2 for y in flat) / (R * R))
    e_vals = power_grid(rel.inst.a, N, (2 * B + 1,) * d, D // 2 - B).ravel()
    cell = np.zeros(flat[0].size, dtype=np.int64)
    in_box = np.ones(flat[0].size, dtype=bool)
    for y in flat:
        cell = cell * D + ((y + D // 2) % D)
        in_box &= (y >= -D // 2) & (y < D // 2)
    uniq, branch_idx = np.unique(e_vals, return_inverse=True)
    size = uniq.size * D**d
    a2 = np.bincount(branch_idx * D**d + cell, weights=rho_vals, minlength=size)
    a1 = np.bincount(branch_idx[in_box] * D**d + cell[in_box], weights=rho_vals[in_box], minlength=size)
    z1, z2 = math.sqrt(float(np.square(a1).sum())), math.sqrt(float(np.square(a2).sum()))
    gap = math.sqrt(float(np.square(a1 / z1 - a2 / z2).sum()))
    return qsim.GapResult(gap=gap, z1=z1, z2=z2, ratio=z1 / z2)


@pytest.mark.parametrize("N,d,D,R", [
    (77, 1, 16, 4.0), (77, 2, 32, 8.0), (77, 3, 32, 4.62),  # the simulate golden's sweep
    (91, 1, 64, 6.0), (221, 2, 8, 2.5), (437, 3, 8, 3.0), ((1 << 32) + 1, 1, 64, 8.0),
])
def test_phi_gap_matches_meshgrid_reference(N, d, D, R):
    params = GaussParams(R=R, D=D, d=d)
    rel = rel_for(N, d)
    assert phi1_phi2_gap(rel, params) == phi1_phi2_gap_reference(rel, params)


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(15, 1 << 12).map(lambda n: n | 1) | st.just((1 << 32) + 1),
    d=st.integers(1, 3),
    log_D=st.integers(1, 6),
    R=st.floats(0.5, 16.0),
)
def test_phi_gap_matches_meshgrid_reference_on_random_grids(N, d, log_D, R):
    # any grid, with any number of branches (not only powers of two, so
    # that leaves and blocks straddle branch rows), and N = 2^32 + 1, whose
    # group elements are Python ints
    D, R = 1 << log_D, R / d  # smaller radii in more dimensions keep the boxes small
    big = N > 1 << 32
    box = (2 * max(math.ceil(qsim._BOX_RADII * R) + 1, D // 2) + 1) ** d
    assume(box <= (4000 if big else 300_000) and not (big and d == 3))
    try:
        rel = rel_for(N, d, (2, 256)[:d] if big else None)
    except (FactorFound, ParameterError):  # a factor on the way, a perfect power
        assume(False)
    assume(rel.det * D ** d <= qsim.STATEVECTOR_GUARD)
    params = GaussParams(R=R, D=D, d=d)
    assert phi1_phi2_gap(rel, params) == phi1_phi2_gap_reference(rel, params)


@pytest.mark.parametrize("leaf", [qsim.LEAF, 128, 136, 1000])
def test_pairwise_sums_add_in_numpys_order(monkeypatch, leaf):
    # numpy's float64 sum is pairwise, and its result depends on the order:
    # the streamed sums must be np.add.reduce's own, bit for bit, whatever
    # the leaf (numpy's unrolled block is 128 values, the least leaf) and
    # however the arrays are cut into pieces.  15 * 2^15 is the 77/d=3
    # simulate grid's bins, whose 15 branch rows straddle the leaves.
    assert qsim.LEAF >= 128
    monkeypatch.setattr(qsim, "LEAF", leaf)
    rng = np.random.default_rng(leaf)
    cases = [(n, n) for n in range(1, 1025)] + [(n, int(rng.integers(1, 300))) for n in range(1, 1025, 7)]
    cases += [(15 << 15, 1 << 15), (15 << 15, 1000), (15 << 15, 15 << 15), (7 * 1024 + 5, 1024)]
    order_matters = False
    for n, row in cases:
        a = rng.random(n) * 10.0 ** rng.integers(-8, 9, size=n)
        b = np.square(a)
        pieces = ((a[i:i + row], b[i:i + row]) for i in range(0, n, row))
        assert qsim._pairwise_sums(pieces, n) == [float(np.add.reduce(a)), float(np.add.reduce(b))]
        order_matters |= float(np.add.reduce(a)) != float(np.cumsum(a)[-1])
    assert order_matters  # a sum in another order would have failed


def test_phi_gap_memory_stays_below_dense_branches():
    # the simulate sweep's 77/d=3 grid: 15 branches x 32^3 bins, three dense
    # float64 arrays of which took 15.5 MB
    rel = rel_for(77, 3)
    params = GaussParams(R=4.62, D=32, d=3)
    phi1_phi2_gap(rel, params)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        phi1_phi2_gap(rel, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_wrapped_mass_oracle_tiny_case():
    # independent wrapped-state mass: enumerate integers directly
    rel = rel_for(15, 1)
    params = GaussParams(R=2.0, D=8, d=1)
    res = phi1_phi2_gap(rel, params)
    z2_direct = 0.0
    cells = {}
    for y in range(-40, 41):
        e = pow(4, y + 4, 15)
        cell = (y + 4) % 8
        key = (cell, e)
        cells[key] = cells.get(key, 0.0) + math.exp(-math.pi * y * y / 4.0)
    z2_direct = math.sqrt(sum(v * v for v in cells.values()))
    assert res.z2 == pytest.approx(z2_direct, rel=1e-12)


def apply_exponentiation_reference(state, rel):
    """The per-point register attachment: one exponentiation per grid point,
    each new group element labelled in the order the grid first reaches it."""
    d, D = state.d, state.D
    elements = {}
    labels = np.empty((D,) * d, dtype=np.intp)
    for idx in itertools.product(range(D), repeat=d):
        e = product_tree_exponentiation(rel.inst, idx, exponent_bound=D)
        labels[idx] = elements.setdefault(e, len(elements))
    return JointState(d=d, D=D, amplitudes=state.amplitudes, elements=tuple(elements), labels=labels)


def assert_same_joint_state(rel, params):
    state = build_gaussian_state(params)
    got = apply_exponentiation(state, rel)
    want = apply_exponentiation_reference(state, rel)
    assert got.elements == want.elements
    assert all(type(e) is int for e in got.elements)
    assert got.labels.dtype == np.min_scalar_type(len(got.elements) - 1)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.amplitudes, want.amplitudes)
    got_branches, want_branches = dense_branches(got), dense_branches(want)
    assert list(got_branches) == list(want_branches)
    for e, branch in want_branches.items():
        assert got_branches[e].shape == branch.shape
        assert np.array_equal(got_branches[e], branch)
    P = qft_measure_distribution(got)
    assert np.array_equal(P, qft_measure_distribution_reference(want_branches, params.D, params.d))
    return got


@pytest.mark.parametrize("N", [15, 21, 35, 77, 91, 221])
@pytest.mark.parametrize("d,D", [(1, 16), (1, 64), (2, 8), (2, 16), (3, 8)])
def test_exponentiation_matches_per_point_reference(N, d, D):
    bases = [b for b in (2, 3, 5, 7, 11) if math.gcd(b, N) == 1][:d]
    assert_same_joint_state(rel_for(N, d, bases), GaussParams(R=D / 4, D=D, d=d))


@pytest.mark.parametrize("N,d,D,R", [
    # the grids statevector `factor` builds for these N at d = 1
    (15, 1, 8192, 4096.0), (35, 1, 32768, 16384.0), (91, 1, 65536, 32768.0), (77, 1, 131072, 65536.0),
    # the grids of `simulate --n 77 --sweep "1:16:4;2:32:8;3:32:4.62"`
    (77, 1, 16, 4.0), (77, 2, 32, 8.0), (77, 3, 32, 4.62),
])
def test_exponentiation_matches_reference_on_benchmark_grids(N, d, D, R):
    assert_same_joint_state(rel_for(N, d), GaussParams(R=R, D=D, d=d))


@pytest.mark.parametrize("N,b,D", [
    # group elements below 2^16
    (65535, (2,), 64), (65535, (2, 7), 16),
    # and above it, below 2^31 (N = 3 * 65537, where 2 has order 32)
    (3 * 65537, (2,), 64), (3 * 65537, (2, 256), 32),
    # 754 branches, so uint16 labels, each of the first chunks meeting new ones
    (3127, (2,), 1024),
])
def test_exponentiation_matches_reference_on_each_key_width(N, b, D):
    grid = power_grid(b, N, (D,) * len(b))
    assert grid.dtype == np.int64 and (grid.max() >= 1 << 16) == (N > 1 << 16)
    joint = assert_same_joint_state(rel_for(N, len(b), b), GaussParams(R=D / 4, D=D, d=len(b)))
    assert len(joint.elements) > 1


@pytest.mark.parametrize("b,D", [((2,), 64), ((2, 256), 32)])
def test_exponentiation_matches_reference_above_int64_tables(b, D):
    # N = 2^32 + 1 = 641 * 6700417: 4 has order 32 and 4^16 = N - 1, so the
    # group elements need Python-int arithmetic (at d = 2, products of two
    # of them pass 2^63)
    N = (1 << 32) + 1
    rel = rel_for(N, len(b), b)
    assert rel.det == 32
    joint = assert_same_joint_state(rel, GaussParams(R=D / 4, D=D, d=len(b)))
    assert N - 1 in joint.elements


def test_wrapped_mass_above_int64_tables():
    # the gap analysis shares the grid helper, Python-int path included
    N = (1 << 32) + 1
    rel = rel_for(N, 1)
    params = GaussParams(R=16.0, D=64, d=1)
    res = phi1_phi2_gap(rel, params)
    cells = {}
    for y in range(-120, 121):
        key = ((y + 32) % 64, pow(4, y + 32, N))
        cells[key] = cells.get(key, 0.0) + math.exp(-math.pi * y * y / 256.0)
    assert res.z2 == pytest.approx(math.sqrt(sum(v * v for v in cells.values())), rel=1e-12)
    assert res.gap <= 2.0 * 2.0**-1


@pytest.mark.parametrize("N,d,D", [(77, 1, 64), (221, 2, 16), (77, 3, 8)])
def test_branch_rows_match_per_branch_reference(N, d, D):
    joint = apply_exponentiation(build_gaussian_state(GaussParams(R=D / 4, D=D, d=d)), rel_for(N, d))
    for k, branch in enumerate(dense_branches(joint).values()):
        assert np.array_equal(branch_distribution(joint, k), branch_distribution_reference(branch, D, d))
    want = qft_measure_distribution_reference(dense_branches(joint), D, d)
    assert np.array_equal(qft_measure_distribution(joint), want)


@pytest.mark.parametrize("N,d,D,m", [
    (77, 1, 64, 4),  # four samples an attempt: several drawn branches, each transformed once
    (77, 1, 64, 1),  # one sample an attempt: one branch transformed per call
    (77, 2, 32, 6),
    (221, 2, 16, 6),
    (77, 3, 32, 7),
    (221, 3, 8, 7),
])
def test_blocked_transform_matches_per_branch_reference(N, d, D, m):
    # an attempt's draws, transformed branch by branch for the branches
    # they land on, match draws from the dense per-branch reference rows
    # with the reference masses, on the same streams; at R = 10 neither the
    # masses nor the rows are all alike, so a wrong mass or a wrong row
    # moves some draw.  The drawn rows come from a real-input transform and
    # the reference rows from the complex one, so this also checks that the
    # few-ulp gap between the two moves no draw
    rel = rel_for(N, d)
    params = GaussParams(R=10.0, D=D, d=d)
    joint = apply_exponentiation(build_gaussian_state(params), rel)
    branches = list(dense_branches(joint).values())
    masses = np.array([np.vdot(b, b).real for b in branches])
    most = 0
    for seed, attempt in itertools.product(range(16), range(4)):
        drawn = set()
        for i, sample in enumerate(draw_samples(seed, attempt, m, params, dual_cosets(rel), joint)):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt, i)))
            k = sample_measurement(masses, rng)[0]
            drawn.add(k)
            want = sample_measurement(branch_distribution_reference(branches[k], D, d), rng)
            assert sample == {"v": None, "w_indices": list(want)}
        most = max(most, len(drawn))
    if m > 1:
        assert most > 1  # some attempt transformed more than one branch


# sha256 of qft_measure_distribution(...).tobytes() on the exact-lab grids:
# the outcome table stays bit-identical
OUTCOME_TABLE_DIGESTS = [
    # the grids statevector `factor` builds for these N at d = 1
    (15, 1, 8192, 4096.0, "2c6b33e7db94ec7f0f552212b4b8435f4c91724b7458eb502f9ed6d3547dc4bb"),
    (35, 1, 32768, 16384.0, "c53cb9cd7d86c1fa226de8f951ed9f228271181d0cb03acbe4909505a4b81250"),
    (91, 1, 65536, 32768.0, "52d0bf78f45a7d59af1d93bcbb9925138640c1d8c0d0b0452794d0251f606f3a"),
    (77, 1, 131072, 65536.0, "d0838ae3bab476cd091ec9999a99e33fd509bfed7cc7a22052dc3c81021cf8b4"),
    # the grids of `simulate --n 77 --sweep "1:16:4;2:32:8;3:32:4.62"`
    (77, 1, 16, 4.0, "fad3fc8658d0ab601cc745219d092261e104beb0a8eafb70dd8f7f5123ec2be8"),
    (77, 2, 32, 8.0, "181a71afaf2a8ea4d2baf9cb661208244f1f7f7eae7f65618f29bad0e3d9125e"),
    (77, 3, 32, 4.62, "cfc0e5c84f8c5d3162311331d11b0a6c568ed671c587e3b019ee773b15befcd8"),
]


@pytest.mark.parametrize("N,d,D,R,digest", OUTCOME_TABLE_DIGESTS,
                         ids=[f"{N}-{d}-{D}" for N, d, D, *_ in OUTCOME_TABLE_DIGESTS])
def test_outcome_table_is_pinned_and_sums_the_branch_rows(N, d, D, R, digest):
    joint = apply_exponentiation(build_gaussian_state(GaussParams(R=R, D=D, d=d)), rel_for(N, d))
    P = qft_measure_distribution(joint)
    assert hashlib.sha256(P.tobytes()).hexdigest() == digest
    total = np.zeros((D,) * d)
    masses = joint.branch_masses()
    assert masses.shape == (len(joint.elements),)
    for k in range(len(joint.elements)):
        row = branch_distribution(joint, k)
        assert abs(float(row.sum()) - masses[k]) <= 2.0**-40
        total += row
    assert np.array_equal(total, P)
    assert abs(float(masses.sum()) - float(np.vdot(joint.amplitudes, joint.amplitudes).real)) <= 2.0**-40


# the sampling rows' largest distance from the branch rows, in units of
# the row's largest entry; measured at most 4.3 ulp on these grids
SAMPLING_ROW_ULPS = 8


@pytest.mark.parametrize("N,d,D,R,digest", OUTCOME_TABLE_DIGESTS,
                         ids=[f"{N}-{d}-{D}" for N, d, D, *_ in OUTCOME_TABLE_DIGESTS])
def test_sampling_rows_agree_with_branch_rows(N, d, D, R, digest):
    # the real-input transform's row of every branch is within a few ulps
    # of the complex transform's, and each cell past D/2 on the last axis,
    # which the half spectrum lacks, holds the very float of the cell at
    # -w mod D
    joint = apply_exponentiation(build_gaussian_state(GaussParams(R=R, D=D, d=d)), rel_for(N, d))
    negated = (-np.arange(D)) % D
    for k in range(len(joint.elements)):
        want, row = branch_distribution(joint, k), sampling_row(joint, k)
        assert row.shape == want.shape and row.dtype == np.float64
        assert float(np.abs(row - want).max()) <= SAMPLING_ROW_ULPS * np.finfo(float).eps * float(want.max())
        assert np.array_equal(row[..., D // 2 + 1:], row[np.ix_(*[negated] * d)][..., D // 2 + 1:])


@pytest.mark.parametrize("dtype,branches", [(np.uint8, 200), (np.uint16, 3000)])
@pytest.mark.parametrize("cells", [1, qsim.LEAF - 1, qsim.LEAF + 1, 3 * qsim.LEAF + 77])
def test_branch_masses_equal_bincount(dtype, branches, cells):
    # the masses are added LEAF cells at a time, in np.bincount's order
    rng = np.random.default_rng(cells)
    labels = rng.integers(0, branches, size=cells).astype(dtype)
    joint = JointState(d=1, D=cells, amplitudes=rng.standard_normal(cells),
                       elements=tuple(range(branches)), labels=labels)
    want = np.bincount(labels, weights=np.square(joint.amplitudes), minlength=branches)
    assert np.array_equal(joint.branch_masses(), want)


@pytest.mark.parametrize("a,N", [((4,), 77), ((2, 3), 77), ((4, 9, 25), 221), ((2, 256), (1 << 32) + 1)])
def test_grid_power_tables_match_pow(a, N):
    # the doubling tables at sizes around powers of two, one size for every
    # axis and one per axis (size-1 axes included), from negative (modular
    # inverse) and nonnegative starting exponents; N = 2^32 + 1 takes the
    # object path
    d = len(a)
    shapes = {(size,) * d for size in (1, 2, 7, 33)} | set(itertools.permutations((1, 2, 7, 33), d))
    for sizes, lo in itertools.product(sorted(shapes), [-40, -5, -1, 0, 3]):
        grid = power_grid(a, N, sizes, lo)
        assert grid.shape == sizes
        assert grid.dtype == (np.int64 if N < 1 << 31 else object)
        for idx in itertools.product(*map(range, sizes)):
            assert grid[idx] == power_product(a, [lo + j for j in idx], N)


def test_joint_state_and_transform_memory_stay_below_dense_branches():
    # the 77/d=1 statevector grid: 15 branches of 2^17 complex cells would
    # take 30 MB as dense arrays; power_grid's own peak is 2 MB, and one
    # branch's transform holds its complex grid (2 MB) and its row (1 MB)
    # beside the 1 MB of real amplitudes
    rel = rel_for(77, 1)
    state = build_gaussian_state(GaussParams(R=65536.0, D=131072, d=1))
    tracemalloc.start()
    try:
        joint = apply_exponentiation(state, rel)
        _, apply_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        qft_measure_distribution(joint)
        _, qft_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(joint.elements) == 15
    assert apply_peak < 2.5 * (1 << 20)
    assert qft_peak < 4.5 * (1 << 20)


def test_joint_state_keeps_one_label_per_cell():
    # the 77/d=1 statevector grid: the joint state retains its 2^17 labels
    # (128 KB of uint8) and the element tuple, beside the state's 1 MB of
    # float64 amplitudes
    rel = rel_for(77, 1)
    state = build_gaussian_state(GaussParams(R=65536.0, D=131072, d=1))
    tracemalloc.start()
    try:
        joint = apply_exponentiation(state, rel)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert joint.amplitudes is state.amplitudes
    assert state.amplitudes.dtype == np.float64 and joint.labels.dtype == np.uint8
    assert retained <= 0.25 * (1 << 20)


def test_statevector_factoring_memory():
    # the exact-lab 77/d=1 statevector job: the real amplitudes, compact
    # labels and one branch's real-input transform at a time, where it once
    # took 7 MB; measured 3.2 MB
    config = PipelineConfig(N=77, d=1, mode="statevector", seed=1)
    run_factoring(config)  # lazy imports and set-up outside the trace
    tracemalloc.start()
    try:
        outcome = run_factoring(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.factor in (7, 11)
    assert peak < 3.5 * (1 << 20)
