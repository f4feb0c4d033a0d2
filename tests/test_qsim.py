import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qfactor.arith import FactoringInstance, ResourceLimitError, product_tree_exponentiation
from qfactor.gauss import GaussParams, q_table
from qfactor.pipeline import draw_samples
from qfactor.qsim import (
    JointState,
    _axis_weights,
    _grid_group_elements,
    apply_exponentiation,
    branch_distribution,
    build_gaussian_state,
    outcome_cdf,
    phi1_phi2_gap,
    qft_measure_distribution,
    sample_measurement,
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
    assert state.norm() == pytest.approx(1.0, abs=2.0**-40)


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
    assert joint.norm_sq() == pytest.approx(1.0, abs=2.0**-40)
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
    assert abs(float(P.sum()) - joint.norm_sq()) < 2.0**-40


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
    each new group element labelled in the order the grid first reaches it;
    branch k's cells are found by a mask over the rolled labels and laid
    out in branch order."""
    d, D = state.d, state.D
    elements = {}
    labels = np.empty((D,) * d, dtype=np.intp)
    for idx in itertools.product(range(D), repeat=d):
        e = product_tree_exponentiation(rel.inst, idx, exponent_bound=D)
        labels[idx] = elements.setdefault(e, len(elements))
    rolled = labels
    for axis in range(d):
        rolled = np.roll(rolled, D // 2, axis=axis)
    per_branch = [np.flatnonzero(rolled.ravel() == k) for k in range(len(elements))]
    sizes = np.array([len(c) for c in per_branch])
    stops = np.cumsum(sizes)
    return JointState(d=d, D=D, amplitudes=state.amplitudes, elements=tuple(elements), labels=labels,
                      cells=np.concatenate(per_branch), spans=np.stack([stops - sizes, stops], axis=1))


def branch_cells(joint, k):
    return joint.cells[joint.spans[k, 0]:joint.spans[k, 1]]


def assert_same_joint_state(rel, params):
    state = build_gaussian_state(params)
    got = apply_exponentiation(state, rel)
    want = apply_exponentiation_reference(state, rel)
    assert got.elements == want.elements
    assert all(type(e) is int for e in got.elements)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.amplitudes, want.amplitudes)
    for k in range(len(want.elements)):
        assert np.array_equal(branch_cells(got, k), branch_cells(want, k))
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
])
def test_blocked_transform_matches_per_branch_reference(N, d, D, m):
    # an attempt's draws, transformed branch by branch for the branches
    # they land on, match draws from the dense per-branch reference rows
    # with the reference masses, on the same streams; at R = 10 neither the
    # masses nor the rows are all alike, so a wrong mass or a wrong row
    # moves some draw
    rel = rel_for(N, d)
    params = GaussParams(R=10.0, D=D, d=d)
    joint = apply_exponentiation(build_gaussian_state(params), rel)
    branches = list(dense_branches(joint).values())
    masses = np.array([np.vdot(b, b).real for b in branches])
    most = 0
    for seed, attempt in itertools.product(range(8), range(4)):
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
    assert abs(float(masses.sum()) - joint.norm_sq()) <= 2.0**-40


@pytest.mark.parametrize("a,N", [((4,), 77), ((2, 3), 77), ((4, 9, 25), 221), ((2, 256), (1 << 32) + 1)])
def test_grid_power_tables_match_pow(a, N):
    # the doubling tables at sizes around powers of two, from negative
    # (modular inverse) and nonnegative starting exponents
    for size, lo in itertools.product([1, 2, 7, 33], [-40, -5, -1, 0, 3]):
        grid = _grid_group_elements(a, N, size, lo)
        assert grid.shape == (size,) * len(a)
        for idx in itertools.product(range(size), repeat=len(a)):
            want = 1
            for a_i, j in zip(a, idx):
                want = want * pow(a_i, lo + j, N) % N
            assert grid[idx] == want


def test_joint_state_and_transform_memory_stay_below_dense_branches():
    # the 77/d=1 statevector grid: 15 branches of 2^17 complex cells would
    # take 30 MB as dense arrays
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
    assert apply_peak < 8 << 20
    assert qft_peak < 20 << 20
