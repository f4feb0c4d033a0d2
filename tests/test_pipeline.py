import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfactor.arith import FactoringInstance, ParameterError, ResourceLimitError
from qfactor.checks import binomial_lower_pvalue
from qfactor.gauss import GaussParams, window_cdf
from qfactor.pipeline import (
    ASSUMPTION_VIOLATED,
    ATTEMPTS_EXHAUSTED,
    FACTORED,
    REJECTED_PRIME,
    PipelineConfig,
    certify_assumption,
    default_dimension,
    default_witness_bound,
    draw_samples,
    estimate_gate_cost,
    prepare,
    recovery_recheck,
    run_factoring,
    select_radius,
    tradeoff_rows,
)
from qfactor.qsim import (
    apply_exponentiation,
    build_gaussian_state,
    qft_measure_distribution,
    sample_measurement,
)
from qfactor.relattice import build_relation_lattice, dual_cosets
from test_census import census_reference
from test_qsim import branch_distribution_reference, dense_branches


def draw_samples_reference(seed, attempt, m, params, dual):
    """The oracle draws of one attempt, one sample at a time: its coset,
    then each coordinate from its own window table at one uniform."""
    samples = []
    for i in range(m):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt, i)))
        v = dual.sample(rng)
        w = []
        for x in v:
            cells, cdf = window_cdf(float(x) % 1.0, params)
            w.append(int(cells[np.searchsorted(cdf, rng.random(), side="right")]))
        samples.append({"v": [str(x) for x in v], "w_indices": w})
    return samples


# the (N, d, pinned radius or None) of every oracle-mix job
ORACLE_MIX_JOBS = [
    (221, 1, 16), (221, 1, 32), (77, 2, None), (143, 2, None), (221, 2, None), (323, 2, None),
    (1147, 2, None), (221, 3, None), (1147, 3, None), (437, 3, None), (1147, 3, 64),
    (1147, 3, 256), (3127, 3, 256), (10403, 3, 256), (1147, 4, 256), (1147, 4, 1024),
]


@pytest.mark.parametrize("N,d,R", ORACLE_MIX_JOBS)
def test_batched_draws_match_per_sample_reference(N, d, R):
    for seed in range(3):
        prep = prepare(PipelineConfig(N=N, d=d, seed=seed, radius_override=R))
        for attempt in range(5):
            got = draw_samples(seed, attempt, prep.m, prep.params, prep.dual)
            assert got == draw_samples_reference(seed, attempt, prep.m, prep.params, prep.dual)


def test_factor_15_oracle_seeded():
    out = run_factoring(PipelineConfig(N=15, d=1, m=5, seed=7))
    assert out.status == FACTORED
    assert out.factor in (3, 5)
    assert 15 % out.factor == 0


def test_factor_77_d2_deterministic_transcript():
    cfg = dict(N=77, d=2, m=6, seed=1234)
    first = run_factoring(PipelineConfig(**cfg))
    second = run_factoring(PipelineConfig(**cfg))
    assert first.status == FACTORED and first.factor in (7, 11)
    assert first.factor == second.factor
    assert first.transcript == second.transcript


def test_factor_statevector_mode():
    out = run_factoring(PipelineConfig(N=15, d=1, mode="statevector", seed=3))
    assert out.status == FACTORED and out.factor in (3, 5)
    # samples carry no coset label in this mode
    assert out.transcript["attempts"][0]["samples"][0]["v"] is None


def statevector_for(N, d, D, R):
    rel = build_relation_lattice(FactoringInstance.build(N, d))
    params = GaussParams(R=R, D=D, d=d)
    return params, dual_cosets(rel), apply_exponentiation(build_gaussian_state(params), rel)


@pytest.mark.parametrize("N,d,D,R", [
    (77, 1, 64, 8.0), (77, 2, 16, 4.0), (221, 2, 32, 8.0), (77, 3, 16, 4.0), (221, 3, 16, 3.0),
    (15, 1, 8192, 4096.0),  # the grid statevector `factor` builds for 15 at d = 1
])
def test_statevector_sample_reproduces_on_its_own_stream(N, d, D, R):
    # sample i, drawn alone on its stream (branch by mass, then a cell of
    # that branch's row from the complex reference transform), lands where
    # it lands within an attempt of m, which draws from the real-input
    # transform's row
    params, dual, joint = statevector_for(N, d, D, R)
    masses = joint.branch_masses()
    rows = [branch_distribution_reference(b, D, d) for b in dense_branches(joint).values()]
    branches = set()
    for seed, attempt in itertools.product(range(6), range(3)):
        got = draw_samples(seed, attempt, 8, params, dual, joint)
        for i, sample in enumerate(got):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt, i)))
            k = sample_measurement(masses, rng)[0]
            branches.add(k)
            want = sample_measurement(rows[k], rng)
            assert sample == {"v": None, "w_indices": list(want)}
    assert len(branches) > 1


@pytest.mark.parametrize("N,D,R", [(15, 64, 2.0), (77, 64, 8.0)])
def test_branch_first_draws_follow_the_outcome_table(N, D, R):
    # every cell's count among n draws lies within both exact binomial
    # tails of its probability in the full table, at 1e-3 over all cells
    params, dual, joint = statevector_for(N, 1, D, R)
    P = qft_measure_distribution(joint).ravel()
    p = P / P.sum()
    n = 10_000
    counts = np.bincount([s["w_indices"][0] for s in draw_samples(11, 0, n, params, dual, joint)], minlength=D)
    alpha = 1e-3 / D
    for c, q in zip(counts.tolist(), p.tolist()):
        assert binomial_lower_pvalue(c, n, q) >= alpha
        assert binomial_lower_pvalue(n - c, n, 1 - q) >= alpha


def test_statevector_draws_hold_one_branch_row_at_a_time():
    # the 77/d=1 statevector job: 15 branches of 2^17 cells; the full
    # outcome table and its transform took 15 MB, one complex transform
    # and its row 3 MB; the real grid and half spectrum, then the spectrum
    # and the row, measured 2.0 MB
    prep = prepare(PipelineConfig(N=77, d=1, mode="statevector"))
    joint = apply_exponentiation(build_gaussian_state(prep.params), prep.rel)
    tracemalloc.start()
    try:
        draw_samples(1, 0, prep.m, prep.params, prep.dual, joint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * (1 << 20)


def test_even_input_resolved_at_precheck():
    out = run_factoring(PipelineConfig(N=16))
    assert out.status == FACTORED and out.factor == 2
    assert out.attempts_used == 0


def test_prime_power_resolved_at_precheck():
    out = run_factoring(PipelineConfig(N=27))
    assert out.status == FACTORED and out.factor == 3


def test_prime_rejected():
    out = run_factoring(PipelineConfig(N=101))
    assert out.status == REJECTED_PRIME and out.factor is None


def test_construction_short_circuit():
    out = run_factoring(PipelineConfig(N=15, d=2))
    assert out.status == FACTORED and out.factor == 3
    assert out.transcript["instance"]["short_circuit_factor"] == 3


def test_zero_attempts_exhausts():
    out = run_factoring(PipelineConfig(N=15, d=1, max_attempts=0))
    assert out.status == ATTEMPTS_EXHAUSTED
    assert out.factor is None


def test_assumption_violated_for_33_d1():
    # 2^5 = -1 mod 33: the sign sublattice swallows the whole lattice
    out = run_factoring(PipelineConfig(N=33, d=1, seed=5))
    assert out.status == ASSUMPTION_VIOLATED
    assert out.transcript["witness"]["found"] is False


def test_every_reported_factor_divides():
    for N in (15, 21, 35, 77, 91):
        out = run_factoring(PipelineConfig(N=N, d=1, seed=2))
        assert out.status == FACTORED
        assert 1 < out.factor < N and N % out.factor == 0


def test_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(N=15, mode="imaginary")
    with pytest.raises(ParameterError):
        PipelineConfig(N=15, max_attempts=-1)
    with pytest.raises(ParameterError):
        run_factoring(PipelineConfig(N=77, d=2, m=5))  # m < d + 4


def test_statevector_guard_enforced():
    cfg = PipelineConfig(N=77, d=2, mode="statevector", radius_override=1 << 12)
    with pytest.raises(ResourceLimitError):
        run_factoring(cfg)


def test_default_dimension_is_ceil_sqrt_bits():
    assert default_dimension(4) == 2
    assert default_dimension(24) == 5  # ceil sqrt 24 = 5


# --- witness certification --------------------------------------------------


def test_certify_witness_for_15():
    inst = FactoringInstance.build(15, 1)
    rel = build_relation_lattice(inst)
    report = certify_assumption(inst, 8, rel)
    # ball of radius 8 in L = 2Z: nonzero members +-2 +-4 +-6 +-8, half escape
    members, outside, witness = census_reference(rel, 8**2)
    assert (len(members), len(outside), witness) == (8, 4, (-2,))
    assert (report.found, report.vector, report.norm_sq, report.bound) == (True, witness, 4, 8)


def test_certify_no_witness_reports_evidence():
    inst = FactoringInstance.build(33, 1)
    rel = build_relation_lattice(inst)
    report = certify_assumption(inst, 20, rel)
    members, outside, _ = census_reference(rel, 20**2)
    assert (report.found, report.vector, report.norm_sq, report.bound) == (False, None, None, 20)
    # short relations exist, all signed, and the whole ball is counted
    assert outside == [] and report.lattice_vectors == len(members) == 8


@pytest.mark.parametrize("N, bound", [(77, 17), (323, 33), (1147, 65)])
def test_witness_bound_is_exact_where_the_paper_radius_is_an_integer(N, bound):
    # sqrt(2) 2^{n/2} is the integer 2^{(n+1)/2} at d = 2 and odd n
    assert default_witness_bound(FactoringInstance.build(N, 2)) == bound


@given(n=st.integers(2, 400), d=st.integers(1, 40))
def test_witness_bound_is_the_least_t_with_t_to_the_2d_at_least_d_to_the_d_4_to_the_n(n, d):
    t = default_witness_bound(SimpleNamespace(n=n, d=d)) - 1
    assert t ** (2 * d) >= d**d * 4**n > (t - 1) ** (2 * d)


@functools.cache
def _lattice(N, d):
    return build_relation_lattice(FactoringInstance.build(N, d))


LATTICE_CASES = st.sampled_from([(221, 1), (35, 1), (77, 2), (1147, 2), (221, 3)])


def _radius_requirements(rel, T, m, safety, R):
    """select_radius's (a) and (b) at R, decided in integers."""
    d, k = rel.d, rel.d + m
    shift = d * d + rel.inst.n + d * safety  # (a): R^d > 2^shift T^d
    scaling = R**d * 2 ** max(0, -shift) > 2 ** max(0, shift) * T**d
    recovery = (72 * k * 2**k * (1 + 8 * m * d * d) * T * T * d) ** m * (4 * rel.det) ** 2 < R ** (2 * m)
    return scaling and recovery


@given(case=LATTICE_CASES, T=st.integers(1, 64), extra=st.integers(0, 8), safety=st.integers(-40, 40))
@example(case=(221, 1), T=12, extra=0, safety=4)
def test_select_radius_meets_both_requirements(case, T, extra, safety):
    # the least power of two R >= 2 that satisfies both strictly
    rel = _lattice(*case)
    m = rel.d + 4 + extra
    R = select_radius(rel.inst, rel, T, m, safety)
    assert R >= 2 and R & (R - 1) == 0
    assert _radius_requirements(rel, T, m, safety, R)
    assert R == 2 or not _radius_requirements(rel, T, m, safety, R // 2)


def test_select_radius_refuses_a_radius_of_2_to_the_1024_unbuilt():
    rel = _lattice(35, 1)
    with pytest.raises(ResourceLimitError, match="at least 2"):
        select_radius(rel.inst, rel, 2, 5, 10**12)


@given(case=LATTICE_CASES, T=st.integers(1, 64), extra=st.integers(0, 8), R=st.integers(2, 2**40))
def test_recovery_recheck_holds_is_the_exact_inequality(case, T, extra, R):
    rel = _lattice(*case)
    d = rel.d
    m = d + 4 + extra
    k = d + m
    params = GaussParams.choose(d, R)
    check = recovery_recheck(rel, params, T, m)
    # sqrt(k) 2^{k/2} T lift < (sqrt(2) R / sqrt(d)) (4 det)^{-1/m} / 6, squared
    # and raised to the m-th power, with lift^2 = 1 + m D^2 d / (2 R^2)
    lift_sq = 1 + Fraction(m * params.D**2 * d, 2 * R * R)
    exact = (k * 2**k * T * T * lift_sq * 36 * d) ** m * (4 * rel.det) ** 2 < Fraction(2 * R * R) ** m
    assert check["holds"] == exact
    if abs(check["lhs"] / check["rhs"] - 1) > 1e-9:  # the display floats agree off the boundary
        assert check["holds"] == (check["lhs"] < check["rhs"])


def test_success_rate_nondecreasing_when_radius_doubles():
    # deliberately undersized radii so the transition region is visible
    runs = 200
    rates = []
    for R in (16, 32):
        wins = 0
        for seed in range(runs):
            out = run_factoring(
                PipelineConfig(N=221, d=1, seed=seed, max_attempts=1, radius_override=R)
            )
            wins += out.status == FACTORED
        rates.append(wins / runs)
    assert rates[1] >= rates[0] - 0.05


# --- cost model ---------------------------------------------------------------


def test_term_table_direct_evaluation():
    report = estimate_gate_cost(256, 16, log2_D=24.0)
    # independent plug-in arithmetic
    assert report.terms["tree"] == 24 * 16 * 4.0**3
    assert report.terms["qft"] == 24 * 16 * math.log2(24)
    assert report.terms["square"] == 24 * 256 * 8
    assert report.terms["prep"] == 16 * 4.0**3
    assert report.total == pytest.approx(sum(report.terms.values()))
    assert report.shor_reference == 256**2 * 8


def test_d1_collapses_to_squaring_cost():
    report = estimate_gate_cost(1024, 1, log2_D=32.0)
    assert report.terms["tree"] == 0
    assert report.terms["prep"] == 0
    assert report.terms["square"] > 100 * report.terms["qft"]


def test_monotone_in_each_argument():
    base = estimate_gate_cost(1024, 32, log2_D=48.0).total
    assert estimate_gate_cost(2048, 32, log2_D=48.0).total > base
    assert estimate_gate_cost(1024, 64, log2_D=48.0).total > base
    assert estimate_gate_cost(1024, 32, log2_D=96.0).total > base


def test_doubling_n_scales_like_three_halves_power():
    totals = []
    for n in (1 << 10, 1 << 12):
        d = math.isqrt(n)
        totals.append(estimate_gate_cost(n, d).total)
    ratio = totals[1] / totals[0]  # n quadrupled: expect ~4^{3/2} = 8, log slack
    assert 8.0 <= ratio <= 8.0 * 1.5


def test_tradeoff_rows_shapes():
    rows = tradeoff_rows(4096, [0.0, 0.25, 0.5])
    assert [r.epsilon for r in rows] == [0.0, 0.25, 0.5]
    assert rows[0].d == 64
    assert rows[2].d == 4096
    # the eps = 1/2 row is nearly-linear in n: dominated by d-terms
    assert rows[2].terms["square"] < rows[2].terms["tree"]
    with pytest.raises(ParameterError):
        tradeoff_rows(4096, [0.7])
