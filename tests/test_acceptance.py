"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see the full scoreboard.
"""

import math
import time

import numpy as np
import pytest

from qfactor.arith import FactoringInstance, OpCounter, product_tree_exponentiation
from qfactor.checks import (
    generation_suite,
    poisson_suite,
    separation_suite,
    short_cover_suite,
    tail_suite,
)
from qfactor.gauss import GaussParams, q_table
from qfactor.pipeline import (
    ASSUMPTION_VIOLATED,
    FACTORED,
    PipelineConfig,
    estimate_gate_cost,
    run_factoring,
    tradeoff_rows,
)
from qfactor.qsim import apply_exponentiation, build_gaussian_state, phi1_phi2_gap, qft_measure_distribution
from qfactor.relattice import build_relation_lattice, dual_cosets


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- shared grids -----------------------------------------------------------

ACCEPTANCE_MODULI = (15, 21, 33, 35, 77, 91, 143, 221)

# every config satisfies R >= sqrt(2d), D >= 2 sqrt(d) R, D^d <= 2^18
def tail_regime_grid():
    grid = []
    for d, radii in ((1, (math.sqrt(2), 4.0, 8.0, 16.0)),
                     (2, (2.0, 4.0, 8.0, 16.0)),
                     (3, (math.sqrt(6), 4.0, 6.5))):
        for R in radii:
            base = GaussParams.choose(d, R)
            for D in (base.D, base.D * 2):
                if D**d <= 2**18:
                    grid.append(GaussParams(R=R, D=D, d=d))
    return grid


def instance_for_dimension(d: int) -> FactoringInstance:
    return FactoringInstance.build(15 if d == 1 else 77, d)


# --- criteria ----------------------------------------------------------------


def test_end_to_end_factoring():
    started = time.perf_counter()
    per_modulus_factor = {N: False for N in ACCEPTANCE_MODULI}
    violations = []
    for N in ACCEPTANCE_MODULI:
        for d in (1, 2):
            out = run_factoring(PipelineConfig(N=N, d=d, m=d + 4, mode="oracle", seed=20260808))
            if out.status == FACTORED:
                ok = 1 < out.factor < N and N % out.factor == 0
                verdict(f"end_to_end[N={N},d={d}]", ok, f"factor {out.factor} in {out.attempts_used} attempts")
                per_modulus_factor[N] = per_modulus_factor[N] or ok
            elif out.status == ASSUMPTION_VIOLATED:
                # only legitimate when the enumeration truly found no witness
                report = out.transcript["witness"]
                verdict(
                    f"end_to_end[N={N},d={d}]",
                    report["found"] is False,
                    f"assumption violated with evidence (bound {report['bound']})",
                )
            else:
                violations.append((N, d, out.status))
    verdict("end_to_end_no_failures", not violations, str(violations))
    verdict("end_to_end_every_modulus_factored", all(per_modulus_factor.values()))
    elapsed = time.perf_counter() - started
    verdict("end_to_end_runtime_under_5min", elapsed < 300, f"{elapsed:.1f}s")


def test_gaussian_mass_window():
    for params in tail_regime_grid():
        state = build_gaussian_state(params)
        ref = (params.R / math.sqrt(2)) ** params.d
        slack = 2.0 * 2.0**-params.d
        ok = (1 - slack) * ref <= state.z1_squared <= (1 + slack) * ref
        verdict(
            f"mass_window[d={params.d},D={params.D},R={params.R:.3f}]",
            ok,
            f"Z1^2/ref = {state.z1_squared / ref:.12f}",
        )


def test_truncation_gap_window():
    for params in tail_regime_grid():
        rel = build_relation_lattice(instance_for_dimension(params.d))
        res = phi1_phi2_gap(rel, params)
        ok = res.gap <= 2.0 * 2.0**-params.d and abs(res.ratio - 1.0) <= 2.0**-params.d
        verdict(
            f"gap_window[d={params.d},D={params.D},R={params.R:.3f}]",
            ok,
            f"gap {res.gap:.3e}, ratio {res.ratio:.9f}",
        )


# l1(P, Q) ceilings recorded at first implementation; the last three share the
# grid-to-noise ratio D / (sqrt(d) R) = 2 sqrt(2) for the monotonicity check
L1_REGRESSION = [
    (15, 1, 16, 4.0, 3.5e-06),
    (77, 1, 16, 16 / (2 * math.sqrt(2)), 1.5e-05),
    (77, 2, 32, 32 / (2 * math.sqrt(2) * math.sqrt(2)), 2.5e-06),
    (77, 3, 32, 32 / (2 * math.sqrt(2) * math.sqrt(3)), 1.0e-08),
]


def test_qft_output_regression():
    measured = {}
    for N, d, D, R, ceiling in L1_REGRESSION:
        rel = build_relation_lattice(FactoringInstance.build(N, d))
        params = GaussParams(R=R, D=D, d=d)
        joint = apply_exponentiation(build_gaussian_state(params), rel)
        P = qft_measure_distribution(joint)
        Q = q_table(dual_cosets(rel), params)
        l1 = float(np.abs(P - Q).sum())
        measured[(N, d)] = l1
        verdict(f"qft_output_l1[N={N},d={d},D={D}]", l1 <= ceiling, f"{l1:.3e} <= {ceiling:.1e}")
    fixed_ratio = [measured[(77, 1)], measured[(77, 2)], measured[(77, 3)]]
    monotone = all(a > b for a, b in zip(fixed_ratio, fixed_ratio[1:]))
    verdict("qft_output_l1_monotone_in_d", monotone, str([f"{x:.2e}" for x in fixed_ratio]))


def test_separation_frequency():
    result = separation_suite(trials=2000, seed=424242)
    lo = min(c["frequency"] for c in result["cases"])
    verdict("dual_separation_frequency", result["passed"], f"min freq {lo:.3f} vs 0.25 at 99%")


def test_generation_frequency():
    result = generation_suite(trials=2000, seed=424242)
    lo = min(c["frequency"] for c in result["cases"])
    verdict("random_generation_frequency", result["passed"], f"min freq {lo:.3f} vs 0.5 at 99%")


def test_short_generator_cover():
    result = short_cover_suite(n_lattices=100, seed=424242)
    verdict(
        "short_generator_cover",
        result["passed"],
        f"{result['vectors_checked']} vectors across {result['lattices']} lattices",
    )


def naive_modpow_product(a, z, N):
    r = 1
    for ai, zi in zip(a, z):
        r = r * pow(ai, zi, N) % N
    return r


def test_exponentiation_schedule():
    rng = np.random.default_rng(31337)
    moduli = [143, 221, 323, 391, 899, 1147]
    mismatches = 0
    bad_counts = 0
    for _ in range(1000):
        N = int(rng.choice(moduli))
        d = int(rng.integers(1, 5))
        inst = FactoringInstance.build(N, d)
        D = 1 << int(rng.integers(1, 10))
        z = tuple(int(rng.integers(0, D)) for _ in range(d))
        counter = OpCounter()
        got = product_tree_exponentiation(inst, z, D, counter)
        if got != naive_modpow_product(inst.a, z, N):
            mismatches += 1
        if counter.squarings_nbit != (D - 1).bit_length():
            bad_counts += 1
    verdict("exponentiation_matches_naive_1000", mismatches == 0, f"{mismatches} mismatches")
    verdict("exponentiation_squaring_count", bad_counts == 0, f"{bad_counts} bad counts")


def test_tail_and_summation_identities():
    tail = tail_suite()
    verdict("gaussian_tail_2_to_minus_d", tail["passed"], f"{len(tail['cases'])} cases")
    poisson = poisson_suite()
    worst = max(c["error"] for c in poisson["cases"])
    verdict("summation_identity_2_to_minus_40", poisson["passed"], f"max error {worst:.2e}")


def test_cost_estimator_scaling():
    main_ratios = []
    eps_ratios = []
    for k in range(8, 17):
        n = 1 << k
        d = max(1, math.isqrt(n - 1) + 1)
        main_ratios.append(estimate_gate_cost(n, d).total / (n**1.5 * math.log2(n)))
        row = tradeoff_rows(n, [0.5])[0]
        eps_ratios.append(row.total / (n * math.log2(n) ** 3))
    span_main = max(main_ratios) / min(main_ratios)
    span_eps = max(eps_ratios) / min(eps_ratios)
    verdict("cost_main_specialization_factor4", span_main <= 4.0, f"span {span_main:.2f}")
    verdict("cost_eps_half_nearly_linear_factor4", span_eps <= 4.0, f"span {span_eps:.2f}")
