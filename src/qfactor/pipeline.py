"""End-to-end factoring driver and the gate-cost estimator.

The driver certifies the short-witness assumption by enumeration, picks the
Gaussian radius from the certified witness norm so that the recovery
inequality holds with margin, acquires dual samples (classical oracle or
exact statevector), embeds them in the extended lattice, extracts short
generators, and turns any candidate outside the sign sublattice into a
factor.  Every intermediate object lands in a JSON-friendly transcript.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from math import isqrt

import numpy as np

from . import relattice
from .arith import (
    FactoringInstance,
    FactorFound,
    ParameterError,
    ResourceLimitError,
    precheck,
)
from .gauss import GaussParams, sample_Q_many
from .gauss import sample_Q  # not called here; kept bound for perfbench's tracer
from .latred import build_extended_lattice, recover_relation_vectors
from .qsim import (
    JointState,
    apply_exponentiation,
    branch_distribution,
    build_gaussian_state,
    outcome_cdf,
    sample_measurement,
)
from .qsim import qft_measure_distribution  # not called here; kept bound for perfbench's tracer
from .relattice import (
    DualStructure,
    RelationLattice,
    ball_census,
    build_relation_lattice,
    classify,
    dual_cosets,
    shortest_nontrivial_witness,  # not called here; kept bound for perfbench's tracer
)
from .arith import hom_image  # not called here; kept bound for perfbench's tracer

FACTORED = "factored"
ASSUMPTION_VIOLATED = "assumption_violated"
ATTEMPTS_EXHAUSTED = "attempts_exhausted"
REJECTED_PRIME = "rejected_prime"

MODES = ("oracle", "statevector")


@dataclass
class PipelineConfig:
    """Knobs of one factoring run.

    d defaults to ceil(sqrt(n)); m to d+4.  The radius is derived from the
    certified witness norm (see select_radius); radius_override pins it for
    experiments.  All randomness flows from `seed`.  The resource limits
    are module constants, not knobs: relattice.GROUP_CAP and ENUM_CAP,
    qsim.STATEVECTOR_GUARD and gauss.TABLE_CAP.
    """

    N: int
    d: int | None = None
    m: int | None = None
    mode: str = "oracle"
    seed: int = 0
    max_attempts: int = 50
    safety: int = 4
    radius_override: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}")
        if self.max_attempts < 0:
            raise ParameterError("max_attempts must be nonnegative")
        if self.radius_override is not None and self.radius_override < 1:
            raise ParameterError("radius_override must be positive")


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the exhaustive short-witness certification."""

    found: bool
    vector: tuple[int, ...] | None
    norm_sq: int | None
    bound: int
    lattice_vectors: int  # nonzero lattice vectors in the ball
    outside_sign: int  # of those, how many sit outside the sign sublattice
    fraction_outside: float | None


def certify_assumption(
    inst: FactoringInstance, T_bound, rel: RelationLattice | None = None
) -> WitnessReport:
    """Certify (by enumeration) that some short vector escapes the sign
    sublattice, and measure what fraction of short relation vectors do."""
    if rel is None:
        rel = build_relation_lattice(inst)
    census = ball_census(rel, T_bound)
    witness = census.witness
    members = len(census.rows)
    outside = len(census.outside)
    return WitnessReport(
        found=witness is not None,
        vector=witness,
        norm_sq=sum(x * x for x in witness) if witness else None,
        bound=int(T_bound),
        lattice_vectors=members,
        outside_sign=outside,
        fraction_outside=(outside / members) if members else None,
    )


def _ceil_sqrt(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1


def default_dimension(N: int) -> int:
    return max(1, _ceil_sqrt(N.bit_length()))


def default_witness_bound(inst: FactoringInstance) -> int:
    """Pigeonhole-scale radius sqrt(d) 2^{n/d}, clamped so that the box
    (2r+1)^d holds about ENUM_CAP points.  The clamp reads ENUM_CAP as a box
    volume; the cap itself counts the enumeration nodes of ball_census."""
    d = inst.d
    want = int(math.ceil(math.sqrt(d) * 2 ** (inst.n / d))) + 1
    r_cap = (int(round(relattice.ENUM_CAP ** (1.0 / d))) - 1) // 2
    return max(1, min(want, r_cap))


def select_radius(inst: FactoringInstance, rel: RelationLattice, T: int, m: int, safety: int) -> int:
    """Smallest power-of-two radius R satisfying both requirements.

    (a) the scaling relation R > 2^{d + n/d} T, with a 2^safety margin; and
    (b) twice the exact recovery inequality
        sqrt(k) 2^{k/2} T sqrt(1 + 8 m d^2) < (sqrt(2) R / sqrt(d)) (4 det)^{-1/m} / 6
    where k = d+m and sqrt(1 + 8 m d^2) is the worst-case lift factor of the
    S = D embedding over the whole selection window.
    """
    d, n = inst.d, inst.n
    k = d + m
    lift = math.sqrt(1 + 8 * m * d * d)
    try:
        base = 2.0 ** (d + n / d) * T * 2 ** safety
        need = (
            6.0
            * math.sqrt(k)
            * 2.0 ** (k / 2)
            * lift
            * T
            * math.sqrt(d / 2.0)
            * (4 * rel.det) ** (1.0 / m)
        )
        target = max(base, 2.0 * need, 2.0)
        return 1 << max(1, math.ceil(math.log2(target) - 1e-9))
    except OverflowError:
        raise ResourceLimitError(
            f"the radius for m = {m} and safety margin 2^{safety} overflows a float"
        ) from None


def recovery_recheck(rel: RelationLattice, params: GaussParams, T: int, m: int) -> dict:
    """Numeric check of the norm inequality actually used this run."""
    d = rel.d
    S = params.D
    delta = math.sqrt(d) * params.s
    lift = math.sqrt(1 + m * (S * delta) ** 2)
    k = d + m
    lhs = math.sqrt(k) * 2.0 ** (k / 2) * T * lift
    rhs = (1.0 / delta) * (4 * rel.det) ** (-1.0 / m) / 6.0
    return {"lhs": lhs, "rhs": rhs, "holds": lhs < rhs, "delta": delta, "lift": lift}


@dataclass
class FactoringOutcome:
    status: str
    factor: int | None
    attempts_used: int
    transcript: dict = field(repr=False)


def draw_samples(
    seed: int, attempt: int, m: int, params: GaussParams, dual: DualStructure,
    joint: JointState | None = None,
) -> list[dict]:
    """The m samples of one attempt, as transcript entries {"v", "w_indices"}.

    Sample i draws from its own stream SeedSequence(seed, spawn_key=(attempt, i)),
    so every sample reproduces on its own.  Without joint the classical
    oracle draws a dual coset v and a grid point around it, all m in one
    batch.  With joint, the statevector after exponentiation, the register
    is measured first (its value is never read after the transform, so
    this leaves the distribution of w as it is): the sample's first uniform
    picks a branch by its mass, its second a grid point from that branch's
    outcome row, and v is None.  Each distinct drawn branch is transformed
    once, in ascending order, and dropped before the next.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt, i)))
            for i in range(m)]
    if joint is None:
        return [{"v": [str(x) for x in v], "w_indices": list(samp.indices)}
                for v, samp in sample_Q_many(dual, params, rngs)]
    masses = joint.branch_masses()
    branches = [sample_measurement(masses, rng)[0] for rng in rngs]
    w = [None] * m
    for k in sorted(set(branches)):
        row = branch_distribution(joint, k)
        cdf = outcome_cdf(row)
        for i in range(m):
            if branches[i] == k:
                w[i] = sample_measurement(row, rngs[i], cdf)
        del row, cdf
    return [{"v": None, "w_indices": list(indices)} for indices in w]


@dataclass(frozen=True)
class Prepared:
    """What the attempts need once the classical preparation has run."""

    rel: RelationLattice
    dual: DualStructure
    params: GaussParams
    T: int
    R: int
    m: int
    transcript: dict = field(repr=False)


def prepare(config: PipelineConfig) -> Prepared | FactoringOutcome:
    """Precheck, instance, relation lattice, certified witness, radius and
    dual quotient, each written to the transcript.  A run that ends here (a
    prime, a factor found on the way, no witness) comes back as its outcome."""
    N = config.N
    transcript: dict = {"config": asdict(config)}

    pre = precheck(N)
    transcript["precheck"] = {"status": pre.status, "factor": pre.factor, "reason": pre.reason}
    if pre.status == "prime":
        return _finish(transcript, REJECTED_PRIME)
    if pre.status == "factor":
        return _finish(transcript, FACTORED, pre.factor)

    d = config.d if config.d is not None else default_dimension(N)
    try:
        inst = FactoringInstance.build(N, d)
    except FactorFound as hit:
        transcript["instance"] = {"short_circuit_factor": hit.factor, "where": hit.where}
        return _finish(transcript, FACTORED, hit.factor)
    transcript["instance"] = {"N": N, "n": inst.n, "d": d, "b": list(inst.b), "a": list(inst.a)}

    rel = build_relation_lattice(inst)
    transcript["lattice"] = {"basis": [list(v) for v in rel.basis], "det": rel.det}

    witness = certify_assumption(inst, default_witness_bound(inst), rel=rel)
    transcript["witness"] = {**asdict(witness), "vector": list(witness.vector) if witness.vector else None}
    if not witness.found:
        return _finish(transcript, ASSUMPTION_VIOLATED)

    m = config.m if config.m is not None else d + 4
    if m < d + 4:
        raise ParameterError("m must be at least d + 4")
    T = _ceil_sqrt(witness.norm_sq)
    R = config.radius_override
    if R is None:
        R = select_radius(inst, rel, T, m, config.safety)
    try:
        params = GaussParams.choose(d, float(R))
    except OverflowError:
        raise ResourceLimitError(f"radius R >= 2^{R.bit_length() - 1} overflows a float") from None
    transcript["parameters"] = {
        "T": T, "R": R, "D": params.D, "S": params.D, "m": m,
        "noise_width": params.s, "recheck": recovery_recheck(rel, params, T, m),
    }
    return Prepared(rel, dual_cosets(rel), params, T, R, m, transcript)


def _finish(transcript: dict, status: str, factor: int | None = None, attempts: int = 0) -> FactoringOutcome:
    N = transcript["config"]["N"]
    if factor is not None and not (1 < factor < N and N % factor == 0):
        raise AssertionError(f"claimed factor {factor} does not divide {N}")
    transcript["outcome"] = {"status": status, "factor": factor, "attempts_used": attempts}
    return FactoringOutcome(status=status, factor=factor, attempts_used=attempts, transcript=transcript)


def run_factoring(config: PipelineConfig) -> FactoringOutcome:
    """The full procedure; see the module docstring for the shape."""
    prep = prepare(config)
    if isinstance(prep, FactoringOutcome):
        return prep
    rel, params, transcript = prep.rel, prep.params, prep.transcript
    d, D = rel.d, params.D
    delta_sq = Fraction(d, 2 * prep.R * prep.R)
    joint = None
    if config.mode == "statevector":
        joint = apply_exponentiation(build_gaussian_state(params), rel)

    attempts = []
    transcript["attempts"] = attempts
    for attempt in range(config.max_attempts):
        record: dict = {"samples": draw_samples(config.seed, attempt, prep.m, params, prep.dual, joint),
                        "candidates": [], "factor": None}
        attempts.append(record)
        ext = build_extended_lattice(d, [s["w_indices"] for s in record["samples"]], D)
        for cand in recover_relation_vectors(ext, prep.T, delta_sq):
            entry = {"vector": list(cand), **classify(rel, cand)}
            record["candidates"].append(entry)
            g = entry["gcd"]
            if g is not None and 1 < g < config.N and record["factor"] is None:
                record["factor"] = g
        if record["factor"] is not None:
            return _finish(transcript, FACTORED, record["factor"], attempts=attempt + 1)
    return _finish(transcript, ATTEMPTS_EXHAUSTED, attempts=config.max_attempts)


# ---------------------------------------------------------------------------
# Gate-cost model


@dataclass(frozen=True)
class GateCostReport:
    n: int
    d: int
    log2_D: float
    epsilon: float | None
    terms: dict
    total: float
    shor_reference: float  # ~ n^2 log n, the labeled comparison point


def default_log2_D(n: int, d: int, C: float = 1.0, epsilon: float = 0.0) -> float:
    """log2 of the grid size for radius exp(C n^{1/2-eps}) at dimension d."""
    return 1.0 + 0.5 * math.log2(max(d, 1)) + C * n ** (0.5 - epsilon) * math.log2(math.e)


def estimate_gate_cost(
    n: int,
    d: int,
    log2_D: float | None = None,
    epsilon_qft: float | None = None,
    C: float = 1.0,
) -> GateCostReport:
    """Evaluate the circuit-size model term by term.

    Terms: subset product trees log2D * d * log2(d)^3; transform
    log2D * d * log2(log2 D) (or log2D * d * log2(log2 D / eps) when an
    explicit transform accuracy eps is supplied); accumulator squarings
    log2D * n * log2 n; state preparation d * log2(d)^3, taking degree 3
    for its poly(log d) factor.
    """
    if n < 2 or d < 1:
        raise ParameterError("need n >= 2 and d >= 1")
    if log2_D is None:
        log2_D = default_log2_D(n, d, C)
    if log2_D < 1:
        raise ParameterError("log2 of D must be at least 1")
    log_d = math.log2(d) if d > 1 else 0.0
    loglog_D = math.log2(max(log2_D, 1.0))
    if epsilon_qft is not None:
        if not 0 < epsilon_qft < 1:
            raise ParameterError("epsilon_qft must lie in (0, 1)")
        qft_inner = math.log2(max(log2_D / epsilon_qft, 2.0))
    else:
        qft_inner = loglog_D
    terms = {
        "tree": log2_D * d * log_d ** 3,
        "qft": log2_D * d * qft_inner,
        "square": log2_D * n * math.log2(n),
        "prep": d * log_d ** 3,
    }
    return GateCostReport(
        n=n,
        d=d,
        log2_D=log2_D,
        epsilon=None,
        terms=terms,
        total=sum(terms.values()),
        shor_reference=float(n) ** 2 * math.log2(n),
    )


def tradeoff_rows(n: int, epsilons, C: float = 1.0) -> list[GateCostReport]:
    """Cost rows along the dimension/radius tradeoff d = n^{1/2+eps}."""
    rows = []
    for eps in epsilons:
        if not 0 <= eps <= 0.5:
            raise ParameterError("epsilon must lie in [0, 1/2]")
        d = max(1, round(n ** (0.5 + eps)))
        row = estimate_gate_cost(n, d, log2_D=max(1.0, default_log2_D(n, d, C, epsilon=eps)))
        rows.append(replace(row, epsilon=eps))
    return rows
