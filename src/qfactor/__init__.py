"""Desk-scale lab for multidimensional quantum-period factoring.

Exact statevector simulation at tiny sizes, a classical sampling oracle for
the measurement distribution at moderate sizes, lattice post-processing
that factors small integers end to end, and executable checks for every
tail bound and frequency guarantee the construction rests on.
"""

from .arith import (
    FactoringInstance,
    FactorFound,
    OpCounter,
    ParameterError,
    Precheck,
    ResourceLimitError,
    nth_primes,
    precheck,
    product_tree_exponentiation,
)
from .gauss import ConcentrationReport, GaussParams, concentration_check, sample_Q
from .latred import (
    ExtendedLattice,
    LatticeBasis,
    build_extended_lattice,
    enumerate_lattice_vectors,
    extract_short_generators,
    lll_reduce,
    recover_relation_vectors,
)
from .pipeline import (
    FactoringOutcome,
    GateCostReport,
    PipelineConfig,
    WitnessReport,
    certify_assumption,
    estimate_gate_cost,
    run_factoring,
    tradeoff_rows,
)
from .qsim import (
    JointState,
    StateVector,
    apply_exponentiation,
    build_gaussian_state,
    phi1_phi2_gap,
    qft_measure_distribution,
)
from .relattice import (
    DualStructure,
    RelationLattice,
    build_relation_lattice,
    dual_cosets,
    shortest_nontrivial_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ConcentrationReport",
    "DualStructure",
    "ExtendedLattice",
    "FactorFound",
    "FactoringInstance",
    "FactoringOutcome",
    "GateCostReport",
    "GaussParams",
    "JointState",
    "LatticeBasis",
    "OpCounter",
    "ParameterError",
    "PipelineConfig",
    "Precheck",
    "RelationLattice",
    "ResourceLimitError",
    "StateVector",
    "WitnessReport",
    "apply_exponentiation",
    "build_extended_lattice",
    "build_gaussian_state",
    "build_relation_lattice",
    "certify_assumption",
    "concentration_check",
    "dual_cosets",
    "enumerate_lattice_vectors",
    "estimate_gate_cost",
    "extract_short_generators",
    "lll_reduce",
    "nth_primes",
    "phi1_phi2_gap",
    "precheck",
    "product_tree_exponentiation",
    "qft_measure_distribution",
    "recover_relation_vectors",
    "run_factoring",
    "sample_Q",
    "shortest_nontrivial_witness",
    "tradeoff_rows",
]
