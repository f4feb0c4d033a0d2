"""Exact statevector simulation of the measurement procedure at tiny sizes.

The register holds amplitudes over {0..D-1}^d in offset encoding (index i
stands for the integer i - D/2).  The pipeline is: Gaussian state over the
box, group-element register attached in superposition, per-axis Fourier
transform over Z_D, exact outcome distribution.  A wrapped variant of the
state (Gaussian mass folded modulo D) backs the truncation-error checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    ParameterError,
    ResourceLimitError,
    product_tree_exponentiation,  # not called here; kept bound for perfbench's tracer
)
from .gauss import GaussParams
from .relattice import RelationLattice

STATEVECTOR_GUARD = 1 << 22
BOX_GUARD = 1 << 24

# Gaussian weights beyond this many radii are below 2^-80 even after summing
# a desk-scale box, so enumeration can stop there.
_BOX_RADII = 4.5


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the offset-encoded box, plus the squared
    pre-normalization mass (sum of squared Gaussian weights)."""

    d: int
    D: int
    amplitudes: np.ndarray
    z1_squared: float

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class JointState:
    """State after the exponentiation register is attached.

    branches maps each group element e to the amplitude array of the grid
    states whose register holds e; the branches are globally normalized.
    """

    d: int
    D: int
    branches: dict[int, np.ndarray]

    def norm_sq(self) -> float:
        return float(sum(np.vdot(a, a).real for a in self.branches.values()))


def _axis_weights(D: int, R: float) -> np.ndarray:
    z = np.arange(D) - D // 2
    return np.exp(-math.pi * z.astype(float) ** 2 / (R * R))


def build_gaussian_state(params: GaussParams, guard: int = STATEVECTOR_GUARD) -> StateVector:
    """Gaussian state over the box {-D/2..D/2-1}^d, normalized."""
    d, D = params.d, params.D
    if D ** d > guard:
        raise ResourceLimitError(f"state size {D}^{d} exceeds the simulation guard")
    axis = _axis_weights(D, params.R)
    amps = axis
    for _ in range(d - 1):
        amps = np.multiply.outer(amps, axis)
    z1_sq = float((amps ** 2).sum())
    return StateVector(
        d=d, D=D, amplitudes=(amps / math.sqrt(z1_sq)).astype(complex), z1_squared=z1_sq
    )


def apply_exponentiation(
    state: StateVector, rel: RelationLattice, guard: int = STATEVECTOR_GUARD
) -> JointState:
    """Attach e = prod a_i^{index_i} mod N to every basis state.

    The exponent of each axis is the offset index itself (the value plus
    D/2), so exponents are nonnegative and bounded by D; amplitudes are
    untouched.  The whole grid of group elements comes from per-axis power
    tables (see _grid_group_elements); branches are keyed by e in the order
    the grid, read in index order, first reaches them.  Guarded by
    |image| * D^d against memory blowup.
    """
    d, D = state.d, state.D
    inst = rel.inst
    if inst.d != d:
        raise ParameterError("instance dimension does not match the state")
    if rel.det * D ** d > guard:
        raise ResourceLimitError("joint state would exceed the simulation guard")
    e = _grid_group_elements(inst.a, inst.N, D, 0).ravel()
    elements, first, which = np.unique(e, return_index=True, return_inverse=True)
    amps = state.amplitudes.ravel()
    branches: dict[int, np.ndarray] = {}
    for k in np.argsort(first):
        branch = np.zeros(amps.size, dtype=complex)
        cells = which == k
        branch[cells] = amps[cells]
        branches[int(elements[k])] = branch.reshape((D,) * d)
    return JointState(d=d, D=D, branches=branches)


def _qft_axes(arr: np.ndarray, D: int, d: int) -> np.ndarray:
    """Fourier transform over Z_D^d with kernel exp(+2 pi i <w, z> / D).

    Offset-encoded input: indices are first rolled to the computational
    (mod D) order, then transformed axis by axis.
    """
    phys = arr
    for axis in range(d):
        phys = np.roll(phys, D // 2, axis=axis)
    return np.fft.ifftn(phys) * D ** (d / 2)


def qft_measure_distribution(joint: JointState) -> np.ndarray:
    """Exact outcome distribution of the measurement after the transform.

    Each group-element branch is transformed separately and the squared
    magnitudes are summed (the register is discarded); entry [k_1..k_d]
    is the probability of outcome w = (k_1/D, ..., k_d/D).
    """
    d, D = joint.d, joint.D
    P = np.zeros((D,) * d)
    for branch in joint.branches.values():
        P += np.abs(_qft_axes(branch, D, d)) ** 2
    return P


def sample_measurement(P: np.ndarray, rng) -> tuple[int, ...]:
    """Draw one grid index tuple from an outcome distribution table."""
    flat = P.ravel()
    cdf = np.cumsum(flat)
    pos = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    pos = min(pos, flat.size - 1)
    return tuple(int(x) for x in np.unravel_index(pos, P.shape))


@dataclass(frozen=True)
class GapResult:
    gap: float  # l2 distance between the truncated and wrapped states
    z1: float
    z2: float
    ratio: float  # Z1 / Z2


def _grid_group_elements(a, N: int, size: int, lo: int) -> np.ndarray:
    """prod_i a_i^{lo + j_i} mod N for every j in {0..size-1}^d.

    Returns an array of shape (size,)^d: one power table per axis, multiplied
    mod N over the grid by outer products.  The entries are int64 when
    N < 2^31, so every product stays below 2^62, and Python ints (dtype
    object) otherwise.  A negative lo goes through the modular inverse.
    """
    dtype = np.int64 if N < 1 << 31 else object
    grid = np.ones((), dtype=dtype)
    for a_i in a:
        table = np.empty(size, dtype=dtype)
        cur = pow(a_i, lo, N)
        for j in range(size):
            table[j] = cur
            cur = cur * a_i % N
        grid = np.multiply.outer(grid, table) % N
    return grid


def phi1_phi2_gap(
    rel: RelationLattice, params: GaussParams, guard: int = STATEVECTOR_GUARD
) -> GapResult:
    """Exact gap between the box-truncated state and its mod-D wrapped twin.

    The wrapped state accumulates, per grid cell and group element, the
    Gaussian weight of every integer point congruent to the cell mod D;
    the truncated state keeps only the in-box representative.  Both are
    normalized and compared in l2.
    """
    inst = rel.inst
    d, D, R, N = params.d, params.D, params.R, inst.N
    if rel.det * D ** d > guard:
        raise ResourceLimitError("wrapped state would exceed the simulation guard")
    B = max(int(math.ceil(_BOX_RADII * R)) + 1, D // 2)
    if (2 * B + 1) ** d > BOX_GUARD:
        raise ResourceLimitError("enumeration box too large")
    ys = np.arange(-B, B + 1)
    grids = np.meshgrid(*([ys] * d), indexing="ij")
    flat = [g.ravel() for g in grids]
    norm_sq = sum(y.astype(float) ** 2 for y in flat)
    rho_vals = np.exp(-math.pi * norm_sq / (R * R))
    # group element per point; meshgrid's "ij" order is the grid's index order
    e_vals = _grid_group_elements(inst.a, N, 2 * B + 1, D // 2 - B).ravel()
    # cell index per point (offset encoding), and in-box mask
    cell = np.zeros(flat[0].size, dtype=np.int64)
    in_box = np.ones(flat[0].size, dtype=bool)
    for i in range(d):
        cell = cell * D + ((flat[i] + D // 2) % D)
        in_box &= (flat[i] >= -D // 2) & (flat[i] < D // 2)
    uniq, branch_idx = np.unique(e_vals, return_inverse=True)
    n_branch = uniq.size
    a2 = np.zeros(n_branch * D ** d)
    np.add.at(a2, branch_idx * D ** d + cell, rho_vals)
    a1 = np.zeros(n_branch * D ** d)
    np.add.at(a1, branch_idx[in_box] * D ** d + cell[in_box], rho_vals[in_box])
    z1 = math.sqrt(float((a1 ** 2).sum()))
    z2 = math.sqrt(float((a2 ** 2).sum()))
    gap = math.sqrt(float(((a1 / z1 - a2 / z2) ** 2).sum()))
    return GapResult(gap=gap, z1=z1, z2=z2, ratio=z1 / z2)
