"""Exact statevector simulation of the measurement procedure at tiny sizes.

The register holds amplitudes over {0..D-1}^d in offset encoding (index i
stands for the integer i - D/2).  The pipeline is: Gaussian state over the
box, group-element register attached in superposition, per-axis Fourier
transform over Z_D, exact outcome distribution.  The joint state is kept
compact (the amplitudes plus one group-element label per grid cell), and
the transform expands the branches a block at a time into one reused
buffer, so no dense array per group element is ever built.  A wrapped
variant of the state (Gaussian mass folded modulo D) backs the
truncation-error checks.
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

# Complex cells (16 bytes each) in the Fourier buffer: 8 MB, several
# branches per transform call at desk-scale grids.  numpy plans every
# transform call afresh, so fewer calls save time; a bounded buffer keeps
# peak memory well below one dense array per branch.
_BLOCK_CELLS = 1 << 19


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
    """State after the exponentiation register is attached, kept compact.

    amplitudes are the grid state's own (globally normalized) amplitudes,
    which the attachment leaves untouched.  elements lists the group
    elements in the order the grid, read in index order, first reaches them,
    and labels[idx] is the position in elements of the element the register
    holds at grid cell idx.  Branch k, the grid state entangled with
    register value elements[k], is the amplitudes where labels == k and 0
    elsewhere.
    """

    d: int
    D: int
    amplitudes: np.ndarray
    elements: tuple[int, ...]
    labels: np.ndarray

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _axis_weights(D: int, R: float) -> np.ndarray:
    z = np.arange(D) - D // 2
    return np.exp(-math.pi * z.astype(float) ** 2 / (R * R))


def build_gaussian_state(params: GaussParams) -> StateVector:
    """Gaussian state over the box {-D/2..D/2-1}^d, normalized."""
    d, D = params.d, params.D
    if D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError(f"state size {D}^{d} exceeds the simulation guard {STATEVECTOR_GUARD}")
    axis = _axis_weights(D, params.R)
    amps = axis
    for _ in range(d - 1):
        amps = np.multiply.outer(amps, axis)
    z1_sq = float((amps ** 2).sum())
    return StateVector(
        d=d, D=D, amplitudes=(amps / math.sqrt(z1_sq)).astype(complex), z1_squared=z1_sq
    )


def apply_exponentiation(state: StateVector, rel: RelationLattice) -> JointState:
    """Attach e = prod a_i^{index_i} mod N to every basis state.

    The exponent of each axis is the offset index itself (the value plus
    D/2), so exponents are nonnegative and bounded by D; amplitudes are
    untouched.  The whole grid of group elements comes from per-axis power
    tables (see _grid_group_elements), and each cell gets the label of its
    element in first-appearance order.  Guarded by |image| * D^d against
    memory blowup.
    """
    d, D = state.d, state.D
    inst = rel.inst
    if inst.d != d:
        raise ParameterError("instance dimension does not match the state")
    if rel.det * D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError("joint state would exceed the simulation guard")
    e = _grid_group_elements(inst.a, inst.N, D, 0).ravel()
    elements, first, which = np.unique(e, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return JointState(
        d=d,
        D=D,
        amplitudes=state.amplitudes,
        elements=tuple(int(x) for x in elements[order]),
        labels=rank[which].reshape((D,) * d),
    )


def qft_measure_distribution(joint: JointState) -> np.ndarray:
    """Exact outcome distribution of the measurement after the transform.

    Each group-element branch is transformed separately and the squared
    magnitudes are summed in branch order (the register is discarded);
    entry [k_1..k_d] is the probability of outcome w = (k_1/D, ..., k_d/D).
    The transform over Z_D^d has kernel exp(+2 pi i <w, z> / D).

    Branches go through in blocks of rows of one reused buffer: each block
    is scattered in computational (mod D) order, transformed by one ifftn
    over its grid axes and scaled in place.
    """
    d, D = joint.d, joint.D
    cells = D ** d
    amps, labels = joint.amplitudes, joint.labels
    for axis in range(d):
        amps = np.roll(amps, D // 2, axis=axis)
        labels = np.roll(labels, D // 2, axis=axis)
    amps, labels = amps.ravel(), labels.ravel()
    n = len(joint.elements)
    rows = max(1, min(n, _BLOCK_CELLS // cells))
    buf = np.empty((rows, cells), dtype=complex)
    mag = np.empty(cells)
    P = np.zeros(cells)
    scale = D ** (d / 2)
    for k0 in range(0, n, rows):
        k1 = min(k0 + rows, n)
        block = buf[: k1 - k0]
        block.fill(0)
        sel = np.flatnonzero((labels >= k0) & (labels < k1))
        block.reshape(-1)[(labels[sel] - k0) * cells + sel] = amps[sel]
        grid = block.reshape((k1 - k0,) + (D,) * d)
        np.fft.ifftn(grid, axes=range(1, d + 1), out=grid)
        block *= scale
        for row in block:
            np.abs(row, out=mag)
            np.square(mag, out=mag)
            P += mag
    return P.reshape((D,) * d)


def outcome_cdf(P: np.ndarray) -> np.ndarray:
    """The cumulative sums of an outcome table in flat (C) order."""
    return np.cumsum(P.ravel())


def sample_measurement(P: np.ndarray, rng, cdf: np.ndarray | None = None) -> tuple[int, ...]:
    """Draw one grid index tuple from an outcome distribution table; cdf,
    outcome_cdf(P), may be passed in when P is drawn from repeatedly."""
    if cdf is None:
        cdf = outcome_cdf(P)
    pos = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    pos = min(pos, cdf.size - 1)
    return tuple(int(x) for x in np.unravel_index(pos, P.shape))


@dataclass(frozen=True)
class GapResult:
    gap: float  # l2 distance between the truncated and wrapped states
    z1: float
    z2: float
    ratio: float  # Z1 / Z2


def _grid_group_elements(a, N: int, size: int, lo: int) -> np.ndarray:
    """prod_i a_i^{lo + j_i} mod N for every j in {0..size-1}^d.

    Returns an array of shape (size,)^d: one power table per axis, built by
    repeated doubling and multiplied mod N over the grid by outer products.
    The entries are int64 when N < 2^31, so every product stays below 2^62,
    and Python ints (dtype object) otherwise.  A negative lo goes through the
    modular inverse.
    """
    dtype = np.int64 if N < 1 << 31 else object
    grid = np.ones((), dtype=dtype)
    for a_i in a:
        table = np.empty(size, dtype=dtype)
        table[0] = pow(a_i, lo, N)
        filled = 1
        while filled < size:  # doubling: a^(lo+f+j) = a^(lo+j) * a^f
            step = min(filled, size - filled)
            table[filled : filled + step] = table[:step] * pow(a_i, filled, N) % N
            filled += step
        grid = np.multiply.outer(grid, table) % N
    return grid


def phi1_phi2_gap(rel: RelationLattice, params: GaussParams) -> GapResult:
    """Exact gap between the box-truncated state and its mod-D wrapped twin.

    The wrapped state accumulates, per grid cell and group element, the
    Gaussian weight of every integer point congruent to the cell mod D;
    the truncated state keeps only the in-box representative.  Both are
    normalized and compared in l2.
    """
    inst = rel.inst
    d, D, R, N = params.d, params.D, params.R, inst.N
    if rel.det * D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError("wrapped state would exceed the simulation guard")
    try:
        B = max(int(math.ceil(_BOX_RADII * R)) + 1, D // 2)
    except OverflowError:
        raise ResourceLimitError(f"enumeration box radius overflows a float at R = {R:g}") from None
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
    size = n_branch * D ** d
    # bincount adds the weights in input order, as a per-point loop would
    a2 = np.bincount(branch_idx * D ** d + cell, weights=rho_vals, minlength=size)
    a1 = np.bincount(branch_idx[in_box] * D ** d + cell[in_box], weights=rho_vals[in_box], minlength=size)
    z1 = math.sqrt(float((a1 ** 2).sum()))
    z2 = math.sqrt(float((a2 ** 2).sum()))
    gap = math.sqrt(float(((a1 / z1 - a2 / z2) ** 2).sum()))
    return GapResult(gap=gap, z1=z1, z2=z2, ratio=z1 / z2)
