"""Exact statevector simulation of the measurement procedure at tiny sizes.

The register holds amplitudes over {0..D-1}^d in offset encoding (index i
stands for the integer i - D/2).  The pipeline is: Gaussian state over the
box, group-element register attached in superposition, per-axis Fourier
transform over Z_D, exact outcome distribution.  The joint state is kept
compact: the amplitudes, one group-element label per grid cell, and each
branch's cells as one slice of a single index array.  The transform takes
one branch at a time (branch_distribution), so no more than one dense
branch is ever held; the full outcome table is the sum of the branch rows.
A reader that only draws from the table can measure the register first
and transform just the branches its draws land on.  A wrapped variant of
the state (Gaussian mass folded modulo D) backs the truncation-error
checks.
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
    """State after the exponentiation register is attached, kept compact.

    amplitudes are the grid state's own (globally normalized) amplitudes,
    which the attachment leaves untouched.  elements lists the group
    elements in the order the grid, read in index order, first reaches them,
    and labels[idx] is the position in elements of the element the register
    holds at grid cell idx.  Branch k, the grid state entangled with
    register value elements[k], is the amplitudes where labels == k and 0
    elsewhere.  Its cells, as flat indices in computational order (each
    axis rolled by D/2, as the transform reads them), are
    cells[spans[k, 0]:spans[k, 1]], in ascending order.
    """

    d: int
    D: int
    amplitudes: np.ndarray
    elements: tuple[int, ...]
    labels: np.ndarray
    cells: np.ndarray
    spans: np.ndarray

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def branch_masses(self) -> np.ndarray:
        """The squared norm of each branch, sum |amp|^2 over its cells: the
        probability of each register value, were the register measured."""
        return np.bincount(self.labels.ravel(), weights=np.abs(self.amplitudes.ravel()) ** 2,
                           minlength=len(self.elements))


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
    element in first-appearance order.  One stable sort of the grid, read
    in computational order, groups the cells of each element into one run:
    the runs are the branches' cell slices, and the least offset index in
    a run orders the elements.  Guarded by |image| * D^d against memory
    blowup.
    """
    d, D = state.d, state.D
    inst = rel.inst
    if inst.d != d:
        raise ParameterError("instance dimension does not match the state")
    if rel.det * D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError("joint state would exceed the simulation guard")
    e = _grid_group_elements(inst.a, inst.N, D, 0)
    offset = np.arange(D ** d).reshape(e.shape)  # the offset index of each cell
    for axis in range(d):
        e = np.roll(e, D // 2, axis=axis)
        offset = np.roll(offset, D // 2, axis=axis)
    e, offset = e.ravel(), offset.ravel()
    # numpy's stable sort takes integers of at most 16 bits by radix
    cells = np.argsort(e.astype(np.uint16) if inst.N <= 1 << 16 else e, kind="stable")
    grouped = e[cells]
    starts = np.flatnonzero(_run_starts(grouped))
    stops = np.append(starts[1:], e.size)
    offset = offset[cells]
    order = np.argsort(np.minimum.reduceat(offset, starts))  # runs by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = np.empty(e.size, dtype=np.intp)
    labels[offset] = np.repeat(rank, stops - starts)
    return JointState(
        d=d,
        D=D,
        amplitudes=state.amplitudes,
        elements=tuple(int(x) for x in grouped[starts[order]]),
        labels=labels.reshape((D,) * d),
        cells=cells,
        spans=np.stack([starts[order], stops[order]], axis=1),
    )


def branch_distribution(joint: JointState, k: int) -> np.ndarray:
    """Branch k's squared-magnitude outcome row |F(branch_k)|^2.

    The branch is scattered in computational (mod D) order into an
    otherwise zero grid, transformed by ifftn and scaled by D^(d/2); entry
    [k_1..k_d] is the probability of outcome w = (k_1/D, ..., k_d/D)
    jointly with register value elements[k].  The transform over Z_D^d has
    kernel exp(+2 pi i <w, z> / D).
    """
    d, D = joint.d, joint.D
    amps = joint.amplitudes
    for axis in range(d):
        amps = np.roll(amps, D // 2, axis=axis)
    take = joint.cells[joint.spans[k, 0]:joint.spans[k, 1]]
    row = np.zeros(D ** d, dtype=complex)
    row[take] = amps.ravel()[take]
    grid = row.reshape((D,) * d)
    np.fft.ifftn(grid, out=grid)
    row *= D ** (d / 2)
    mag = np.abs(row)
    return np.square(mag, out=mag).reshape((D,) * d)


def qft_measure_distribution(joint: JointState) -> np.ndarray:
    """Exact outcome distribution of the measurement after the transform.

    The register is discarded, so the table is the sum of the branch rows
    of branch_distribution, added in branch order; entry [k_1..k_d] is the
    probability of outcome w = (k_1/D, ..., k_d/D).
    """
    P = np.zeros((joint.D,) * joint.d)
    for k in range(len(joint.elements)):
        P += branch_distribution(joint, k)
    return P


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


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the positions of a sorted array where a new value begins."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


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
    ordered = np.sort(e_vals)
    uniq = ordered[_run_starts(ordered)]
    branch_idx = np.searchsorted(uniq, e_vals)
    size = uniq.size * D ** d
    # bincount adds the weights in input order, as a per-point loop would
    a2 = np.bincount(branch_idx * D ** d + cell, weights=rho_vals, minlength=size)
    a1 = np.bincount(branch_idx[in_box] * D ** d + cell[in_box], weights=rho_vals[in_box], minlength=size)
    sq = np.square(a1)
    z1 = math.sqrt(float(sq.sum()))
    z2 = math.sqrt(float(np.square(a2, out=sq).sum()))
    diff = np.subtract(np.divide(a1, z1, out=a1), np.divide(a2, z2, out=a2), out=a1)
    gap = math.sqrt(float(np.square(diff, out=diff).sum()))
    return GapResult(gap=gap, z1=z1, z2=z2, ratio=z1 / z2)
