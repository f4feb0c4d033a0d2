"""Exact statevector simulation of the measurement procedure at tiny sizes.

The register holds amplitudes over {0..D-1}^d in offset encoding (index i
stands for the integer i - D/2).  The pipeline is: Gaussian state over the
box, group-element register attached in superposition (the elements of
the whole grid from one arith.power_grid call), per-axis Fourier transform
over Z_D, exact outcome distribution.  The joint state is kept compact:
the amplitudes and one group-element label per grid cell, which is the
whole branch partition.  The transform takes one branch at a time
(branch_distribution, which masks it out of the labels), so no more than
one dense branch is ever held; the full outcome table is the sum of the
branch rows.
A reader that only draws from the table can measure the register first
and transform just the branches its draws land on.  A wrapped variant of
the state (Gaussian mass folded modulo D) backs the truncation-error
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    ParameterError,
    ResourceLimitError,
    power_grid,
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
    untouched.  The whole grid of group elements is one arith.power_grid
    call over the box {0..D-1}^d, and one np.unique over it, in index
    order, gives each element's first cell and each cell's element: the
    first cells order the elements, and each cell is labelled with the rank
    of its element.  Guarded by |image| * D^d against memory blowup.
    """
    d, D = state.d, state.D
    inst = rel.inst
    if inst.d != d:
        raise ParameterError("instance dimension does not match the state")
    if rel.det * D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError("joint state would exceed the simulation guard")
    e = power_grid(inst.a, inst.N, (D,) * d).ravel()
    # first indices make np.unique sort stably, which numpy does by radix on
    # integers of at most 16 bits
    keys = e.astype(np.uint16) if inst.N <= 1 << 16 else e
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # elements by first appearance
    rank = np.argsort(order)  # the inverse permutation
    return JointState(
        d=d,
        D=D,
        amplitudes=state.amplitudes,
        elements=tuple(int(x) for x in e[first[order]]),
        labels=rank[inverse].reshape((D,) * d),
    )


def branch_distribution(joint: JointState, k: int) -> np.ndarray:
    """Branch k's squared-magnitude outcome row |F(branch_k)|^2.

    The branch, the amplitudes where labels == k and 0 elsewhere, is rolled
    into computational (mod D) order, transformed by ifftn and scaled by
    D^(d/2); entry [k_1..k_d] is the probability of outcome
    w = (k_1/D, ..., k_d/D) jointly with register value elements[k].  The
    transform over Z_D^d has kernel exp(+2 pi i <w, z> / D).
    """
    d, D = joint.d, joint.D
    grid = np.where(joint.labels == k, joint.amplitudes, 0)
    for axis in range(d):
        grid = np.roll(grid, D // 2, axis=axis)
    np.fft.ifftn(grid, out=grid)
    grid *= D ** (d / 2)
    mag = np.abs(grid)
    return np.square(mag, out=mag)


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
    B = max(math.ceil(Fraction(_BOX_RADII) * Fraction(R)) + 1, D // 2)
    if (2 * B + 1) ** d > BOX_GUARD:
        raise ResourceLimitError("enumeration box too large")
    # squared norm, cell index (offset encoding) and in-box flag of each
    # point, combined axis by axis over the box in C order, the grid's order
    ys = np.arange(-B, B + 1)
    axis_sq = ys.astype(float) ** 2
    axis_cell = (ys + D // 2) % D
    axis_in = (ys >= -D // 2) & (ys < D // 2)
    norm_sq, cell, in_box = axis_sq, axis_cell, axis_in
    for _ in range(d - 1):
        norm_sq = np.add.outer(norm_sq, axis_sq)
        cell = np.add.outer(cell * D, axis_cell)
        in_box = np.logical_and.outer(in_box, axis_in)
    norm_sq, cell, in_box = norm_sq.ravel(), cell.ravel(), in_box.ravel()
    rho_vals = np.exp(-math.pi * norm_sq / (R * R))
    e_vals = power_grid(inst.a, N, (2 * B + 1,) * d, D // 2 - B).ravel()
    ordered = np.sort(e_vals)
    uniq = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
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
