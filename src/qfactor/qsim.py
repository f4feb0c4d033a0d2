"""Exact statevector simulation of the measurement procedure at tiny sizes.

The register holds amplitudes over {0..D-1}^d in offset encoding (index i
stands for the integer i - D/2).  The pipeline is: Gaussian state over the
box, group-element register attached in superposition (the elements of
the whole grid from one arith.power_grid call), per-axis Fourier transform
over Z_D, exact outcome distribution.  The register ranges over the
subgroup <a_1..a_d>, listed once (relattice.subgroup_elements), and every
group element is looked up in that listing: the branches are the elements
met, ascending.  The joint state is kept compact: the real amplitudes (the
Gaussian state has no phase) and one small unsigned branch label per grid
cell, which is the whole branch partition.  The transform takes one branch
at a time (branch_distribution copies it out of the labels into one real
grid and takes a real-input transform of it), so no more than one dense
branch is ever held; the full outcome table is the sum of the branch rows,
and a reader that only draws from the table can measure the register first
and transform just the branches its draws land on.  A wrapped variant of
the state (Gaussian mass folded modulo D) backs the truncation-error
checks; it too is built a block of branches at a time, and its sums add
the blocks' own sums.
"""

from __future__ import annotations

import itertools
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
from .relattice import RelationLattice, subgroup_elements

STATEVECTOR_GUARD = 1 << 22
BOX_GUARD = 1 << 24

# Gaussian weights beyond this many radii are below 2^-80 even after summing
# a desk-scale box, so enumeration can stop there.
_BOX_RADII = 4.5

# The subgroup lookup, branch_masses' cell sums and the truncation gap's
# bins go in blocks of about LEAF values.
LEAF = 1 << 13


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the offset-encoded box, real (float64)
    since the Gaussian state has no phase, plus the squared
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
    elements the grid reaches, ascending, and labels[idx], of the smallest
    unsigned dtype that holds every position, is the position in elements
    of the element the register holds at grid cell idx.  Branch k, the grid
    state entangled with register value elements[k], is the amplitudes
    where labels == k and 0 elsewhere.
    """

    d: int
    D: int
    amplitudes: np.ndarray
    elements: tuple[int, ...]
    labels: np.ndarray

    def branch_masses(self) -> np.ndarray:
        """The squared norm of each branch, sum |amp|^2 over its cells: the
        probability of each register value, were the register measured.
        The cells are added in index order, LEAF at a time, which is
        np.bincount's order, so the masses equal its bit for bit without
        its full-grid intp labels and squares."""
        masses = np.zeros(len(self.elements))
        labels, amps = self.labels.ravel(), self.amplitudes.ravel()
        for start in range(0, labels.size, LEAF):
            np.add.at(masses, labels[start:start + LEAF], np.square(amps[start:start + LEAF]))
        return masses


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
    amps /= math.sqrt(z1_sq)  # a fresh array: the axis table or an outer product
    return StateVector(d=d, D=D, amplitudes=amps, z1_squared=z1_sq)


def _rank_in_listing(listing: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elements of the ascending listing that values meet, ascending,
    and each value's rank among them, in the smallest unsigned dtype that
    holds every rank.  values is looked up, and its positions in the
    listing turned into ranks in place, LEAF at a time, so no second array
    of its size is made; a value missing from the listing is an internal
    error."""
    met = np.zeros(listing.size, dtype=bool)
    at = np.empty(values.size, dtype=np.min_scalar_type(listing.size - 1))
    for start in range(0, values.size, LEAF):
        block = values[start:start + LEAF]
        pos = np.searchsorted(listing, block)
        if not np.array_equal(np.take(listing, pos, mode="clip"), block):
            raise AssertionError("group element missing from the subgroup listing")
        at[start:start + LEAF] = pos
        met[pos] = True
    ranks = (np.cumsum(met) - 1).astype(at.dtype)  # read only where met
    for start in range(0, values.size, LEAF):
        np.take(ranks, at[start:start + LEAF], out=at[start:start + LEAF])
    elements = listing[met]
    return elements, at.astype(np.min_scalar_type(elements.size - 1), copy=False)


def apply_exponentiation(state: StateVector, rel: RelationLattice) -> JointState:
    """Attach e = prod a_i^{index_i} mod N to every basis state.

    The exponent of each axis is the offset index itself (the value plus
    D/2), so exponents are nonnegative and bounded by D; amplitudes are
    untouched.  The whole grid of group elements is one arith.power_grid
    call over the box {0..D-1}^d, and each cell is labelled by its element's
    rank among the subgroup's elements the grid meets.  Guarded by
    |image| * D^d against memory blowup.
    """
    d, D = state.d, state.D
    inst = rel.inst
    if inst.d != d:
        raise ParameterError("instance dimension does not match the state")
    if rel.det * D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError("joint state would exceed the simulation guard")
    e = power_grid(inst.a, inst.N, (D,) * d).ravel()
    elements, labels = _rank_in_listing(subgroup_elements(rel), e)
    return JointState(d=d, D=D, amplitudes=state.amplitudes,
                      elements=tuple(int(x) for x in elements), labels=labels.reshape((D,) * d))


def branch_distribution(joint: JointState, k: int) -> np.ndarray:
    """Branch k's squared-magnitude outcome row |F(branch_k)|^2.

    Entry [k_1..k_d] is the probability of outcome w = (k_1/D, ..., k_d/D)
    jointly with register value elements[k], where F is the unitary
    transform over Z_D^d; the sign of its kernel does not change a
    magnitude.  The branch is transformed where it lies, in index order:
    read modulo D, that is the branch shifted by D/2 along every axis,
    which multiplies each entry of the spectrum by a phase and so leaves
    the row as it is.  The amplitudes are real, so the spectrum
    X = rfftn(branch) is Hermitian, X[-w] = conj(X[w]), and the row is
    |X[w]|^2 / D^d.  rfftn gives the cells w_d = 0..D/2 of the last axis;
    each cell past D/2 is a copy of the cell at -w mod D, whose last index
    D - w_d lies in 1..D/2-1 (on every other axis 0 stays and 1..D-1
    reverse).  A real grid and the half spectrum are held together, then
    the spectrum and the row.
    """
    d, D = joint.d, joint.D
    grid = np.zeros((D,) * d)
    np.copyto(grid, joint.amplitudes, where=joint.labels == k)
    spectrum = np.empty((D,) * (d - 1) + (D // 2 + 1,), dtype=complex)
    np.fft.rfftn(grid, out=spectrum)  # without out, rfftn allocates a spectrum per axis
    del grid
    row = np.empty((D,) * d)
    half = np.abs(spectrum, out=row[..., :D // 2 + 1])
    del spectrum
    np.square(half, out=half)
    half /= D ** d
    same, negated = (slice(0, 1), slice(1, None)), (slice(0, 1), slice(None, 0, -1))
    for sides in itertools.product((0, 1), repeat=d - 1):
        dst = tuple(same[s] for s in sides) + (slice(D // 2 + 1, None),)
        src = tuple(negated[s] for s in sides) + (slice(D // 2 - 1, 0, -1),)
        row[dst] = row[src]
    return row


def qft_measure_distribution(joint: JointState) -> np.ndarray:
    """Exact outcome distribution of the measurement after the transform.

    The register is discarded, so the table is the sum of the branch rows
    of branch_distribution, the rows draws use, added in branch order;
    entry [k_1..k_d] is the probability of outcome w = (k_1/D, ..., k_d/D).
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

    Both states are branch-major arrays of (elements met, ascending) x D^d
    bins, a bincount of the box points in box order, each point's element
    (one arith.power_grid) looked up in the subgroup's listing.  They are
    never whole: the points are grouped by branch with one stable sort,
    which keeps each bin's points in box order, and the bins are built a
    block of whole branch rows (about LEAF bins, at least one row) at a
    time, twice: once for the two masses and once, normalized, for the
    gap.  Each cell has exactly one in-box point, so the truncated bins are
    a scatter.  Each block is summed by numpy (pairwise) and the block sums
    by math.fsum, which rounds once, so a sum is as accurate as the dense
    array's and within a few ulps of it.
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
    # each box array is dropped once read, which keeps about four alive
    rho_vals = np.multiply(-math.pi, norm_sq.ravel())  # exp(-pi |y|^2 / R^2), in place
    del norm_sq
    rho_vals /= R * R
    np.exp(rho_vals, out=rho_vals)
    e_vals = power_grid(inst.a, N, (2 * B + 1,) * d, D // 2 - B).ravel()
    uniq, branch = _rank_in_listing(subgroup_elements(rel), e_vals)
    del e_vals
    cells = D ** d
    starts = np.concatenate(([0], np.cumsum(np.bincount(branch, minlength=uniq.size))))
    order = np.argsort(branch, kind="stable")
    # each point's branch-major bin, then every array grouped by branch
    bins = np.multiply(branch, cells, dtype=np.intp)
    del branch
    bins += cell.ravel()
    del cell
    bins = bins[order]
    rho_vals, in_box = rho_vals[order], in_box.ravel()[order]
    del order
    per_block = max(1, LEAF // cells)

    def blocks():
        """(truncated, wrapped) bins of each block of branch rows, in order."""
        for first in range(0, uniq.size, per_block):
            last = min(first + per_block, uniq.size)
            lo, hi = starts[first], starts[last]
            at, w, inside = bins[lo:hi] - first * cells, rho_vals[lo:hi], in_box[lo:hi]
            a2 = np.bincount(at, weights=w, minlength=(last - first) * cells)
            a1 = np.zeros_like(a2)
            a1[at[inside]] = w[inside]
            yield a1, a2

    sq1, sq2 = [], []
    for a1, a2 in blocks():
        sq1.append(np.square(a1, out=a1).sum())
        sq2.append(np.square(a2, out=a2).sum())
    z1, z2 = math.sqrt(math.fsum(sq1)), math.sqrt(math.fsum(sq2))
    gap_sq = []
    for a1, a2 in blocks():
        diff = np.subtract(np.divide(a1, z1, out=a1), np.divide(a2, z2, out=a2), out=a1)
        gap_sq.append(np.square(diff, out=diff).sum())
    return GapResult(gap=math.sqrt(math.fsum(gap_sq)), z1=z1, z2=z2, ratio=z1 / z2)
