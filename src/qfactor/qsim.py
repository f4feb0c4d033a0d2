"""Exact statevector simulation of the measurement procedure at tiny sizes.

The register holds amplitudes over {0..D-1}^d in offset encoding (index i
stands for the integer i - D/2).  The pipeline is: Gaussian state over the
box, group-element register attached in superposition (the elements of
the whole grid from one arith.power_grid call), per-axis Fourier transform
over Z_D, exact outcome distribution.  The joint state is kept compact:
the real amplitudes (the Gaussian state has no phase) and one small
unsigned group-element label per grid cell, which is the whole branch
partition.  The transform takes one branch at a time (branch_distribution
copies it out of the labels into one complex grid and transforms that in
place), so no more than one dense branch is ever held; the full outcome
table is the sum of the branch rows.
A reader that only draws from the table can measure the register first
and transform just the branches its draws land on; sampling_row gives
each such row from a real-input transform, half the complex one's work
and buffers, equal to branch_distribution's to a few ulps.  The outcome
table keeps the complex rows, since its floats go into reports; a draw's
integers move only if its uniform lands that close to a CDF edge.  A
wrapped variant of the state (Gaussian mass folded modulo D) backs the
truncation-error checks; it too is built a block of branches at a time,
and its sums follow numpy's own pairwise order, so they equal those over
the whole branches x D^d arrays bit for bit without ever holding them.
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
from .relattice import RelationLattice

STATEVECTOR_GUARD = 1 << 22
BOX_GUARD = 1 << 24

# Gaussian weights beyond this many radii are below 2^-80 even after summing
# a desk-scale box, so enumeration can stop there.
_BOX_RADII = 4.5

# The truncation gap builds its bins in blocks of about LEAF and sums them
# in leaves of at most LEAF values (see _pairwise_sums); numpy reduces spans
# of up to 128 values in one unrolled block, so a leaf must be no shorter.
LEAF = 1 << 13

# apply_exponentiation labels the grid at most this many cells at a time.
_CHUNK = 1 << 16


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
    elements in the order the grid, read in index order, first reaches them,
    and labels[idx], of the smallest unsigned dtype that holds every
    position, is the position in elements of the element the register
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


def apply_exponentiation(state: StateVector, rel: RelationLattice) -> JointState:
    """Attach e = prod a_i^{index_i} mod N to every basis state.

    The exponent of each axis is the offset index itself (the value plus
    D/2), so exponents are nonnegative and bounded by D; amplitudes are
    untouched.  The whole grid of group elements is one arith.power_grid
    call over the box {0..D-1}^d, labelled in index order a chunk of at
    most _CHUNK cells at a time: each chunk is looked up among the elements
    met so far, kept sorted beside their ranks, and the elements it is the
    first to reach are ranked next, in the order of their first cells.
    Guarded by |image| * D^d against memory blowup.
    """
    d, D = state.d, state.D
    inst = rel.inst
    if inst.d != d:
        raise ParameterError("instance dimension does not match the state")
    if rel.det * D ** d > STATEVECTOR_GUARD:
        raise ResourceLimitError("joint state would exceed the simulation guard")
    e = power_grid(inst.a, inst.N, (D,) * d).ravel()
    labels = np.empty(e.size, dtype=np.min_scalar_type(rel.det - 1))
    met, ranks = e[:1], np.zeros(1, dtype=np.intp)  # sorted, and each one's rank
    elements = [int(e[0])]
    start, size = 0, 256  # chunks double up to _CHUNK, so the first sort is short
    while start < e.size:
        chunk = e[start:start + size]
        at = np.searchsorted(met, chunk)
        new = np.take(met, at, mode="clip") != chunk
        if new.any():
            fresh, first = np.unique(chunk[new], return_index=True)
            fresh = fresh[np.argsort(first)]  # by first appearance
            ranks = np.concatenate((ranks, np.arange(len(elements), len(elements) + fresh.size)))
            elements += [int(x) for x in fresh]
            met = np.concatenate((met, fresh))
            order = np.argsort(met)
            met, ranks = met[order], ranks[order]
            at = np.searchsorted(met, chunk)
        labels[start:start + size] = ranks[at]
        start, size = start + size, min(2 * size, _CHUNK)
    return JointState(
        d=d,
        D=D,
        amplitudes=state.amplitudes,
        elements=tuple(elements),
        labels=labels.astype(np.min_scalar_type(len(elements) - 1), copy=False).reshape((D,) * d),
    )


def _rolled_branch(joint: JointState, k: int, dtype) -> np.ndarray:
    """Branch k, the amplitudes where labels == k and 0 elsewhere, rolled
    by D/2 into computational (mod D) order in a fresh grid of dtype.
    Rolling by D/2 swaps the halves of every axis, so the branch is copied
    block by block, each of the 2^d blocks into the block across from it."""
    d, D = joint.d, joint.D
    halves = (slice(0, D // 2), slice(D // 2, D))
    grid = np.zeros((D,) * d, dtype=dtype)
    for sides in itertools.product((0, 1), repeat=d):
        src = tuple(halves[s] for s in sides)
        dst = tuple(halves[1 - s] for s in sides)
        np.copyto(grid[dst], joint.amplitudes[src], where=joint.labels[src] == k)
    return grid


def branch_distribution(joint: JointState, k: int) -> np.ndarray:
    """Branch k's squared-magnitude outcome row |F(branch_k)|^2.

    The rolled branch is copied straight into one complex grid, transformed
    there by ifftn and scaled by D^(d/2); entry [k_1..k_d] is the
    probability of outcome w = (k_1/D, ..., k_d/D) jointly with register
    value elements[k].  The transform over Z_D^d has kernel
    exp(+2 pi i <w, z> / D).
    """
    d, D = joint.d, joint.D
    grid = _rolled_branch(joint, k, complex)
    np.fft.ifftn(grid, out=grid)
    grid *= D ** (d / 2)
    mag = np.abs(grid)
    return np.square(mag, out=mag)


def sampling_row(joint: JointState, k: int) -> np.ndarray:
    """Branch k's outcome row for drawing from, from a real-input transform.

    The amplitudes are real, so the spectrum X = rfftn(branch) of the rolled
    branch is Hermitian, X[-w] = conj(X[w]), and branch_distribution's row
    is |X[w]|^2 / D^d (the kernel's sign does not change a magnitude).
    rfftn gives the cells w_d = 0..D/2 of the last axis; each cell past
    D/2 is a copy of the cell at -w mod D, whose last index D - w_d lies in
    1..D/2-1 (on every other axis 0 stays and 1..D-1 reverse).  The row
    equals branch_distribution's to within a few ulps of its largest entry,
    not bit for bit, so it serves draws, whose integers go into reports,
    and not the outcome table, whose floats do.  A real grid and the half
    spectrum are held together, then the spectrum and the row: two grids
    of float64 where the complex transform holds three.
    """
    d, D = joint.d, joint.D
    grid = _rolled_branch(joint, k, float)
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


def _pairwise_sums(pieces, n: int) -> list[float]:
    """np.add.reduce of each of some float64 arrays of length n, bit for
    bit, from the arrays streamed in consecutive pieces.

    pieces yields tuples of equally long 1-d arrays, one per array summed.
    numpy adds a float64 array pairwise: a span of more than 128 values is
    split at half its length, rounded down to a multiple of 8, and the sums
    of the two halves are added.  This walks the same tree and hands every
    node of at most LEAF values to np.add.reduce, which sums that span by
    the node's own subtree, so no more than one leaf is held beyond the
    current piece.
    """
    pieces = iter(pieces)
    held, at = (), 0  # the piece being read, and the position in it

    def take(k: int) -> list[np.ndarray]:
        nonlocal held, at
        parts = []
        while k:
            if not held or at == held[0].size:
                held, at = next(pieces), 0
            step = min(k, held[0].size - at)
            parts.append([a[at:at + step] for a in held])
            at, k = at + step, k - step
        return parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]

    return [float(x) for x in _pairwise_node(take, n)]


def _pairwise_node(take, k: int) -> list:
    """The sums of the next k values of _pairwise_sums's arrays."""
    if k <= LEAF:
        return [np.add.reduce(a) for a in take(k)]
    half = k // 2 - k // 2 % 8
    return [x + y for x, y in zip(_pairwise_node(take, half), _pairwise_node(take, k - half))]


def phi1_phi2_gap(rel: RelationLattice, params: GaussParams) -> GapResult:
    """Exact gap between the box-truncated state and its mod-D wrapped twin.

    The wrapped state accumulates, per grid cell and group element, the
    Gaussian weight of every integer point congruent to the cell mod D;
    the truncated state keeps only the in-box representative.  Both are
    normalized and compared in l2.

    Both states are branch-major arrays of (elements met) x D^d bins, a
    bincount of the box points in box order.  They are never whole: the
    points are grouped by branch with one stable sort, which keeps each
    bin's points in box order, and the bins are built a block of whole
    branch rows (about LEAF bins, at least one row) at a time, twice:
    once for the two masses and once, normalized, for the gap.  Each cell
    has exactly one in-box point, so the truncated bins are a scatter.
    _pairwise_sums adds the blocks up in numpy's order over the whole
    array, so every float is the one the dense arrays would give.
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
    ordered = np.sort(e_vals)
    uniq = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    branch_idx = np.searchsorted(uniq, e_vals)
    del e_vals
    cells = D ** d
    starts = np.concatenate(([0], np.cumsum(np.bincount(branch_idx, minlength=uniq.size))))
    order = np.argsort(branch_idx.astype(np.min_scalar_type(uniq.size - 1)), kind="stable")
    # each point's branch-major bin, then every array grouped by branch
    branch_idx *= cells
    branch_idx += cell.ravel()
    del cell
    bins = branch_idx[order]
    del branch_idx
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

    def squares():
        for a1, a2 in blocks():
            yield np.square(a1, out=a1), np.square(a2, out=a2)

    def gap_terms():
        for a1, a2 in blocks():
            diff = np.subtract(np.divide(a1, z1, out=a1), np.divide(a2, z2, out=a2), out=a1)
            yield (np.square(diff, out=diff),)

    size = uniq.size * cells
    z1, z2 = (math.sqrt(x) for x in _pairwise_sums(squares(), size))
    (gap_sq,) = _pairwise_sums(gap_terms(), size)
    return GapResult(gap=math.sqrt(gap_sq), z1=z1, z2=z2, ratio=z1 / z2)
