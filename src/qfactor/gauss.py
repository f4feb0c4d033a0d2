"""Discrete Gaussian mathematics on the measurement grid.

The measurement procedure's output distribution is a uniform dual coset v
perturbed by Gaussian noise of width s = 1/(sqrt(2) R) and snapped to the
grid {0, 1/D, ..., (D-1)/D}^d.  Everything here evaluates those masses by
explicit wrap-around (theta) sums whose neglected tails stay below 2^-64.
The sampler draws each coordinate by inverse CDF over its window: the
2W+1 cells around the center, outside which the mass is below 2^-64, so
its cost and memory do not grow with D.  Windows are batched: window_cdf
takes an array of centers and evaluates all their theta sums as one
array, so the d coordinates of every draw of a batch (sample_Q_many)
share one call, and concentration_check
draws its trials in blocks of about THETA_BLOCK window cells, one
rng.random call per block, in the stream order of one trial at a time.
Dense D-cell tables exist only where every cell is needed, in qv_table
and q_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ParameterError, ResourceLimitError

TAIL_LOG2 = 64  # neglected wrap-around mass per table stays below 2^-64
TABLE_CAP = 1 << 22
GRID_CAP = 1 << 62  # window cells are int64 indices near the grid size
THETA_BLOCK = 1 << 12  # cells per block of the vectorized theta sum
# Widest noise s the theta sum accepts: it needs about 3.8 s shifts, and
# its scratch is (2K+1) * THETA_BLOCK floats, about 64 MB at this width.
WIDTH_CAP = 256.0
# exp(x) rounds to 0.0 for every x below -745.134, and the slow underflow
# path of np.exp is skipped by writing those zeros directly
EXP_ZERO = -746.0
# exp(-x) is a normal float for x <= 708.  A center midway between two cells
# is at the exponent pi R^2 / (2 D^2) from both, so below this every theta
# sum keeps a nonzero term and the masses normalize.
UNDERFLOW_EXP = 708


def theta_cutoff_for(s: float) -> int:
    """Shift radius K so dropping |k| > K terms loses < 2^-64 of the mass.

    A dropped term with |k| = K+1 sits at distance > K from the center, and
    exp(-pi t^2 / s^2) < 2^-64 once t > s sqrt(64 ln2 / pi); the +2 covers
    the within-cell offset and the geometric tail.
    """
    return int(math.ceil(s * math.sqrt(TAIL_LOG2 * math.log(2) / math.pi))) + 2


@dataclass(frozen=True)
class GaussParams:
    """Radius R, grid size D (a power of two), and dimension d.

    The tail regime (R >= sqrt(2d) and D >= 2 sqrt(d) R) is where the
    Gaussian tail bounds hold; it is queryable, and besides malformed values
    construction refuses only what cannot be evaluated, so that off-regime
    diagnostics stay possible: a noise width past WIDTH_CAP, and a radius so
    large against D (pi R^2 >= 2 UNDERFLOW_EXP D^2) that the masses between
    cells underflow.
    """

    R: float
    D: int
    d: int

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ParameterError("R must be positive and finite")
        if self.d < 1:
            raise ParameterError("d must be positive")
        if self.D < 2 or self.D & (self.D - 1):
            raise ParameterError("D must be a power of two >= 2")
        if self.s > WIDTH_CAP:
            raise ResourceLimitError(
                f"noise width {self.s:.3g} exceeds {WIDTH_CAP:g}; raise the radius R = {self.R:g}"
            )
        if Fraction(math.pi) * Fraction(self.R) ** 2 >= 2 * UNDERFLOW_EXP * self.D**2:
            raise ParameterError(
                f"radius R = {self.R:g} is too large for the grid D = {self.D}: the masses between"
                f" cells underflow; keep pi R^2 < {2 * UNDERFLOW_EXP} D^2"
            )

    @property
    def s(self) -> float:
        """Noise width of the output distribution."""
        return 1.0 / (math.sqrt(2.0) * self.R)

    @property
    def theta_cutoff(self) -> int:
        """Shift radius K of the theta sums at the width s."""
        return theta_cutoff_for(self.s)

    @property
    def window(self) -> int:
        """Sampling half-width W in cells: the theta cutoff of the width D*s
        measured in cells, so every cell more than W from the center's cell
        carries < 2^-64 of the mass, whatever D is."""
        return theta_cutoff_for(self.D * self.s)

    @property
    def in_tail_regime(self) -> bool:
        R_sq = Fraction(self.R) ** 2
        return R_sq >= 2 * self.d and self.D * self.D >= 4 * self.d * R_sq

    @classmethod
    def choose(cls, d: int, R: float) -> "GaussParams":
        """Smallest power-of-two D >= 2 with D^2 >= 4 d R^2, decided exactly
        with R read as a Fraction; then D < 4 sqrt(d) R unless D = 2.

        Raises ResourceLimitError when D would pass GRID_CAP."""
        R = Fraction(R)
        # D = 2^j needs den 4^j >= lo; by the bit lengths the least such j is this start or one above
        lo, den = 4 * d * R.numerator**2, R.denominator**2
        j = max(1, (lo.bit_length() - den.bit_length()) // 2)
        while den << 2 * j < lo:
            j += 1
        if j > GRID_CAP.bit_length() - 1:
            raise ResourceLimitError(f"grid size 2^{j} exceeds the cap 2^62; lower the radius")
        return cls(R=float(R), D=1 << j, d=d)


def theta_sum(x, cells, params: GaussParams) -> np.ndarray:
    """Unnormalized masses at cells/D of the width-s wrap-around Gaussian
    centered at x (already reduced mod 1): the theta sum over the shifts
    t = -K..K, added in that order.

    x is one center or an array of centers, and cells holds one row of
    cells per center (shape x.shape + (cells,)), the shape of the result.
    All shifts of a block of rows and cells are evaluated at once, as one
    (2K+1, rows, cells) array; reducing along the shift axis adds its
    slices one after another, so every cell's sum is the same float
    sequence as a loop over t.  Terms whose exponent is below EXP_ZERO are
    the 0.0 that exp would return.  Blocks bound the scratch memory to about
    (2K+1) * THETA_BLOCK floats.
    """
    s, K = params.s, params.theta_cutoff
    x = np.asarray(x, dtype=float)
    cells = np.asarray(cells)
    n = cells.shape[-1]
    total = np.empty(cells.shape)
    x, cells, out = x.reshape(-1, 1), cells.reshape(-1, n), total.reshape(-1, n)
    shifts = np.arange(-K, K + 1, dtype=float)[:, None, None]
    step = max(1, THETA_BLOCK // n)
    for r in range(0, len(x), step):
        rows = slice(r, r + step)
        for c in range(0, n, THETA_BLOCK):
            cols = slice(c, c + THETA_BLOCK)
            diff = x[rows] - cells[rows, cols] / params.D
            terms = diff + shifts  # then in place: exp(-pi ((diff + t) / s)^2)
            terms /= s
            terms **= 2
            terms *= -math.pi
            terms = np.exp(terms, out=np.zeros_like(terms), where=terms > EXP_ZERO)
            np.add.reduce(terms, axis=0, out=out[rows, cols])
    return total


def coordinate_masses(v_j: float, params: GaussParams) -> np.ndarray:
    """Normalized masses at k/D, k = 0..D-1, of the width-s wrap-around
    Gaussian centered at v_j (taken mod 1)."""
    total = theta_sum(float(v_j) % 1.0, np.arange(params.D), params)
    return total / total.sum()


def window_cdf(x, params: GaussParams) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF tables of coordinates centered at x (reduced mod 1).

    x is one center or an array of them; each center gets one row of cells
    and one of CDF values, so both results have shape x.shape + (cells,).
    A row lists the cells within W of the cell holding its center, clipped
    to the D cells of the grid when 2W+1 >= D, in ascending order mod D,
    also when the window wraps past 0; so the CDF matches the dense D-cell
    table's at every window cell and a uniform draw maps to the same cell.
    The masses are normalized over the window.  All rows come from one
    theta_sum call.
    """
    D, W = params.D, params.window
    x = np.asarray(x, dtype=float)
    c = (x * D).astype(np.int64)[..., None]
    cells = np.sort((c - W + np.arange(min(2 * W + 1, D))) % D, axis=-1)
    masses = theta_sum(x, cells, params)
    cdf = np.cumsum(masses / masses.sum(axis=-1, keepdims=True), axis=-1)
    cdf[..., -1] = 1.0
    return cells, cdf


def _window_draws(x: np.ndarray, u: np.ndarray, params: GaussParams) -> np.ndarray:
    """The cell each uniform u selects from the window of its center x (two
    arrays of one shape): searchsorted(cdf, u, side="right") row by row,
    taken as the count of CDF entries <= u."""
    cells, cdf = window_cdf(x.ravel(), params)
    picks = (cdf <= u.reshape(-1, 1)).sum(axis=1)
    return cells[np.arange(len(cells)), picks].reshape(x.shape)


def qv_table(v, params: GaussParams) -> np.ndarray:
    """Full d-dimensional mass table of the single-coset distribution.

    The product structure of the Gaussian makes this the outer product of
    the per-coordinate tables.
    """
    if params.D ** params.d > TABLE_CAP:
        raise ResourceLimitError("full mass table would exceed the cap")
    vv = tuple(v)
    if len(vv) != params.d:
        raise ParameterError("coset representative has wrong dimension")
    tables = [coordinate_masses(float(x), params) for x in vv]
    out = tables[0]
    for t in tables[1:]:
        out = np.multiply.outer(out, t)
    return out


def q_table(dual, params: GaussParams) -> np.ndarray:
    """Brute-force mixture table: average of the single-coset tables over
    every dual coset.  Only viable for tiny determinants and grids."""
    if dual.det * params.D ** params.d > TABLE_CAP:
        raise ResourceLimitError("mixture table would exceed the cap")
    out = np.zeros((params.D,) * params.d)
    count = 0
    for v in dual.all_cosets():
        out += qv_table(v, params)
        count += 1
    return out / count


def sample_Q_many(dual, params: GaussParams, rngs) -> list[tuple]:
    """One output sample per generator: a uniform dual coset v, then a draw
    around it.

    This is the classical oracle standing in for the measurement procedure.
    Each generator draws its coset, then one uniform per coordinate, which
    picks a cell by inverse CDF over that coordinate's window (outside mass
    below 2^-64, so time and memory per draw do not depend on D).  The
    windows of all the draws come from one window_cdf call.  Returns a list
    of (v, w) with v as exact Fractions and w the grid index tuple.
    """
    if dual.d != params.d:
        raise ParameterError("coset representative has wrong dimension")
    cosets = []
    u = np.empty((len(rngs), params.d))
    for row, rng in zip(u, rngs):
        cosets.append(dual.sample(rng))
        row[:] = rng.random(params.d)
    x = np.array([[float(v_j) % 1.0 for v_j in v] for v in cosets]).reshape(u.shape)
    indices = _window_draws(x, u, params).tolist()
    return [(v, tuple(w)) for v, w in zip(cosets, indices)]


def sample_Q(dual, params: GaussParams, rng):
    """One output sample, (v, w): the one-generator sample_Q_many."""
    return sample_Q_many(dual, params, [rng])[0]


def torus_distance(w, v):
    """Euclidean distance on the torus R^d / Z^d between the points of w and
    v along their last axis: a float for two points, an array for stacks.
    The squared coordinate distances are added in coordinate order."""
    delta = np.remainder(np.asarray(w, dtype=float) - np.asarray(v, dtype=float), 1.0)
    delta = np.minimum(delta, 1.0 - delta)
    total = np.zeros(delta.shape[:-1])
    for j in range(delta.shape[-1]):
        total += delta[..., j] * delta[..., j]
    return np.sqrt(total)


@dataclass(frozen=True)
class ConcentrationReport:
    trials: int
    failures: int
    failure_rate: float
    threshold: float  # sqrt(d) / (sqrt(2) R)
    reference_rate: float  # the 2^-d scale the tail bound talks about


def concentration_check(params: GaussParams, trials: int, rng) -> ConcentrationReport:
    """Measure how often a draw lands farther than sqrt(d)*s from its center,
    a fresh uniform torus point per trial.  The rate is reported next to
    the 2^-d reference scale, never asserted against an invented constant.

    Each trial consumes d center coordinates, then d uniforms, one per
    coordinate as in sample_Q_many.  Trials run in blocks of about
    THETA_BLOCK window cells, each drawn by one rng.random call, so memory
    does not grow with trials.
    """
    if trials < 1:
        raise ParameterError("trials must be positive")
    d = params.d
    threshold = math.sqrt(d) * params.s
    block = max(1, THETA_BLOCK // (d * min(params.D, 2 * params.window + 1)))
    failures = 0
    for start in range(0, trials, block):
        draw = rng.random((min(block, trials - start), 2 * d))
        center, u = draw[:, :d], draw[:, d:]
        w = _window_draws(center, u, params) / params.D
        failures += int((torus_distance(w, center) > threshold).sum())
    return ConcentrationReport(
        trials=trials,
        failures=failures,
        failure_rate=failures / trials,
        threshold=threshold,
        reference_rate=2.0 ** (-params.d),
    )
