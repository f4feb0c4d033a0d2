import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfactor.arith import FactoringInstance, ParameterError
from qfactor.gauss import (
    ConcentrationReport,
    GaussParams,
    _window_draws,
    concentration_check,
    coordinate_masses,
    q_table,
    qv_table,
    sample_Q,
    theta_sum,
    torus_distance,
    window_cdf,
)
from qfactor.relattice import build_relation_lattice, dual_cosets


def wrapped_gaussian_oracle(center, grid, s, shifts=12):
    """Independent theta evaluation with a generous fixed cutoff."""
    out = []
    for w in grid:
        out.append(
            sum(math.exp(-math.pi * ((center - w + k) / s) ** 2) for k in range(-shifts, shifts + 1))
        )
    total = sum(out)
    return [x / total for x in out]


def test_params_validation():
    with pytest.raises(ParameterError):
        GaussParams(R=4.0, D=12, d=1)  # not a power of two
    with pytest.raises(ParameterError):
        GaussParams(R=-1.0, D=8, d=1)
    p = GaussParams(R=4.0, D=8, d=1)
    assert p.in_tail_regime and p.D**2 < 16 * p.d * Fraction(p.R) ** 2
    loose = GaussParams(R=4.0, D=16, d=1)  # top of the selection window D < 4 sqrt(d) R
    assert loose.in_tail_regime and not loose.D**2 < 16 * loose.d * Fraction(loose.R) ** 2
    off = GaussParams(R=1.0, D=8, d=1)  # radius below sqrt(2d)
    assert not off.in_tail_regime
    # the regime's edges are exact: R^2 >= 2d and D^2 >= 4 d R^2
    assert GaussParams(R=2.0, D=8, d=2).in_tail_regime
    assert not GaussParams(R=math.nextafter(2.0, 0.0), D=8, d=2).in_tail_regime
    assert not GaussParams(R=math.nextafter(4.0, math.inf), D=8, d=1).in_tail_regime


@given(d=st.integers(1, 8), R=st.floats(0.01, 2.0**40) | st.integers(1, 2**40))
@example(d=1, R=4.0)  # D = 2 sqrt(d) R exactly
@example(d=4, R=2.0)
@example(d=3, R=4.62)
def test_choose_picks_the_power_of_two_window(d, R):
    # the least power of two D >= 2 with D^2 >= 4 d R^2
    p = GaussParams.choose(d, R)
    lo = 4 * d * Fraction(R) ** 2
    assert p.D & (p.D - 1) == 0
    assert p.D**2 >= lo and (p.D == 2 or (p.D // 2) ** 2 < lo)
    in_selection_window = p.in_tail_regime and p.D**2 < 16 * d * Fraction(R) ** 2
    assert in_selection_window == (Fraction(R) ** 2 >= 2 * d)  # then D^2 < 16 d R^2 as well


def test_theta_cutoff_tail_below_2_to_minus_64():
    # eight more shifts on each side change nothing at the 2^-64 scale
    def wide_masses(v, p):
        diff = v - np.arange(p.D) / p.D
        total = np.zeros(p.D)
        for t in range(-p.theta_cutoff - 8, p.theta_cutoff + 9):
            total += np.exp(-math.pi * ((diff + t) / p.s) ** 2)
        return total / total.sum()

    for R, d in [(2.0, 1), (4.0, 2), (8.0, 3), (64.0, 1)]:
        p = GaussParams.choose(d, R)
        for v in (0.0, 0.37, 0.5):
            base = coordinate_masses(v, p)
            assert float(np.abs(base - wide_masses(v, p)).max()) < 2.0**-64


def test_masses_match_direct_theta_oracle():
    p = GaussParams(R=4.0, D=8, d=1)
    grid = [k / 8 for k in range(8)]
    got = coordinate_masses(0.5, p)
    want = wrapped_gaussian_oracle(0.5, grid, p.s)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-300)


def test_theta_sum_equals_loop_over_shifts():
    # same float expression, added in the order t = -K..K: bit-identical,
    # across block edges and for cutoffs K above the 8-term unrolled sums
    def loop(x, cells, p):
        diff = x - cells / p.D
        total = np.zeros(len(cells))
        for t in range(-p.theta_cutoff, p.theta_cutoff + 1):
            total += np.exp(-math.pi * ((diff + t) / p.s) ** 2)
        return total

    for R, D in [(4.0, 8), (1.0, 2), (0.05, 4), (0.3, 64), (2.0**12, 2**14)]:
        p = GaussParams(R=R, D=D, d=1)
        for x in (0.0, 0.3, 1 - 1e-9, 1.0):
            for cells in (np.arange(D), np.arange(D)[D // 3 :], np.array([D - 1, 0, 1][: D])):
                assert np.array_equal(theta_sum(x, cells, p), loop(x, cells, p))


def test_masses_symmetric_around_zero_center():
    p = GaussParams(R=4.0, D=8, d=1)
    table = coordinate_masses(0.0, p)
    for k in range(1, 8):
        assert table[k] == pytest.approx(table[8 - k], rel=1e-12)


def test_mass_tables_normalize():
    for d, D, R in [(1, 8, 4.0), (2, 16, 4.0), (3, 8, 2.5)]:
        p = GaussParams(R=R, D=D, d=d)
        v = tuple(Fraction(1, 3) for _ in range(d))
        table = qv_table(v, p)
        assert abs(float(table.sum()) - 1.0) < 2.0**-50


def test_qv_table_factorizes_against_direct_sum():
    # full d-dimensional theta sum, no product shortcut
    p = GaussParams(R=2.5, D=8, d=2)
    v = (0.25, 0.625)
    table = qv_table(v, p)
    direct = np.zeros((8, 8))
    for i, j in itertools.product(range(8), repeat=2):
        w = (i / 8, j / 8)
        total = 0.0
        for k1 in range(-8, 9):
            for k2 in range(-8, 9):
                dx, dy = v[0] - w[0] + k1, v[1] - w[1] + k2
                total += math.exp(-math.pi * (dx * dx + dy * dy) / p.s**2)
        direct[i, j] = total
    direct /= direct.sum()
    assert np.allclose(table, direct, rtol=1e-12, atol=1e-300)


def test_sampler_frequencies_match_masses():
    p = GaussParams(R=4.0, D=8, d=1)
    table = coordinate_masses(0.5, p)
    draws = 100_000
    picks = _window_draws(np.full(draws, 0.5), np.random.default_rng(123).random(draws), p)
    counts = np.bincount(picks, minlength=8)
    for k in range(8):
        sigma = math.sqrt(table[k] * (1 - table[k]) * draws)
        assert abs(counts[k] - draws * table[k]) <= 3 * sigma + 3


def test_sampler_reproducible():
    p = GaussParams(R=4.0, D=16, d=2)
    a = _window_draws(np.array([0.1, 0.9]), np.random.default_rng(5).random(2), p)
    b = _window_draws(np.array([0.1, 0.9]), np.random.default_rng(5).random(2), p)
    assert np.array_equal(a, b)


def test_sample_Q_trivial_lattice_pins_coset():
    rel = build_relation_lattice(FactoringInstance.build(15, 1, b=(1,)))  # L = Z
    dual = dual_cosets(rel)
    p = GaussParams(R=4.0, D=8, d=1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        v, w = sample_Q(dual, p, rng)
        assert v == (Fraction(0),)
        # output hugs the lattice point: within one noise width of 0
        assert torus_distance([k / p.D for k in w], (0.0,)) <= 2 * p.s


def test_sample_Q_coset_frequencies():
    rel = build_relation_lattice(FactoringInstance.build(15, 1))  # L = 2Z
    dual = dual_cosets(rel)
    p = GaussParams(R=4.0, D=8, d=1)
    rng = np.random.default_rng(99)
    hits = {Fraction(0): 0, Fraction(1, 2): 0}
    draws = 10_000
    for _ in range(draws):
        v, _w = sample_Q(dual, p, rng)
        hits[v[0]] += 1
    sigma = math.sqrt(draws * 0.25)
    for count in hits.values():
        assert abs(count - draws / 2) <= 3 * sigma


def test_q_table_matches_direct_mixture():
    # mixture over both cosets of 2Z computed longhand
    rel = build_relation_lattice(FactoringInstance.build(15, 1))
    p = GaussParams(R=2.0, D=8, d=1)
    table = q_table(dual_cosets(rel), p)
    grid = [k / 8 for k in range(8)]
    direct = np.zeros(8)
    for v in (0.0, 0.5):
        direct += np.array(wrapped_gaussian_oracle(v, grid, p.s))
    direct /= 2
    assert np.allclose(table, direct, rtol=1e-12)


def test_torus_distance_shift_invariant():
    w = (0.1, 0.9)
    v = (0.85, 0.05)
    for t in (0.0, 0.25, 0.5, 0.75):
        shifted = torus_distance(tuple((x + t) % 1 for x in w), tuple((x + t) % 1 for x in v))
        assert shifted == pytest.approx(torus_distance(w, v), abs=1e-12)
    assert torus_distance((0.0,), (0.0,)) == 0.0
    assert torus_distance((0.95,), (0.05,)) == pytest.approx(0.1, abs=1e-12)


def test_concentration_rate_d4():
    p = GaussParams.choose(4, 8.0)
    rng = np.random.default_rng(42)
    rep = concentration_check(p, 10_000, rng)
    assert rep.failure_rate <= 0.25
    assert rep.reference_rate == 2.0**-4
    assert rep.threshold == pytest.approx(math.sqrt(4) / (math.sqrt(2) * 8.0))


def test_concentration_rate_improves_with_dimension():
    # the failure scale is 2^-d: measured rates should not grow with d
    rng = np.random.default_rng(17)
    rates = []
    for d in (1, 2, 4):
        rep = concentration_check(GaussParams.choose(d, 8.0), 3000, rng)
        rates.append(rep.failure_rate)
    assert rates[2] <= rates[0] + 0.02


# (d, R) at the selected grid, from the tiny whole-grid case to D = 2^17
WINDOW_CASES = [(1, 4.0), (1, 64.0), (2, 8.0), (2, 2.0**15), (3, 256.0), (4, 2.0**15)]


def window_centres(D):
    """Centres at 0, just below 1, exactly on a cell edge, with a window that
    wraps past 0 from either side, and two generic ones."""
    return [0.0, 1 - 1e-9, 5 / D, 2 / D + 0.3 / D, -1e-12 % 1.0, 1 / (3 * D), 0.4375 + 1 / (7 * D)]


def dense_cdf(x, p):
    """The reference: inverse-CDF table over the dense D-cell mass table."""
    cdf = np.cumsum(coordinate_masses(x, p))
    cdf[-1] = 1.0
    return cdf


@pytest.mark.parametrize("d,R", WINDOW_CASES)
def test_window_draws_match_dense_inverse_cdf(d, R):
    p = GaussParams.choose(d, R)
    u = np.random.default_rng(7).random(20_000)
    for x in window_centres(p.D):
        cells, cdf = window_cdf(x, p)
        got = cells[np.searchsorted(cdf, u, side="right")]
        want = np.searchsorted(dense_cdf(x, p), u, side="right")
        assert np.array_equal(got, want), (d, R, x)


def test_sample_Qv_matches_dense_sampler():
    # the seeded window sampler: one uniform per coordinate, in order
    for d, R in WINDOW_CASES:
        p = GaussParams.choose(d, R)
        centres = window_centres(p.D)
        cdfs = {x: dense_cdf(x, p) for x in centres}
        for i in range(150):
            v = tuple(centres[(i + j) % len(centres)] for j in range(d))
            got = _window_draws(np.array(v), np.random.default_rng(i).random(d), p).tolist()
            rng = np.random.default_rng(i)
            want = [int(np.searchsorted(cdfs[x], rng.random(), side="right")) for x in v]
            assert got == want, (d, R, v)


def test_window_masses_within_2_ulp_of_dense():
    # one ulp at 1, the scale the inverse CDF compares uniforms at
    ulp = np.finfo(float).eps
    for d, R in WINDOW_CASES:
        p = GaussParams.choose(d, R)
        for x in window_centres(p.D):
            cells, cdf = window_cdf(x, p)
            masses = theta_sum(x, cells, p)
            masses /= masses.sum()
            assert np.abs(masses - coordinate_masses(x, p)[cells]).max() <= 2 * ulp
            assert np.abs(cdf - dense_cdf(x, p)[cells]).max() <= 2 * ulp


@pytest.mark.parametrize("d,R,D", [*((d, R, GaussParams.choose(d, R).D) for d, R in WINDOW_CASES),
                                   (1, 4.0, 4096), (1, 2048.0, 256), (3, 2.5, 1024)])
def test_dense_mass_outside_window_below_2_to_minus_64(d, R, D):
    p = GaussParams(R=R, D=D, d=d)
    for x in window_centres(D):
        cells, _cdf = window_cdf(x, p)
        outside = coordinate_masses(x, p)
        outside[cells] = 0.0
        assert outside.sum() < 2.0**-64, x


@pytest.mark.parametrize("D,R,width", [(8, 10.75, 9), (8, 21.5, 7), (16, 7.25, 17), (16, 8.75, 15),
                                       (64, 5.75, 65), (64, 6.0, 63)])
def test_window_rows_match_dense_at_the_grid_width(D, R, width):
    # a window of 2W+1 = D+1 cells is clipped to the whole grid; one of D-1
    # cells leaves out the single cell opposite the center
    p = GaussParams(R=R, D=D, d=1)
    assert 2 * p.window + 1 == width
    ulp = np.finfo(float).eps
    u = np.random.default_rng(7).random(5000)
    for x in window_centres(D):
        cells, cdf = window_cdf(x, p)
        dense = dense_cdf(x, p)
        assert cells.dtype == np.int64 and len(cells) == min(width, D)
        assert np.all(np.diff(cells) > 0)
        assert np.abs(cdf - dense[cells]).max() <= 2 * ulp
        assert np.array_equal(cells[np.searchsorted(cdf, u, side="right")],
                              np.searchsorted(dense, u, side="right")), x
        if width > D:
            assert np.array_equal(cells, np.arange(D)) and np.array_equal(cdf, dense)


def test_window_is_the_whole_grid_on_tiny_grids():
    p = GaussParams(R=4.0, D=8, d=1)
    assert 2 * p.window + 1 >= p.D
    for x in (0.0, 0.3, 0.5, 1 - 1e-9):
        cells, cdf = window_cdf(x, p)
        assert np.array_equal(cells, np.arange(8))
        assert np.array_equal(cdf, dense_cdf(x, p))


def test_sample_Qv_memory_does_not_grow_with_D():
    p = GaussParams.choose(4, 2.0**21)
    assert p.D == 1 << 23
    tracemalloc.start()
    try:
        _window_draws(np.array([0.0, 0.25, 5 / p.D, 1 - 1e-9]), np.random.default_rng(1).random(4), p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def concentration_reference(params, trials, rng):
    """concentration_check as a per-trial loop: a center, one window and
    one uniform per coordinate, a scalar torus distance."""
    threshold = math.sqrt(params.d) * params.s
    failures = 0
    for _ in range(trials):
        center = tuple(rng.random(params.d))
        w = []
        for x in center:
            cells, cdf = window_cdf(float(x) % 1.0, params)
            w.append(int(cells[np.searchsorted(cdf, rng.random(), side="right")]) / params.D)
        total = 0.0
        for a, b in zip(w, center):
            delta = (a - float(b)) % 1.0
            delta = min(delta, 1.0 - delta)
            total += delta * delta
        failures += math.sqrt(total) > threshold
    return ConcentrationReport(
        trials=trials,
        failures=failures,
        failure_rate=failures / trials,
        threshold=threshold,
        reference_rate=2.0 ** (-params.d),
    )


# selected grids (windows of 17..33 cells), whole-grid windows, and a window
# wider than one theta block
CONCENTRATION_PARAMS = [
    *(GaussParams.choose(d, R) for d, R in [(1, 4.0), (2, 8.0), (3, 4.62), (4, 64.0)]),
    *(GaussParams(R=4.0, D=8, d=d) for d in (1, 2, 3, 4)),
    GaussParams(R=2.0, D=2**14, d=1),
]


@pytest.mark.parametrize("params", CONCENTRATION_PARAMS, ids=lambda p: f"d{p.d}-D{p.D}-R{p.R}")
def test_concentration_check_matches_per_trial_reference(params):
    # trial counts straddle the trial blocks
    for seed in range(5):
        trials = 3 if params.D == 2**14 else 120 + 121 * seed
        got = concentration_check(params, trials, np.random.default_rng(seed))
        want = concentration_reference(params, trials, np.random.default_rng(seed))
        assert got == want, seed


def test_window_cdf_rows_match_single_windows():
    for d, R in WINDOW_CASES:
        p = GaussParams.choose(d, R)
        centres = np.array(window_centres(p.D))
        cells, cdf = window_cdf(centres, p)
        assert cells.shape == cdf.shape and len(cells) == len(centres)
        for row, x in enumerate(centres):
            one_cells, one_cdf = window_cdf(float(x), p)
            assert np.array_equal(cells[row], one_cells) and np.array_equal(cdf[row], one_cdf)
        masses = theta_sum(centres, cells, p)
        for row, x in enumerate(centres):
            assert np.array_equal(masses[row], theta_sum(float(x), cells[row], p))


def test_sample_Qv_matches_one_window_per_coordinate():
    for d, R in WINDOW_CASES + [(3, 4.62)]:
        p = GaussParams.choose(d, R)
        for i in range(100):
            v = np.random.default_rng(1000 + i).random(d) * 3 - 1
            got = _window_draws(v % 1.0, np.random.default_rng(i).random(d), p).tolist()
            rng = np.random.default_rng(i)
            want = []
            for x in v:
                cells, cdf = window_cdf(float(x) % 1.0, p)
                want.append(int(cells[np.searchsorted(cdf, rng.random(), side="right")]))
            assert got == want, (d, R, v)


def test_torus_distance_rows_match_pairs():
    rng = np.random.default_rng(8)
    w, v = rng.random((50, 3)) * 4 - 2, rng.random((50, 3))
    rows = torus_distance(w, v)
    assert rows.shape == (50,)
    assert rows.tolist() == [torus_distance(a, b) for a, b in zip(w, v)]


def test_concentration_memory_does_not_grow_with_trials():
    p = GaussParams.choose(2, 1024.0)
    assert p.D == 1 << 12
    peaks = []
    for trials in (2_000, 200_000):
        tracemalloc.start()
        try:
            concentration_check(p, trials, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1 << 20
    assert peaks[1] <= peaks[0] * 1.25
