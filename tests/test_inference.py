"""Exclusion aggregation: bin updates, rescan products, windows, files."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from haloscan import inference
from haloscan.errors import ConfigError, DataError
from haloscan.inference import (
    default_g_grid,
    exclusion_coupling,
    exclusion_curve,
    read_exclusion_result,
    run_exclusion,
    subaggregate_windows,
    write_exclusion_result,
)
from haloscan.pipeline import GrandSpectrum, included

DB = 100.0


def make_grand(n=1000, rf_start=4.1e9, **overrides):
    if "x" in overrides:
        n = len(overrides["x"])
    fields = dict(
        rf_start_hz=rf_start,
        bin_width_hz=DB,
        x=np.zeros(n),
        eta_sens=np.full(n, 0.8),
        n_contrib=np.full(n, 4, dtype=np.int64),
        support=np.ones(n),
        valid=np.ones(n, dtype=bool),
        metadata={},
    )
    fields.update(overrides)
    return GrandSpectrum(**fields)


def closed_form_g_star(eta, target):
    # exp(-(g^2 eta)^2 / 2) = target inverted for g
    return (2.0 * math.log(1.0 / target)) ** 0.25 / math.sqrt(eta)


def log_prior_update(x, mu_a):
    """ln u for excess x and expected signal mu_a; linear in x by design."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu_a, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mu))):
        raise ConfigError("prior update needs finite inputs")
    return mu * x - 0.5 * mu**2


def prior_update(x, mu_a):
    return np.exp(log_prior_update(x, mu_a))


def combine_updates(initial, rescans=()):
    """Elementwise product of aligned update arrays.

    Rescan arrays must be full length with 1.0 at bins they did not
    cover, so uncovered bins keep the initial update.
    """
    out = np.array(initial, dtype=float, copy=True)
    for rescan in rescans:
        rescan = np.asarray(rescan, dtype=float)
        if rescan.shape != out.shape:
            raise DataError("rescan update array not aligned with initial scan")
        out *= rescan
    return out


def aggregate(updates):
    """Mean update over bins, via log-sum-exp for dynamic range."""
    updates = np.asarray(updates, dtype=float)
    if updates.size == 0:
        raise DataError("cannot aggregate an empty bin set")
    with np.errstate(divide="ignore"):
        return float(np.exp(logsumexp(np.log(updates)) - math.log(updates.size)))


class TestPriorUpdate:
    def test_zero_excess_unit_mu(self):
        assert float(prior_update(0.0, 1.0)) == pytest.approx(
            0.6065306597126334, rel=1e-14
        )

    def test_log_is_linear_in_excess(self):
        mu = 0.73
        lo = log_prior_update(1.2, mu)
        hi = log_prior_update(1.2 + 2.5, mu)
        assert float(hi - lo) == pytest.approx(mu * 2.5, rel=1e-12)

    def test_on_signal_excess_raises_update(self):
        mu = 1.4
        assert float(prior_update(mu, mu)) == pytest.approx(
            math.exp(0.5 * mu * mu), rel=1e-12
        )

    def test_unit_mean_under_null(self):
        # E[exp(mu z - mu^2/2)] = 1 for z ~ N(0, 1)
        mu = 0.5
        n = 200_000
        z = np.random.default_rng(12345).standard_normal(n)
        u = prior_update(z, mu)
        se = math.sqrt((math.exp(mu * mu) - 1.0) / n)
        assert abs(float(u.mean()) - 1.0) < 3 * se

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            log_prior_update(np.inf, 1.0)
        with pytest.raises(ConfigError):
            log_prior_update(0.0, np.nan)


class TestCombineUpdates:
    def test_uncovered_bins_keep_initial(self):
        initial = np.array([2.0, 3.0, 4.0])
        out = combine_updates(initial, [np.array([1.0, 0.5, 1.0])])
        assert np.array_equal(out, [2.0, 1.5, 4.0])
        assert np.array_equal(initial, [2.0, 3.0, 4.0])

    def test_multiple_rescans_multiply(self):
        out = combine_updates(
            np.array([2.0, 2.0]),
            [np.array([0.5, 1.0]), np.array([0.5, 3.0])],
        )
        assert np.array_equal(out, [0.5, 6.0])

    def test_misaligned_rescan_rejected(self):
        with pytest.raises(DataError):
            combine_updates(np.ones(4), [np.ones(5)])


class TestAggregate:
    def test_equals_plain_mean(self):
        u = np.random.default_rng(3).uniform(0.1, 5.0, size=400)
        assert aggregate(u) == pytest.approx(float(u.mean()), rel=1e-12)

    def test_survives_wide_dynamic_range(self):
        u = np.array([1e-280, 1e-280, 4e-280])
        assert aggregate(u) == pytest.approx(2e-280, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate(np.array([]))


class TestDefaultGrid:
    def test_geometric_span(self):
        grid = default_g_grid()
        assert grid.size == 200
        assert grid[0] == pytest.approx(0.5, rel=1e-12)
        assert grid[-1] == pytest.approx(5.0, rel=1e-12)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)


class TestExclusionCurve:
    def test_matches_closed_form_on_null(self):
        grand = make_grand(n=500)
        grid, curve = exclusion_curve(grand)
        mu = grid**2 * 0.8
        assert np.allclose(curve, np.exp(-0.5 * mu**2), rtol=1e-12)

    def test_curve_decreasing_on_null(self):
        _, curve = exclusion_curve(make_grand(n=300))
        assert np.all(np.diff(curve) < 0)

    def test_invalid_and_dead_bins_ignored(self):
        clean = make_grand(n=500)
        dirty = make_grand(n=500)
        dirty.x[100:110] = 50.0
        dirty.valid[100:110] = False
        dirty.eta_sens[200:205] = 0.0  # excluded even though flagged valid
        _, curve_clean = exclusion_curve(clean)
        _, curve_dirty = exclusion_curve(dirty)
        assert np.allclose(curve_dirty, curve_clean, rtol=1e-12)

    def test_agrees_with_scalar_aggregate(self):
        grand = make_grand(x=np.random.default_rng(8).standard_normal(256))
        grid, curve = exclusion_curve(grand, g_grid=np.geomspace(0.6, 3.0, 7))
        for g, u in zip(grid, curve):
            assert exclusion_curve(grand, g_grid=[g])[1][0] == pytest.approx(u, rel=1e-12)

    def test_bad_grid_rejected(self):
        grand = make_grand(n=50)
        with pytest.raises(ConfigError):
            exclusion_curve(grand, g_grid=np.array([1.0, 0.9, 1.1]))
        with pytest.raises(ConfigError):
            exclusion_curve(grand, g_grid=np.array([-1.0, 1.0]))

    def test_all_bins_excluded_rejected(self):
        grand = make_grand(n=40, valid=np.zeros(40, dtype=bool))
        with pytest.raises(DataError):
            exclusion_curve(grand)


BAD_GRIDS = [
    [0.5, math.nan, 2.0],
    [0.5, 2.0, math.inf],
    [math.nan],
    [-math.inf, 1.0],
    [],
    [[1.0, 2.0]],
    [1.0, 1.0, 2.0],
]


class TestCouplingGridChecks:
    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_curve_rejects(self, grid):
        with pytest.raises(ConfigError):
            exclusion_curve(make_grand(n=50), g_grid=grid)

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_coupling_rejects(self, grid):
        with pytest.raises(ConfigError):
            exclusion_coupling(make_grand(n=50), g_grid=grid)

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_windows_reject(self, grid):
        with pytest.raises(ConfigError):
            subaggregate_windows(make_grand(n=50), n_windows=5, g_grid=grid)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "field,value", [("x", math.nan), ("x", -math.inf), ("eta_sens", math.inf)]
    )
    def test_initial_scan_refused(self, field, value):
        grand = make_grand(x=np.random.default_rng(5).standard_normal(100))
        getattr(grand, field)[37] = value
        with pytest.raises(DataError, match="non-finite"):
            run_exclusion(grand, n_windows=10)

    def test_rescan_refused(self):
        rng = np.random.default_rng(6)
        initial = make_grand(x=rng.standard_normal(100))
        rescan = make_grand(x=rng.standard_normal(20), rf_start=initial.rf_start_hz + 40 * DB)
        rescan.x[3] = math.nan
        with pytest.raises(DataError, match="non-finite"):
            exclusion_curve(initial, [rescan])
        with pytest.raises(DataError, match="non-finite"):
            subaggregate_windows(initial, [rescan], n_windows=10)

    def test_excluded_bins_may_hold_nan(self):
        rng = np.random.default_rng(7)
        clean = make_grand(x=rng.standard_normal(100))
        dirty = make_grand(x=clean.x.copy())
        dirty.x[10] = math.nan
        dirty.valid[10] = False
        dirty.x[20] = math.nan
        dirty.eta_sens[20] = 0.0
        clean.valid[10] = False
        clean.eta_sens[20] = 0.0
        # a rescan bin that lands outside the initial grid carries no weight
        rescan = make_grand(x=np.full(10, math.nan), rf_start=clean.rf_start_hz + 100 * DB)
        _, curve_clean = exclusion_curve(clean)
        _, curve_dirty = exclusion_curve(dirty, [rescan])
        np.testing.assert_array_equal(curve_dirty, curve_clean)


class TestExclusionCoupling:
    def test_bisection_matches_closed_form(self):
        grand = make_grand(n=400)
        g_star, _, _ = exclusion_coupling(grand, target=0.1, xtol=1e-6)
        assert g_star is not None
        assert abs(g_star - closed_form_g_star(0.8, 0.1)) <= 1e-6

    def test_target_moves_boundary(self):
        grand = make_grand(n=400)
        g_tight, _, _ = exclusion_coupling(grand, target=0.05, xtol=1e-6)
        g_loose, _, _ = exclusion_coupling(grand, target=0.2, xtol=1e-6)
        assert g_tight > g_loose
        assert abs(g_tight - closed_form_g_star(0.8, 0.05)) <= 1e-6
        assert abs(g_loose - closed_form_g_star(0.8, 0.2)) <= 1e-6

    def test_no_crossing_reports_none(self):
        grand = make_grand(n=100)
        g_star, grid, curve = exclusion_coupling(
            grand, g_grid=np.geomspace(0.5, 0.6, 5)
        )
        assert g_star is None
        assert np.all(curve > 0.1)
        assert grid.size == 5

    def test_bad_target_rejected(self):
        grand = make_grand(n=20)
        with pytest.raises(ConfigError):
            exclusion_coupling(grand, target=0.0)
        with pytest.raises(ConfigError):
            exclusion_coupling(grand, target=1.0)

    @pytest.mark.parametrize("xtol", [0.0, -1.0, math.nan])
    def test_bad_xtol_rejected(self, xtol):
        # a bisection to xtol <= 0 never ends once the bracket is two adjacent floats
        grand = make_grand(n=20)
        with pytest.raises(ConfigError, match="xtol"):
            exclusion_coupling(grand, xtol=xtol)


class TestRescanInference:
    def test_same_lattice_rescan_multiplies(self):
        rng = np.random.default_rng(7)
        initial = make_grand(
            x=rng.standard_normal(100), eta_sens=np.full(100, 0.6)
        )
        rescan = make_grand(
            x=rng.standard_normal(100), eta_sens=np.full(100, 0.9)
        )
        g = 1.3
        mu1, mu2 = g * g * 0.6, g * g * 0.9
        log_u = (
            mu1 * initial.x
            - 0.5 * mu1**2
            + mu2 * rescan.x
            - 0.5 * mu2**2
        )
        expected = float(np.exp(log_u).mean())
        assert exclusion_curve(initial, [rescan], g_grid=[g])[1][0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_offset_rescan_partial_overlap(self):
        rng = np.random.default_rng(11)
        initial = make_grand(
            x=rng.standard_normal(100), eta_sens=np.full(100, 0.6)
        )
        rescan = make_grand(
            x=rng.standard_normal(10),
            eta_sens=np.full(10, 0.9),
            rf_start=initial.rf_start_hz + 95 * DB,
        )
        g = 0.9
        mu1, mu2 = g * g * 0.6, g * g * 0.9
        log_u = mu1 * initial.x - 0.5 * mu1**2
        # only the first five rescan bins land inside the initial grid
        log_u[95:] += mu2 * rescan.x[:5] - 0.5 * mu2**2
        expected = float(np.exp(log_u).mean())
        assert exclusion_curve(initial, [rescan], g_grid=[g])[1][0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_rescan_respects_validity_masks(self):
        rng = np.random.default_rng(13)
        initial = make_grand(x=rng.standard_normal(60))
        rescan = make_grand(x=rng.standard_normal(60))
        rescan.valid[:30] = False
        g = 1.1
        mu = g * g * 0.8
        log_u = mu * initial.x - 0.5 * mu**2
        log_u[30:] += mu * rescan.x[30:] - 0.5 * mu**2
        expected = float(np.exp(log_u).mean())
        assert exclusion_curve(initial, [rescan], g_grid=[g])[1][0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_off_lattice_rescan_rejected(self):
        initial = make_grand(n=50)
        shifted = make_grand(n=50, rf_start=initial.rf_start_hz + 0.5 * DB)
        with pytest.raises(DataError):
            exclusion_curve(initial, [shifted])

    def test_mismatched_bin_width_rejected(self):
        initial = make_grand(n=50)
        coarse = make_grand(n=50, bin_width_hz=2 * DB)
        with pytest.raises(DataError):
            exclusion_curve(initial, [coarse])


class TestWindows:
    def test_surface_recombines_to_aggregate(self):
        rng = np.random.default_rng(21)
        grand = make_grand(x=rng.standard_normal(1003))
        grid = np.geomspace(0.6, 2.5, 9)
        n_windows = 100
        lo, hi, surface, _ = subaggregate_windows(
            grand, n_windows=n_windows, g_grid=grid
        )
        base, extra = divmod(1003, n_windows)
        sizes = np.array(
            [base + (1 if i < extra else 0) for i in range(n_windows)]
        )
        assert sizes.sum() == 1003
        _, curve = exclusion_curve(grand, g_grid=grid)
        recombined = (surface * sizes[:, None]).sum(axis=0) / 1003
        assert np.allclose(recombined, curve, rtol=1e-12)

    def test_window_edges_partition_band(self):
        grand = make_grand(n=1003)
        lo, hi, _, _ = subaggregate_windows(grand, n_windows=100)
        freqs = grand.frequencies
        base, extra = divmod(1003, 100)
        start = 0
        for i in range(100):
            size = base + (1 if i < extra else 0)
            assert lo[i] == freqs[start]
            assert hi[i] == freqs[start + size - 1]
            start += size

    def test_uniform_null_contours_agree(self):
        grand = make_grand(n=600)
        # dense grid keeps the in-cell interpolation error negligible
        grid = np.geomspace(1.2, 2.2, 400)
        _, _, _, contour = subaggregate_windows(
            grand, n_windows=30, g_grid=grid, target=0.1
        )
        assert np.all(np.isfinite(contour))
        assert np.allclose(contour, contour[0], rtol=1e-12)
        assert contour[0] == pytest.approx(
            closed_form_g_star(0.8, 0.1), rel=1e-4
        )

    def test_hot_window_needs_larger_g(self):
        grand = make_grand(n=500)
        grand.x[:50] = 2.0  # first window runs hot
        grid = np.geomspace(0.8, 3.5, 300)
        _, _, _, contour = subaggregate_windows(
            grand, n_windows=10, g_grid=grid, target=0.1
        )
        assert contour[0] > contour[1]
        assert np.allclose(contour[1:], contour[1], rtol=1e-10)

    def test_window_count_bounds(self):
        grand = make_grand(n=20)
        with pytest.raises(ConfigError):
            subaggregate_windows(grand, n_windows=0)
        with pytest.raises(ConfigError):
            subaggregate_windows(grand, n_windows=21)


def oracle_log_updates(initial, rescans, g):
    """ln U per included initial bin at coupling g, recomputed bin by bin."""
    mask = initial.valid & (initial.eta_sens > 0)
    mu = g * g * initial.eta_sens[mask]
    log_u = mu * initial.x[mask] - 0.5 * mu**2
    index_of = np.flatnonzero(mask)
    position = np.full(initial.x.size, -1, dtype=np.int64)
    position[index_of] = np.arange(index_of.size)
    for grand in rescans:
        off = int(round((grand.rf_start_hz - initial.rf_start_hz) / grand.bin_width_hz))
        for k in range(grand.x.size):
            i = k + off
            if not (grand.valid[k] and grand.eta_sens[k] > 0 and 0 <= i < position.size):
                continue
            if position[i] >= 0:
                mu_r = g * g * grand.eta_sens[k]
                log_u[position[i]] += mu_r * grand.x[k] - 0.5 * mu_r**2
    return log_u


def oracle_mean(log_u):
    return float(np.exp(logsumexp(log_u) - math.log(log_u.size)))


class TestBruteForceOracle:
    """The per-bin quadratic against a per-coupling recomputation."""

    @pytest.fixture(scope="class")
    def scans(self):
        rng = np.random.default_rng(2020)
        n = 2000
        initial = make_grand(
            x=rng.standard_normal(n), eta_sens=rng.uniform(0.3, 1.0, n)
        )
        initial.x[700:710] += 3.0  # a hot patch, so windows differ
        initial.valid[rng.random(n) < 0.1] = False
        initial.eta_sens[rng.random(n) < 0.02] = 0.0
        inner = make_grand(
            x=rng.standard_normal(500),
            eta_sens=rng.uniform(0.3, 1.0, 500),
            rf_start=initial.rf_start_hz + 650 * DB,
        )
        inner.valid[:120] = False
        # the second rescan runs past the top edge of the initial grid
        edge = make_grand(
            x=rng.standard_normal(400),
            eta_sens=rng.uniform(0.3, 1.0, 400),
            rf_start=initial.rf_start_hz + 1800 * DB,
        )
        edge.valid[rng.random(400) < 0.3] = False
        return initial, [inner, edge]

    @staticmethod
    def variant(scans, extreme):
        initial, rescans = scans
        if extreme:
            # a very hot patch and a high-sensitivity stretch: at large g some
            # window means sit more than 745 e-folds below the hottest bin
            x, eta = initial.x.copy(), initial.eta_sens.copy()
            x[700:703] = 30.0
            eta[1000:1400] = 1.4
            initial = dataclasses.replace(initial, x=x, eta_sens=eta)
        return initial, rescans

    @pytest.mark.parametrize("extreme", [False, True])
    def test_curve_and_surface_agree(self, scans, extreme):
        initial, rescans = self.variant(scans, extreme)
        grid = np.geomspace(0.5, 5.0, 60)
        n_windows = 17
        _, curve = exclusion_curve(initial, rescans, g_grid=grid)
        _, _, surface, _ = subaggregate_windows(
            initial, rescans, n_windows=n_windows, g_grid=grid
        )
        n_included = oracle_log_updates(initial, rescans, 1.0).size
        bounds = np.cumsum([0] + [
            n_included // n_windows + (1 if i < n_included % n_windows else 0)
            for i in range(n_windows)
        ])
        want_curve = np.empty(grid.size)
        want_surface = np.empty((n_windows, grid.size))
        for j, g in enumerate(grid):
            log_u = oracle_log_updates(initial, rescans, g)
            want_curve[j] = oracle_mean(log_u)
            for i in range(n_windows):
                want_surface[i, j] = oracle_mean(log_u[bounds[i]:bounds[i + 1]])
        np.testing.assert_allclose(curve, want_curve, rtol=1e-11, atol=0)
        np.testing.assert_allclose(surface, want_surface, rtol=1e-11, atol=0)

    @pytest.mark.parametrize(
        "start, n",
        [(-200, 300), (1850, 400), (300, 500), (2100, 200)],
        ids=["below", "past_top", "inside", "no_overlap"],
    )
    def test_rescan_offsets(self, scans, start, n):
        # a rescan starting `start` bins from the initial grid's first bin
        # adds over the slice it overlaps; ln U = a - b at g = 1 is the oracle's
        initial, _ = scans
        rng = np.random.default_rng(17)
        rescan = make_grand(
            x=rng.standard_normal(n),
            eta_sens=rng.uniform(0.3, 1.0, n),
            rf_start=initial.rf_start_hz + start * DB,
        )
        rescan.valid[rng.random(n) < 0.2] = False
        a, b, index_of = inference._coefficients(initial, [rescan])
        np.testing.assert_array_equal(index_of, np.flatnonzero(included(initial)))
        want = oracle_log_updates(initial, [rescan], 1.0)
        np.testing.assert_allclose(a - b, want, rtol=1e-12, atol=1e-12)

    def test_g_star_equal(self, scans):
        initial, rescans = scans
        grid = np.geomspace(0.5, 5.0, 60)
        g_star, _, curve = exclusion_coupling(
            initial, rescans, g_grid=grid, target=0.1, xtol=1e-6
        )
        want = np.array([oracle_mean(oracle_log_updates(initial, rescans, g)) for g in grid])
        above = want > 0.1
        j = int(np.flatnonzero(above[:-1] != above[1:])[-1])
        g_lo, g_hi = grid[j], grid[j + 1]
        f_lo = want[j] - 0.1
        while g_hi - g_lo > 1e-6:
            mid = 0.5 * (g_lo + g_hi)
            f_mid = oracle_mean(oracle_log_updates(initial, rescans, mid)) - 0.1
            if (f_lo > 0) == (f_mid > 0):
                g_lo, f_lo = mid, f_mid
            else:
                g_hi = mid
        assert g_star == 0.5 * (g_lo + g_hi)

    @pytest.mark.parametrize("extreme", [False, True])
    def test_run_exclusion_agrees(self, scans, extreme):
        # the aggregate pooled from the window surface against the bin-level mean
        initial, rescans = self.variant(scans, extreme)
        grid = np.geomspace(0.5, 5.0, 60)
        result = run_exclusion(initial, rescans, g_grid=grid, n_windows=17, xtol=1e-6)
        want = np.array([oracle_mean(oracle_log_updates(initial, rescans, g)) for g in grid])
        np.testing.assert_allclose(result.aggregate_u, want, rtol=1e-11, atol=0)
        g_star, _, _ = exclusion_coupling(initial, rescans, g_grid=grid, xtol=1e-6)
        assert result.g_star == g_star


class TestSinglePass:
    """Each entry point aligns the scans once and loops over the grid once."""

    GRID = np.geomspace(0.5, 5.0, 40)

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"coefficients": 0, "full_grid": 0}
        coefficients, log_means = inference._coefficients, inference._log_means

        def counted_coefficients(*args):
            calls["coefficients"] += 1
            return coefficients(*args)

        def counted_log_means(a, b, grid, *rest):
            # the bisection evaluates one coupling at a time
            calls["full_grid"] += len(grid) == self.GRID.size
            return log_means(a, b, grid, *rest)

        monkeypatch.setattr(inference, "_coefficients", counted_coefficients)
        monkeypatch.setattr(inference, "_log_means", counted_log_means)
        return calls

    @pytest.fixture
    def scans(self):
        rng = np.random.default_rng(41)
        initial = make_grand(x=rng.standard_normal(400))
        rescan = make_grand(x=rng.standard_normal(50), rf_start=initial.rf_start_hz + 100 * DB)
        return initial, [rescan]

    def test_run_exclusion(self, scans, calls):
        result = run_exclusion(*scans, g_grid=self.GRID, n_windows=20, xtol=1e-6)
        assert result.g_star is not None
        assert calls == {"coefficients": 1, "full_grid": 1}

    def test_exclusion_coupling(self, scans, calls):
        g_star, _, _ = exclusion_coupling(*scans, g_grid=self.GRID, xtol=1e-6)
        assert g_star is not None
        assert calls == {"coefficients": 1, "full_grid": 1}


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(31)
    grand = make_grand(x=rng.standard_normal(400))
    return run_exclusion(
        grand,
        n_windows=20,
        g_grid=np.geomspace(0.5, 5.0, 40),
        xtol=1e-6,
        metadata={"config_hash": "deadbeef", "master_seed": 31},
    )


class TestResultAndFiles:
    def test_result_shape(self, result):
        assert result.n_bins == 400
        assert result.window_surface.shape == (20, 40)
        assert result.g_star is not None and result.g_star > 0
        assert result.target == 0.1
        assert result.metadata["config_hash"] == "deadbeef"

    def test_window_count_above_included_bins_refused(self):
        grand = make_grand(n=10)
        with pytest.raises(ConfigError, match="exceeds the 10 included bins"):
            run_exclusion(grand, n_windows=11)
        assert run_exclusion(grand, n_windows=10).window_lo.size == 10

    def test_band_restriction_drops_out_of_band_bins(self):
        grand = make_grand(n=100, rf_start=4.1e9)
        band = (4.1e9 + 20 * DB, 4.1e9 + 59 * DB)
        result = run_exclusion(grand, n_windows=4, band_hz=band)
        assert result.n_bins == 40
        assert result.window_lo[0] >= band[0]
        assert result.window_hi[-1] <= band[1] + DB

    def test_band_restriction_matches_manual_mask(self):
        rng = np.random.default_rng(97)
        x = rng.standard_normal(200)
        grand = make_grand(x=x)
        band = (4.1e9 + 50 * DB, 4.1e9 + 149 * DB)
        banded = run_exclusion(grand, band_hz=band, n_windows=5)
        valid = grand.valid.copy()
        valid[:50] = False
        valid[150:] = False
        masked = run_exclusion(
            dataclasses.replace(grand, valid=valid), n_windows=5
        )
        assert banded.g_star == masked.g_star
        np.testing.assert_array_equal(banded.aggregate_u, masked.aggregate_u)
        np.testing.assert_array_equal(banded.window_contour, masked.window_contour)

    def test_band_rejections(self):
        grand = make_grand(n=50)
        with pytest.raises(ConfigError):
            run_exclusion(grand, band_hz=(4.2e9, 4.1e9))
        with pytest.raises(DataError):
            run_exclusion(grand, band_hz=(5.0e9, 5.1e9))

    def test_json_round_trip(self, result, tmp_path):
        write_exclusion_result(result, tmp_path)
        payload = read_exclusion_result(tmp_path / "exclusion.json")
        assert payload["format"] == "haloscan-exclusion"
        assert payload["version"] == 1
        assert payload["g_star"] == result.g_star
        assert payload["n_bins"] == 400
        assert payload["n_windows"] == 20
        assert payload["g_grid"] == [float(g) for g in result.g_grid]
        assert payload["aggregate_u"] == [float(u) for u in result.aggregate_u]
        assert payload["metadata"]["master_seed"] == 31

    def test_curve_csv_parses(self, result, tmp_path):
        write_exclusion_result(result, tmp_path)
        lines = (tmp_path / "exclusion_curve.csv").read_text().splitlines()
        assert lines[0] == "g_ksvz,aggregate_u"
        assert len(lines) == 41
        g, u = lines[1].split(",")
        assert float(g) == result.g_grid[0]
        assert float(u) == result.aggregate_u[0]

    def test_surface_csv_shape(self, result, tmp_path):
        write_exclusion_result(result, tmp_path)
        lines = (tmp_path / "window_surface.csv").read_text().splitlines()
        assert len(lines) == 21
        assert len(lines[0].split(",")) == 42
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == result.window_lo[0]
        assert row[2:] == [float(v) for v in result.window_surface[0]]

    def test_contours_csv_blank_when_no_crossing(self, tmp_path):
        grand = make_grand(n=40)
        result = run_exclusion(
            grand, n_windows=4, g_grid=np.geomspace(0.5, 0.6, 5)
        )
        assert result.g_star is None
        write_exclusion_result(result, tmp_path)
        payload = read_exclusion_result(tmp_path / "exclusion.json")
        assert payload["g_star"] is None
        lines = (tmp_path / "window_contours.csv").read_text().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith(",")  # g column empty, not "nan"

    def test_read_rejects_bad_files(self, tmp_path):
        with pytest.raises(DataError):
            read_exclusion_result(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError):
            read_exclusion_result(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError):
            read_exclusion_result(wrong)
        not_object = tmp_path / "list.json"
        not_object.write_text("[]")
        with pytest.raises(DataError, match="not an exclusion result"):
            read_exclusion_result(not_object)
