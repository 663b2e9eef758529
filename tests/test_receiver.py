"""Physics-layer tests against independently derived oracles.

Oracle values were computed before implementation from closed forms
(mpmath for the Bose factor, a quadratic root for the coupling optimum)
and are frozen here as literals.
"""

import dataclasses
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from haloscan import (
    AxionHypothesis,
    ConfigError,
    CouplingAtBoundary,
    LineshapeParams,
    NumericError,
    ReceiverParams,
    canonical_kernel,
    cavity_absorption,
    cavity_reflectance,
    delivered_squeezing,
    noise_budget,
    optimize_coupling,
    report_enhancement,
    scan_rate,
    squeezer_ratio,
    thermal_quanta,
    visibility,
)
from haloscan.axion import _kernel_weights
from haloscan.campaign import band_start, make_tuning_plan
from haloscan.config import load_config
from haloscan.receiver import (
    _lorentzian_shape,
    band_detunings,
    band_noise,
    band_reflectance,
    band_visibility,
)
from haloscan.spectra import band_centre
from conftest import CONFIG_DIR, make_receiver

# (1/4) coth(h nu / 2 k_B T), frozen from a 50-digit mpmath evaluation
THERMAL_61MK = 0.2700188402274722
THERMAL_333MK = 0.8627091370285994

# ((beta-1)/(beta+1))^2 at beta = 7.1
REFL_71 = 0.5671391556165218


def quad_rate(params, hypothesis, window_linewidths=20.0):
    """Oracle for scan_rate: adaptive quadrature of visibility^2 over the window."""
    half_window = window_linewidths * params.kappa
    peak = visibility(params, hypothesis, 0.0) ** 2
    value, _ = quad(
        lambda delta: visibility(params, hypothesis, delta) ** 2,
        -half_window, half_window, points=[0.0], limit=200,
        epsabs=1e-14 * peak * params.kappa, epsrel=1e-13,
    )
    return value


class TestThermalQuanta:
    def test_fridge_temperature(self):
        assert thermal_quanta(4.14e9, 0.061) == pytest.approx(THERMAL_61MK, rel=1e-12)

    def test_hot_load_temperature(self):
        assert thermal_quanta(4.14e9, 0.333) == pytest.approx(THERMAL_333MK, rel=1e-12)

    def test_anchor_band(self):
        # acceptance 1
        assert abs(thermal_quanta(4.14e9, 0.061) - 0.270) < 0.002

    def test_zero_temperature_is_exactly_vacuum(self):
        for nu in (1e9, 4.14e9, 12e9):
            assert thermal_quanta(nu, 0.0) == 0.25

    def test_mpmath_cross_check(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        h = mp.mpf("6.62607015e-34")
        kb = mp.mpf("1.380649e-23")
        arg = h * mp.mpf("4.14e9") / (2 * kb * mp.mpf("0.061"))
        expected = mp.mpf("0.25") * mp.coth(arg)
        assert thermal_quanta(4.14e9, 0.061) == pytest.approx(float(expected), rel=1e-14)

    def test_high_temperature_limit(self):
        # k_B T / (2 h nu), the classical Johnson slope
        nu, t = 1e9, 10.0
        classical = 1.380649e-23 * t / (2 * 6.62607015e-34 * nu)
        assert thermal_quanta(nu, t) == pytest.approx(classical, rel=1e-3)

    @given(st.floats(1e8, 2e10), st.floats(1e-3, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_above_vacuum_and_monotone(self, nu, t):
        # deep in the quantum regime coth saturates to 1.0 in float64,
        # so the bounds are non-strict
        n = thermal_quanta(nu, t)
        assert n >= 0.25
        assert thermal_quanta(nu, 2 * t) >= n


class TestDeliveredSqueezing:
    def test_paper_lossless_anchor(self):
        # acceptance 2: 37% of vacuum with perfect squeezing, 63% path efficiency
        assert delivered_squeezing(0.63, 0.0) == pytest.approx(0.37)

    def test_reference_point_is_exact(self):
        assert delivered_squeezing(2.0 / 3.0, 0.10) == pytest.approx(0.4, abs=1e-15)

    def test_no_squeezing_passthrough(self):
        assert delivered_squeezing(0.5, 1.0) == 1.0

    @given(st.floats(1e-6, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_loss_floor(self, eta, g_s):
        s = delivered_squeezing(eta, g_s)
        assert min(g_s, 1.0) - 1e-12 <= s <= 1.0 + 1e-12
        assert s >= (1.0 - eta) - 1e-12

    @given(st.floats(1e-3, 1.0), st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_squeezer_ratio_inverts(self, eta, g_s):
        s = delivered_squeezing(eta, g_s)
        assert squeezer_ratio(eta, s) == pytest.approx(g_s, rel=1e-12, abs=1e-14 / eta)


class TestCavityResponse:
    def test_resonant_reflectance(self):
        assert cavity_reflectance(0.0, 88.1e3, 7.1) == pytest.approx(REFL_71, rel=1e-12)

    def test_critical_coupling_absorbs_everything(self):
        assert cavity_reflectance(0.0, 88.1e3, 1.0) == 0.0

    def test_far_detuned_reflects_everything(self):
        assert cavity_reflectance(1e9, 88.1e3, 7.1) == pytest.approx(1.0, abs=1e-6)

    def test_half_width(self):
        # |Gamma|^2 rises halfway to 1 at delta = kappa/2
        kl, beta = 88.1e3, 7.1
        kappa = (1 + beta) * kl
        r0 = cavity_reflectance(0.0, kl, beta)
        rhalf = cavity_reflectance(kappa / 2, kl, beta)
        assert rhalf == pytest.approx((r0 + 1.0) / 2.0, rel=1e-12)

    @given(
        st.floats(-5e6, 5e6),
        st.floats(10e3, 500e3),
        st.floats(0.05, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_reflectance_absorption_partition(self, delta, kl, beta):
        r = cavity_reflectance(delta, kl, beta)
        a = cavity_absorption(delta, kl, beta)
        assert 0.0 <= r <= 1.0
        assert r + a == pytest.approx(1.0, abs=1e-12)


class TestNoiseBudget:
    def test_on_resonance_total(self, ref_receiver):
        # independent recomputation: S*N_f*|G|^2 + N_c0*(1-|G|^2) + N_A
        budget = noise_budget(ref_receiver, np.array([0.0]))
        expected = 0.4 * THERMAL_61MK * REFL_71 + 0.41 * (1.0 - REFL_71) + 0.03
        assert budget.total[0] == pytest.approx(expected, rel=1e-12)

    def test_far_detuned_total(self, ref_receiver):
        budget = noise_budget(ref_receiver, np.array([50e6]))
        assert budget.total[0] == pytest.approx(0.4 * THERMAL_61MK + 0.03, rel=1e-4)
        assert budget.n_c[0] == pytest.approx(0.0, abs=1e-4)

    def test_components_sum(self, ref_receiver):
        deltas = np.linspace(-2e6, 2e6, 101)
        budget = noise_budget(ref_receiver, deltas)
        np.testing.assert_allclose(
            budget.total, budget.n_c + budget.n_r + budget.n_a, rtol=1e-14
        )

    def test_squeezing_reduces_only_reflected(self, ref_receiver):
        off = dataclasses.replace(ref_receiver, g_s=1.0)
        deltas = np.linspace(-1e6, 1e6, 41)
        b_on = noise_budget(ref_receiver, deltas)
        b_off = noise_budget(off, deltas)
        np.testing.assert_allclose(b_on.n_c, b_off.n_c, rtol=1e-14)
        np.testing.assert_allclose(b_on.n_a, b_off.n_a, rtol=1e-14)
        assert np.all(b_on.n_r < b_off.n_r)

    def test_visibility_peaks_on_resonance(self, ref_receiver):
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        deltas = np.linspace(-3e6, 3e6, 301)
        alpha = visibility(ref_receiver, hyp, deltas)
        assert np.argmax(alpha) == 150
        assert alpha[150] > 0

    @given(
        st.floats(0.5, 30.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.06),
        st.floats(0.5, 1.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_visibility_is_the_budget_ratio(self, beta, g_s, n_a, eta, linewidths):
        # Within two loaded linewidths of resonance: farther out the
        # budget's absorption 1 - |Gamma|^2 cancels and is itself off by
        # about eps / absorption, already 1e-13 relative at 20 linewidths.
        params = ReceiverParams(
            nu_c=4.14e9, kappa_l=88.1e3, beta=beta, n_c0=0.41, n_f=0.27,
            eta=eta, g_s=g_s, n_a=n_a,
        )
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.3)
        deltas = np.linspace(-2.0, 2.0, 81) * params.kappa
        budget = noise_budget(params, deltas, hyp)
        np.testing.assert_allclose(
            visibility(params, hyp, deltas), budget.alpha, rtol=1e-13, atol=0.0
        )
        delta = linewidths * params.kappa
        alpha = visibility(params, hyp, delta)
        assert isinstance(alpha, float)
        assert alpha == pytest.approx(noise_budget(params, delta, hyp).alpha[0], rel=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, [0.0, -math.inf]])
    def test_visibility_rejects_non_finite_detuning(self, ref_receiver, bad):
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        with pytest.raises(ConfigError, match="finite"):
            visibility(ref_receiver, hyp, bad)

    def test_csv_columns_shape(self, ref_receiver):
        deltas = np.linspace(-1e6, 1e6, 11)
        budget = noise_budget(
            ref_receiver, deltas, AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        )
        table = budget.columns()
        assert table.shape == (11, len(budget.CSV_COLUMNS))


def beta_star_oracle(s, n_c0, n_f):
    """Closed-form optimum of the coupling objective.

    d/dbeta of beta^2 / (a(1+beta)^2 + 4 b beta)^{3/2} vanishes where
    a (1+beta)(2-beta) + 2 b beta = 0, i.e. at the positive root of
    a beta^2 - (a + 2b) beta - 2a = 0 with a = S*N_f, b = N_c0 - S*N_f.
    """
    a = s * n_f
    b = n_c0 - s * n_f
    p = a + 2.0 * b
    return (p + math.sqrt(p * p + 8.0 * a * a)) / (2.0 * a)


class TestCouplingOptimum:
    N_F = THERMAL_61MK

    def test_ideal_unsqueezed_is_two(self):
        # acceptance 3, anchor 1: no thermal excess, no squeezing
        beta = optimize_coupling(1.0, self.N_F, self.N_F, 0.0)
        assert abs(beta - 2.0) < 0.01
        assert beta == pytest.approx(beta_star_oracle(1.0, self.N_F, self.N_F), rel=2e-3)

    def test_unsqueezed_with_excess(self):
        beta = optimize_coupling(1.0, 0.41, self.N_F, 0.0)
        assert abs(beta - 2.8) < 0.2
        assert beta == pytest.approx(beta_star_oracle(1.0, 0.41, self.N_F), rel=2e-3)

    def test_squeezed_no_excess(self):
        beta = optimize_coupling(0.40, self.N_F, self.N_F, 0.0)
        assert abs(beta - 4.5) < 0.2
        assert beta == pytest.approx(beta_star_oracle(0.40, self.N_F, self.N_F), rel=2e-3)

    def test_squeezed_with_excess(self):
        # acceptance 3, anchor 4: the reference operating point
        beta = optimize_coupling(0.40, 0.41, self.N_F, 0.03)
        assert abs(beta - 7.1) < 0.3
        assert beta == pytest.approx(beta_star_oracle(0.40, 0.41, self.N_F), rel=2e-3)

    def test_boundary_detection(self):
        with pytest.raises(CouplingAtBoundary):
            optimize_coupling(0.40, 0.41, self.N_F, 0.0, bounds=(1.0, 2.0))

    @given(st.floats(0.1, 1.0), st.floats(0.27, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form_everywhere(self, s, n_c0):
        beta = optimize_coupling(s, n_c0, self.N_F, 0.0)
        assert beta == pytest.approx(beta_star_oracle(s, n_c0, self.N_F), rel=2e-3)

    def test_more_squeezing_pushes_coupling_up(self):
        betas = [optimize_coupling(s, 0.41, self.N_F, 0.0) for s in (1.0, 0.7, 0.4, 0.2)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))


class TestClosedFormOptimum:
    N_F = THERMAL_61MK
    LOG_STEP = 1e-4
    HALF_SPAN = 150  # grid steps either side of the root, i.e. +/- 1.5%

    @pytest.mark.parametrize(
        "s,n_c0",
        [
            # acceptance 3 anchors
            (1.0, THERMAL_61MK),
            (1.0, 0.41),
            (0.40, THERMAL_61MK),
            (0.40, 0.41),
            # strong squeezing over a hot cavity, beta near 73
            (0.1, 1.0),
            # anti-squeezed input: a + 2b < 0
            (7.0, 0.41),
            (3.0, 0.25),
        ],
    )
    def test_is_argmax_of_scan_rate(self, s, n_c0):
        """The root sits at the grid argmax of the public +/-20-linewidth
        scan rate.  The grid is exp(k * LOG_STEP), not anchored on the root,
        and the argmax must be interior; the rate is unimodal in beta, so an
        interior maximum is the global one."""
        beta = optimize_coupling(s, n_c0, self.N_F, 0.0)
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        center = round(math.log(beta) / self.LOG_STEP)
        steps = np.arange(center - self.HALF_SPAN, center + self.HALF_SPAN + 1)
        grid = np.exp(self.LOG_STEP * steps)
        rates = [
            scan_rate(
                ReceiverParams(
                    nu_c=4.14e9, kappa_l=88.1e3, beta=b, n_c0=n_c0, n_f=self.N_F,
                    eta=1.0, g_s=s, n_a=0.0,
                ),
                hyp,
            )
            for b in grid
        ]
        k = int(np.argmax(rates))
        assert 0 < k < grid.size - 1
        assert grid[k] == pytest.approx(beta, rel=2e-3)

    @given(
        st.floats(0.5, 1.0), st.floats(0.1, 1.0), st.floats(0.25, 1.0), st.floats(0.0, 0.1)
    )
    @settings(max_examples=30, deadline=None)
    def test_report_matches_quadrature_oracle(self, eta, g_s, n_c0, n_a):
        """rate_ratio against quadrature of visibility^2 at the reported couplings."""
        squeezed = make_receiver(beta=1.0, eta=eta, g_s=g_s, n_c0=n_c0, n_a=n_a)
        unsqueezed = dataclasses.replace(squeezed, g_s=1.0)
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        rep = report_enhancement(squeezed, unsqueezed, hyp)
        oracle = quad_rate(
            dataclasses.replace(squeezed, beta=rep["beta_squeezed"]), hyp
        ) / quad_rate(dataclasses.replace(unsqueezed, beta=rep["beta_unsqueezed"]), hyp)
        assert rep["rate_ratio"] == pytest.approx(oracle, rel=1e-9)

    def test_no_squeezed_noise_has_no_optimum(self):
        with pytest.raises(CouplingAtBoundary):
            optimize_coupling(0.0, 0.41, self.N_F, 0.0)

    def test_root_must_lie_strictly_inside_bounds(self):
        beta = optimize_coupling(0.1, 1.0, self.N_F, 0.0)
        assert optimize_coupling(0.1, 1.0, self.N_F, 0.0, bounds=(0.5 * beta, 2.0 * beta)) == beta
        for bounds in ((0.5 * beta, beta), (beta, 2.0 * beta)):
            with pytest.raises(CouplingAtBoundary):
                optimize_coupling(0.1, 1.0, self.N_F, 0.0, bounds=bounds)


class TestScanRate:
    def test_quadrature_against_analytic_ratio(self):
        """acceptance 4: with the cavity thermalized to the input field and
        no added noise the budget is flat, so R(beta) is proportional to
        beta^2/(1+beta)^3 exactly (the 20-linewidth window rescales with
        beta and drops out of ratios)."""
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        n_f = THERMAL_61MK

        def analytic(beta):
            return beta**2 / (1.0 + beta) ** 3

        rates = {}
        for beta in (2.0, 2.8, 7.1):
            params = make_receiver(beta=beta, n_c0=n_f, g_s=1.0, n_a=0.0)
            rates[beta] = scan_rate(params, hyp)
        assert rates[7.1] / rates[2.8] == pytest.approx(
            analytic(7.1) / analytic(2.8), rel=1e-6
        )
        assert rates[2.8] / rates[2.0] == pytest.approx(
            analytic(2.8) / analytic(2.0), rel=1e-6
        )

    @given(
        st.floats(0.5, 50.0), st.floats(0.25, 1.5), st.floats(0.3, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 0.5), st.floats(1e3, 1e6), st.floats(0.1, 3.0), st.floats(0.5, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_quadrature_oracle(
        self, beta, n_c0, eta, g_s, n_a, kappa_l, g, window
    ):
        params = ReceiverParams(
            nu_c=4.14e9, kappa_l=kappa_l, beta=beta, n_c0=n_c0, n_f=THERMAL_61MK,
            eta=eta, g_s=g_s, n_a=n_a,
        )
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=g)
        assert scan_rate(params, hyp, window) == pytest.approx(
            quad_rate(params, hyp, window), rel=1e-9
        )

    def test_flat_visibility_limit(self):
        """S N_f + N_A = 0 leaves alpha flat in detuning: the t -> 0 limit."""
        params = make_receiver(eta=1.0, g_s=0.0, n_a=0.0)
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        flat = visibility(params, hyp, 0.0) ** 2 * 40.0 * params.kappa
        assert scan_rate(params, hyp) == pytest.approx(flat, rel=1e-14)
        assert scan_rate(params, hyp) == pytest.approx(quad_rate(params, hyp), rel=1e-9)

    def test_negative_window_raises(self, ref_receiver):
        with pytest.raises(NumericError):
            scan_rate(ref_receiver, AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0), -1.0)

    def test_enhancement_at_paper_operating_points(self, ref_receiver, unsqueezed_receiver):
        # acceptance 4: squeezed beta=7.1 vs unsqueezed beta=2.8
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        ratio = scan_rate(ref_receiver, hyp) / scan_rate(unsqueezed_receiver, hyp)
        assert abs(ratio - 1.9) < 0.15

    def test_enhancement_report(self, ref_receiver, unsqueezed_receiver):
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        rep = report_enhancement(ref_receiver, unsqueezed_receiver, hyp)
        assert abs(rep["beta_unsqueezed"] - 2.8) < 0.2
        assert abs(rep["beta_squeezed"] - 7.1) < 0.3
        assert abs(rep["rate_ratio"] - 1.9) < 0.15

    def test_better_transmission_helps_more(self):
        # eta = 0.9 should comfortably beat a factor of 1.9
        hyp = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        good = make_receiver(eta=0.9, g_s=0.10)
        good = dataclasses.replace(
            good, beta=optimize_coupling(good.delivered, 0.41, good.n_f, 0.0)
        )
        flat = make_receiver(g_s=1.0, beta=2.8)
        assert scan_rate(good, hyp) / scan_rate(flat, hyp) > 1.9

    def test_scales_as_g_fourth(self, ref_receiver):
        h1 = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=1.0)
        h2 = AxionHypothesis(nu_a_hz=4.14e9, g_ksvz=2.0)
        assert scan_rate(ref_receiver, h2) / scan_rate(ref_receiver, h1) == pytest.approx(
            16.0, rel=1e-9
        )


def variance_vs_phase(theta, s, g_anti):
    """Measured quadrature variance of the squeezed field versus squeezer phase.

    V(theta) = s sin^2(theta) + g_anti cos^2(theta): pi-periodic, minimum s
    at theta = pi/2, maximum g_anti at theta = 0.  ``g_anti`` is the
    anti-squeezed variance ratio, a free parameter (>= 1).
    """
    return s * np.sin(theta) ** 2 + g_anti * np.cos(theta) ** 2


class TestPhaseVariance:
    def test_quadrature_extremes(self):
        assert variance_vs_phase(0.0, 0.4, 25.0) == pytest.approx(25.0)
        assert variance_vs_phase(np.pi / 2, 0.4, 25.0) == pytest.approx(0.4)

    def test_bounded(self):
        theta = np.linspace(0, np.pi, 201)
        v = variance_vs_phase(theta, 0.4, 25.0)
        assert np.all(v >= 0.4 - 1e-12)
        assert np.all(v <= 25.0 + 1e-12)


class TestReceiverParams:
    def test_derived_rates(self, ref_receiver):
        assert ref_receiver.kappa == pytest.approx(8.1 * 88.1e3)
        assert ref_receiver.delivered == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize(
        "field,value",
        [("beta", 0.0), ("beta", -1.0), ("kappa_l", 0.0), ("eta", 1.5), ("g_s", -0.1)],
    )
    def test_rejects_nonphysical(self, ref_receiver, field, value):
        from haloscan import ConfigError

        with pytest.raises(ConfigError):
            dataclasses.replace(ref_receiver, **{field: value})


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def empty_ini(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    return str(path)


class TestBandTemplates:
    """The one detuning rule and the read-only per-bin shapes built on it."""

    @pytest.mark.parametrize("ini", ["reference.ini", "ensemble.ini", None])
    def test_detunings_equal_per_step_formula_bit_for_bit(self, ini, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, ini) if ini else empty_ini(tmp_path))
        n = cfg.get("acquisition", "n_bins")
        db = cfg.get("acquisition", "bin_width_hz")
        steps = cfg.tuning_plan().steps
        assert len(steps) >= 50
        k = np.arange(n)
        for step in steps:
            nu_start = band_start(step, db, n)
            band = SimpleNamespace(nu_start_hz=nu_start, n_bins=n, bin_width_hz=db)
            drifted = step.nu_c_hz + 123456.789  # a drift anomaly's resonance
            for nu_c in (step.nu_c_hz, drifted):
                per_step = (nu_start + k * db) - nu_c
                for offset in (step.nu_c_hz - nu_c, band_centre(band) - nu_c):
                    np.testing.assert_array_equal(bits(band_detunings(n, db, offset)),
                                                  bits(per_step))

    def test_off_integer_grid_matches_per_step_formula(self):
        n, db = 30000, 99.7
        plan = make_tuning_plan(4.1500000123e9, 4.1503400123e9, 85e3)
        for step in plan.steps:
            rx = make_receiver(nu_c=step.nu_c_hz)
            nu_start = band_start(step, db, n)
            delta = (nu_start + np.arange(n) * db) - rx.nu_c
            for offset in (0.0, nu_start + (n // 2) * db - rx.nu_c):
                np.testing.assert_allclose(
                    band_reflectance(rx, n, db, offset),
                    cavity_reflectance(delta, rx.kappa_l, rx.beta), rtol=1e-12, atol=0)
                hyp = AxionHypothesis(nu_a_hz=rx.nu_c, g_ksvz=1.3)
                np.testing.assert_allclose(
                    band_visibility(rx, 1.3, n, db, offset), visibility(rx, hyp, delta),
                    rtol=1e-12, atol=0)

    def test_templates_are_read_only(self):
        rx = make_receiver()
        ls = LineshapeParams()
        templates = [
            band_reflectance(rx, 4000, 100.0, 0.0),
            band_noise(rx, 4000, 100.0, 0.0, rx.delivered),
            band_noise(rx, 4000, 100.0, 0.0, 1.0),
            _lorentzian_shape(rx.kappa, 4000, 100.0, 0.0),
            _kernel_weights(4.15e9, ls, 4.1498e9)[1],
            canonical_kernel(4.15e9, ls),
        ]
        for template in templates:
            with pytest.raises(ValueError):
                template[0] = 1.0
            with pytest.raises(ValueError):
                template *= 2.0

    def test_band_visibility_is_a_new_array(self):
        rx = make_receiver()
        alpha = band_visibility(rx, 1.0, 4000, 100.0, 0.0)
        assert not np.shares_memory(alpha, _lorentzian_shape(rx.kappa, 4000, 100.0, 0.0))
        alpha *= 2.0  # the combine squares its coefficient in place


GOOD_SCALARS = [
    (ReceiverParams, dict(nu_c=4.15e9, kappa_l=88.1e3, beta=7.1, n_c0=0.41, n_f=0.27, eta=0.7,
                          g_s=0.1, n_a=0.03, g_a_db=60.0)),
    (AxionHypothesis, dict(nu_a_hz=4.15e9, g_ksvz=1.0, snr_ref=1.0)),
    (LineshapeParams, dict(velocity_dispersion_kms=270.0, bin_width_hz=100.0)),
]


@pytest.mark.parametrize(
    "cls,field", [(cls, field) for cls, good in GOOD_SCALARS for field in good],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_non_finite_scalars_raise(cls, field):
    """NaN and +-inf raise ConfigError as Python floats and as np.float64."""
    good = dict(GOOD_SCALARS)[cls]
    cls(**good)
    for bad in (math.nan, math.inf, -math.inf):
        for value in (bad, np.float64(bad)):
            with pytest.raises(ConfigError):
                cls(**dict(good, **{field: value}))
