"""Signal-model tests: lineshape density, discrete kernel, bin deposits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from haloscan import (
    AxionHypothesis,
    ConfigError,
    LineshapeParams,
    bin_signal,
    canonical_kernel,
    lineshape,
    lineshape_kernel,
    reference_amplitude,
)
from haloscan.axion import mass_uev
from haloscan.receiver import visibility
from conftest import make_receiver

NU_A = 4.14e9
C_M_S = 299792458.0


def test_energy_scale_value():
    params = LineshapeParams()
    expected = NU_A * (270e3 / C_M_S) ** 2 / 3.0
    assert params.energy_scale(NU_A) == pytest.approx(expected, rel=1e-12)
    assert 1000.0 < expected < 1300.0  # about 1.1 kHz at 4 GHz


def test_mass_from_frequency():
    # h / e = 4.135667696...e-15 eV s, exact in the 2019 SI
    assert mass_uev(4.14e9) == pytest.approx(4.14e9 * 4.135667696923859e-15 * 1e6, rel=1e-15)
    assert 16.9 < mass_uev(4.1e9) < 17.0


def test_density_normalized():
    params = LineshapeParams()
    s = params.energy_scale(NU_A)
    total, err = quad(lambda nu: lineshape(nu, NU_A, params), NU_A, NU_A + 60 * s)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_density_one_sided_with_interior_peak():
    params = LineshapeParams()
    s = params.energy_scale(NU_A)
    assert lineshape(NU_A - 10.0, NU_A, params) == 0.0
    grid = NU_A + np.linspace(0, 10 * s, 4001)
    vals = lineshape(grid, NU_A, params)
    # d/dx sqrt(x) e^-x = 0 at x = 1/2
    assert grid[np.argmax(vals)] - NU_A == pytest.approx(s / 2, rel=0.02)


def test_kernel_matches_direct_quadrature():
    """Dual route: the closed-form bin weights against brute-force integration
    of the density over the same bin edges."""
    params = LineshapeParams(span_bins=256)
    first, weights = lineshape_kernel(NU_A, params, grid_origin=4.1399e9)
    db = params.bin_width_hz
    for k in (0, 1, 2, 7, 40, 130):
        lo = 4.1399e9 + (first + k - 0.5) * db
        val, _ = quad(lambda nu: lineshape(nu, NU_A, params), lo, lo + db)
        assert weights[k] == pytest.approx(val, abs=1e-12)


@given(
    st.floats(1e9, 6e9), st.floats(-1.0, 1.0), st.floats(100.0, 300.0),
    st.sampled_from([50.0, 100.0]), st.integers(512, 1024),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_gammainc_oracle(nu_a, offset_bins, dispersion, db, span):
    """The erf form of the Gamma(3/2) CDF against scipy's regularized gammainc."""
    params = LineshapeParams(velocity_dispersion_kms=dispersion, bin_width_hz=db, span_bins=span)
    origin = nu_a + offset_bins * db
    first, weights = lineshape_kernel(nu_a, params, grid_origin=origin)
    edges = origin + (first + np.arange(span + 1) - 0.5) * db
    x = np.maximum((edges - nu_a) / params.energy_scale(nu_a), 0.0)
    np.testing.assert_allclose(weights, np.diff(gammainc(1.5, x)), rtol=0, atol=1e-14)


def test_kernel_covers_and_never_exceeds_unity():
    params = LineshapeParams()
    _, weights = lineshape_kernel(NU_A, params)
    assert 0.999 <= weights.sum() <= 1.0 + 1e-12
    assert np.all(weights >= 0.0)


def test_kernel_mean_frequency():
    # Gamma(3/2) has mean 3/2, so the centroid sits 1.5 scales above rest
    params = LineshapeParams()
    s = params.energy_scale(NU_A)
    first, weights = lineshape_kernel(NU_A, params, grid_origin=0.0)
    centers = (first + np.arange(weights.size)) * params.bin_width_hz
    centroid = float(np.sum(centers * weights) / weights.sum())
    assert centroid - NU_A == pytest.approx(1.5 * s, abs=params.bin_width_hz / 2)


def test_kernel_whole_bin_shift_invariance():
    # a 7-bin shift moves the energy scale by 7 db / nu_a fractionally,
    # so the weights match to ~1e-7, not exactly
    params = LineshapeParams()
    f1, w1 = lineshape_kernel(NU_A, params, grid_origin=4.1399e9)
    f2, w2 = lineshape_kernel(NU_A + 7 * params.bin_width_hz, params, grid_origin=4.1399e9)
    assert f2 == f1 + 7
    np.testing.assert_allclose(w2, w1, rtol=1e-5, atol=1e-12)


def test_kernel_fractional_offset_changes_weights():
    params = LineshapeParams()
    _, on_center = lineshape_kernel(NU_A, params, grid_origin=NU_A)
    _, off_center = lineshape_kernel(NU_A + 37.0, params, grid_origin=NU_A)
    assert np.max(np.abs(on_center - off_center)) > 1e-3
    assert off_center.sum() == pytest.approx(on_center.sum(), abs=1e-9)


def test_canonical_kernel_is_centered():
    params = LineshapeParams()
    w = canonical_kernel(NU_A, params)
    _, direct = lineshape_kernel(NU_A, params, grid_origin=NU_A)
    # trimmed at the coverage threshold, bit-identical up to there
    np.testing.assert_array_equal(w, direct[: w.size])
    assert w.size < direct.size
    assert w.sum() >= 0.999
    assert direct[: w.size - 1].sum() < 0.999


def test_kernel_span_too_small():
    with pytest.raises(ConfigError):
        lineshape_kernel(NU_A, LineshapeParams(span_bins=4))


def test_kernel_rejects_nonpositive_rest_frequency():
    with pytest.raises(ConfigError):
        lineshape_kernel(0.0, LineshapeParams())
    with pytest.raises(ConfigError):
        lineshape(np.array([1.0]), -4e9, LineshapeParams())


class TestBinSignal:
    def setup_method(self):
        self.params = LineshapeParams()
        self.receiver = make_receiver()
        self.nu_start = NU_A - 1.5e6
        self.n_bins = 30000

    def test_power_scales_as_g_squared(self):
        h1 = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=1.0)
        h2 = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=2.0)
        s1 = bin_signal(self.nu_start, self.n_bins, h1, self.receiver, self.params)
        s2 = bin_signal(self.nu_start, self.n_bins, h2, self.receiver, self.params)
        np.testing.assert_allclose(s2, 4.0 * s1, rtol=1e-12)

    def test_deposit_is_local(self):
        hyp = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=1.0)
        sig = bin_signal(self.nu_start, self.n_bins, hyp, self.receiver, self.params)
        nz = np.flatnonzero(sig)
        assert nz.size <= self.params.span_bins
        center_bin = int(round((NU_A - self.nu_start) / self.params.bin_width_hz))
        assert center_bin <= nz[0] <= center_bin + 1
        assert nz[-1] < center_bin + self.params.span_bins + 1

    def test_out_of_band_is_zero(self):
        hyp = AxionHypothesis(nu_a_hz=NU_A + 1e9, g_ksvz=1.0)
        sig = bin_signal(self.nu_start, self.n_bins, hyp, self.receiver, self.params)
        assert not np.any(sig)

    def test_detuned_deposit_follows_absorption(self):
        from haloscan import cavity_absorption

        on = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=1.0)
        off_delta = 300e3
        off = AxionHypothesis(nu_a_hz=NU_A + off_delta, g_ksvz=1.0)
        s_on = bin_signal(self.nu_start, self.n_bins, on, self.receiver, self.params)
        s_off = bin_signal(self.nu_start, self.n_bins, off, self.receiver, self.params)
        expected = cavity_absorption(
            off_delta, self.receiver.kappa_l, self.receiver.beta
        ) / cavity_absorption(0.0, self.receiver.kappa_l, self.receiver.beta)
        assert s_off.sum() / s_on.sum() == pytest.approx(expected, rel=0.05)

    def test_reference_amplitude_snr_closure(self):
        """The amplitude normalization is defined so that a g=1 axion on
        resonance carries snr_ref units of matched-filter SNR in one
        integration: sum over bins of (signal/noise * sqrt(tau db))^2
        must equal snr_ref^2."""
        tau = 3600.0
        db = self.params.bin_width_hz
        for snr_ref in (1.0, 2.5):
            hyp = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=1.0, snr_ref=snr_ref)
            sig = bin_signal(
                self.nu_start, self.n_bins, hyp, self.receiver, self.params, tau_s=tau
            )
            from haloscan import noise_budget

            freqs = self.nu_start + np.arange(self.n_bins) * db
            total = noise_budget(self.receiver, freqs - self.receiver.nu_c).total
            snr2 = np.sum((sig / total) ** 2) * tau * db
            assert math.sqrt(snr2) == pytest.approx(snr_ref, rel=1e-6)

    def test_reference_amplitude_linear_in_snr_ref(self):
        h1 = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=1.0, snr_ref=1.0)
        h3 = AxionHypothesis(nu_a_hz=NU_A, g_ksvz=1.0, snr_ref=3.0)
        a1 = reference_amplitude(h1, self.receiver, self.params)
        a3 = reference_amplitude(h3, self.receiver, self.params)
        assert a3 == pytest.approx(3.0 * a1, rel=1e-12)

    @pytest.mark.parametrize("nu_c", [NU_A, 4.1500123e9, 4.15417e9, 6.2e9])
    def test_reference_amplitude_equals_uncached_formula(self, nu_c):
        """The cached on-resonance weights give the amplitude bit for bit,
        on the first call and on the repeat."""
        tau = 600.0
        db = self.params.bin_width_hz
        receiver = dataclasses.replace(self.receiver, nu_c=nu_c)
        first_bin, weights = lineshape_kernel(nu_c, self.params, grid_origin=nu_c)
        deltas = (first_bin + np.arange(self.params.span_bins)) * db
        unit = AxionHypothesis(nu_a_hz=nu_c, g_ksvz=1.0)
        per_bin = visibility(receiver, unit, deltas) * weights / db
        expected = 2.5 / math.sqrt(db * tau) / math.sqrt(float(np.sum(per_bin**2)))
        hyp = AxionHypothesis(nu_a_hz=nu_c, g_ksvz=1.0, snr_ref=2.5)
        for _ in range(2):
            assert reference_amplitude(hyp, receiver, self.params, tau_s=tau) == expected


def test_hypothesis_validation():
    with pytest.raises(ConfigError):
        AxionHypothesis(nu_a_hz=-1.0, g_ksvz=1.0)
    with pytest.raises(ConfigError):
        AxionHypothesis(nu_a_hz=NU_A, g_ksvz=-0.5)
