"""Processing chain: cuts, structure removal, combination, coadd, rescans."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import savgol_coeffs, savgol_filter

from haloscan import (
    AxionHypothesis,
    CalibrationResult,
    CombinedSpectrum,
    ConfigError,
    CutCriteria,
    DataError,
    FilterReport,
    GrandSpectrum,
    LineshapeParams,
    ProcessSettings,
    ProcessedSpectrum,
    RawSpectrum,
    apply_cuts,
    canonical_kernel,
    check_persistence,
    coadd_grand,
    combine_spectra,
    flag_rescans,
    make_tuning_plan,
    measure_filter_transfer,
    process_campaign,
    read_grand_spectrum,
    remove_structure,
    run_calibration,
    simulate_campaign,
    write_grand_spectrum,
)
from haloscan.axion import reference_amplitude
from haloscan.pipeline import (
    MIN_SUPPORT,
    STAGE2_CHUNK,
    _detrend_interior,
    _fft_length,
    _kernel_spectrum,
    _savgol_interp,
    _savgol_kernel,
    _signal_coefficient,
    process_group,
)
from haloscan.receiver import squeezer_ratio, visibility
from conftest import REF_NU, join_array_file, make_receiver, split_array_file

# RF window sized for the 4000-bin test bands (defaults assume 30000)
SMALL_BAND = ProcessSettings(rf_window_bins=301, rf_order=4)


def make_raw(step_id=0, n=1000, seed=1, nu_start=4.1398e9, level=1e5, **meta):
    rng = np.random.default_rng(seed)
    return RawSpectrum(
        step_id=step_id,
        nu_start_hz=nu_start,
        bin_width_hz=100.0,
        psd=level * (1.0 + 1.66e-3 * rng.standard_normal(n)),
        n_averages=360000,
        metadata=meta,
    )


def truth_cal(step_id, nu_c, receiver):
    return CalibrationResult(
        step_id=step_id, nu_c_hz=nu_c,
        g_s_hat=receiver.g_s, g_s_sigma=1e-3,
        s_hat=receiver.delivered, s_sigma=1e-3,
        n_c0_hat=receiver.n_c0, n_c0_sigma=1e-3,
        n_a_hat=receiver.n_a, n_a_sigma=1e-3,
        gain_db_hat=0.0, gain_db_sigma=1e-3,
    )


class TestCuts:
    def crit(self, **kw):
        base = dict(drift_hz_max=20e3, squeezing_db_min=None,
                    probe_power_lo=0.5, probe_power_hi=1.5)
        base.update(kw)
        return CutCriteria(**base)

    def test_drift_cut(self):
        good = make_raw(0, freq_drift_hz=5e3)
        bad = make_raw(1, freq_drift_hz=150e3)
        kept, log = apply_cuts([good, bad], self.crit())
        assert log.kept_ids == (0,)
        assert log.cut == {1: "drift"}

    def test_probe_cut(self):
        bad = make_raw(2, probe_power=2.9)
        kept, log = apply_cuts([bad], self.crit())
        assert log.cut == {2: "probe"}

    def test_squeezing_cut_only_when_enabled(self):
        sagged = make_raw(3, squeezing_db=1.2)
        kept, log = apply_cuts([sagged], self.crit())
        assert log.n_cut == 0
        kept, log = apply_cuts([sagged], self.crit(squeezing_db_min=2.5))
        assert log.cut == {3: "squeezing"}

    def test_missing_diagnostics_pass(self):
        bare = make_raw(4)
        kept, log = apply_cuts([bare], self.crit(squeezing_db_min=2.5))
        assert log.kept_ids == (4,)

    def test_first_rule_wins(self):
        awful = make_raw(5, freq_drift_hz=1e6, probe_power=9.0)
        _, log = apply_cuts([awful], self.crit())
        assert log.cut == {5: "drift"}

    def test_truth_tag_never_consulted(self):
        # anomaly that left no measurable trace must survive the cuts
        liar = make_raw(6, truth_anomaly="drift", freq_drift_hz=1e3)
        kept, log = apply_cuts([liar], self.crit())
        assert log.kept_ids == (6,)

    def test_log_serializes(self):
        _, log = apply_cuts([make_raw(0), make_raw(1, probe_power=0.0)], self.crit())
        d = log.to_dict()
        assert d["n_kept"] == 1 and d["n_cut"] == 1
        assert d["cut"] == {"1": "probe"}


class TestFilterTransfer:
    def test_production_chain_meets_requirements(self, default_lineshape):
        report = measure_filter_transfer(
            ProcessSettings(), default_lineshape, 50, 8000, nu_ref_hz=REF_NU
        )
        assert report.t_signal >= 0.85
        assert abs(report.wide_suppression) <= 0.10
        assert 0.99 < report.gamma[0] < 1.0
        np.testing.assert_array_equal(
            report.kernel, canonical_kernel(REF_NU, default_lineshape)
        )

    def test_small_band_chain_behaves(self, default_lineshape):
        report = measure_filter_transfer(
            SMALL_BAND, default_lineshape, 9, 4000, nu_ref_hz=REF_NU
        )
        assert report.t_signal >= 0.5
        assert abs(report.wide_suppression) <= 0.01
        assert 0.98 < report.gamma[0] < 1.0
        # correlations die off beyond the long window
        assert np.all(np.abs(report.gamma[400:]) < 1e-3)

    def test_deeper_campaigns_lose_less_signal(self, default_lineshape):
        shallow = measure_filter_transfer(
            ProcessSettings(), default_lineshape, 5, 8000, nu_ref_hz=REF_NU
        )
        deep = measure_filter_transfer(
            ProcessSettings(), default_lineshape, 200, 8000, nu_ref_hz=REF_NU
        )
        assert deep.t_signal > shallow.t_signal

    def test_window_must_fit_band(self, default_lineshape):
        with pytest.raises(ConfigError):
            measure_filter_transfer(
                SMALL_BAND, default_lineshape, 9, 200, nu_ref_hz=REF_NU
            )

    def test_report_cached_per_arguments_and_read_only(self, default_lineshape):
        base = measure_filter_transfer(SMALL_BAND, default_lineshape, 9, 4000, nu_ref_hz=REF_NU)
        assert measure_filter_transfer(
            SMALL_BAND, default_lineshape, 9, 4000, nu_ref_hz=REF_NU
        ) is base
        for name in ("gamma", "kernel"):
            with pytest.raises(ValueError):
                getattr(base, name)[0] = 0.0
        # each argument changed alone gives the report of the uncached function
        for args, nu_ref in [
            ((dataclasses.replace(SMALL_BAND, rf_order=3), default_lineshape, 9, 4000), REF_NU),
            ((SMALL_BAND, dataclasses.replace(default_lineshape, velocity_dispersion_kms=250.0),
              9, 4000), REF_NU),
            ((SMALL_BAND, default_lineshape, 10, 4000), REF_NU),
            ((SMALL_BAND, default_lineshape, 9, 4100), REF_NU),
            ((SMALL_BAND, default_lineshape, 9, 4000), REF_NU + 1e6),
        ]:
            report = measure_filter_transfer(*args, nu_ref_hz=nu_ref)
            fresh = measure_filter_transfer.__wrapped__(*args, nu_ref_hz=nu_ref)
            assert report is not base
            assert (report.n_spectra, report.t_signal, report.wide_suppression) == (
                fresh.n_spectra, fresh.t_signal, fresh.wide_suppression)
            np.testing.assert_array_equal(report.gamma, fresh.gamma)
            np.testing.assert_array_equal(report.kernel, fresh.kernel)


class TestRemoveStructure:
    def simulate_nine(self, baseline, plan, n_bins=4000, tau_s=3600.0):
        spectra, _ = simulate_campaign(
            plan, make_receiver(), baseline, tau_s=tau_s, n_bins=n_bins, cal_every=100
        )
        return spectra

    def run_nine(self, baseline, plan, n_bins=4000, tau_s=3600.0):
        spectra = self.simulate_nine(baseline, plan, n_bins=n_bins, tau_s=tau_s)
        return remove_structure(spectra, SMALL_BAND, LineshapeParams())

    def test_null_statistics_after_removal(self, small_plan, wavy_baseline):
        spectra = self.simulate_nine(wavy_baseline, small_plan)
        processed, report = remove_structure(spectra, SMALL_BAND, LineshapeParams())
        gamma0 = report.gamma[0]
        pooled = np.concatenate([p.excess[p.valid] for p in processed])
        n_avg = spectra[0].n_averages
        assert abs(pooled.mean()) < 5.0 / math.sqrt(pooled.size * n_avg)
        assert pooled.std() == pytest.approx(
            math.sqrt(gamma0 / n_avg), rel=0.02
        )
        for p in processed:
            assert p.sigma == pytest.approx(math.sqrt(gamma0 / n_avg), rel=1e-12)

    def test_edges_invalidated(self, small_plan, flat_baseline):
        processed, _ = self.run_nine(flat_baseline, small_plan, n_bins=1000, tau_s=60.0)
        trim = SMALL_BAND.rf_window_bins // 2
        for p in processed:
            assert not p.valid[:trim].any()
            assert not p.valid[-trim:].any()
            assert p.valid[trim:-trim].all()

    def test_valid_mask_is_shared_and_read_only(self, small_plan, flat_baseline):
        processed, _ = self.run_nine(flat_baseline, small_plan, n_bins=1000, tau_s=60.0)
        assert all(p.valid is processed[0].valid for p in processed)
        with pytest.raises(ValueError, match="read-only"):
            processed[0].valid[0] = True

    def test_flat_and_wavy_agree_statistically(self, small_plan, flat_baseline,
                                               wavy_baseline):
        flat, _ = self.run_nine(flat_baseline, small_plan, n_bins=2000, tau_s=600.0)
        wavy, _ = self.run_nine(wavy_baseline, small_plan, n_bins=2000, tau_s=600.0)
        sf = np.concatenate([p.excess[p.valid] for p in flat]).std()
        sw = np.concatenate([p.excess[p.valid] for p in wavy]).std()
        assert sf == pytest.approx(sw, rel=0.03)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            remove_structure([], SMALL_BAND, LineshapeParams())

    def test_mismatched_grids_rejected(self):
        a = make_raw(0, n=1000)
        b = dataclasses.replace(make_raw(1, n=1000), bin_width_hz=50.0)
        with pytest.raises(DataError):
            remove_structure([a, b], SMALL_BAND, LineshapeParams())

    def test_lineshape_on_another_bin_width_rejected(self):
        spectra = [make_raw(0, n=1000), make_raw(1, n=1000, seed=2)]
        with pytest.raises(ConfigError, match="bin width"):
            remove_structure(spectra, SMALL_BAND, LineshapeParams(bin_width_hz=50.0))


# -- scipy.signal as an independent oracle for the numpy filter path --------

SAVGOL_SHAPES = [(101, 4), (301, 4), (1001, 2), (5, 2), (3, 0)]


def scipy_remove_structure(spectra, settings):
    """Per-row two-savgol_filter reduction the FFT path must reproduce."""
    normalized = [s.psd / s.psd.mean() for s in spectra]
    b1 = savgol_filter(np.mean(normalized, axis=0), settings.if_window_bins, settings.if_order)
    out = []
    for row in normalized:
        r = row / b1
        out.append(r / savgol_filter(r, settings.rf_window_bins, settings.rf_order) - 1.0)
    return out


def scipy_transfer(settings, lineshape, n_spectra, n_bins):
    """(t_signal, wide_suppression) of the full-array savgol_filter chain."""
    weights = canonical_kernel(REF_NU, lineshape)
    signal = np.zeros(n_bins)
    signal[n_bins // 2 : n_bins // 2 + weights.size] = weights / weights.max()
    sigma_bins = int(round(100e3 / lineshape.bin_width_hz)) / 2.3548
    wide = np.exp(-0.5 * ((np.arange(n_bins) - n_bins / 2) / sigma_bins) ** 2)
    out = []
    for shape in (signal, wide):
        amp = 1e-3 * shape
        b1 = savgol_filter(1.0 + amp / n_spectra, settings.if_window_bins, settings.if_order)
        r = (1.0 + amp) / b1
        excess = r / savgol_filter(r, settings.rf_window_bins, settings.rf_order) - 1.0
        out.append(float(np.dot(excess, amp) / np.dot(amp, amp)))
    return out


class TestSavgolOracle:
    @pytest.mark.parametrize("window, order", SAVGOL_SHAPES)
    def test_kernel_equals_savgol_coeffs(self, window, order):
        np.testing.assert_array_equal(
            _savgol_kernel(window, order), savgol_coeffs(window, order)
        )

    def test_kernel_is_cached_and_read_only(self):
        assert _savgol_kernel(101, 4) is _savgol_kernel(101, 4)
        with pytest.raises(ValueError):
            _savgol_kernel(101, 4)[0] = 0.0

    def test_fft_length_is_the_next_5_smooth_length(self):
        def brute_force(n):
            while True:
                rest = n
                for p in (2, 3, 5):
                    while rest % p == 0:
                        rest //= p
                if rest == 1:
                    return n
                n += 1

        assert _fft_length(4300) == 4320
        assert _fft_length(31000) == 31104
        for n in (1, 2, 4320, 8192, 31104, 3**7 * 5**2):
            assert _fft_length(n) == n
        assert [_fft_length(n) for n in range(1, 2000)] == [brute_force(n) for n in range(1, 2000)]
        # the 4,000-bin, 301-bin-window cases below run at 4,320, not 8,192
        assert _kernel_spectrum(301, 4, 4000)[0] == 4320

    @pytest.mark.parametrize("window, order", SAVGOL_SHAPES)
    def test_stage1_equals_interp_filter(self, window, order):
        rng = np.random.default_rng(5)
        grid = np.arange(4000)
        x = 1.0 + 0.3 * np.sin(grid / 400.0) + 1e-3 * rng.standard_normal(grid.size)
        np.testing.assert_allclose(
            _savgol_interp(x, window, order),
            savgol_filter(x, window, order, mode="interp"),
            rtol=1e-13, atol=0,
        )

    @pytest.mark.parametrize("settings, n_bins", [
        (SMALL_BAND, 4000),
        (ProcessSettings(), 3000),  # 1,001-bin stage-2 window
    ])
    def test_remove_structure_matches_scipy_on_valid_bins(
        self, small_plan, wavy_baseline, settings, n_bins
    ):
        spectra, _ = simulate_campaign(
            small_plan, make_receiver(), wavy_baseline,
            tau_s=3600.0, n_bins=n_bins, cal_every=100,
        )
        processed, _ = remove_structure(spectra, settings, LineshapeParams())
        trim = max(settings.if_window_bins, settings.rf_window_bins) // 2
        for p, expected in zip(processed, scipy_remove_structure(spectra, settings)):
            assert p.valid[trim:-trim].all()
            np.testing.assert_allclose(
                p.excess[p.valid], expected[p.valid], rtol=0, atol=1e-12
            )
            assert not p.valid[:trim].any() and not p.valid[-trim:].any()
            assert np.all(p.excess[:trim] == 0.0)
            assert np.all(p.excess[-trim:] == 0.0)

    @pytest.mark.parametrize("settings, n_spectra, n_bins", [
        (ProcessSettings(), 50, 30000),
        (SMALL_BAND, 9, 4000),
    ])
    def test_filter_transfer_matches_scipy(self, default_lineshape, settings, n_spectra, n_bins):
        report = measure_filter_transfer(
            settings, default_lineshape, n_spectra, n_bins, nu_ref_hz=REF_NU
        )
        t_signal, wide = scipy_transfer(settings, default_lineshape, n_spectra, n_bins)
        assert report.t_signal == pytest.approx(t_signal, rel=1e-12, abs=0)
        # wide_suppression is a ~1e-3 residual of unit-scale bins, so float64
        # rounding alone (scipy's included) moves it by ~1e-13 absolute,
        # ~3e-11 relative: compare on the scale of the unit transfer.
        assert report.wide_suppression == pytest.approx(wide, rel=0, abs=1e-12)


RUNTIME_PROBE = """\
import sys
import haloscan
from haloscan.cli import main
from haloscan.config import load_config
config, out = sys.argv[1:]
load_config(config)
for stage in ("budget", "enhancement"):
    assert main([stage, "--config", config, "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_loads_no_scipy(tmp_path):
    """scipy is a test-only dependency: importing haloscan, loading the
    reference config and running the budget and enhancement stages load
    no scipy module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["haloscan"].__file__)))
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "configs", "reference.ini")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", RUNTIME_PROBE, config, str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "[]"


def make_processed(step_id, nu_start, excess, sigma, nu_c=None):
    n = excess.size
    return ProcessedSpectrum(
        step_id=step_id,
        nu_start_hz=nu_start,
        bin_width_hz=100.0,
        excess=excess,
        sigma=sigma,
        valid=np.ones(n, dtype=bool),
        metadata={"nu_c_hz": nu_c if nu_c is not None else nu_start + n * 50.0},
    )


class TestCombination:
    def test_ml_closure_recovers_injected_amplitude(self, default_lineshape):
        receiver = make_receiver()
        nu_start = REF_NU - 2000 * 50.0
        cal = truth_cal(0, REF_NU, receiver)
        probe = make_processed(0, nu_start, np.ones(2000), sigma=1e-3)
        a = _signal_coefficient(probe, cal, receiver, default_lineshape,
                                tau_s=3600.0, snr_ref=1.0)
        g2 = 2.5
        spectra = [
            make_processed(s, nu_start, g2 * a, sigma=1e-3) for s in range(3)
        ]
        combined = combine_spectra(
            spectra, [cal], receiver, default_lineshape, tau_s=3600.0
        )
        assert np.all(combined.den > 0)
        np.testing.assert_allclose(combined.num / combined.den, g2, rtol=1e-10)
        assert np.all(combined.n_contrib == 3)

    def test_two_equal_spectra_shrink_sigma_by_root_two(self, default_lineshape):
        receiver = make_receiver()
        nu_start = REF_NU - 1000 * 50.0
        cal = truth_cal(0, REF_NU, receiver)
        one = [make_processed(0, nu_start, np.zeros(1000), sigma=1e-3)]
        two = one + [make_processed(1, nu_start, np.zeros(1000), sigma=1e-3)]
        s1 = combine_spectra(one, [cal], receiver, default_lineshape, tau_s=3600.0)
        s2 = combine_spectra(two, [cal], receiver, default_lineshape, tau_s=3600.0)
        assert np.all(s1.den > 0)
        np.testing.assert_allclose(
            1.0 / np.sqrt(s2.den), 1.0 / np.sqrt(s1.den) / math.sqrt(2.0), rtol=1e-12
        )

    def test_masked_accumulation_matches_boolean_gathers(self, default_lineshape):
        """Two overlapping bands at different lattice offsets, each with
        holes in its valid mask, add up bit for bit as the gather-and-
        scatter form would."""
        receiver = make_receiver()
        cal = truth_cal(0, REF_NU, receiver)
        rng = np.random.default_rng(11)
        offsets = (0, 370)
        spectra = []
        for step, off in enumerate(offsets):
            valid = np.ones(1000, dtype=bool)
            valid[:40] = valid[-40:] = False
            valid[300 + 50 * step : 320 + 50 * step] = False
            valid[611 - step] = False
            spectra.append(dataclasses.replace(
                make_processed(step, REF_NU + off * 100.0, rng.standard_normal(1000),
                               sigma=1e-3 * (1 + step)),
                valid=valid,
            ))
        combined = combine_spectra(spectra, [cal], receiver, default_lineshape, tau_s=3600.0)

        num, den = np.zeros(1370), np.zeros(1370)
        n_contrib = np.zeros(1370, dtype=np.int32)
        for p, off in zip(spectra, offsets):
            a = _signal_coefficient(p, cal, receiver, default_lineshape, tau_s=3600.0, snr_ref=1.0)
            var = p.sigma**2
            sel = p.valid
            a_sel = a[sel]
            on = slice(off, off + p.n_bins)
            num[on][sel] += a_sel * p.excess[sel] / var
            den[on][sel] += a_sel**2 / var
            n_contrib[on][sel] += 1
        np.testing.assert_array_equal(combined.num, num)
        np.testing.assert_array_equal(combined.den, den)
        np.testing.assert_array_equal(combined.n_contrib, n_contrib)
        assert combined.n_contrib.dtype == np.int32
        assert list(np.unique(n_contrib)) == [0, 1, 2]

    def test_quadratic_weighting(self, default_lineshape):
        # 2:1 noise ratio between spectra must enter the weights as 4:1
        receiver = make_receiver()
        nu_start = REF_NU - 1000 * 50.0
        cal = truth_cal(0, REF_NU, receiver)
        base = make_processed(0, nu_start, np.zeros(1000), sigma=1e-3)
        quiet = make_processed(1, nu_start, np.zeros(1000), sigma=0.5e-3)
        ref = combine_spectra([base], [cal], receiver, default_lineshape, tau_s=3600.0)
        both = combine_spectra(
            [base, quiet], [cal], receiver, default_lineshape, tau_s=3600.0
        )
        np.testing.assert_allclose(both.den, 5.0 * ref.den, rtol=1e-12)

    def test_offset_bands_cover_union(self, default_lineshape):
        receiver = make_receiver()
        cal = truth_cal(0, REF_NU, receiver)
        lo = make_processed(0, REF_NU, np.zeros(1000), sigma=1e-3)
        hi = make_processed(1, REF_NU + 500 * 100.0, np.zeros(1000), sigma=1e-3)
        combined = combine_spectra(
            [lo, hi], [cal], receiver, default_lineshape, tau_s=3600.0
        )
        assert combined.num.size == 1500
        assert list(np.unique(combined.n_contrib)) == [1, 2]
        assert np.all(combined.n_contrib[500:1000] == 2)

    def test_off_lattice_band_rejected(self, default_lineshape):
        receiver = make_receiver()
        cal = truth_cal(0, REF_NU, receiver)
        a = make_processed(0, REF_NU, np.zeros(500), sigma=1e-3)
        b = make_processed(1, REF_NU + 150.0, np.zeros(500), sigma=1e-3)
        with pytest.raises(DataError):
            combine_spectra([a, b], [cal], receiver, default_lineshape, tau_s=3600.0)

    def test_other_bin_width_rejected(self, default_lineshape):
        # every spectrum is checked against the RF grid, not only the first
        receiver = make_receiver()
        cal = truth_cal(0, REF_NU, receiver)
        a = make_processed(0, REF_NU, np.zeros(500), sigma=1e-3)
        b = dataclasses.replace(make_processed(1, REF_NU, np.zeros(500), sigma=1e-3),
                                bin_width_hz=50.0)
        with pytest.raises(DataError, match="step 1: bin width 50.0 Hz"):
            combine_spectra([a, b], [cal], receiver, default_lineshape, tau_s=3600.0)

    def test_lineshape_on_another_bin_width_rejected(self):
        receiver = make_receiver()
        cal = truth_cal(0, REF_NU, receiver)
        processed = [make_processed(0, REF_NU, np.zeros(500), sigma=1e-3)]
        with pytest.raises(ConfigError, match="bin width"):
            combine_spectra(
                processed, [cal], receiver, LineshapeParams(bin_width_hz=50.0), tau_s=3600.0
            )


class TestRecordedStepMetadata:
    """remove_structure passes the raw metadata on, so the combine weights
    see each step's recorded nu_c_hz and beta."""

    NU_START = REF_NU - 1000 * 100.0

    def den(self, geometry, lineshape, **meta):
        raw = make_raw(n=2000, nu_start=self.NU_START, **meta)
        processed, _ = remove_structure([raw], SMALL_BAND, lineshape)
        cal = truth_cal(0, REF_NU, make_receiver())
        return combine_spectra(processed, [cal], geometry, lineshape, tau_s=3600.0).den

    def test_recorded_beta_sets_the_weights(self, default_lineshape):
        geometry = make_receiver()
        recorded = self.den(geometry, default_lineshape, nu_c_hz=REF_NU, beta=2.0)
        configured = self.den(
            dataclasses.replace(geometry, beta=2.0), default_lineshape, nu_c_hz=REF_NU
        )
        np.testing.assert_array_equal(recorded, configured)
        nominal = self.den(geometry, default_lineshape, nu_c_hz=REF_NU, beta=7.1)
        covered = nominal > 0
        assert np.max(np.abs(recorded[covered] / nominal[covered] - 1.0)) > 0.1

    def test_missing_nu_c_falls_back_to_band_centre(self, default_lineshape):
        geometry = make_receiver()
        centre = self.NU_START + 1000 * 100.0
        np.testing.assert_array_equal(
            self.den(geometry, default_lineshape),
            self.den(geometry, default_lineshape, nu_c_hz=centre),
        )

    @pytest.mark.parametrize("nu_c", [REF_NU, REF_NU + 12345.6])
    def test_signal_coefficient_equals_per_step_formula(self, default_lineshape, nu_c):
        """The band detuning rule gives the coefficient of the per-step
        differences (nu_start + k * bin_width) - nu_c bit for bit, with the
        recorded tuning on the band centre or off it."""
        geometry = make_receiver()
        raw = make_raw(n=2000, nu_start=self.NU_START, nu_c_hz=nu_c, beta=5.0)
        cal = dataclasses.replace(truth_cal(0, REF_NU, geometry), n_c0_hat=0.45, s_hat=0.5)
        receiver = dataclasses.replace(
            dataclasses.replace(geometry, nu_c=nu_c, beta=5.0),
            n_c0=0.45, n_a=cal.n_a_hat, g_s=squeezer_ratio(geometry.eta, 0.5),
        )
        hyp = AxionHypothesis(nu_a_hz=nu_c, g_ksvz=1.0, snr_ref=2.0)
        a_ref = reference_amplitude(hyp, receiver, default_lineshape, tau_s=600.0)
        freqs = raw.nu_start_hz + np.arange(raw.n_bins) * raw.bin_width_hz
        expected = a_ref / raw.bin_width_hz * visibility(receiver, hyp, freqs - nu_c)
        got = _signal_coefficient(raw, cal, geometry, default_lineshape, 600.0, 2.0)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(
        "meta", [{"nu_c_hz": "4.14e9"}, {"beta": "7.1"}, {"beta": 0.0}, {"nu_c_hz": True}]
    )
    def test_unusable_recorded_value_rejected(self, default_lineshape, meta):
        with pytest.raises(DataError, match="not a positive number"):
            self.den(make_receiver(), default_lineshape, **meta)


class TestCoadd:
    def uncorrelated_report(self, lineshape):
        return FilterReport(
            n_spectra=9, t_signal=1.0, wide_suppression=0.0,
            gamma=np.array([1.0]), kernel=canonical_kernel(REF_NU, lineshape),
        )

    def test_reduces_to_classic_matched_filter(self, default_lineshape):
        report = self.uncorrelated_report(default_lineshape)
        w = report.kernel
        rng = np.random.default_rng(3)
        num = rng.standard_normal(600)
        den = np.full(600, 4.0)
        combined = CombinedSpectrum(
            rf_start_hz=REF_NU, bin_width_hz=100.0, num=num, den=den,
            n_contrib=np.ones(600, dtype=np.int32),
        )
        grand = coadd_grand(combined, report)
        q = 300
        expect = np.dot(w, num[q:q + w.size]) / math.sqrt(
            np.dot(w**2, den[q:q + w.size])
        )
        assert grand.x[q] == pytest.approx(expect, rel=1e-12)

    def test_sensitivity_consistent_with_response(self, default_lineshape):
        """A kernel-shaped deposit of amplitude g^2 must standardize to
        exactly g^2 * eta_sens."""
        report = self.uncorrelated_report(default_lineshape)
        w = report.kernel
        d0, g2, q = 9.0, 3.0, 200
        num = np.zeros(600)
        num[q:q + w.size] = g2 * d0 * w
        combined = CombinedSpectrum(
            rf_start_hz=REF_NU, bin_width_hz=100.0, num=num,
            den=np.full(600, d0), n_contrib=np.ones(600, dtype=np.int32),
        )
        grand = coadd_grand(combined, report)
        assert grand.x[q] == pytest.approx(g2 * grand.eta_sens[q], rel=1e-12)
        assert grand.eta_sens[q] == pytest.approx(
            math.sqrt(d0 * np.dot(w, w)), rel=1e-12
        )

    def test_attenuation_scales_sensitivity_only(self, default_lineshape):
        full = self.uncorrelated_report(default_lineshape)
        damped = dataclasses.replace(full, t_signal=0.87)
        combined = CombinedSpectrum(
            rf_start_hz=REF_NU, bin_width_hz=100.0,
            num=np.random.default_rng(0).standard_normal(400),
            den=np.full(400, 2.0), n_contrib=np.ones(400, dtype=np.int32),
        )
        a = coadd_grand(combined, full)
        b = coadd_grand(combined, damped)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_allclose(b.eta_sens, 0.87 * a.eta_sens, rtol=1e-12)

    def test_partial_coverage_flagged(self, default_lineshape):
        report = self.uncorrelated_report(default_lineshape)
        den = np.full(400, 2.0)
        den[250:] = 0.0
        combined = CombinedSpectrum(
            rf_start_hz=REF_NU, bin_width_hz=100.0, num=np.zeros(400), den=den,
            n_contrib=np.ones(400, dtype=np.int32),
        )
        grand = coadd_grand(combined, report)
        span = report.kernel.size
        assert grand.valid[:250 - span].all()
        assert not grand.valid[245:].any()
        # validity switches off exactly where kernel support drops
        np.testing.assert_array_equal(
            grand.valid, (grand.support >= 0.999) & (grand.eta_sens > 0)
        )
        assert grand.support[100] == pytest.approx(1.0)

    def test_zero_transfer_leaves_no_valid_bin(self, default_lineshape, tmp_path):
        """A filter that passes no signal gives eta_sens = 0 everywhere, so
        no bin is valid, and the file read back agrees."""
        report = dataclasses.replace(self.uncorrelated_report(default_lineshape), t_signal=0.0)
        combined = CombinedSpectrum(
            rf_start_hz=REF_NU, bin_width_hz=100.0,
            num=np.random.default_rng(1).standard_normal(400),
            den=np.full(400, 2.0), n_contrib=np.ones(400, dtype=np.int32),
        )
        grand = coadd_grand(combined, report)
        assert not grand.valid.any()
        write_grand_spectrum(grand, tmp_path / "grand.dat")
        back = read_grand_spectrum(tmp_path / "grand.dat")
        np.testing.assert_array_equal(back.valid, grand.valid)

    def test_span_must_fit(self, default_lineshape):
        report = self.uncorrelated_report(default_lineshape)
        tiny = CombinedSpectrum(
            rf_start_hz=REF_NU, bin_width_hz=100.0, num=np.zeros(5),
            den=np.ones(5), n_contrib=np.ones(5, dtype=np.int32),
        )
        with pytest.raises(DataError):
            coadd_grand(tiny, report)


def make_grand(n=1000, rf_start=4.1497e9, **overrides):
    if "x" in overrides:
        n = overrides["x"].size
    fields = dict(
        rf_start_hz=rf_start, bin_width_hz=100.0,
        x=np.zeros(n), eta_sens=np.ones(n),
        n_contrib=np.ones(n, dtype=np.int32),
        support=np.ones(n), valid=np.ones(n, dtype=bool),
        metadata={},
    )
    fields.update(overrides)
    return GrandSpectrum(**fields)


class TestRescanFlagging:
    def test_merging_and_ordering(self):
        x = np.zeros(1000)
        x[100], x[150], x[400] = 4.0, 5.0, 3.6
        rescans = flag_rescans(make_grand(x=x), 3.455, 90)
        sigs = [c.significance for c in rescans.candidates]
        assert sigs == [5.0, 3.6]
        top = rescans.candidates[0]
        assert top.rf_index == 150
        assert top.n_merged == 2

    def test_threshold_is_inclusive(self):
        x = np.zeros(500)
        x[30] = 3.455
        rescans = flag_rescans(make_grand(x=x), 3.455, 90)
        assert len(rescans.candidates) == 1

    def test_dead_bins_never_flagged(self):
        x = np.zeros(500)
        x[40] = 9.0
        eta = np.ones(500)
        eta[40] = 0.0
        rescans = flag_rescans(make_grand(x=x, eta_sens=eta), 3.455, 90)
        assert rescans.candidates == ()

    def test_partial_support_never_flagged(self):
        x = np.zeros(500)
        x[40] = 9.0
        support = np.ones(500)
        support[:45] = 0.6  # band edge: the kernel falls partly on uncovered bins
        grand = make_grand(x=x, support=support, valid=support >= MIN_SUPPORT)
        assert flag_rescans(grand, 3.455, 90).candidates == ()

    def test_to_dict_round_shape(self):
        x = np.zeros(500)
        x[77] = 4.2
        d = flag_rescans(make_grand(x=x), 3.455, 90).to_dict()
        assert d["candidates"][0]["rf_index"] == 77


class TestPersistence:
    def cand(self, grand, idx, sig=4.0):
        from haloscan import RescanCandidate
        return RescanCandidate(
            nu_hz=float(grand.rf_start_hz + idx * grand.bin_width_hz),
            rf_index=idx, significance=sig, n_merged=1,
        )

    def test_persisting_candidate(self):
        grand = make_grand()
        grand.x[500] = 4.4
        rec = check_persistence([self.cand(grand, 498)], grand, 3.455, 90)[0]
        assert rec["persisted"] and rec["covered"]
        assert rec["significance_rescan"] == pytest.approx(4.4)

    def test_vanishing_candidate(self):
        grand = make_grand()
        rec = check_persistence([self.cand(grand, 500)], grand, 3.455, 90)[0]
        assert rec["covered"] and not rec["persisted"]

    def test_uncovered_frequency(self):
        grand = make_grand(n=100)
        off = dataclasses.replace(
            self.cand(grand, 0), nu_hz=grand.rf_start_hz - 5e6, rf_index=0
        )
        rec = check_persistence([off], grand, 3.455, 9)[0]
        assert not rec["covered"] and not rec["persisted"]

    def test_invalid_window_not_covered(self):
        grand = make_grand(valid=np.zeros(1000, dtype=bool))
        grand.x[500] = 9.0
        rec = check_persistence([self.cand(grand, 500)], grand, 3.455, 90)[0]
        assert not rec["covered"]


@pytest.fixture(scope="module")
def nine_step_run():
    plan = make_tuning_plan(4.1396e9, 4.14028e9, 85e3, master_seed=99)
    receiver = make_receiver()
    baseline_seed_plan = plan
    from haloscan import make_baseline_model
    baseline = make_baseline_model(
        master_seed=99, n_components=(3, 5), excursion=0.3
    )
    spectra, calsets = simulate_campaign(
        plan, receiver, baseline, tau_s=600.0, n_bins=4000, cal_every=4
    )
    cal_results = [run_calibration(cs, make_receiver()) for cs in calsets]
    return plan, receiver, spectra, cal_results


class TestEndToEnd:
    def test_null_grand_is_standardized(self, nine_step_run, default_lineshape):
        plan, receiver, spectra, cal_results = nine_step_run
        out = process_campaign(
            spectra, cal_results, receiver, default_lineshape,
            SMALL_BAND, tau_s=600.0,
        )
        x = out.grand.x[out.grand.valid]
        assert x.size > 8000
        assert abs(x.mean()) < 0.05
        assert x.std() == pytest.approx(1.0, abs=0.1)
        assert out.cut_log.n_cut == 0

    def test_injected_line_flagged_for_rescan(self, default_lineshape):
        plan = make_tuning_plan(4.1396e9, 4.14028e9, 85e3, master_seed=101)
        receiver = make_receiver()
        from haloscan import make_baseline_model
        baseline = make_baseline_model(master_seed=101, n_components=(3, 5),
                                       excursion=0.3)
        nu_a = plan.steps[4].nu_c_hz + 30e3
        hyp = AxionHypothesis(nu_a_hz=nu_a, g_ksvz=2.0)
        spectra, calsets = simulate_campaign(
            plan, receiver, baseline, hypotheses=(hyp,), tau_s=600.0,
            n_bins=4000, cal_every=4,
        )
        cal_results = [run_calibration(cs, make_receiver()) for cs in calsets]
        out = process_campaign(
            spectra, cal_results, receiver, default_lineshape,
            SMALL_BAND, tau_s=600.0,
        )
        assert out.rescans.candidates
        best = out.rescans.candidates[0]
        assert abs(best.nu_hz - nu_a) < 90 * 100.0

    def test_gain_rescale_invariance(self, nine_step_run, default_lineshape):
        plan, receiver, spectra, cal_results = nine_step_run
        settings = SMALL_BAND
        base = process_campaign(
            spectra, cal_results, receiver, default_lineshape, settings, tau_s=600.0
        )
        scaled = [
            dataclasses.replace(s, psd=3.7 * s.psd) for s in spectra
        ]
        redo = process_campaign(
            scaled, cal_results, receiver, default_lineshape, settings, tau_s=600.0
        )
        np.testing.assert_allclose(redo.grand.x, base.grand.x, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            redo.grand.eta_sens, base.grand.eta_sens, rtol=1e-9
        )

    def test_all_cut_raises(self, nine_step_run, default_lineshape):
        plan, receiver, spectra, cal_results = nine_step_run
        settings = dataclasses.replace(SMALL_BAND, cuts=CutCriteria(
            drift_hz_max=0.0, squeezing_db_min=None,
            probe_power_lo=0.5, probe_power_hi=1.5,
        ))
        with pytest.raises(DataError):
            process_campaign(
                spectra, cal_results, receiver, default_lineshape,
                settings, tau_s=600.0,
            )


@pytest.fixture(scope="module")
def fifty_step_group():
    """50 overlapping 2000-bin steps under a wavy baseline, truth calibrations."""
    plan = make_tuning_plan(4.1396e9, 4.1396e9 + 49 * 20e3, 20e3, master_seed=31)
    receiver = make_receiver()
    from haloscan import make_baseline_model
    baseline = make_baseline_model(master_seed=31, n_components=(3, 5), excursion=0.3)
    spectra, _ = simulate_campaign(
        plan, receiver, baseline, tau_s=600.0, n_bins=2000, cal_every=100
    )
    cal = [truth_cal(s.step_id, s.nu_c_hz, receiver) for s in plan.steps[::7]]
    return spectra, cal, receiver


def one_spectrum_at_a_time(spectra, settings):
    """The unbatched stage 2: np.mean over the stacked normalized rows for
    stage 1, then one FFT convolution per spectrum."""
    normalized = [s.psd / s.psd.mean() for s in spectra]
    b1 = _savgol_interp(np.mean(normalized, axis=0), settings.if_window_bins, settings.if_order)
    trim = max(settings.if_window_bins, settings.rf_window_bins) // 2
    return [
        _detrend_interior(row / b1, settings.rf_window_bins, settings.rf_order, trim)
        for row in normalized
    ]


GROUP_SIZES = [1, STAGE2_CHUNK, STAGE2_CHUNK + 1, 50]


class TestStreamedGroup:
    @pytest.mark.parametrize("size", GROUP_SIZES)
    def test_process_group_matches_the_chain(self, fifty_step_group, size):
        spectra, cal, receiver = fifty_step_group
        group, lineshape = spectra[:size], LineshapeParams()
        grand, _, step_ids, report = process_group(
            group, cal, receiver, lineshape, SMALL_BAND, tau_s=600.0
        )
        processed, chain_report = remove_structure(group, SMALL_BAND, lineshape)
        combined = combine_spectra(processed, cal, receiver, lineshape, tau_s=600.0)
        chain = coadd_grand(combined, chain_report)
        for name in ("x", "eta_sens", "support", "n_contrib"):
            assert getattr(grand, name).tobytes() == getattr(chain, name).tobytes(), name
        assert report.t_signal == chain_report.t_signal
        assert step_ids == tuple(s.step_id for s in group)

    @pytest.mark.parametrize("size", GROUP_SIZES)
    def test_batched_stage_two_matches_one_spectrum_at_a_time(self, fifty_step_group, size):
        spectra, _, _ = fifty_step_group
        group = spectra[:size]
        processed, _ = remove_structure(group, SMALL_BAND, LineshapeParams())
        expected = one_spectrum_at_a_time(group, SMALL_BAND)
        assert [p.step_id for p in processed] == [s.step_id for s in group]
        for p, excess in zip(processed, expected):
            assert p.excess.tobytes() == excess.tobytes()


class TestGrandFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        grand = make_grand(
            n=200,
            x=rng.standard_normal(200),
            eta_sens=np.abs(rng.standard_normal(200)) + 0.1,
            n_contrib=rng.integers(0, 50, 200).astype(np.int32),
            support=np.where(rng.random(200) < 0.1, 0.5, rng.uniform(0.999, 1.0, 200)),
            metadata={"config_hash": "abc123", "master_seed": 7},
        )
        grand.valid = (grand.eta_sens > 0) & (grand.support >= 0.999)
        path = tmp_path / "grand.dat"
        write_grand_spectrum(grand, path)
        back = read_grand_spectrum(path)
        np.testing.assert_array_equal(back.x, grand.x)
        np.testing.assert_array_equal(back.eta_sens, grand.eta_sens)
        np.testing.assert_array_equal(back.n_contrib, grand.n_contrib)
        assert back.n_contrib.dtype == np.int32
        np.testing.assert_array_equal(back.valid, grand.valid)
        np.testing.assert_array_equal(back.support, grand.support)
        assert back.metadata == {"config_hash": "abc123", "master_seed": 7}
        assert back.rf_start_hz == grand.rf_start_hz

    def test_write_is_deterministic(self, tmp_path):
        grand = make_grand(n=50, metadata={"master_seed": 7, "config_hash": "abc"})
        write_grand_spectrum(grand, tmp_path / "a.dat")
        write_grand_spectrum(grand, tmp_path / "b.dat")
        assert (tmp_path / "a.dat").read_bytes() == (tmp_path / "b.dat").read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"something-else v2\n{}\n")
        with pytest.raises(DataError):
            read_grand_spectrum(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"haloscan-grand v9\n")
        with pytest.raises(DataError, match="version"):
            read_grand_spectrum(path)

    def test_v1_text_file_refused(self, tmp_path):
        path = tmp_path / "old.dat"
        path.write_text(
            "haloscan-grand v1\n# rf_start_hz 4149700000.0\n# bin_width_hz 100.0\n"
            "# n_bins 1\n4149700000.0 0.1 1.0 3 1.000000\n"
        )
        with pytest.raises(DataError, match="re-run `haloscan simulate`"):
            read_grand_spectrum(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "grand.dat"
        write_grand_spectrum(make_grand(n=50), path)
        magic, header, payload = split_array_file(path)
        header["n_bins"] = 49
        join_array_file(path, magic, header, payload)
        with pytest.raises(DataError, match="49 bins"):
            read_grand_spectrum(path)

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "grand.dat"
        write_grand_spectrum(make_grand(n=10), path)
        magic, header, payload = split_array_file(path)
        join_array_file(path, magic, header, payload.replace(b"\x93NUMPY", b"zapzap", 1))
        with pytest.raises(DataError):
            read_grand_spectrum(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "grand.dat"
        write_grand_spectrum(make_grand(n=10), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError):
            read_grand_spectrum(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "grand.dat"
        write_grand_spectrum(make_grand(n=10), path)
        magic, header, payload = split_array_file(path)
        del header["rf_start_hz"]
        join_array_file(path, magic, header, payload)
        with pytest.raises(DataError, match="rf_start_hz"):
            read_grand_spectrum(path)

    def test_metadata_key_collision(self, tmp_path):
        grand = make_grand(n=10, metadata={"bin_width_hz": 50.0})
        with pytest.raises(DataError):
            write_grand_spectrum(grand, tmp_path / "c.dat")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_grand_spectrum(tmp_path / "none.dat")
