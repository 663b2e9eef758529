"""Campaign generation: plans, seeding, spectrum statistics, anomalies."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from haloscan import (
    AxionHypothesis,
    ConfigError,
    LineshapeParams,
    RawSpectrum,
    bin_signal,
    derive_seed,
    make_baseline_model,
    make_tuning_plan,
    noise_budget,
    rescan_steps,
    simulate_calibration,
    simulate_campaign,
    simulate_rescans,
    simulate_spectrum,
)
from haloscan.campaign import (
    STREAM_BASELINE,
    STREAM_RESCAN,
    STREAM_SPECTRUM,
    _shared_baseline,
    band_start,
    draw_step_effects,
)
from conftest import make_receiver


class TestTuningPlan:
    def test_paper_scale_step_count(self):
        # 918 candidate centers at 85 kHz over 78 MHz, 59 fall in the notch
        plan = make_tuning_plan(
            4.100e9, 4.178e9, 85e3, ((4.140e9, 4.145e9),), master_seed=1
        )
        assert plan.n_steps == 859
        centers = np.array([s.nu_c_hz for s in plan.steps])
        assert not np.any((centers >= 4.140e9) & (centers <= 4.145e9))
        assert np.all(np.diff(centers) > 0)

    def test_without_notch(self):
        plan = make_tuning_plan(4.100e9, 4.178e9, 85e3, master_seed=1)
        assert plan.n_steps == 918

    def test_single_step(self):
        plan = make_tuning_plan(4.14e9, 4.14e9, 85e3, master_seed=1)
        assert plan.n_steps == 1
        assert plan.steps[0].nu_c_hz == 4.14e9

    def test_step_ids_sequential(self):
        plan = make_tuning_plan(4.1e9, 4.101e9, 100e3, master_seed=1)
        assert [s.step_id for s in plan.steps] == list(range(plan.n_steps))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            make_tuning_plan(4.2e9, 4.1e9, 85e3)
        with pytest.raises(ConfigError):
            make_tuning_plan(4.1e9, 4.2e9, 0.0)
        with pytest.raises(ConfigError):
            make_tuning_plan(4.1e9, 4.2e9, 85e3, ((4.15e9, 4.14e9),))

    def test_nearest_step_breaks_ties_low(self):
        plan = make_tuning_plan(4.10e9, 4.11e9, 1e6, master_seed=1)
        mid = 4.1005e9  # exactly between steps 0 and 1
        assert plan.nearest_step(mid).step_id == 0
        assert plan.nearest_step(4.1007e9).step_id == 1

    def test_per_step_seeds_unique(self):
        plan = make_tuning_plan(4.100e9, 4.178e9, 85e3, master_seed=3)
        seeds = [derive_seed(plan.master_seed, STREAM_SPECTRUM, s.step_id) for s in plan.steps]
        assert len(set(seeds)) == len(seeds)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 0, 7) == derive_seed(42, 0, 7)

    def test_streams_independent(self):
        seen = {derive_seed(42, stream, idx, salt) for stream in range(5)
                for idx in range(20) for salt in (0, 1)}
        assert len(seen) == 5 * 20 * 2

    def test_master_changes_everything(self):
        a = [derive_seed(1, 0, i) for i in range(10)]
        b = [derive_seed(2, 0, i) for i in range(10)]
        assert not set(a) & set(b)


def uncached_baseline(model, step_id, n_bins):
    """BaselineModel.evaluate with the shared component rebuilt per call."""
    t = np.linspace(0.0, 1.0, n_bins)
    base = np.ones(n_bins)
    for order, amp, phase in zip(model.shared_orders, model.shared_amps, model.shared_phases):
        base += amp * np.cos(2.0 * np.pi * order * t + phase)
    rng = np.random.default_rng(derive_seed(model.master_seed, STREAM_BASELINE, 1 + step_id))
    n = int(rng.integers(1, model.step_components_max + 1))
    orders = rng.integers(1, 7, size=n)
    raw = rng.uniform(-1.0, 1.0, size=n)
    amps = model.step_excursion * raw / np.sum(np.abs(raw))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    wiggle = np.ones(n_bins)
    for order, amp, phase in zip(orders, amps, phases):
        wiggle += amp * np.cos(2.0 * np.pi * order * t + phase)
    return base * wiggle


class TestBaselineModel:
    @pytest.mark.parametrize("n_bins", [400, 4000, 30000])
    def test_matches_uncached_evaluation(self, wavy_baseline, n_bins):
        for step_id in (0, 1, 7, 49):
            np.testing.assert_array_equal(
                wavy_baseline.evaluate(step_id, n_bins),
                uncached_baseline(wavy_baseline, step_id, n_bins),
            )

    def test_cached_arrays_are_read_only(self, wavy_baseline):
        t, base = _shared_baseline(wavy_baseline, 400)
        assert not t.flags.writeable
        assert not base.flags.writeable
        with pytest.raises(ValueError):
            base[0] = 2.0

    def test_writing_a_result_leaves_the_next_call_alone(self, wavy_baseline):
        first = wavy_baseline.evaluate(3, 400)
        expected = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(wavy_baseline.evaluate(3, 400), expected)

    def test_equal_models_share_output(self):
        a = make_baseline_model(91, n_components=(3, 5), excursion=0.30)
        b = make_baseline_model(91, n_components=(3, 5), excursion=0.30)
        assert a is not b and a == b
        assert _shared_baseline(a, 4000) is _shared_baseline(b, 4000)
        np.testing.assert_array_equal(a.evaluate(2, 4000), b.evaluate(2, 4000))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_components": (-1, 2)},
            {"excursion": math.nan},
            {"step_components_max": 0},
            {"step_excursion": 1.5},
            {"step_excursion": -0.1},
            {"step_excursion": math.nan},
        ],
    )
    def test_rejects_out_of_range_settings(self, kwargs):
        with pytest.raises(ConfigError):
            make_baseline_model(77, **kwargs)


class TestSpectrumStatistics:
    def test_relative_fluctuation_tracks_radiometer(self, small_plan, flat_baseline):
        receiver = make_receiver(nu_c=small_plan.steps[4].nu_c_hz)
        spec = simulate_spectrum(
            small_plan.steps[4], receiver, flat_baseline, seed=123,
            tau_s=3600.0, n_bins=30000,
        )
        assert spec.n_averages == 360000
        freqs = spec.frequencies
        truth = receiver.gain * noise_budget(receiver, freqs - receiver.nu_c).total
        eps = spec.psd / truth - 1.0
        assert abs(eps.mean()) < 5.0 / math.sqrt(360000 * 30000) * 3
        assert eps.std() == pytest.approx(1.0 / math.sqrt(360000), rel=0.02)

    def test_quadruple_time_halves_noise(self, small_plan, flat_baseline):
        receiver = make_receiver(nu_c=small_plan.steps[0].nu_c_hz)

        def run(tau):
            s = simulate_spectrum(
                small_plan.steps[0], receiver, flat_baseline, seed=9,
                tau_s=tau, n_bins=20000,
            )
            truth = receiver.gain * noise_budget(
                receiver, s.frequencies - receiver.nu_c
            ).total
            return (s.psd / truth - 1.0).std()

        assert run(3600.0) / run(4 * 3600.0) == pytest.approx(2.0, rel=0.05)

    def test_determinism(self, small_plan, wavy_baseline):
        receiver = make_receiver(nu_c=small_plan.steps[2].nu_c_hz)
        a = simulate_spectrum(small_plan.steps[2], receiver, wavy_baseline, 5, n_bins=2000)
        b = simulate_spectrum(small_plan.steps[2], receiver, wavy_baseline, 5, n_bins=2000)
        c = simulate_spectrum(small_plan.steps[2], receiver, wavy_baseline, 6, n_bins=2000)
        np.testing.assert_array_equal(a.psd, b.psd)
        assert np.any(a.psd != c.psd)

    def test_band_centered_on_step(self, small_plan):
        step = small_plan.steps[3]
        start = band_start(step, 100.0, 30000)
        assert start + 15000 * 100.0 == pytest.approx(step.nu_c_hz)

    def test_gain_scales_psd(self, small_plan, flat_baseline):
        step = small_plan.steps[0]
        r0 = make_receiver(nu_c=step.nu_c_hz, g_a_db=0.0)
        r60 = make_receiver(nu_c=step.nu_c_hz, g_a_db=60.0)
        a = simulate_spectrum(step, r0, flat_baseline, 5, n_bins=500)
        b = simulate_spectrum(step, r60, flat_baseline, 5, n_bins=500)
        np.testing.assert_allclose(b.psd, 1e6 * a.psd, rtol=1e-12)

    def test_injection_is_exactly_additive(self, small_plan, wavy_baseline):
        """Same seed with and without a hypothesis: the ratio isolates the
        deposited signal exactly (multiplicative noise cancels)."""
        step = small_plan.steps[4]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        ls = LineshapeParams()
        hyp = AxionHypothesis(nu_a_hz=step.nu_c_hz + 40e3, g_ksvz=2.0)
        clean = simulate_spectrum(
            step, receiver, wavy_baseline, 44, lineshape=ls, n_bins=30000
        )
        loaded = simulate_spectrum(
            step, receiver, wavy_baseline, 44, hypotheses=[hyp], lineshape=ls, n_bins=30000
        )
        freqs = clean.frequencies
        total = noise_budget(receiver, freqs - receiver.nu_c).total
        expected = bin_signal(
            clean.nu_start_hz, clean.n_bins, hyp, receiver, ls, tau_s=3600.0
        ) / total
        np.testing.assert_allclose(loaded.psd / clean.psd - 1.0, expected, atol=1e-12)

    def test_out_of_band_hypothesis_rejected(self, small_plan, flat_baseline):
        step = small_plan.steps[0]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        hyp = AxionHypothesis(nu_a_hz=step.nu_c_hz + 1e9, g_ksvz=1.0)
        with pytest.raises(ConfigError):
            simulate_spectrum(
                step, receiver, flat_baseline, 1, hypotheses=[hyp], n_bins=2000
            )


    def test_lineshape_on_another_bin_width_rejected(self, small_plan, flat_baseline):
        step = small_plan.steps[0]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        with pytest.raises(ConfigError, match="bin width"):
            simulate_spectrum(
                step, receiver, flat_baseline, 1, n_bins=2000,
                lineshape=LineshapeParams(bin_width_hz=50.0), bin_width_hz=100.0,
            )


def simulate_spectrum_literal(step, receiver, baseline_model, seed, *, n_segments,
                              bin_width_hz=100.0, n_bins=4096):
    """Segment-by-segment oracle for simulate_spectrum's 1/sqrt(n) shortcut.

    Builds each segment's complex baseband trace from the true PSD, takes
    its periodogram and averages: the same mean as simulate_spectrum, with
    the exact finite-average (chi-squared) bin statistics.
    """
    nu_start = band_start(step, bin_width_hz, n_bins)
    freqs = nu_start + np.arange(n_bins) * bin_width_hz
    total = noise_budget(receiver, freqs - receiver.nu_c).total
    psd_true = receiver.gain * baseline_model.evaluate(step.step_id, n_bins) * total

    rng = np.random.default_rng(seed)
    scale = np.sqrt(psd_true / 2.0)
    acc = np.zeros(n_bins)
    for _ in range(n_segments):
        coeff = scale * (rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins))
        trace = np.fft.ifft(coeff) * n_bins
        acc += np.abs(np.fft.fft(trace) / n_bins) ** 2
    return RawSpectrum(
        step_id=step.step_id, nu_start_hz=nu_start, bin_width_hz=bin_width_hz,
        psd=acc / n_segments, n_averages=n_segments,
    )


class TestLiteralMode:
    def test_matches_truth_and_chi_squared_spread(self, small_plan, flat_baseline):
        step = small_plan.steps[0]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        n_seg = 500
        spec = simulate_spectrum_literal(
            step, receiver, flat_baseline, seed=31, n_segments=n_seg, n_bins=2048
        )
        truth = receiver.gain * noise_budget(
            receiver, spec.frequencies - receiver.nu_c
        ).total
        ratio = spec.psd / truth
        assert abs(ratio.mean() - 1.0) < 0.005
        # averaged periodogram of a complex Gaussian process: std 1/sqrt(n)
        assert ratio.std() == pytest.approx(1.0 / math.sqrt(n_seg), rel=0.10)

    def test_agrees_with_fast_path_mean(self, small_plan, wavy_baseline):
        step = small_plan.steps[1]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        lit = simulate_spectrum_literal(
            step, receiver, wavy_baseline, seed=8, n_segments=600, n_bins=1024
        )
        fast = simulate_spectrum(
            step, receiver, wavy_baseline, seed=8, tau_s=600 / 100.0, n_bins=1024
        )
        # same truth curve underneath independent noise draws
        assert np.corrcoef(lit.psd, fast.psd)[0, 1] > 0.9
        assert lit.psd.mean() / fast.psd.mean() == pytest.approx(1.0, abs=0.01)


class TestStepEffects:
    def test_nominal_diagnostics(self):
        receiver = make_receiver()
        eff, meta, spike = draw_step_effects(10, 0, receiver, anomaly_rate=0.0)
        assert eff is receiver
        assert spike is None
        assert meta["truth_anomaly"] == "none"
        assert meta["freq_drift_hz"] < 10e3
        assert meta["squeezing_db"] == pytest.approx(-10 * math.log10(0.4), abs=0.5)
        assert 0.9 < meta["probe_power"] < 1.1

    def test_anomaly_rate(self):
        receiver = make_receiver()
        kinds = []
        for step_id in range(600):
            _, meta, _ = draw_step_effects(10, step_id, receiver, anomaly_rate=0.3)
            kinds.append(meta["truth_anomaly"])
        frac = np.mean([k != "none" for k in kinds])
        assert abs(frac - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 600)
        assert {"drift", "jpa_sag", "probe"} <= set(kinds)

    def test_drift_moves_the_resonance(self):
        receiver = make_receiver()
        for step_id in range(200):
            eff, meta, _ = draw_step_effects(10, step_id, receiver, anomaly_rate=1.0,
                                             anomaly_types=("drift",))
            assert meta["truth_anomaly"] == "drift"
            assert 1e5 <= meta["freq_drift_hz"] <= 3e5
            assert abs(eff.nu_c - receiver.nu_c) == pytest.approx(meta["freq_drift_hz"])

    def test_sag_raises_delivered_noise(self):
        receiver = make_receiver()
        eff, meta, _ = draw_step_effects(11, 3, receiver, anomaly_rate=1.0,
                                         anomaly_types=("jpa_sag",))
        assert eff.delivered > receiver.delivered
        assert meta["squeezing_db"] < -10 * math.log10(0.4) - 0.5

    def test_no_sag_offered_when_unsqueezed(self):
        receiver = make_receiver(g_s=1.0)
        for step_id in range(100):
            _, meta, _ = draw_step_effects(12, step_id, receiver, anomaly_rate=1.0,
                                           anomaly_types=("jpa_sag",))
            assert meta["truth_anomaly"] == "none"

    def test_deterministic_per_step(self):
        receiver = make_receiver()
        a = draw_step_effects(10, 5, receiver, anomaly_rate=0.5)
        b = draw_step_effects(10, 5, receiver, anomaly_rate=0.5)
        assert a[1] == b[1]


class TestCalibrationSimulation:
    def test_well_formed(self, small_plan):
        step = small_plan.steps[0]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        cs = simulate_calibration(step, receiver, seed=6, n_bins=3000)
        assert cs.step_id == step.step_id
        assert cs.t_hot_k == 0.333
        for role, spec in cs.spectra().items():
            assert spec.n_bins == 3000
            assert np.all(spec.psd > 0)
            assert spec.metadata["role"] == role
        assert cs.hot.psd.mean() > cs.cold.psd.mean()

    def test_hot_must_be_hotter(self, small_plan):
        receiver = make_receiver()
        with pytest.raises(ConfigError):
            simulate_calibration(
                small_plan.steps[0], receiver, 6, t_hot_k=0.061, t_cold_k=0.333
            )

    def test_off_resonance_benchmark_is_flat(self, small_plan):
        # meas1 sits far from the cavity: no Lorentzian structure
        step = small_plan.steps[0]
        receiver = make_receiver(nu_c=step.nu_c_hz)
        cs = simulate_calibration(step, receiver, seed=6, n_bins=8000, tau_s=3600.0)
        m1 = cs.meas1.psd
        halves = abs(m1[:4000].mean() - m1[4000:].mean()) / m1.mean()
        assert halves < 1e-3
        # squeezer-on measurement shows the cavity bump (hot rod vs squeezed bath)
        m2 = cs.meas2.psd
        assert m2[3800:4200].mean() / m2[:400].mean() > 1.25
        # squeezer-off contrast is weaker but still present
        m3 = cs.meas3.psd
        assert 1.02 < m3[3800:4200].mean() / m3[:400].mean() < 1.25


class TestCampaignOrchestration:
    def test_counts_and_cadence(self, flat_baseline):
        plan = make_tuning_plan(4.1500e9, 4.15153e9, 85e3, master_seed=21)  # 19 steps
        assert plan.n_steps == 19
        receiver = make_receiver()
        spectra, calsets = simulate_campaign(
            plan, receiver, flat_baseline, tau_s=10.0, n_bins=600, cal_every=9
        )
        assert len(spectra) == 19
        assert [c.step_id for c in calsets] == [0, 9, 18]
        assert [s.step_id for s in spectra] == list(range(19))

    def test_step_regenerates_in_isolation(self, wavy_baseline):
        """A campaign spectrum is simulate_spectrum at the step's nominal
        receiver, seeded from the master seed and its step_id alone."""
        plan = make_tuning_plan(4.1500e9, 4.15068e9, 85e3, master_seed=28)
        receiver = make_receiver()
        shape = dict(tau_s=5.0, bin_width_hz=100.0, n_bins=400)
        spectra, _ = simulate_campaign(plan, receiver, wavy_baseline, **shape)
        step = plan.steps[5]
        nominal = dataclasses.replace(receiver, nu_c=step.nu_c_hz)
        _, diag, _ = draw_step_effects(plan.master_seed, step.step_id, nominal, n_bins=400)
        want = simulate_spectrum(
            step, nominal, wavy_baseline,
            derive_seed(plan.master_seed, STREAM_SPECTRUM, step.step_id),
            metadata=diag, **shape,
        )
        np.testing.assert_array_equal(spectra[5].psd, want.psd)
        assert spectra[5].metadata == want.metadata

    def test_thread_invariance(self, wavy_baseline):
        plan = make_tuning_plan(4.1500e9, 4.15068e9, 85e3, master_seed=22)
        receiver = make_receiver()
        serial, _ = simulate_campaign(
            plan, receiver, wavy_baseline, tau_s=5.0, n_bins=400, threads=1
        )
        threaded, _ = simulate_campaign(
            plan, receiver, wavy_baseline, tau_s=5.0, n_bins=400, threads=4
        )
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.psd, b.psd)

    def test_starts_no_threads(self, wavy_baseline, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        plan = make_tuning_plan(4.1500e9, 4.15068e9, 85e3, master_seed=22)
        receiver = make_receiver()
        spectra, _ = simulate_campaign(
            plan, receiver, wavy_baseline, tau_s=5.0, n_bins=400, threads=4
        )
        rescans = simulate_rescans(
            plan, plan.steps[:2], receiver, wavy_baseline, tau_s=5.0, n_bins=400, threads=4
        )
        assert [s.step_id for s in spectra] == list(range(plan.n_steps))
        assert [r.step_id for r in rescans] == [0, 1]

    def test_anomalies_do_not_touch_calibrations(self, flat_baseline):
        plan = make_tuning_plan(4.1500e9, 4.15068e9, 85e3, master_seed=23)
        receiver = make_receiver()
        _, cal_a = simulate_campaign(
            plan, receiver, flat_baseline, tau_s=5.0, n_bins=400, anomaly_rate=0.0
        )
        _, cal_b = simulate_campaign(
            plan, receiver, flat_baseline, tau_s=5.0, n_bins=400, anomaly_rate=1.0
        )
        np.testing.assert_array_equal(cal_a[0].meas2.psd, cal_b[0].meas2.psd)

    def test_injected_hypothesis_lands_only_in_covering_steps(self, flat_baseline):
        plan = make_tuning_plan(4.1500e9, 4.15153e9, 85e3, master_seed=24)
        receiver = make_receiver()
        nu_a = plan.steps[9].nu_c_hz + 10e3
        hyp = AxionHypothesis(nu_a_hz=nu_a, g_ksvz=50.0)
        with_sig, _ = simulate_campaign(
            plan, receiver, flat_baseline, hypotheses=(hyp,), tau_s=5.0, n_bins=400
        )
        without, _ = simulate_campaign(
            plan, receiver, flat_baseline, tau_s=5.0, n_bins=400
        )
        changed = [
            a.step_id
            for a, b in zip(with_sig, without)
            if np.any(a.psd != b.psd)
        ]
        # band half-width 200 bins * 100 Hz = 20 kHz: only the covering steps
        assert changed
        for sid in changed:
            assert abs(plan.steps[sid].nu_c_hz - nu_a) < 0.5 * 400 * 100.0 + 60e3


class TestRescans:
    def test_rescan_steps_unique_sorted(self):
        plan = make_tuning_plan(4.1500e9, 4.15153e9, 85e3, master_seed=25)
        freqs = [plan.steps[4].nu_c_hz + 1e3, plan.steps[4].nu_c_hz - 2e3,
                 plan.steps[11].nu_c_hz]
        steps = rescan_steps(plan, freqs)
        assert [s.step_id for s in steps] == [4, 11]

    def test_fresh_noise_same_truth(self, wavy_baseline):
        plan = make_tuning_plan(4.1500e9, 4.15068e9, 85e3, master_seed=26)
        receiver = make_receiver()
        initial, _ = simulate_campaign(
            plan, receiver, wavy_baseline, tau_s=50.0, n_bins=2000
        )
        rescans = simulate_rescans(
            plan, plan.steps[:2], receiver, wavy_baseline, tau_s=50.0, n_bins=2000
        )
        assert [r.step_id for r in rescans] == [0, 1]
        for first, second in zip(initial[:2], rescans):
            assert np.any(first.psd != second.psd)  # new noise draw
            ratio = second.psd / first.psd
            assert ratio.std() < 3.0 / math.sqrt(50.0 * 100.0)  # same underlying truth
            assert second.metadata["rescan"] is True
            assert second.metadata["t_acq_s"] > first.metadata["t_acq_s"]

    def test_matches_simulate_spectrum_exactly(self, wavy_baseline):
        """A rescan is simulate_spectrum at the step's nominal receiver, with
        the rescan noise seed and the salt-1 diagnostics, timed after the scan."""
        plan = make_tuning_plan(4.1500e9, 4.15068e9, 85e3, master_seed=27)
        receiver = make_receiver()
        ls = LineshapeParams(bin_width_hz=50.0)
        shape = dict(tau_s=20.0, bin_width_hz=50.0, n_bins=800)
        steps = [plan.steps[1], plan.steps[3]]
        hyp = AxionHypothesis(nu_a_hz=steps[0].nu_c_hz + 5e3, g_ksvz=20.0)
        rescans = simulate_rescans(
            plan, steps, receiver, wavy_baseline, hypotheses=(hyp,), lineshape=ls, **shape
        )
        assert [r.step_id for r in rescans] == [1, 3]
        for order, (step, got, in_band) in enumerate(zip(steps, rescans, ([hyp], []))):
            nominal = dataclasses.replace(receiver, nu_c=step.nu_c_hz)
            _, diag, _ = draw_step_effects(plan.master_seed, step.step_id, nominal, salt=1)
            want = simulate_spectrum(
                step, nominal, wavy_baseline,
                derive_seed(plan.master_seed, STREAM_RESCAN, step.step_id),
                hypotheses=in_band, lineshape=ls, metadata=diag, **shape,
            )
            np.testing.assert_array_equal(got.psd, want.psd)
            assert (got.nu_start_hz, got.bin_width_hz, got.n_averages) == (
                want.nu_start_hz, want.bin_width_hz, want.n_averages
            )
            assert got.metadata == dict(
                want.metadata, rescan=True, t_acq_s=(plan.n_steps + order) * 20.0
            )
