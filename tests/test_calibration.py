"""Calibration estimators: closures, flags, assignment, serialization."""

import dataclasses
import math

import numpy as np
import pytest

from haloscan import (
    CalibrationResult,
    ConfigError,
    DataError,
    assign_calibrations,
    cavity_reflectance,
    infer_added_noise,
    infer_cavity_noise,
    infer_squeezing,
    read_calibration_results,
    run_calibration,
    simulate_calibration,
    thermal_quanta,
    write_calibration_results,
)
from conftest import REF_KAPPA_L, make_receiver


def noiseless_calset(receiver, step, *, n_bins=2000, n_averages=360000):
    """Calibration block whose spectra follow the measurement model exactly."""
    cs = simulate_calibration(
        step, receiver, seed=0, n_bins=n_bins, tau_s=n_averages / 100.0
    )
    freqs = cs.meas1.frequencies
    refl = cavity_reflectance(freqs - receiver.nu_c, receiver.kappa_l, receiver.beta)
    absorbed = 1.0 - refl
    g = receiver.gain
    truth = {
        "meas1": g * np.full(n_bins, receiver.n_f + receiver.n_a),
        "meas2": g * (receiver.n_c0 * absorbed
                      + receiver.delivered * receiver.n_f * refl + receiver.n_a),
        "meas3": g * (receiver.n_c0 * absorbed + receiver.n_f * refl + receiver.n_a),
        "hot": g * (thermal_quanta(freqs, cs.t_hot_k) + receiver.n_a),
        "cold": g * (thermal_quanta(freqs, cs.t_cold_k) + receiver.n_a),
    }
    return dataclasses.replace(
        cs,
        **{
            role: dataclasses.replace(getattr(cs, role), psd=truth[role])
            for role in cs.ROLES
        },
    )


@pytest.fixture()
def cal_step(small_plan):
    return small_plan.steps[0]


class TestAddedNoise:
    def test_noiseless_closure_is_exact(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, g_a_db=60.0)
        cs = noiseless_calset(receiver, cal_step)
        fit = infer_added_noise(cs.hot, cs.cold, cs.t_hot_k, cs.t_cold_k)
        assert fit.n_a_hat == pytest.approx(receiver.n_a, rel=1e-10)
        assert fit.gain_hat == pytest.approx(receiver.gain, rel=1e-10)
        assert fit.gain_db_hat == pytest.approx(60.0, abs=1e-9)
        assert fit.flags == ()

    def test_swapped_arguments_auto_corrected(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        fit = infer_added_noise(cs.cold, cs.hot, cs.t_cold_k, cs.t_hot_k)
        assert fit.n_a_hat == pytest.approx(receiver.n_a, rel=1e-10)

    def test_equal_temperatures_degenerate(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        with pytest.raises(ConfigError):
            infer_added_noise(cs.hot, cs.cold, 0.3, 0.3)

    def test_mislabeled_loads_detected(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        dim_hot = dataclasses.replace(cs.hot, psd=cs.cold.psd)
        bright_cold = dataclasses.replace(cs.cold, psd=cs.hot.psd)
        with pytest.raises(DataError):
            infer_added_noise(dim_hot, bright_cold, cs.t_hot_k, cs.t_cold_k)

    def test_negative_intercept_clamped(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, n_a=0.0)
        cs = noiseless_calset(receiver, cal_step)
        # depress the cold trace so the two-point intercept goes negative
        low_cold = dataclasses.replace(cs.cold, psd=0.99 * cs.cold.psd)
        fit = infer_added_noise(cs.hot, low_cold, cs.t_hot_k, cs.t_cold_k)
        assert fit.n_a_hat == 0.0
        assert "clamped:n_a" in fit.flags


class TestCavityNoise:
    @pytest.mark.parametrize("n_c0", [0.27, 0.35, 0.41, 0.50])
    def test_noiseless_closure(self, cal_step, n_c0):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, n_c0=n_c0)
        cs = noiseless_calset(receiver, cal_step)
        fit = infer_cavity_noise(cs.meas1, cs.meas3, receiver, n_a=receiver.n_a)
        # ratio debias leaves a 1/n_averages-level residual on noiseless input
        assert fit.n_c0_hat == pytest.approx(n_c0, rel=1e-4)

    def test_below_vacuum_flagged(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, n_c0=0.25)
        cs = noiseless_calset(receiver, cal_step)
        hot_cavity = make_receiver(nu_c=cal_step.nu_c_hz, n_c0=0.41)
        # spectra from a colder cavity than the geometry's vacuum floor
        cold_cs = noiseless_calset(receiver, cal_step)
        fit = infer_cavity_noise(cold_cs.meas1, cold_cs.meas3, hot_cavity,
                                 n_a=receiver.n_a)
        assert fit.n_c0_hat < 0.26
        assert "nonphysical:n_c0_below_vacuum" in fit.flags

    def test_grid_mismatch_rejected(self, cal_step, small_plan):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        other = noiseless_calset(receiver, small_plan.steps[3])
        with pytest.raises(DataError):
            infer_cavity_noise(cs.meas1, other.meas3, receiver)


class TestSqueezing:
    def test_noiseless_closure(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        fit = infer_squeezing(cs.meas2, cs.meas3, receiver.eta, receiver)
        assert fit.s_hat == pytest.approx(0.4, rel=1e-4)
        assert fit.g_s_hat == pytest.approx(0.1, rel=2e-3)
        assert not fit.no_squeezing

    def test_perfect_squeezer_at_losier_port(self, cal_step):
        # eta = 0.63, ideal squeezer: delivered floor is the loss term 0.37
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, g_s=0.0, eta=0.63)
        cs = noiseless_calset(receiver, cal_step)
        fit = infer_squeezing(cs.meas2, cs.meas3, 0.63, receiver)
        assert fit.s_hat == pytest.approx(0.37, rel=1e-4)
        assert fit.g_s_hat == pytest.approx(0.0, abs=1e-4)

    def test_identical_spectra_give_unity(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        off = dataclasses.replace(cs.meas2, psd=cs.meas3.psd)
        fit = infer_squeezing(off, cs.meas3, receiver.eta, receiver)
        assert fit.s_hat == pytest.approx(1.0, rel=1e-4)

    def test_excess_brightness_flags_no_squeezing(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        hot = dataclasses.replace(cs.meas2, psd=1.001 * cs.meas3.psd)
        fit = infer_squeezing(hot, cs.meas3, receiver.eta, receiver)
        assert fit.no_squeezing
        assert "no_squeezing" in fit.flags
        assert fit.s_hat > 1.0

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.5])
    def test_rejects_bad_efficiency(self, cal_step, eta):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        with pytest.raises(ConfigError):
            infer_squeezing(cs.meas2, cs.meas3, eta, receiver)


class TestFullChain:
    def test_noiseless_chain_recovers_everything(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, g_a_db=60.0)
        cs = noiseless_calset(receiver, cal_step)
        result = run_calibration(cs, receiver)
        assert result.step_id == cal_step.step_id
        assert result.n_a_hat == pytest.approx(0.03, rel=1e-4)
        assert result.gain_db_hat == pytest.approx(60.0, abs=1e-4)
        assert result.n_c0_hat == pytest.approx(0.41, rel=1e-4)
        assert result.s_hat == pytest.approx(0.4, rel=1e-4)
        assert result.g_s_hat == pytest.approx(0.1, rel=2e-3)

    def test_recorded_tuning_overrides_geometry(self, cal_step, small_plan):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        displaced = make_receiver(nu_c=cal_step.nu_c_hz + 40e3)
        result = run_calibration(cs, displaced)
        assert result.nu_c_hz == pytest.approx(cal_step.nu_c_hz)
        assert result.n_c0_hat == pytest.approx(0.41, rel=1e-4)

    def test_missing_centre_fits_at_band_centre(self, cal_step):
        """A meas2 without nu_c_hz is fitted at its own band centre, not at
        the geometry's."""
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = simulate_calibration(cal_step, receiver, seed=5, tau_s=600.0, n_bins=2000)
        displaced = make_receiver(nu_c=cal_step.nu_c_hz + 2.1e6)
        with_key = run_calibration(cs, displaced)
        del cs.meas2.metadata["nu_c_hz"]
        assert run_calibration(cs, displaced) == with_key
        assert with_key.nu_c_hz == cal_step.nu_c_hz

    def test_recorded_coupling_overrides_geometry(self, cal_step):
        """Sets taken at beta = 1 fit at beta = 1 whatever the geometry says."""
        taken = make_receiver(nu_c=cal_step.nu_c_hz, beta=1.0)
        fitted = make_receiver(nu_c=cal_step.nu_c_hz)  # beta = 7.1
        for seed in (1, 2, 3):
            cs = simulate_calibration(cal_step, taken, seed=seed, tau_s=600.0, n_bins=4000)
            result = run_calibration(cs, fitted)
            assert result.n_c0_hat == pytest.approx(0.41, abs=2e-3)
            assert result.s_hat == pytest.approx(0.40, abs=2e-3)

    def test_critical_coupling_is_finite(self, cal_step):
        """At beta = 1 the on-resonance bin reflects nothing; the squeezing
        fit leaves it out instead of dividing by zero."""
        receiver = make_receiver(nu_c=cal_step.nu_c_hz, beta=1.0)
        cs = noiseless_calset(receiver, cal_step)
        assert np.min(cavity_reflectance(
            cs.meas2.frequencies - receiver.nu_c, receiver.kappa_l, 1.0)) == 0.0
        result = run_calibration(cs, receiver)
        assert result.n_c0_hat == pytest.approx(0.41, rel=1e-4)
        assert result.s_hat == pytest.approx(0.4, rel=1e-4)

    def test_gain_rescale_moves_only_gain(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        cs = noiseless_calset(receiver, cal_step)
        scaled = dataclasses.replace(
            cs,
            **{
                role: dataclasses.replace(
                    getattr(cs, role), psd=3.7 * getattr(cs, role).psd
                )
                for role in cs.ROLES
            },
        )
        base = run_calibration(cs, receiver)
        moved = run_calibration(scaled, receiver)
        assert moved.gain_db_hat - base.gain_db_hat == pytest.approx(
            10.0 * math.log10(3.7), abs=1e-9
        )
        for name in ("n_a_hat", "n_c0_hat", "s_hat", "g_s_hat"):
            assert getattr(moved, name) == pytest.approx(
                getattr(base, name), rel=1e-10
            )

    def test_monte_carlo_unbiased(self, cal_step):
        receiver = make_receiver(nu_c=cal_step.nu_c_hz)
        hats = {"g_s_hat": [], "n_c0_hat": [], "n_a_hat": [], "s_hat": []}
        sigmas = []
        for seed in range(200):
            cs = simulate_calibration(
                cal_step, receiver, seed=seed + 1000, tau_s=3600.0, n_bins=4000
            )
            result = run_calibration(cs, receiver)
            for name in hats:
                hats[name].append(getattr(result, name))
            sigmas.append(result.g_s_sigma)
        truth = {"g_s_hat": 0.1, "n_c0_hat": 0.41, "n_a_hat": 0.03, "s_hat": 0.4}
        for name, values in hats.items():
            values = np.array(values)
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - truth[name]) < 4 * se, name
        # reported uncertainty tracks the observed scatter
        scatter = np.array(hats["g_s_hat"]).std(ddof=1)
        assert np.mean(sigmas) == pytest.approx(scatter, rel=0.3)


class TestAssignment:
    def make_result(self, step_id):
        return CalibrationResult(
            step_id=step_id, nu_c_hz=4.14e9 + step_id * 85e3,
            g_s_hat=0.1, g_s_sigma=0.01, s_hat=0.4, s_sigma=0.007,
            n_c0_hat=0.41, n_c0_sigma=0.01, n_a_hat=0.03, n_a_sigma=0.005,
            gain_db_hat=60.0, gain_db_sigma=0.01,
        )

    def test_nearest_with_low_tie_break(self):
        results = [self.make_result(s) for s in (0, 8, 18)]
        assigned = assign_calibrations(range(19), results)
        assert assigned[3].step_id == 0
        assert assigned[4].step_id == 0  # |4-0| == |4-8|: lower wins
        assert assigned[5].step_id == 8
        assert assigned[13].step_id == 8  # |13-8| == |13-18|
        assert assigned[14].step_id == 18

    def test_empty_results_rejected(self):
        with pytest.raises(DataError):
            assign_calibrations([0, 1], [])

    def test_result_validation(self):
        with pytest.raises(DataError):
            dataclasses.replace(self.make_result(0), n_c0_hat=-0.1)
        with pytest.raises(DataError):
            dataclasses.replace(self.make_result(0), g_s_sigma=0.0)

    @pytest.mark.parametrize("name", ["s_hat", "g_s_hat", "s_sigma", "gain_db_hat"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_estimate_refused(self, name, value):
        with pytest.raises(DataError, match=name):
            dataclasses.replace(self.make_result(0), **{name: value})


class TestResultsFile:
    def test_round_trip(self, tmp_path):
        results = [
            dataclasses.replace(
                TestAssignment().make_result(s), flags=("no_squeezing",) if s else ()
            )
            for s in (0, 9, 18)
        ]
        path = tmp_path / "cal.json"
        stamp = {"config_hash": "abc", "master_seed": 7}
        write_calibration_results(results, path, stamp)
        back, metadata = read_calibration_results(path)
        assert back == sorted(results, key=lambda r: r.step_id)
        assert metadata == stamp

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_calibration_results(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_calibration_results(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"format": "something-else", "version": 1, "results": []}')
        with pytest.raises(DataError):
            read_calibration_results(path)

    def test_metadata_not_an_object(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(
            '{"format": "haloscan-calibration", "version": 1, "metadata": [], "results": []}'
        )
        with pytest.raises(DataError, match="metadata must be an object"):
            read_calibration_results(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"format": "haloscan-calibration", "version": 2, "results": []}')
        with pytest.raises(DataError):
            read_calibration_results(path)
