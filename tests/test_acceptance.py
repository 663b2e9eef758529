"""End-to-end acceptance gate: nine criteria, one printed line each.

The production-shape reference campaign runs once through the real CLI
and is shared by the criteria that need full-scale artifacts; the seed
ensembles run in-memory against the reduced ensemble configuration.
"""

import dataclasses
import glob
import json
import math
import os
import shutil
import time

import numpy as np
import pytest
from scipy import stats

from haloscan.axion import AxionHypothesis, canonical_kernel
from haloscan.calibration import read_calibration_results, run_calibration
from haloscan.campaign import (
    TuningStep,
    rescan_steps,
    simulate_calibration,
    simulate_campaign,
    simulate_rescans,
)
from haloscan.cli import main
from haloscan.config import load_config
from haloscan.inference import exclusion_coupling
from haloscan.pipeline import (
    GrandSpectrum,
    coadd_grand,
    combine_spectra,
    process_campaign,
    process_group,
    read_grand_spectrum,
    remove_structure,
)
from haloscan.receiver import (
    ReceiverParams,
    delivered_squeezing,
    optimize_coupling,
    scan_rate,
    thermal_quanta,
)
from haloscan.spectra import read_spectrum

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
REFERENCE_INI = os.path.join(CONFIG_DIR, "reference.ini")
ENSEMBLE_INI = os.path.join(CONFIG_DIR, "ensemble.ini")

N_SEEDS = 100
NU_INJECT = 4.1520e9
G_INJECT = 1.0


def check(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared reference campaign (``reference_run`` is in conftest) ---


@pytest.fixture(scope="session")
def reference_processed(reference_run):
    out, cli_elapsed = reference_run
    cfg = load_config(REFERENCE_INI)
    spectra = [
        read_spectrum(p)
        for p in sorted(glob.glob(os.path.join(out, "spectra", "step_*.spec")))
    ]
    t0 = time.monotonic()
    processed, report = remove_structure(
        spectra, cfg.process_settings(), cfg.lineshape()
    )
    elapsed = cli_elapsed + (time.monotonic() - t0)
    return {
        "cfg": cfg,
        "out": out,
        "processed": processed,
        "report": report,
        "elapsed": elapsed,
    }


# -- ensemble machinery ---------------------------------------------


def run_ensemble_campaign(seed, hypotheses=()):
    cfg = load_config(ENSEMBLE_INI, seed_override=seed)
    receiver = cfg.receiver()
    spectra, calsets = simulate_campaign(
        cfg.tuning_plan(),
        receiver,
        cfg.baseline_model(),
        hypotheses=hypotheses,
        lineshape=cfg.lineshape(),
        tau_s=cfg.get("acquisition", "tau_s"),
        bin_width_hz=cfg.get("acquisition", "bin_width_hz"),
        n_bins=cfg.get("acquisition", "n_bins"),
        anomaly_rate=cfg.get("anomalies", "rate"),
        anomaly_types=cfg.get("anomalies", "types"),
        cal_every=cfg.get("calibration", "cal_every"),
        t_hot_k=cfg.get("calibration", "t_hot_k"),
        t_cold_k=cfg.get("calibration", "t_cold_k"),
        threads=1,
    )
    cal = [
        run_calibration(c, receiver, eta=cfg.get("receiver", "eta")) for c in calsets
    ]
    out = process_campaign(
        spectra,
        cal,
        receiver,
        cfg.lineshape(),
        cfg.process_settings(),
        tau_s=cfg.get("acquisition", "tau_s"),
        snr_ref=cfg.get("sensitivity", "snr_ref"),
        threads=1,
    )
    return cfg, receiver, cal, out


# -- criteria -------------------------------------------------------


def test_01_thermal_quanta(capsys):
    n_cold = thermal_quanta(4.14e9, 0.061)
    n_zero = thermal_quanta(4.14e9, 0.0)
    ok = abs(n_cold - 0.270) <= 0.002 and n_zero == 0.25
    check(
        capsys,
        1,
        ok,
        f"N(4.14 GHz, 61 mK) = {n_cold:.6f} in 0.270+-0.002, T=0 gives {n_zero}",
    )


def test_02_squeezing_chain(capsys):
    direct = delivered_squeezing(0.63, 0.0)
    cfg = load_config(REFERENCE_INI)
    receiver = cfg.receiver()
    step = TuningStep(step_id=0, nu_c_hz=receiver.nu_c)
    calset = simulate_calibration(
        step,
        receiver,
        seed=11,
        t_hot_k=0.333,
        t_cold_k=0.061,
        tau_s=3600.0,
        bin_width_hz=100.0,
        n_bins=2000,
    )
    fit = run_calibration(calset, receiver, eta=cfg.get("receiver", "eta"))
    delivered_db = -10.0 * math.log10(fit.s_hat)
    ok = (
        direct == pytest.approx(0.37, abs=1e-12)
        and abs(fit.g_s_hat - 0.10) <= 0.02
        and abs(delivered_db - 4.0) <= 0.2
    )
    check(
        capsys,
        2,
        ok,
        f"delivered(0.63, 0) = {direct:.4f}, closure g_s = {fit.g_s_hat:.4f}, "
        f"squeezing {delivered_db:.3f} dB",
    )


def test_03_coupling_optima(capsys):
    n_f = thermal_quanta(4.14e9, 0.061)
    anchors = (
        (optimize_coupling(1.0, n_f, n_f, 0.0), 2.00, 0.01),
        (optimize_coupling(1.0, 0.41, n_f, 0.0), 2.8, 0.2),
        (optimize_coupling(0.40, n_f, n_f, 0.0), 4.5, 0.2),
        (optimize_coupling(0.40, 0.41, n_f, 0.03), 7.1, 0.3),
    )
    ok = all(abs(beta - target) <= tol for beta, target, tol in anchors)
    betas = ", ".join(f"{beta:.4f}" for beta, _, _ in anchors)
    check(capsys, 3, ok, f"beta* = [{betas}] vs 2.00/2.8/4.5/7.1")


def analytic_flat_rate(beta, kappa_l, level, window_linewidths=20.0):
    # closed form of the finite-window integral of (absorption/level)^2
    b = (1.0 + beta) * kappa_l
    w = window_linewidths * b
    u = 2.0 * w / b
    f = (u / (1.0 + u * u) + math.atan(u)) / (4.0 * b**3)
    return (4.0 * beta * kappa_l**2 / level) ** 2 * 2.0 * f


def test_04_scan_rate_enhancement(capsys, reference_run):
    out, _ = reference_run
    with open(os.path.join(out, "enhancement.json")) as fh:
        report = json.load(fh)
    ratio = report["rate_ratio"]

    worst = 0.0
    for beta in (2.0, 7.1):
        params = ReceiverParams(
            nu_c=4.152e9, kappa_l=88.1e3, beta=beta,
            n_c0=0.3, n_f=0.3, eta=1.0, g_s=1.0, n_a=0.0,
        )
        measured = scan_rate(params, AxionHypothesis(params.nu_c, 1.0))
        analytic = analytic_flat_rate(beta, params.kappa_l, 0.3)
        worst = max(worst, abs(measured / analytic - 1.0))

    ok = abs(ratio - 1.9) <= 0.15 and worst <= 1e-6
    check(
        capsys,
        4,
        ok,
        f"rate ratio {ratio:.3f} (beta* {report['beta_squeezed']:.2f} vs "
        f"{report['beta_unsqueezed']:.2f}), quadrature vs closed form "
        f"rel {worst:.2e}",
    )


def test_05_radiometer_residuals(capsys, reference_processed):
    residuals = np.concatenate(
        [p.excess[p.valid] for p in reference_processed["processed"]]
    )
    sigma_rel = float(residuals.std())
    elapsed = reference_processed["elapsed"]
    ok = abs(sigma_rel - 0.0017) <= 0.05 * 0.0017 and elapsed < 300.0
    check(
        capsys,
        5,
        ok,
        f"relative sigma {sigma_rel:.6f} in 0.0017+-5% over "
        f"{len(reference_processed['processed'])} steps, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_06_grand_spectrum_null(capsys):
    t0 = time.monotonic()
    stride = None
    variances, ks_passes = [], 0
    for seed in range(1000, 1000 + N_SEEDS):
        cfg, _, _, out = run_ensemble_campaign(seed)
        if stride is None:
            stride = canonical_kernel(NU_INJECT, cfg.lineshape()).size
        x = out.grand.x[out.grand.valid]
        variances.append(float(x.var()))
        # thin to kernel spacing: adjacent coadded bins share noise
        if stats.kstest(x[::stride], "norm").pvalue > 0.01:
            ks_passes += 1
    elapsed = time.monotonic() - t0
    pooled = float(np.mean(variances))
    ok = ks_passes >= 95 and abs(pooled - 1.0) < 0.05 and elapsed < 1800.0
    check(
        capsys,
        6,
        ok,
        f"KS p>0.01 in {ks_passes}/{N_SEEDS} seeds, pooled variance "
        f"{pooled:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_07_injection_recovery(capsys):
    t0 = time.monotonic()
    deviations, persisted = [], 0
    for seed in range(2000, 2000 + N_SEEDS):
        cfg, receiver, cal, out = run_ensemble_campaign(
            seed,
            hypotheses=(
                AxionHypothesis(NU_INJECT, G_INJECT, cfg_snr(seed)),
            ),
        )
        grand = out.grand
        probe = int(round((NU_INJECT - grand.rf_start_hz) / grand.bin_width_hz))
        mu = G_INJECT**2 * grand.eta_sens[probe]
        deviations.append(float(grand.x[probe]) - mu)

        log_u = mu * float(grand.x[probe]) - 0.5 * mu**2
        if out.rescans.candidates:
            plan = cfg.tuning_plan()
            steps = rescan_steps(plan, [c.nu_hz for c in out.rescans.candidates])
            re_spectra = simulate_rescans(
                plan,
                steps,
                receiver,
                cfg.baseline_model(),
                hypotheses=(AxionHypothesis(NU_INJECT, G_INJECT, cfg_snr(seed)),),
                lineshape=cfg.lineshape(),
                tau_s=cfg.get("acquisition", "tau_s"),
                bin_width_hz=cfg.get("acquisition", "bin_width_hz"),
                n_bins=cfg.get("acquisition", "n_bins"),
                threads=1,
            )
            re_grand, _, _, _ = process_group(
                re_spectra,
                cal,
                receiver,
                cfg.lineshape(),
                cfg.process_settings(),
                tau_s=cfg.get("acquisition", "tau_s"),
                snr_ref=cfg.get("sensitivity", "snr_ref"),
                threads=1,
            )
            off = int(
                round((re_grand.rf_start_hz - grand.rf_start_hz) / grand.bin_width_hz)
            )
            j = probe - off
            if 0 <= j < re_grand.x.size and re_grand.valid[j]:
                mu_r = G_INJECT**2 * re_grand.eta_sens[j]
                log_u += mu_r * float(re_grand.x[j]) - 0.5 * mu_r**2
        if log_u > 0.0:
            persisted += 1
    elapsed = time.monotonic() - t0

    deviations = np.array(deviations)
    bias = float(deviations.mean())
    two_se = 2.0 * float(deviations.std(ddof=1)) / math.sqrt(N_SEEDS)
    ok = abs(bias) <= two_se and persisted >= 99 and elapsed < 1800.0
    check(
        capsys,
        7,
        ok,
        f"excess closure bias {bias:+.4f} vs 2 SE {two_se:.4f}, update "
        f"product above 1 in {persisted}/{N_SEEDS} seeds, {elapsed:.0f}s",
    )


_SNR_CACHE = {}


def cfg_snr(seed):
    if seed not in _SNR_CACHE:
        _SNR_CACHE[seed] = load_config(ENSEMBLE_INI, seed_override=seed).get(
            "sensitivity", "snr_ref"
        )
    return _SNR_CACHE[seed]


def read_exclusion(out):
    """g* and the window contours (NaN where a window misses the target) of a run."""
    with open(os.path.join(out, "exclusion", "exclusion.json")) as fh:
        g_star = json.load(fh)["g_star"]
    with open(os.path.join(out, "exclusion", "window_contours.csv")) as fh:
        rows = [line.split(",")[2] for line in fh.read().splitlines()[1:]]
    return g_star, np.array([float(text) if text else math.nan for text in rows])


def test_08_exclusion_machinery(capsys, reference_run):
    n = 400
    eta = 0.8
    uniform = GrandSpectrum(
        rf_start_hz=4.1e9,
        bin_width_hz=100.0,
        x=np.zeros(n),
        eta_sens=np.full(n, eta),
        n_contrib=np.ones(n, dtype=np.int64),
        support=np.ones(n),
        valid=np.ones(n, dtype=bool),
    )
    g_star, _, _ = exclusion_coupling(uniform, target=0.1, xtol=1e-6)
    closed = (2.0 * math.log(10.0)) ** 0.25 / math.sqrt(eta)
    closed_err = abs(g_star - closed)

    out, elapsed = reference_run
    campaign_g, contours = read_exclusion(out)
    finite = np.isfinite(contours)
    surface_rows = (
        open(os.path.join(out, "exclusion", "window_surface.csv")).read().splitlines()
    )

    ok = (
        closed_err <= 1e-6
        and campaign_g is not None
        and abs(campaign_g - 1.38) <= 0.05
        and contours.size == 100
        and len(surface_rows) == 101
        and finite.sum() >= 90
        and contours[finite].min() <= campaign_g <= contours[finite].max()
        and elapsed < 600.0
    )
    check(
        capsys,
        8,
        ok,
        f"closed-form gap {closed_err:.2e}, campaign g* = {campaign_g:.4f} in "
        f"1.38+-0.05, {int(finite.sum())}/100 window contours, {elapsed:.0f}s",
    )


def test_09_filter_transfer(capsys, reference_processed):
    cfg = reference_processed["cfg"]
    out = reference_processed["out"]
    report = reference_processed["report"]

    with open(os.path.join(out, "filter_report.json")) as fh:
        cli_report = json.load(fh)

    cal, _ = read_calibration_results(os.path.join(out, "calibration_results.json"))
    combined = combine_spectra(
        reference_processed["processed"],
        cal,
        cfg.receiver(),
        cfg.lineshape(),
        tau_s=cfg.get("acquisition", "tau_s"),
        snr_ref=cfg.get("sensitivity", "snr_ref"),
    )
    grand = coadd_grand(combined, report)
    unattenuated = coadd_grand(
        combined, dataclasses.replace(report, t_signal=1.0)
    )
    ratio = grand.eta_sens[grand.valid] / unattenuated.eta_sens[grand.valid]
    eta_exact = bool(
        np.all(np.abs(ratio / report.t_signal - 1.0) < 1e-12)
        and np.array_equal(grand.x, unattenuated.x)
    )

    suppression = 1.0 / report.wide_suppression
    ok = (
        report.t_signal >= 0.85
        and report.wide_suppression <= 0.1
        and cli_report["t_signal"] == pytest.approx(report.t_signal, rel=1e-12)
        and eta_exact
    )
    check(
        capsys,
        9,
        ok,
        f"lineshape survival {report.t_signal:.4f} (loss "
        f"{100 * (1 - report.t_signal):.1f}% <= 15%), wide structure "
        f"suppressed {suppression:.0f}x, attenuation exact in eta: {eta_exact}",
    )


@pytest.mark.slow
def test_paper_search(tmp_path):
    """The schema defaults are the paper's search: no axion in 16.96-17.12
    and 17.14-17.28 ueV/c^2 (4.100-4.178 GHz minus 4.140-4.145 GHz) for
    couplings above 1.38 g_KSVZ."""
    skip_lo, skip_hi = 4.140e9, 4.145e9
    ini = tmp_path / "empty.ini"
    ini.write_text("")
    cfg = load_config(str(ini))
    assert not any(skip_lo <= step.nu_c_hz <= skip_hi for step in cfg.tuning_plan().steps)

    out = tmp_path / "out"
    try:
        assert main(["all", "--config", str(ini), "--out", str(out)]) == 0
        g_star, contours = read_exclusion(out)
        with open(os.path.join(out, "exclusion", "exclusion.json")) as fh:
            metadata = json.load(fh)["metadata"]
        grand = read_grand_spectrum(os.path.join(out, "grand_spectrum.dat"))
    finally:
        shutil.rmtree(out, ignore_errors=True)  # about 370 MB of artifacts

    assert abs(g_star - 1.38) <= 0.05
    assert [round(m, 2) for m in metadata["mass_window_uev"]] == [16.96, 17.28]
    assert [[round(m, 2) for m in w] for w in metadata["skipped_mass_windows_uev"]] == [
        [17.12, 17.14]
    ]
    assert contours.size == 100
    assert np.nanmin(contours) <= g_star <= np.nanmax(contours)
    freqs = grand.frequencies
    included = freqs[grand.valid & (freqs >= cfg.get("campaign", "lo_hz"))
                     & (freqs <= cfg.get("campaign", "hi_hz"))]
    widest = int(np.argmax(np.diff(included)))
    assert skip_lo <= included[widest] and included[widest + 1] <= skip_hi
