"""The three benchmark workloads and the checks made on their outputs.

Every workload is a sequence of operations: one reference campaign, one
ensemble seed, or one receiver operating point.  An operation that
raises, or whose output fails a check, counts as failed.  Calls go
through the haloscan module attributes (``pipeline.process_campaign``
rather than a name imported here) so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from haloscan import axion, calibration, campaign, cli, config, pipeline, receiver

from spans import Tracer

NU_INJECT_HZ = 4.1520e9  # acceptance criterion 7's injection
G_STAR_BAND = (1.38, 0.05)  # criterion 8, valid at the reference config's own seed
RATE_RTOL = 1e-8  # scan_rate's quadrature runs at epsrel 1e-10
ALPHA_RTOL = 1e-12  # visibility is the same rational function, rearranged
DETUNING_POINTS = 3001  # the budget stage's grid


@dataclass
class Outcome:
    """What a workload measured and checked in one run."""

    op_times: list = field(default_factory=list)  # untraced seconds per operation
    traced_times: list = field(default_factory=list)
    paired_untraced: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    info: dict = field(default_factory=dict)
    tracer: Tracer = None


def run_ops(workload, seconds, min_ops, trace=False):
    """Run operations until ``seconds`` have passed and ``min_ops`` ran.

    With ``trace`` every operation runs twice, untraced and then traced
    on the same inputs, so the pair gives the tracing overhead.
    """
    outcome = Outcome(tracer=Tracer() if trace else None)
    if trace:
        min_ops = max(1, min_ops // 2)
        workload.tracer = outcome.tracer  # lets ReferenceCli mark its campaign phase
    start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - start < seconds:
        untraced = _attempt(workload, index, outcome)
        if trace:
            with outcome.tracer.installed():
                traced = _attempt(workload, index, outcome)
            if untraced is not None and traced is not None:
                outcome.traced_times.append(traced)
                outcome.paired_untraced.append(untraced)
        if untraced is not None:
            outcome.op_times.append(untraced)
        index += 1
    outcome.wall_s = time.perf_counter() - start
    outcome.info.update(workload.summary())
    return outcome


def _attempt(workload, index, outcome):
    outcome.attempted += 1
    try:
        seconds, problems = workload.op(index)
    except Exception as exc:  # an operation that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        outcome.failed += 1
        outcome.problems.append(f"op {index}: {type(exc).__name__}: {exc}")
        return None
    if problems:
        outcome.failed += 1
        outcome.problems.extend(f"op {index}: {p}" for p in problems)
    return seconds


def relative_error(value, expected):
    return abs(value - expected) / abs(expected)


# -- reference_cli --------------------------------------------------------


def digest_tree(root):
    """sha256 of every artifact under ``root`` except the sidecar."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel == "sidecar.json":
                continue
            with open(path, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def tree_bytes(root):
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, files in os.walk(root)
        for name in files
    )


def compare_digests(expected, actual, what):
    if expected == actual:
        return []
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    changed = sorted(k for k in set(expected) & set(actual) if expected[k] != actual[k])
    return [f"{what}: {len(changed)} changed {changed[:3]}, "
            f"{len(missing)} missing {missing[:3]}, {len(extra)} extra {extra[:3]}"]


def check_exclusion(out_dir, n_windows, band=None):
    """Window contours and g* of a finished exclusion stage."""
    with open(os.path.join(out_dir, "exclusion", "exclusion.json")) as fh:
        g_star = json.load(fh)["g_star"]
    with open(os.path.join(out_dir, "exclusion", "window_contours.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    contours = np.array([float(r.split(",")[2]) if r.split(",")[2] else math.nan
                         for r in rows])
    finite = contours[np.isfinite(contours)]
    problems = []
    if contours.size != n_windows:
        problems.append(f"{contours.size} window contours, expected {n_windows}")
    if g_star is None:
        problems.append("g* not bracketed by the coupling grid")
    elif finite.size == 0 or not finite.min() <= g_star <= finite.max():
        problems.append(f"g* = {g_star} outside the finite window contours")
    if band is not None and g_star is not None and abs(g_star - band[0]) > band[1]:
        problems.append(f"g* = {g_star:.4f} outside {band[0]} +- {band[1]}")
    return g_star, problems


class ReferenceCli:
    """``haloscan all`` on the reference config; the first campaign of a run
    (operation 0) then runs process + exclude again on its directory.

    The re-run is made once per run, not per campaign, so that a run fits
    three campaigns, whose median steadies ``op_p50_s`` on a shared machine.
    """

    def __init__(self, config_path, seed, work_dir, threads):
        self.config_path = config_path
        self.work_dir = work_dir
        self.threads = threads
        self.seed = seed
        cfg = config.load_config(config_path, seed_override=seed)
        own_seed = config.load_config(config_path).master_seed
        self.band = G_STAR_BAND if seed == own_seed else None
        self.n_windows = cfg.get("inference", "n_windows")
        self.config_hash = cfg.hash()
        self.first_digests = None
        self.tracer = None
        self.campaign_s, self.reanalysis_s, self.artifact_mb, self.g_star = [], [], [], []

    def _cli(self, stage, out_dir):
        return cli.main([stage, "--config", self.config_path, "--out", out_dir,
                         "--threads", str(self.threads), "--seed-override", str(self.seed)])

    def _phase(self, name):
        if self.tracer is None or not self.tracer.active:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def op(self, index):
        out_dir = os.path.join(self.work_dir, f"campaign_{index}")
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            t0 = time.perf_counter()
            with self._phase("bench.campaign"):
                rc = self._cli("all", out_dir)
            campaign_s = time.perf_counter() - t0
            if rc != 0:
                return campaign_s, [f"all exited {rc}"]
            digests = digest_tree(out_dir)
            self.artifact_mb.append(tree_bytes(out_dir) / 1e6)
            if self.first_digests is None:
                self.first_digests = digests
            problems = compare_digests(self.first_digests, digests, "artifacts vs first run")
            if index == 0:
                t0 = time.perf_counter()
                rcs = (self._cli("process", out_dir), self._cli("exclude", out_dir))
                self.reanalysis_s.append(time.perf_counter() - t0)
                if rcs != (0, 0):
                    problems.append(f"re-run exited {rcs}")
                problems += compare_digests(digests, digest_tree(out_dir), "re-run artifacts")
            g_star, exclusion_problems = check_exclusion(out_dir, self.n_windows, self.band)
            problems += exclusion_problems
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.campaign_s.append(campaign_s)
        self.g_star.append(g_star)
        return campaign_s, problems

    def summary(self):
        return {
            "operation": "one `haloscan all` campaign",
            "seed_override": self.seed,
            "config_hash": self.config_hash,
            "threads": self.threads,
            "campaign_s": self.campaign_s,
            "reanalysis_s": self.reanalysis_s,
            "artifact_mb": self.artifact_mb,
            "g_star": self.g_star,
            "g_star_band_checked": self.band is not None,
            "artifacts": len(self.first_digests or ()),
        }


# -- ensemble_injection ----------------------------------------------------


class EnsembleInjection:
    """Criterion 7's in-memory path: inject, calibrate, process, rescan."""

    def __init__(self, config_path, seed):
        self.config_path = config_path
        self.base_seed = seed * 100_000
        self.config_hash = config.load_config(config_path).hash()
        self.last_seed = None
        self.log_updates, self.rescan_counts = [], []

    def op(self, index):
        t0 = time.perf_counter()
        self.last_seed = self.base_seed + index
        cfg = config.load_config(self.config_path, seed_override=self.last_seed)
        rx = cfg.receiver()
        hyp = (axion.AxionHypothesis(NU_INJECT_HZ, 1.0, cfg.get("sensitivity", "snr_ref")),)
        plan = cfg.tuning_plan()
        shape = dict(
            lineshape=cfg.lineshape(),
            tau_s=cfg.get("acquisition", "tau_s"),
            bin_width_hz=cfg.get("acquisition", "bin_width_hz"),
            n_bins=cfg.get("acquisition", "n_bins"),
        )
        spectra, calsets = campaign.simulate_campaign(
            plan, rx, cfg.baseline_model(), hypotheses=hyp,
            anomaly_rate=cfg.get("anomalies", "rate"),
            anomaly_types=cfg.get("anomalies", "types"),
            cal_every=cfg.get("calibration", "cal_every"),
            t_hot_k=cfg.get("calibration", "t_hot_k"),
            t_cold_k=cfg.get("calibration", "t_cold_k"),
            threads=1, **shape,
        )
        cal = [calibration.run_calibration(c, rx, eta=cfg.get("receiver", "eta"))
               for c in calsets]
        settings = cfg.process_settings()
        analysis = dict(tau_s=shape["tau_s"], snr_ref=cfg.get("sensitivity", "snr_ref"),
                        threads=1)
        out = pipeline.process_campaign(
            spectra, cal, rx, shape["lineshape"], settings, **analysis)
        grand = out.grand
        probe = int(round((NU_INJECT_HZ - grand.rf_start_hz) / grand.bin_width_hz))
        mu = grand.eta_sens[probe]
        log_u = mu * float(grand.x[probe]) - 0.5 * mu**2
        n_rescan = 0
        if out.rescans.candidates:
            steps = campaign.rescan_steps(plan, [c.nu_hz for c in out.rescans.candidates])
            rescans = campaign.simulate_rescans(
                plan, steps, rx, cfg.baseline_model(), hypotheses=hyp, threads=1, **shape)
            n_rescan = len(rescans)
            re_grand, _, _, _ = pipeline.process_group(
                rescans, cal, rx, shape["lineshape"], settings, **analysis)
            pipeline.check_persistence(
                out.rescans.candidates, re_grand,
                settings.rescan_threshold_sigma, settings.merge_width_bins)
            j = probe - int(round((re_grand.rf_start_hz - grand.rf_start_hz)
                                  / grand.bin_width_hz))
            if 0 <= j < re_grand.x.size and re_grand.valid[j]:
                mu_r = re_grand.eta_sens[j]
                log_u += mu_r * float(re_grand.x[j]) - 0.5 * mu_r**2
        seconds = time.perf_counter() - t0
        self.log_updates.append(float(log_u))
        self.rescan_counts.append(n_rescan)
        problems = [] if log_u > 0.0 else [f"log update {log_u:.3f} <= 0 at the injection"]
        return seconds, problems

    def summary(self):
        return {
            "operation": "one injected ensemble seed",
            "seeds": [self.base_seed, self.last_seed],
            "config_hash": self.config_hash,
            "threads": 1,
            "log_update_min": min(self.log_updates, default=None),
            "rescan_steps_range": [min(self.rescan_counts, default=0),
                                   max(self.rescan_counts, default=0)],
        }


# -- receiver_sweep --------------------------------------------------------


def closed_form_alpha(params, g, detunings):
    """Visibility as the Lorentzian A / (c0 (1 + x^2) + c1), x = 2 delta / kappa."""
    big_a = 4.0 * params.beta / (1.0 + params.beta) ** 2
    s_nf = params.delivered * params.n_f
    c0 = s_nf + params.n_a
    c1 = (params.n_c0 - s_nf) * big_a
    x = 2.0 * np.asarray(detunings) / params.kappa
    return g * g * big_a / (c0 * (1.0 + x * x) + c1)


def closed_form_rate(params, g, window_linewidths=20.0):
    """Integral of alpha^2 over +- window_linewidths loaded linewidths.

    With alpha = (g^2 A / c0) / (a^2 + x^2), a^2 = 1 + c1 / c0 and
    d(delta) = kappa / 2 dx, the integral is the atan closed form below.
    """
    big_a = 4.0 * params.beta / (1.0 + params.beta) ** 2
    s_nf = params.delivered * params.n_f
    c0 = s_nf + params.n_a
    c1 = (params.n_c0 - s_nf) * big_a
    a = math.sqrt(1.0 + c1 / c0)
    x = 2.0 * window_linewidths
    integral = (a * x / (a * a + x * x) + math.atan(x / a)) / a**3
    return 0.5 * params.kappa * (g * g * big_a / c0) ** 2 * integral


def check_enhancement(squeezed, unsqueezed, hyp, report, rates):
    """Scan rates at the reported couplings and their ratio against the closed form."""
    problems = []
    g = hyp.g_ksvz
    expected = []
    for params, key, rate in ((squeezed, "beta_squeezed", rates[0]),
                              (unsqueezed, "beta_unsqueezed", rates[1])):
        at_beta = dataclasses.replace(params, beta=report[key])
        closed = closed_form_rate(at_beta, g)
        expected.append(closed)
        err = relative_error(rate, closed)
        if not err <= RATE_RTOL:
            problems.append(f"{key}: scan rate off the closed form by {err:.2e}")
    err = relative_error(report["rate_ratio"], expected[0] / expected[1])
    if not err <= RATE_RTOL:
        problems.append(f"rate_ratio off the closed form by {err:.2e}")
    return problems


class ReceiverSweep:
    """Noise budgets and enhancement at operating points near the reference."""

    def __init__(self, config_path, seed):
        cfg = config.load_config(config_path)
        self.base = cfg.receiver()
        self.snr_ref = cfg.get("sensitivity", "snr_ref")
        self.config_hash = cfg.hash()
        half_span = (cfg.get("acquisition", "n_bins") // 2) * cfg.get(
            "acquisition", "bin_width_hz")
        self.detunings = np.linspace(-half_span, half_span, DETUNING_POINTS)
        self.rng = np.random.default_rng(seed)
        self.points, self.ratios = [], []
        # Bound now, before a traced run wraps it, so checks stay out of the spans.
        self.check_scan_rate = receiver.scan_rate

    def draw_point(self):
        return dataclasses.replace(
            self.base,
            g_s=float(self.rng.uniform(0.05, 0.20)),
            n_a=float(self.rng.uniform(0.015, 0.06)),
            eta=float(self.rng.uniform(0.55, 0.80)),
        )

    def op(self, index):
        while len(self.points) <= index:
            self.points.append(self.draw_point())
        squeezed = self.points[index]
        unsqueezed = dataclasses.replace(squeezed, g_s=1.0)
        hyp = axion.AxionHypothesis(nu_a_hz=squeezed.nu_c, g_ksvz=1.0, snr_ref=self.snr_ref)
        t0 = time.perf_counter()
        budgets = [receiver.noise_budget(p, self.detunings, hyp) for p in (squeezed, unsqueezed)]
        report = receiver.report_enhancement(squeezed, unsqueezed, hyp)
        seconds = time.perf_counter() - t0
        problems = []
        for params, budget in zip((squeezed, unsqueezed), budgets):
            closed = closed_form_alpha(params, hyp.g_ksvz, self.detunings)
            err = np.max(np.abs(budget.alpha / closed - 1.0))
            if not err <= ALPHA_RTOL:
                problems.append(f"noise budget visibility off the closed form by {err:.2e}")
        rates = [self.check_scan_rate(dataclasses.replace(p, beta=report[k]), hyp)
                 for p, k in ((squeezed, "beta_squeezed"), (unsqueezed, "beta_unsqueezed"))]
        problems += check_enhancement(squeezed, unsqueezed, hyp, report, rates)
        self.ratios.append(report["rate_ratio"])
        return seconds, problems

    def summary(self):
        return {
            "operation": "one receiver operating point",
            "config_hash": self.config_hash,
            "rate_ratio_range": [min(self.ratios, default=None), max(self.ratios, default=None)],
            "rate_rtol": RATE_RTOL,
            "alpha_rtol": ALPHA_RTOL,
        }
