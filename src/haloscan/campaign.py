"""Synthetic campaign generation: tuning plans, raw spectra, calibration sets.

Randomness policy: every stochastic quantity derives from the campaign
master seed through a (stream, index, salt) spawn key, so any single
spectrum can be regenerated in isolation.  Streams are module constants
below.

Statistics are simulated at the level of the averaged periodogram: an
averaged power spectrum with ``n_averages`` segments has relative
fluctuation 1/sqrt(n_averages) per bin, which is all the downstream
pipeline ever sees.  The test suite keeps a segment-by-segment
simulator that builds the individual traces, as the oracle for that
shortcut.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .axion import DEFAULT_TAU_S, LineshapeParams, bin_signal
from .errors import ConfigError
from .receiver import band_noise, squeezer_ratio, thermal_quanta
from .spectra import CalibrationSet, RawSpectrum

STREAM_SPECTRUM = 0
STREAM_CALIBRATION = 1
STREAM_BASELINE = 2
STREAM_ANOMALY = 3
STREAM_RESCAN = 4

ANOMALY_TYPES = ("drift", "jpa_sag", "probe")

DEFAULT_N_BINS = 30000
DEFAULT_ANOMALY_RATE = 0.0
DEFAULT_CAL_EVERY = 9
DEFAULT_T_HOT_K = 0.333
DEFAULT_T_COLD_K = 0.061
DEFAULT_N_COMPONENTS = (3, 5)
DEFAULT_EXCURSION = 0.30


def derive_seed(master_seed, stream, index, salt=0):
    """Collapse a spawn key into a 64-bit integer seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(stream, index, salt))
    hi, lo = ss.generate_state(2)
    return (int(hi) << 32) | int(lo)


@dataclass(frozen=True)
class TuningStep:
    """One cavity tuning.  The coupling is the receiver's ``beta``; the
    step's seeds derive from the plan's master seed and ``step_id``."""

    step_id: int
    nu_c_hz: float


@dataclass(frozen=True)
class TuningPlan:
    """Ordered tuning steps, the skip windows they avoid and the master seed."""

    steps: tuple
    skip_windows: tuple
    master_seed: int

    def __post_init__(self):
        last = -math.inf
        for step in self.steps:
            if step.nu_c_hz <= last:
                raise ConfigError("tuning steps must be strictly increasing in nu_c")
            last = step.nu_c_hz
            for lo, hi in self.skip_windows:
                if lo <= step.nu_c_hz <= hi:
                    raise ConfigError(
                        f"step {step.step_id} at {step.nu_c_hz} Hz lies in skip window"
                    )

    @property
    def n_steps(self):
        return len(self.steps)

    def nearest_step(self, freq_hz):
        """Step whose center is closest to freq_hz, ties to the lower center."""
        if not self.steps:
            raise ConfigError("empty tuning plan")
        return min(self.steps, key=lambda s: (abs(s.nu_c_hz - freq_hz), s.nu_c_hz))


def make_tuning_plan(lo_hz, hi_hz, step_hz, skip_windows=(), *, master_seed=0):
    """Uniform frequency grid from lo to hi, dropping points inside skips.

    Steps are numbered in frequency order after the skips are dropped.  A
    degenerate range (lo == hi) yields a single step.  A range fully
    covered by skip windows yields an empty plan rather than an error.
    """
    if not (lo_hz <= hi_hz):
        raise ConfigError(f"need lo <= hi, got {lo_hz!r} > {hi_hz!r}")
    if step_hz <= 0:
        raise ConfigError(f"step_hz must be > 0, got {step_hz!r}")
    windows = []
    for window in skip_windows:
        lo, hi = window
        if lo > hi:
            raise ConfigError(f"skip window {window!r} has lo > hi")
        windows.append((float(lo), float(hi)))
    n_candidates = int(math.floor((hi_hz - lo_hz) / step_hz + 1e-9)) + 1
    steps = []
    for k in range(n_candidates):
        nu = lo_hz + k * step_hz
        if any(lo <= nu <= hi for lo, hi in windows):
            continue
        steps.append(TuningStep(step_id=len(steps), nu_c_hz=nu))
    return TuningPlan(steps=tuple(steps), skip_windows=tuple(windows), master_seed=master_seed)


@dataclass(frozen=True)
class BaselineModel:
    """Smooth multiplicative transfer function applied on the IF grid.

    One component is shared by every step (the analysis chain), a second
    smaller component varies step to step.  Both are sums of low-order
    cosines in normalized band position, so the product stays strictly
    positive and well inside Savitzky-Golay reach.  The shared component
    is evaluated once per (model, n_bins) and cached read-only; only the
    per-step component is drawn and evaluated on every call.
    """

    master_seed: int
    shared_orders: tuple
    shared_amps: tuple
    shared_phases: tuple
    step_components_max: int = 2
    step_excursion: float = 0.05

    def evaluate(self, step_id, n_bins):
        t, base = _shared_baseline(self, n_bins)
        rng = np.random.default_rng(
            derive_seed(self.master_seed, STREAM_BASELINE, 1 + step_id)
        )
        n = int(rng.integers(1, self.step_components_max + 1))
        orders = rng.integers(1, 7, size=n)
        raw = rng.uniform(-1.0, 1.0, size=n)
        amps = self.step_excursion * raw / np.sum(np.abs(raw))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        wiggle = np.ones(n_bins)
        for order, amp, phase in zip(orders, amps, phases):
            wiggle += amp * np.cos(2.0 * np.pi * order * t + phase)
        return base * wiggle


@functools.lru_cache(maxsize=4)
def _shared_baseline(model, n_bins):
    """(band position t, shared component) on an n_bins grid, read-only.

    Seed- and step-independent, so one campaign or one ensemble of
    campaigns under the same model evaluates it once.
    """
    t = np.linspace(0.0, 1.0, n_bins)
    base = np.ones(n_bins)
    for order, amp, phase in zip(model.shared_orders, model.shared_amps, model.shared_phases):
        base += amp * np.cos(2.0 * np.pi * order * t + phase)
    t.flags.writeable = False
    base.flags.writeable = False
    return t, base


def make_baseline_model(
    master_seed,
    *,
    n_components=DEFAULT_N_COMPONENTS,
    excursion=DEFAULT_EXCURSION,
    step_components_max=BaselineModel.step_components_max,
    step_excursion=BaselineModel.step_excursion,
):
    if not 0 <= excursion < 1:
        raise ConfigError(f"baseline excursion must be in [0, 1), got {excursion!r}")
    if not 0 <= step_excursion < 1:
        raise ConfigError(
            f"baseline step_excursion must be in [0, 1), got {step_excursion!r}"
        )
    if n_components[0] < 0:
        raise ConfigError(
            f"baseline n_components_lo must be >= 0, got {n_components[0]!r}"
        )
    if step_components_max < 1:
        raise ConfigError(
            f"baseline step_components_max must be >= 1, got {step_components_max!r}"
        )
    rng = np.random.default_rng(derive_seed(master_seed, STREAM_BASELINE, 0))
    n = int(rng.integers(n_components[0], n_components[1] + 1))
    orders = tuple(range(1, n + 1))
    raw = rng.uniform(-1.0, 1.0, size=n)
    amps = tuple(excursion * raw / np.sum(np.abs(raw)))
    phases = tuple(rng.uniform(0.0, 2.0 * np.pi, size=n))
    return BaselineModel(
        master_seed=master_seed,
        shared_orders=orders,
        shared_amps=amps,
        shared_phases=phases,
        step_components_max=step_components_max,
        step_excursion=step_excursion,
    )


def band_start(step, bin_width_hz, n_bins):
    """First bin center of the analysis band; the center bin sits on nu_c."""
    return step.nu_c_hz - (n_bins // 2) * bin_width_hz


def _band_noise(step, receiver, bin_width_hz, n_bins, s):
    """The read-only noise total over a step's band at delivered squeezing s.

    The band's centre bin sits on the step's nu_c, so its detunings are
    ``band_detunings`` with offset nu_c - receiver.nu_c.
    """
    offset = step.nu_c_hz - receiver.nu_c
    return band_noise(receiver, n_bins, bin_width_hz, offset, s)


def _n_averages(tau_s, bin_width_hz):
    """Segments averaged over tau_s at one segment per 1 / bin_width_hz."""
    return max(1, int(round(tau_s * bin_width_hz)))


def hypothesis_in_band(step, hypothesis, *, bin_width_hz, n_bins, lineshape):
    """Whether a hypothesis lies within a lineshape span of the step's band."""
    start = band_start(step, bin_width_hz, n_bins)
    margin = lineshape.span_bins * bin_width_hz
    return start - margin <= hypothesis.nu_a_hz <= start + (n_bins - 1) * bin_width_hz + margin


def draw_step_effects(
    master_seed,
    step_id,
    receiver,
    *,
    anomaly_rate=DEFAULT_ANOMALY_RATE,
    anomaly_types=ANOMALY_TYPES,
    n_bins=DEFAULT_N_BINS,
    salt=0,
):
    """Per-step measured diagnostics plus an optional injected anomaly.

    Returns (effective receiver, metadata dict, psd spike or None).  The
    metadata carries only quantities a real acquisition would log (drift,
    squeezing level, probe power) plus a truth tag for bookkeeping; cut
    logic must key on the measured values, never on the tag.
    """
    rng = np.random.default_rng(derive_seed(master_seed, STREAM_ANOMALY, step_id, salt))
    drift_hz = abs(rng.normal(0.0, 1.0e3))
    delivered = receiver.delivered
    squeezing_db = -10.0 * math.log10(delivered) + rng.normal(0.0, 0.1)
    probe_power = rng.normal(1.0, 0.02)
    effective = receiver
    spike = None
    kind = "none"
    if anomaly_rate > 0.0 and rng.random() < anomaly_rate:
        usable = [t for t in anomaly_types if t != "jpa_sag" or delivered < 1.0]
        if usable:
            kind = usable[int(rng.integers(len(usable)))]
    if kind == "drift":
        drift_hz = rng.uniform(1.0e5, 3.0e5)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        effective = dataclasses.replace(receiver, nu_c=receiver.nu_c + sign * drift_hz)
    elif kind == "jpa_sag":
        sagged = delivered + rng.uniform(0.4, 0.7) * (1.0 - delivered)
        effective = dataclasses.replace(receiver, g_s=squeezer_ratio(receiver.eta, sagged))
        squeezing_db = -10.0 * math.log10(sagged) + rng.normal(0.0, 0.1)
    elif kind == "probe":
        probe_power = rng.uniform(2.0, 5.0)
        spike = (int(rng.integers(n_bins)), 3.0 * probe_power)
    metadata = {
        "freq_drift_hz": drift_hz,
        "squeezing_db": squeezing_db,
        "probe_power": probe_power,
        "truth_anomaly": kind,
    }
    return effective, metadata, spike


def _lineshape_at(lineshape, bin_width_hz):
    """``lineshape``, or the default lineshape at ``bin_width_hz`` if it is None."""
    return LineshapeParams(bin_width_hz=float(bin_width_hz)) if lineshape is None else lineshape


def simulate_spectrum(
    step,
    receiver,
    baseline_model,
    seed,
    *,
    hypotheses=(),
    lineshape=None,
    tau_s=DEFAULT_TAU_S,
    bin_width_hz=LineshapeParams.bin_width_hz,
    n_bins=DEFAULT_N_BINS,
    metadata=None,
    spike=None,
):
    """One averaged power spectrum for a tuning step.

    psd = gain * baseline * (noise(delta) + signal) * (1 + eps) with eps
    i.i.d. zero-mean, std 1/sqrt(n_averages).  The band grid is fixed by
    the step's nominal center; detunings use receiver.nu_c, so a receiver
    whose resonance drifted produces a visibly shifted Lorentzian on an
    unmoved grid.
    """
    db = float(bin_width_hz)
    ls = _lineshape_at(lineshape, db)
    ls.check_bin_width(db)
    n_averages = _n_averages(tau_s, db)
    nu_start = band_start(step, db, n_bins)
    total = _band_noise(step, receiver, db, n_bins, receiver.delivered)

    signal = np.zeros(n_bins)
    for hyp in hypotheses:
        if not hypothesis_in_band(step, hyp, bin_width_hz=db, n_bins=n_bins, lineshape=ls):
            raise ConfigError(
                f"hypothesis at {hyp.nu_a_hz} Hz outside band of step {step.step_id}"
            )
        signal += bin_signal(nu_start, n_bins, hyp, receiver, ls, tau_s=tau_s)

    base = baseline_model.evaluate(step.step_id, n_bins)
    psd_true = base * (total + signal)
    if spike is not None:
        center, amplitude = spike
        lo = max(0, center - 1)
        hi = min(n_bins, center + 2)
        psd_true[lo:hi] += amplitude * base[lo:hi] * total[lo:hi]

    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n_bins) / math.sqrt(n_averages)
    psd = receiver.gain * psd_true * (1.0 + eps)

    meta = {
        "beta": receiver.beta,
        "q_loaded": receiver.nu_c / receiver.kappa,
        "nu_c_hz": step.nu_c_hz,
        "t_acq_s": step.step_id * tau_s,
    }
    if metadata:
        meta.update(metadata)
    return RawSpectrum(
        step_id=step.step_id,
        nu_start_hz=nu_start,
        bin_width_hz=db,
        psd=psd,
        n_averages=n_averages,
        metadata=meta,
    )


def simulate_calibration(
    step,
    receiver,
    seed,
    *,
    t_hot_k=DEFAULT_T_HOT_K,
    t_cold_k=DEFAULT_T_COLD_K,
    tau_s=DEFAULT_TAU_S,
    bin_width_hz=LineshapeParams.bin_width_hz,
    n_bins=DEFAULT_N_BINS,
):
    """Five-spectrum calibration block at a tuning step.

    meas1 is taken far detuned (full reflection, squeezer off), meas2 and
    meas3 on resonance with the squeezer on and off, hot and cold replace
    the cavity path with matched loads.  Calibration spectra carry no
    campaign baseline structure, only the chain gain; a real calibration
    normalizes its own short path.
    """
    if t_hot_k <= t_cold_k:
        raise ConfigError(
            f"hot load must be hotter than cold load, got {t_hot_k!r} <= {t_cold_k!r}"
        )
    db = float(bin_width_hz)
    n_averages = _n_averages(tau_s, db)
    nu_start = band_start(step, db, n_bins)
    freqs = nu_start + np.arange(n_bins) * db
    n_a = receiver.n_a
    totals = {
        "meas1": np.full(n_bins, receiver.n_f + n_a),
        "meas2": _band_noise(step, receiver, db, n_bins, receiver.delivered),
        "meas3": _band_noise(step, receiver, db, n_bins, 1.0),
        "hot": thermal_quanta(freqs, t_hot_k) + n_a,
        "cold": thermal_quanta(freqs, t_cold_k) + n_a,
    }
    role_meta = {
        "meas1": {"role": "meas1", "squeezer_on": False, "detuned": True},
        "meas2": {"role": "meas2", "squeezer_on": True, "detuned": False},
        "meas3": {"role": "meas3", "squeezer_on": False, "detuned": False},
        "hot": {"role": "hot", "squeezer_on": False, "load_temp_k": t_hot_k},
        "cold": {"role": "cold", "squeezer_on": False, "load_temp_k": t_cold_k},
    }
    rng = np.random.default_rng(seed)
    spectra = {}
    for role in CalibrationSet.ROLES:
        eps = rng.standard_normal(n_bins) / math.sqrt(n_averages)
        psd = receiver.gain * totals[role] * (1.0 + eps)
        meta = {"beta": receiver.beta, "nu_c_hz": step.nu_c_hz}
        meta.update(role_meta[role])
        spectra[role] = RawSpectrum(
            step_id=step.step_id,
            nu_start_hz=nu_start,
            bin_width_hz=db,
            psd=psd,
            n_averages=n_averages,
            metadata=meta,
        )
    return CalibrationSet(
        step_id=step.step_id, t_hot_k=t_hot_k, t_cold_k=t_cold_k, **spectra
    )


def _at_step(receiver, step):
    """The receiver tuned to a step's nominal center."""
    return dataclasses.replace(receiver, nu_c=step.nu_c_hz)


def _simulate_step(
    plan, step, receiver, baseline_model, seed, *, hypotheses, lineshape, tau_s, bin_width_hz,
    n_bins, anomaly_rate=DEFAULT_ANOMALY_RATE, anomaly_types=ANOMALY_TYPES, salt=0, extra=None,
):
    """One science acquisition: draw the step's effects, keep the in-band
    hypotheses and simulate the spectrum; ``extra`` joins its metadata."""
    effective, diag, spike = draw_step_effects(
        plan.master_seed, step.step_id, _at_step(receiver, step),
        anomaly_rate=anomaly_rate, anomaly_types=anomaly_types, n_bins=n_bins, salt=salt,
    )
    diag.update(extra or {})
    lineshape = _lineshape_at(lineshape, bin_width_hz)
    grid = {"lineshape": lineshape, "bin_width_hz": bin_width_hz, "n_bins": n_bins}
    in_band = [h for h in hypotheses if hypothesis_in_band(step, h, **grid)]
    return simulate_spectrum(
        step, effective, baseline_model, seed,
        hypotheses=in_band, tau_s=tau_s, metadata=diag, spike=spike, **grid,
    )


def simulate_campaign(
    plan,
    receiver,
    baseline_model,
    *,
    hypotheses=(),
    lineshape=None,
    tau_s=DEFAULT_TAU_S,
    bin_width_hz=LineshapeParams.bin_width_hz,
    n_bins=DEFAULT_N_BINS,
    anomaly_rate=DEFAULT_ANOMALY_RATE,
    anomaly_types=ANOMALY_TYPES,
    cal_every=DEFAULT_CAL_EVERY,
    t_hot_k=DEFAULT_T_HOT_K,
    t_cold_k=DEFAULT_T_COLD_K,
    threads=1,
):
    """Simulate every step of a plan; returns (spectra, calibration sets).

    Calibrations are taken every cal_every steps under nominal conditions
    (anomalies perturb science spectra only).  Every step runs at the
    receiver's coupling, tuned to the step's centre.  Steps run one after
    the other in plan order, each seeded by its step_id.  ``threads`` is
    accepted and ignored: the simulation is single-threaded and its output
    does not depend on it.
    """
    if cal_every < 1:
        raise ConfigError(f"cal_every must be >= 1, got {cal_every!r}")
    spectra, calsets = [], []
    for step in plan.steps:
        spectra.append(_simulate_step(
            plan, step, receiver, baseline_model,
            derive_seed(plan.master_seed, STREAM_SPECTRUM, step.step_id), hypotheses=hypotheses,
            lineshape=lineshape, tau_s=tau_s, bin_width_hz=bin_width_hz, n_bins=n_bins,
            anomaly_rate=anomaly_rate, anomaly_types=anomaly_types,
        ))
        if step.step_id % cal_every == 0:
            calsets.append(simulate_calibration(
                step, _at_step(receiver, step),
                derive_seed(plan.master_seed, STREAM_CALIBRATION, step.step_id),
                t_hot_k=t_hot_k, t_cold_k=t_cold_k,
                tau_s=tau_s, bin_width_hz=bin_width_hz, n_bins=n_bins,
            ))
    return spectra, calsets


def rescan_steps(plan, frequencies):
    """Unique tuning steps responsible for a list of candidate frequencies."""
    chosen = {}
    for freq in frequencies:
        step = plan.nearest_step(freq)
        chosen[step.step_id] = step
    return [chosen[k] for k in sorted(chosen)]


def simulate_rescans(
    plan,
    steps,
    receiver,
    baseline_model,
    *,
    hypotheses=(),
    lineshape=None,
    tau_s=DEFAULT_TAU_S,
    bin_width_hz=LineshapeParams.bin_width_hz,
    n_bins=DEFAULT_N_BINS,
    threads=1,
):
    """Re-acquire a subset of steps with fresh noise, no anomalies.

    Each rescan is the initial scan's step with no anomaly, its own noise
    seed (``STREAM_RESCAN``) and diagnostics (salt 1), and an acquisition
    time after the initial scan.  Durations match the initial scan.  A
    persistent hypothesis appears in both passes; a statistical excess
    does not.  ``threads`` is accepted and ignored, as in
    ``simulate_campaign``.
    """
    return [
        _simulate_step(
            plan, step, receiver, baseline_model,
            derive_seed(plan.master_seed, STREAM_RESCAN, step.step_id),
            hypotheses=hypotheses, lineshape=lineshape, tau_s=tau_s,
            bin_width_hz=bin_width_hz, n_bins=n_bins,
            salt=1, extra={"rescan": True, "t_acq_s": (plan.n_steps + order) * tau_s},
        )
        for order, step in enumerate(steps)
    ]
