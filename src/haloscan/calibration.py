"""Inference of receiver parameters from calibration measurement sets.

All estimators work on per-bin ratios of calibration spectra, so the
chain gain cancels everywhere except in the hot/cold load fit, which is
the one place gain is measured.  Band averages use inverse-variance
weights.  Ratio estimators carry a second-order 1/n debias so Monte
Carlo closure is unbiased at the tiny statistical errors a full-length
calibration reaches.

Quanta are single-quadrature throughout (vacuum = 0.25); mixing
conventions here is the classic factor-of-two pitfall.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .errors import ConfigError, DataError
from .receiver import VACUUM_QUANTA, cavity_reflectance, thermal_quanta


@dataclass(frozen=True)
class AddedNoiseFit:
    n_a_hat: float
    n_a_sigma: float
    gain_hat: float
    gain_db_hat: float
    gain_db_sigma: float
    flags: tuple


@dataclass(frozen=True)
class CavityNoiseFit:
    n_c0_hat: float
    n_c0_sigma: float
    flags: tuple


@dataclass(frozen=True)
class SqueezingFit:
    g_s_hat: float
    g_s_sigma: float
    s_hat: float
    s_sigma: float
    no_squeezing: bool
    flags: tuple


@dataclass(frozen=True)
class CalibrationResult:
    """Band-averaged receiver parameters inferred at one tuning step."""

    step_id: int
    nu_c_hz: float
    g_s_hat: float
    g_s_sigma: float
    s_hat: float
    s_sigma: float
    n_c0_hat: float
    n_c0_sigma: float
    n_a_hat: float
    n_a_sigma: float
    gain_db_hat: float
    gain_db_sigma: float
    flags: tuple = ()

    def __post_init__(self):
        for name in ("g_s_hat", "s_hat", "n_c0_hat", "n_a_hat"):
            if getattr(self, name) < 0.0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("g_s_sigma", "s_sigma", "n_c0_sigma", "n_a_sigma", "gain_db_sigma"):
            if not getattr(self, name) > 0.0:
                raise DataError(f"{name} must be > 0, got {getattr(self, name)!r}")


def _check_shared_grid(spectra):
    first = spectra[0]
    for other in spectra[1:]:
        if (
            other.n_bins != first.n_bins
            or other.bin_width_hz != first.bin_width_hz
            or abs(other.nu_start_hz - first.nu_start_hz) > 1e-6
        ):
            raise DataError("calibration spectra do not share a bin grid")


def _weighted_mean(values, sigmas, valid=None):
    """Inverse-variance mean over valid bins; returns (mean, sigma)."""
    weights = np.zeros_like(values)
    mask = np.isfinite(values) & np.isfinite(sigmas) & (sigmas > 0)
    if valid is not None:
        mask &= valid
    weights[mask] = 1.0 / sigmas[mask] ** 2
    total = weights.sum()
    if total <= 0.0:
        raise DataError("no usable bins in band average")
    return float(np.sum(weights * values) / total), float(1.0 / math.sqrt(total))


def infer_added_noise(hot, cold, t_hot_k, t_cold_k):
    """Two-point load fit: psd = gain * (thermal_quanta(T) + N_A) per bin.

    Gain comes from the hot-cold difference (linear in the data), the
    added noise from the gain-normalized loads.  Weight levels use band
    medians, not per-bin measurements: data-dependent weights bias a
    band mean at the 1/n level, and loads are thermally flat across an
    analysis band so nothing is lost.
    """
    if t_hot_k == t_cold_k:
        raise ConfigError("load temperatures are equal; two-point fit is degenerate")
    if t_hot_k < t_cold_k:
        hot, cold = cold, hot
        t_hot_k, t_cold_k = t_cold_k, t_hot_k
    _check_shared_grid([hot, cold])
    freqs = hot.frequencies
    n_h = thermal_quanta(freqs, t_hot_k)
    n_c = thermal_quanta(freqs, t_cold_k)
    h = hot.psd
    c = cold.psd
    if h.mean() < c.mean():
        raise DataError(
            "hot load spectrum is dimmer than the cold one; loads likely mislabeled"
        )
    diff = h - c
    gain_curve = diff / (n_h - n_c)
    sig_h = float(np.median(h)) / math.sqrt(hot.n_averages)
    sig_c = float(np.median(c)) / math.sqrt(cold.n_averages)
    gain_sigma = math.hypot(sig_h, sig_c) / (n_h - n_c)

    valid = diff > 0
    gain_hat, gain_err = _weighted_mean(gain_curve, gain_sigma, valid)
    if gain_hat <= 0.0:
        raise DataError(f"inferred non-positive gain {gain_hat!r}")

    w_h = (gain_hat / sig_h) ** 2
    w_c = (gain_hat / sig_c) ** 2
    n_a_curve = (w_h * (h / gain_hat - n_h) + w_c * (c / gain_hat - n_c)) / (w_h + w_c)
    n_a_sigma = np.full(h.shape, 1.0 / math.sqrt(w_h + w_c))
    n_a_hat, n_a_err = _weighted_mean(n_a_curve, n_a_sigma)

    flags = []
    if n_a_hat < 0.0:
        flags.append("clamped:n_a")
        n_a_hat = 0.0
    gain_db = 10.0 * math.log10(gain_hat)
    gain_db_sigma = 10.0 / math.log(10.0) * gain_err / gain_hat
    return AddedNoiseFit(
        n_a_hat=n_a_hat,
        n_a_sigma=n_a_err,
        gain_hat=gain_hat,
        gain_db_hat=gain_db,
        gain_db_sigma=gain_db_sigma,
        flags=tuple(flags),
    )


def infer_cavity_noise(meas1, meas3, geometry, *, n_a=None):
    """Cavity excess noise from the on/off-resonance ratio, squeezer off.

    meas1 sees full reflection (N_f + N_A) and meas3 the on-resonance
    mix, so the ratio q = meas3/meas1 isolates the cavity term:
    N_c0 = (q * (N_f + N_A) - N_f * r - N_A) / (1 - r).
    """
    _check_shared_grid([meas1, meas3])
    if n_a is None:
        n_a = geometry.n_a
    delta = meas3.frequencies - geometry.nu_c
    refl = cavity_reflectance(delta, geometry.kappa_l, geometry.beta)
    absorbed = 1.0 - refl

    q = (meas3.psd / meas1.psd) / (1.0 + 1.0 / meas1.n_averages)
    reference = geometry.n_f + n_a
    # sigma from the nominal geometry, not the measured ratio: weights must
    # be independent of the per-bin noise or the band mean picks up an
    # O(1/n) bias
    model_q = (geometry.n_c0 * absorbed + geometry.n_f * refl + n_a) / reference
    q_sigma = model_q * math.sqrt(1.0 / meas3.n_averages + 1.0 / meas1.n_averages)
    curve = (q * reference - geometry.n_f * refl - n_a) / absorbed
    sigma = q_sigma * reference / absorbed

    valid = absorbed > 1e-6
    n_c0_hat, n_c0_err = _weighted_mean(curve, sigma, valid)
    flags = []
    if n_c0_hat < 0.0:
        flags.append("clamped:n_c0")
        n_c0_hat = 0.0
    elif n_c0_hat < VACUUM_QUANTA:
        flags.append("nonphysical:n_c0_below_vacuum")
    return CavityNoiseFit(n_c0_hat=n_c0_hat, n_c0_sigma=n_c0_err, flags=tuple(flags))


def infer_squeezing(meas2, meas3, eta, geometry, *, n_c0=None, n_a=None):
    """Delivered squeezing from the on/off ratio of on-resonance spectra.

    The cavity-sourced and added-noise parts of meas3 are unsqueezed, so
    only the reflected input fraction scales with S:
    S = (rho * M3 - N_c0 * u - N_A) / (N_f * r), rho = meas2 / meas3.
    G_s follows from S = eta * G_s + (1 - eta).
    """
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"eta must be in (0, 1], got {eta!r}")
    _check_shared_grid([meas2, meas3])
    if n_c0 is None:
        n_c0 = geometry.n_c0
    if n_a is None:
        n_a = geometry.n_a
    delta = meas3.frequencies - geometry.nu_c
    refl = cavity_reflectance(delta, geometry.kappa_l, geometry.beta)
    absorbed = 1.0 - refl

    rho = (meas2.psd / meas3.psd) / (1.0 + 1.0 / meas3.n_averages)
    model3 = n_c0 * absorbed + geometry.n_f * refl + n_a
    # nominal-model weighting for the same reason as the cavity fit
    model2 = n_c0 * absorbed + geometry.delivered * geometry.n_f * refl + n_a
    rho_sigma = (model2 / model3) * math.sqrt(
        1.0 / meas2.n_averages + 1.0 / meas3.n_averages
    )
    reflected = geometry.n_f * refl
    s_curve = (rho * model3 - n_c0 * absorbed - n_a) / reflected
    s_sigma = rho_sigma * model3 / reflected

    valid = refl > 1e-6
    s_hat, s_err = _weighted_mean(s_curve, s_sigma, valid)
    flags = []
    no_squeezing = s_hat >= 1.0
    if no_squeezing:
        flags.append("no_squeezing")
    if s_hat < 0.0:
        flags.append("clamped:s")
        s_hat = 0.0
    g_s_hat = (s_hat - (1.0 - eta)) / eta
    if g_s_hat < 0.0:
        flags.append("clamped:g_s")
        g_s_hat = 0.0
    return SqueezingFit(
        g_s_hat=g_s_hat,
        g_s_sigma=s_err / eta,
        s_hat=s_hat,
        s_sigma=s_err,
        no_squeezing=no_squeezing,
        flags=tuple(flags),
    )


def run_calibration(calset, geometry, *, eta=None):
    """Full inference chain for one calibration set.

    Order matters: the load fit supplies N_A to the cavity fit, whose
    N_c0 feeds the squeezing fit.  geometry supplies the tuned beta,
    kappa_l and the ex-situ N_f and eta; its nu_c is overridden by the
    set's recorded tuning when present.
    """
    if eta is None:
        eta = geometry.eta
    nu_c = calset.meas2.metadata.get("nu_c_hz")
    if nu_c is not None and abs(nu_c - geometry.nu_c) > calset.meas2.bin_width_hz:
        geometry = dataclasses.replace(geometry, nu_c=float(nu_c))
    added = infer_added_noise(calset.hot, calset.cold, calset.t_hot_k, calset.t_cold_k)
    cavity = infer_cavity_noise(calset.meas1, calset.meas3, geometry, n_a=added.n_a_hat)
    squeezing = infer_squeezing(
        calset.meas2, calset.meas3, eta, geometry, n_c0=cavity.n_c0_hat, n_a=added.n_a_hat
    )
    return CalibrationResult(
        step_id=calset.step_id,
        nu_c_hz=float(geometry.nu_c),
        g_s_hat=squeezing.g_s_hat,
        g_s_sigma=squeezing.g_s_sigma,
        s_hat=squeezing.s_hat,
        s_sigma=squeezing.s_sigma,
        n_c0_hat=cavity.n_c0_hat,
        n_c0_sigma=cavity.n_c0_sigma,
        n_a_hat=added.n_a_hat,
        n_a_sigma=added.n_a_sigma,
        gain_db_hat=added.gain_db_hat,
        gain_db_sigma=added.gain_db_sigma,
        flags=added.flags + cavity.flags + squeezing.flags,
    )


def assign_calibrations(step_ids, results):
    """Nearest-neighbor calibration for each science step, ties to lower."""
    if not results:
        raise DataError("no calibration results to assign")
    ordered = sorted(results, key=lambda r: r.step_id)
    out = {}
    for step_id in step_ids:
        out[step_id] = min(
            ordered, key=lambda r: (abs(r.step_id - step_id), r.step_id)
        )
    return out


_RESULT_FIELDS = [f.name for f in dataclasses.fields(CalibrationResult)]


def write_calibration_results(results, path):
    payload = {
        "format": "haloscan-calibration",
        "version": 1,
        "results": [
            {
                name: (list(getattr(r, name)) if name == "flags" else getattr(r, name))
                for name in _RESULT_FIELDS
            }
            for r in sorted(results, key=lambda r: r.step_id)
        ],
    }
    write_json(payload, path)


def _field_ok(name, value):
    if name == "flags":
        return isinstance(value, list) and all(isinstance(f, str) for f in value)
    kind = int if name == "step_id" else (int, float)
    return isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)


def read_calibration_results(path):
    """Read ``write_calibration_results`` output; a malformed field is a DataError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read calibration results: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "haloscan-calibration":
        raise DataError(f"{path}: not a calibration results file")
    if payload.get("version") != 1:
        raise DataError(f"{path}: unsupported version {payload.get('version')!r}")
    entries = payload.get("results")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DataError(f"{path}: results must be a list of objects")
    results = []
    for entry in entries:
        bad = [name for name in _RESULT_FIELDS if not _field_ok(name, entry.get(name))]
        if bad:
            raise DataError(f"{path}: missing or malformed {', '.join(bad)} in {entry!r}")
        kwargs = {name: entry[name] for name in _RESULT_FIELDS}
        results.append(CalibrationResult(**dict(kwargs, flags=tuple(entry["flags"]))))
    return results
