"""Spectrum containers and their files.

A spectrum file holds the PSD as the single column of the versioned
array format in ``artifacts``; the header carries the core keys below
and the typed metadata.  Frequencies refer to bin centers; bin k sits at
``nu_start + k * bin_width``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_array_file, write_array_file
from .errors import DataError

# Header keys that are structural rather than free-form metadata; the
# format adds ``n_bins`` and ``columns``.
_CORE_KEYS = ("step_id", "nu_start_hz", "bin_width_hz", "n_averages")


@dataclass
class RawSpectrum:
    """One averaged power spectrum plus acquisition metadata.

    ``psd`` is gain-scaled (quanta times the chain power gain), one value
    per analysis bin.  ``metadata`` carries measured per-step diagnostics
    (cavity geometry, squeezing level, probe power, frequency drift);
    values must be str, int, float, or bool.
    """

    step_id: int
    nu_start_hz: float
    bin_width_hz: float
    psd: np.ndarray
    n_averages: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.psd = np.asarray(self.psd, dtype=float)
        if self.psd.ndim != 1 or self.psd.size == 0:
            raise DataError("psd must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.psd)):
            raise DataError(f"step {self.step_id}: psd contains non-finite samples")
        if np.any(self.psd < 0.0):
            raise DataError(f"step {self.step_id}: psd contains negative samples")
        if self.bin_width_hz <= 0:
            raise DataError(f"bin width must be > 0, got {self.bin_width_hz!r}")
        if self.n_averages < 1:
            raise DataError(f"n_averages must be >= 1, got {self.n_averages!r}")

    @property
    def n_bins(self):
        return self.psd.size

    @property
    def frequencies(self):
        """Bin-center frequencies, Hz."""
        return self.nu_start_hz + np.arange(self.n_bins) * self.bin_width_hz

    def detunings(self, nu_c):
        return self.frequencies - nu_c


@dataclass
class CalibrationSet:
    """The five-spectrum calibration block taken at one tuning step.

    meas1: far-detuned, squeezer off (input-field benchmark).
    meas2: on resonance, squeezer on.
    meas3: on resonance, squeezer off.
    hot, cold: matched loads at t_hot_k / t_cold_k replacing the cavity path.
    """

    step_id: int
    meas1: RawSpectrum
    meas2: RawSpectrum
    meas3: RawSpectrum
    hot: RawSpectrum
    cold: RawSpectrum
    t_hot_k: float
    t_cold_k: float

    ROLES = ("meas1", "meas2", "meas3", "hot", "cold")

    def spectra(self):
        return {role: getattr(self, role) for role in self.ROLES}


def write_spectrum(spectrum, path):
    """Write one spectrum in the versioned array format (see ``artifacts``)."""
    core = {
        "step_id": int(spectrum.step_id),
        "nu_start_hz": float(spectrum.nu_start_hz),
        "bin_width_hz": float(spectrum.bin_width_hz),
        "n_averages": int(spectrum.n_averages),
    }
    write_array_file(path, "spectrum", core, spectrum.metadata, {"psd": spectrum.psd})


def read_spectrum(path):
    """Read a spectrum file; raises DataError on any format problem."""
    core, metadata, columns = read_array_file(path, "spectrum", _CORE_KEYS, ("psd",))
    try:
        return RawSpectrum(
            step_id=int(core["step_id"]),
            nu_start_hz=float(core["nu_start_hz"]),
            bin_width_hz=float(core["bin_width_hz"]),
            psd=columns["psd"],
            n_averages=int(core["n_averages"]),
            metadata=metadata,
        )
    except DataError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: inconsistent header: {exc}") from exc


def write_calibration_set(calset, directory):
    """Write the five calibration spectra into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for role, spectrum in calset.spectra().items():
        write_spectrum(spectrum, os.path.join(directory, f"{role}.spec"))


def read_calibration_set(directory):
    spectra = {}
    for role in CalibrationSet.ROLES:
        path = os.path.join(directory, f"{role}.spec")
        if not os.path.exists(path):
            raise DataError(f"calibration set {directory}: missing {role}.spec")
        spectra[role] = read_spectrum(path)
    step_ids = {s.step_id for s in spectra.values()}
    if len(step_ids) != 1:
        raise DataError(f"calibration set {directory}: mixed step ids {sorted(step_ids)}")
    try:
        t_hot, t_cold = (float(spectra[r].metadata["load_temp_k"]) for r in ("hot", "cold"))
    except KeyError as exc:
        raise DataError(f"calibration set {directory}: load spectra lack load_temp_k") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"calibration set {directory}: bad load_temp_k: {exc}") from exc
    if not all(0.0 <= t < np.inf for t in (t_hot, t_cold)):
        raise DataError(f"calibration set {directory}: load_temp_k {t_hot!r}, {t_cold!r} invalid")
    return CalibrationSet(
        step_id=spectra["hot"].step_id,
        t_hot_k=t_hot,
        t_cold_k=t_cold,
        **spectra,
    )
