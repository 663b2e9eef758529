"""Axion signal model: virialized lineshape and delivered signal spectrum.

A galactic-halo axion converts to photons at rest-mass frequency nu_a plus
a Doppler kinetic-energy tail.  For a Maxwellian velocity distribution with
mean-square velocity <v^2> the photon-frequency density is

    f(nu) = (2/sqrt(pi)) s^(-3/2) sqrt(nu - nu_a) exp(-(nu - nu_a)/s),
    s = nu_a <v^2> / (3 c^2),   nu >= nu_a,

a Gamma(3/2) shape about 9 kHz wide at 4 GHz for the standard 270 km/s rms
halo.  Couplings are expressed in KSVZ units throughout (g_ksvz = 1 is the
benchmark model coupling at that mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import frozen_cache
from .errors import ConfigError
from .receiver import (
    ELEMENTARY_CHARGE,
    PLANCK,
    SPEED_OF_LIGHT,
    band_reflectance,
    band_visibility,
)

# Discrete kernels must capture at least this fraction of the signal power.
MIN_KERNEL_COVERAGE = 0.999
DEFAULT_TAU_S = 3600.0  # s, the nominal integration time of one spectrum


def mass_uev(nu_hz):
    """Axion rest mass h nu / e in ueV/c^2 for photon frequency nu_hz."""
    return PLANCK * nu_hz / ELEMENTARY_CHARGE * 1e6


@dataclass(frozen=True)
class LineshapeParams:
    """Discretization of the virialized lineshape.

    Attributes
    ----------
    velocity_dispersion_kms : float
        RMS halo velocity sqrt(<v^2>) in km/s.  270 is the standard
        isothermal-halo value.
    bin_width_hz : float
        Analysis bin width, Hz.
    span_bins : int
        Number of bins the discrete kernel covers.
    """

    velocity_dispersion_kms: float = 270.0
    bin_width_hz: float = 100.0
    span_bins: int = 512

    def __post_init__(self):
        if not (math.isfinite(self.velocity_dispersion_kms) and self.velocity_dispersion_kms > 0):
            raise ConfigError(
                f"velocity dispersion must be > 0, got {self.velocity_dispersion_kms!r}"
            )
        if not (math.isfinite(self.bin_width_hz) and self.bin_width_hz > 0):
            raise ConfigError(f"bin width must be > 0, got {self.bin_width_hz!r}")
        if self.span_bins < 8:
            raise ConfigError(f"kernel span must be >= 8 bins, got {self.span_bins!r}")

    def check_bin_width(self, bin_width_hz):
        """Refuse spectra binned at another width than this kernel."""
        if bin_width_hz != self.bin_width_hz:
            raise ConfigError(
                f"lineshape bin width {self.bin_width_hz!r} Hz differs from the "
                f"spectra's {bin_width_hz!r} Hz"
            )

    def energy_scale(self, nu_a):
        """Exponential scale s = nu_a <v^2> / (3 c^2), Hz."""
        v2 = (self.velocity_dispersion_kms * 1e3) ** 2
        return nu_a * v2 / (3.0 * SPEED_OF_LIGHT**2)


@dataclass(frozen=True)
class AxionHypothesis:
    """A candidate axion signal.

    Attributes
    ----------
    nu_a_hz : float
        Rest-mass frequency, Hz.
    g_ksvz : float
        Photon coupling in KSVZ units.
    snr_ref : float
        Reference sensitivity: the grand-spectrum mean excess this signal
        would produce at g_ksvz = 1 under reference integration (a single
        spectrum with the axion on cavity resonance, nominal integration
        time, no filter loss).  Fixes the absolute normalization of the
        delivered signal power.
    """

    nu_a_hz: float
    g_ksvz: float
    snr_ref: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.nu_a_hz) and self.nu_a_hz > 0):
            raise ConfigError(f"axion frequency must be > 0, got {self.nu_a_hz!r}")
        if not (math.isfinite(self.g_ksvz) and self.g_ksvz >= 0):
            raise ConfigError(f"coupling must be >= 0, got {self.g_ksvz!r}")
        if not (math.isfinite(self.snr_ref) and self.snr_ref > 0):
            raise ConfigError(f"reference sensitivity must be > 0, got {self.snr_ref!r}")


def lineshape(nu, nu_a, params):
    """Normalized signal power density (1/Hz) at frequency nu.

    Zero below nu_a; integrates to 1 over nu >= nu_a.
    """
    if not (math.isfinite(nu_a) and nu_a > 0):
        raise ConfigError(f"axion frequency must be > 0, got {nu_a!r}")
    nu = np.asarray(nu, dtype=float)
    s = params.energy_scale(nu_a)
    x = (nu - nu_a) / s
    out = np.zeros_like(nu)
    pos = x > 0
    out[pos] = (2.0 / math.sqrt(math.pi)) * np.sqrt(x[pos]) * np.exp(-x[pos]) / s
    return float(out) if out.ndim == 0 else out


def _gamma_cdf(x):
    """Gamma(3/2) CDF P(3/2, x) = erf(sqrt x) - 2 sqrt(x / pi) exp(-x), x >= 0.

    numpy has no erf, so ``math.erf`` runs once per point.
    """
    root = np.sqrt(x)
    erf = np.fromiter(map(math.erf, root.tolist()), float, root.size)
    return erf - (2.0 / math.sqrt(math.pi)) * root * np.exp(-x)


def lineshape_kernel(nu_a, params, grid_origin=0.0):
    """Discrete kernel: fraction of signal power in each analysis bin.

    Bins are centered on the absolute grid ``grid_origin + k * bin_width``
    (bin k covers center +/- half a bin).  Off-grid nu_a is handled
    exactly: each weight is the analytic integral of the density over the
    bin (a regularized Gamma(3/2) CDF difference), so there is no
    nearest-bin snapping and no scalloping loss in the model itself.

    Returns
    -------
    first_bin : int
        Grid index of the first bin holding signal power.
    weights : ndarray
        Power fraction per bin, length ``params.span_bins``; sums to the
        kernel coverage (~1, never more).
    """
    if not (math.isfinite(nu_a) and nu_a > 0):
        raise ConfigError(f"axion frequency must be > 0, got {nu_a!r}")
    db = params.bin_width_hz
    s = params.energy_scale(nu_a)
    # First bin whose upper edge lies above nu_a.
    first_bin = int(math.ceil((nu_a - grid_origin) / db - 0.5))
    lower_edges = grid_origin + (first_bin + np.arange(params.span_bins + 1) - 0.5) * db
    x = np.maximum((lower_edges - nu_a) / s, 0.0)
    weights = np.diff(_gamma_cdf(x))
    coverage = float(weights.sum())
    if coverage < MIN_KERNEL_COVERAGE:
        raise ConfigError(
            f"kernel span {params.span_bins} bins covers only {coverage:.6f} "
            f"of the signal power (scale {s:.1f} Hz); increase span_bins"
        )
    return first_bin, weights


@frozen_cache(maxsize=128)
def _kernel_weights(nu_a, params, grid_origin):
    """``lineshape_kernel`` with read-only weights, cached for the last 128
    (frequency, grid) pairs: every seed of an ensemble asks again for the
    on-resonance kernels of the same steps and for the injected signals on
    the same bands."""
    return lineshape_kernel(nu_a, params, grid_origin=grid_origin)


def canonical_kernel(nu_ref_hz, params):
    """Kernel weights for a rest frequency sitting exactly on a bin center.

    This is the template shape used for matched filtering; the per-bin
    weights of an arbitrary candidate differ from it only through the
    sub-bin offset and the slow growth of the energy scale with frequency.
    Trailing bins beyond the coverage threshold are trimmed so the
    template length tracks the signal mass, not the configured span.
    Read-only.
    """
    _, weights = _kernel_weights(nu_ref_hz, params, nu_ref_hz)
    cdf = np.cumsum(weights)
    stop = np.count_nonzero(cdf < MIN_KERNEL_COVERAGE) + 1  # cdf does not decrease
    return weights[:stop]


def reference_amplitude(hypothesis, receiver, params, tau_s=DEFAULT_TAU_S):
    """Total delivered signal power normalization A_ref (quanta * Hz).

    Defined so that a g = 1 axion sitting exactly on cavity resonance,
    observed in a single spectrum of duration tau_s with the given receiver
    and no filter loss, produces a matched-filter grand-spectrum mean of
    ``hypothesis.snr_ref``.  With per-bin excess
    A_ref alpha_1(delta_k) w_k / bin_width, alpha_1 the receiver's
    ``visibility`` at g = 1, and radiometer sigma = 1/sqrt(bin_width tau),
    the matched mean is sqrt(sum (excess_k/sigma)^2), inverted here for A_ref.
    """
    if not (math.isfinite(tau_s) and tau_s > 0):
        raise ConfigError(f"integration time must be > 0, got {tau_s!r}")
    db = params.bin_width_hz
    sigma = 1.0 / math.sqrt(db * tau_s)
    # On-resonance reference: the axion sits exactly on the resonance bin
    # center, and the kernel occupies bins at detunings k * bin_width, the
    # upper half of a band of 2 span_bins centred on resonance.
    _, weights = _kernel_weights(receiver.nu_c, params, receiver.nu_c)
    span = params.span_bins
    per_bin = band_visibility(receiver, 1.0, 2 * span, db, 0.0)[span:] * weights / db
    norm = math.sqrt(float(np.sum(per_bin**2)))
    if norm <= 0.0:
        raise ConfigError("degenerate reference: signal template vanishes")
    return hypothesis.snr_ref * sigma / norm


def bin_signal(nu_start, n_bins, hypothesis, receiver, params, tau_s=DEFAULT_TAU_S):
    """Bin-averaged delivered signal PSD (quanta) on an analysis grid.

    Uses exact per-bin lineshape integrals at the hypothesis' true
    (possibly off-grid) frequency, multiplied by the absorption profile at
    each bin center, whose detuning is ``band_detunings`` from the
    band centre ``nu_start + (n_bins // 2) * bin_width``.  Bins outside the
    kernel span carry zero.

    Returns an array of length ``n_bins`` aligned with bin centers
    ``nu_start + k * bin_width``.
    """
    db = params.bin_width_hz
    out = np.zeros(n_bins)
    if hypothesis.g_ksvz == 0.0:
        return out
    first_bin, weights = _kernel_weights(hypothesis.nu_a_hz, params, nu_start)
    a_ref = reference_amplitude(hypothesis, receiver, params, tau_s=tau_s)
    k = np.arange(params.span_bins) + first_bin
    inside = (k >= 0) & (k < n_bins)
    if not np.any(inside):
        return out
    offset = nu_start + (n_bins // 2) * db - receiver.nu_c
    absorbed = 1.0 - band_reflectance(receiver, n_bins, db, offset)[k[inside]]
    out[k[inside]] = hypothesis.g_ksvz**2 * a_ref * absorbed * weights[inside] / db
    return out
