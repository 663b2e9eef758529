"""Noise physics of a squeezed-vacuum cavity receiver.

Everything is expressed in single-quadrature quanta: power spectral density
in units of one photon of energy per unit bandwidth, per quadrature, so the
vacuum floor is 0.25.  Cavity linewidths are ordinary-frequency FWHM values
in Hz, and detunings are measured from cavity resonance.

The receiver chain is: squeezer -> transmission loss -> cavity reflection ->
amplifier.  On resonance an overcoupled cavity absorbs most of the incident
squeezed vacuum and re-emits its own (possibly excess) thermal noise; far
off resonance the incident field reflects unchanged.  The delivered
squeezing therefore sets the off-resonant noise floor while the cavity
noise sets the on-resonant one, and overcoupling trades peak visibility
for bandwidth.

The signal visibility is the Lorentzian alpha = g^2 c / (c0 (1 + x^2) + c1)
in x = 2 delta / kappa, with c = 4 beta / (1 + beta)^2, c0 = S N_f + N_A and
c1 = c (N_c0 - S N_f) (Malnou et al., PRX 9, 021023 (2019)).  This module
is the one home of the model: the other modules call ``noise_total``,
``delivered_squeezing``, ``squeezer_ratio`` and ``visibility`` instead of
writing the formulas out.  Over the bins of a band they call the
``band_*`` functions, which share one detuning rule (``band_detunings``)
and cache each per-bin shape once per receiver state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CouplingAtBoundary, NumericError

# Exact SI defining constants (2019 redefinition): speed of light (m/s),
# Planck constant (J s), Boltzmann constant (J/K), elementary charge (C).
SPEED_OF_LIGHT = 299792458.0
PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19

# Single-quadrature vacuum PSD; thermal_quanta(nu, 0) must return exactly this.
VACUUM_QUANTA = 0.25


def thermal_quanta(nu, temperature):
    """Mean thermal occupation of one quadrature at frequency nu and temperature T.

    N = (1/4) coth(h nu / 2 k_B T), which limits to the vacuum floor 1/4 as
    T -> 0 and to the Rayleigh-Jeans k_B T / 2 h nu for k_B T >> h nu.

    Parameters
    ----------
    nu : float or ndarray
        Frequency in Hz, > 0.
    temperature : float
        Physical temperature in K, >= 0.

    Returns
    -------
    float or ndarray
        Quanta per quadrature, >= 0.25.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nu)) or np.any(nu <= 0.0):
        raise ConfigError(f"frequency must be finite and positive, got {nu!r}")
    if not math.isfinite(temperature) or temperature < 0.0:
        raise ConfigError(f"temperature must be finite and >= 0, got {temperature!r}")
    if temperature == 0.0:
        out = np.full_like(nu, VACUUM_QUANTA)
        return float(out) if out.ndim == 0 else out
    x = PLANCK * nu / (2.0 * BOLTZMANN * temperature)
    # tanh saturates cleanly for large x, so no overflow handling is needed.
    out = VACUUM_QUANTA / np.tanh(x)
    return float(out) if out.ndim == 0 else out


def delivered_squeezing(eta, g_s):
    """Variance reduction delivered through a lossy line.

    A squeezer output with variance ratio g_s (relative to its thermal
    input) transmitted with efficiency eta arrives with ratio
    S = eta * g_s + (1 - eta): loss admixes unsqueezed noise and bounds the
    deliverable squeezing at 1 - eta even for a perfect squeezer.
    """
    if not (np.isfinite(eta) and 0.0 < eta <= 1.0):
        raise ConfigError(f"transmission efficiency must be in (0, 1], got {eta!r}")
    if not (np.isfinite(g_s) and g_s >= 0.0):
        raise ConfigError(f"squeezer variance ratio must be >= 0, got {g_s!r}")
    return eta * g_s + (1.0 - eta)


def squeezer_ratio(eta, s):
    """Squeezer variance ratio G_s = (S - (1 - eta)) / eta behind delivered squeezing S.

    The inverse of ``delivered_squeezing``, unchecked: callers clamp the
    result themselves.
    """
    return (s - (1.0 - eta)) / eta


def noise_total(reflectance, n_c0, s, n_f, n_a):
    """Receiver noise N_c0 (1 - |Gamma|^2) + S N_f |Gamma|^2 + N_A, quanta.

    Unchecked, because calibration feeds it fitted cavity noises that may
    be clamped to 0 or lie below vacuum, which ReceiverParams refuses.
    """
    return n_c0 * (1.0 - reflectance) + s * n_f * reflectance + n_a


def cavity_reflectance(delta, kappa_l, beta):
    """Power reflectance of a two-port cavity probed through the strong port.

    |Gamma(delta)|^2 = ((kappa_m - kappa_l)^2 + 4 delta^2)
                     / ((kappa_m + kappa_l)^2 + 4 delta^2),
    with kappa_m = beta * kappa_l.  Critical coupling (beta = 1) absorbs
    fully on resonance; any beta reflects fully far off resonance.
    """
    _check_geometry(kappa_l, beta)
    delta = np.asarray(delta, dtype=float)
    kappa_m = beta * kappa_l
    four_delta2 = 4.0 * delta**2
    out = ((kappa_m - kappa_l) ** 2 + four_delta2) / ((kappa_m + kappa_l) ** 2 + four_delta2)
    return float(out) if out.ndim == 0 else out


def cavity_absorption(delta, kappa_l, beta):
    """Fraction of incident power absorbed by (delivered into) the cavity.

    Computed as the exact complement 1 - |Gamma|^2 so that energy balance
    holds to the last bit; algebraically it equals
    4 beta / (1 + beta)^2 * (kappa/2)^2 / ((kappa/2)^2 + delta^2)
    with kappa = kappa_l (1 + beta).
    """
    return 1.0 - cavity_reflectance(delta, kappa_l, beta)


def _check_geometry(kappa_l, beta):
    if not (math.isfinite(kappa_l) and kappa_l > 0.0):
        raise ConfigError(f"kappa_l must be finite and > 0, got {kappa_l!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ConfigError(f"coupling ratio beta must be finite and > 0, got {beta!r}")


def band_detunings(n_bins, bin_width_hz, offset_hz):
    """Detunings from resonance of the bins of a band, Hz: the one detuning rule.

    Bin k lies (k - n_bins // 2) * bin_width_hz from the band centre (bin
    n_bins // 2), which lies offset_hz = band centre - nu_c from resonance.
    On an integer-Hz grid this equals (nu_start + k * bin_width_hz) - nu_c
    bit for bit.  On any other grid each detuning rounds at its own size,
    where that difference of two 4 GHz numbers rounds at the size of 4 GHz.
    """
    return (np.arange(n_bins) - n_bins // 2) * bin_width_hz + offset_hz


# The per-bin shapes of a band depend on the receiver state and the band's
# detuning grid (n_bins, bin_width_hz, offset_hz), not on where the band
# sits, so every step of a campaign shares them.  They are cached read-only
# (the visibility as its 1 + x^2), keyed by shape parameters, never by nu_c.


def band_reflectance(receiver, n_bins, bin_width_hz, offset_hz):
    """Read-only ``cavity_reflectance`` over ``band_detunings``."""
    return _reflectance_template(n_bins, bin_width_hz, offset_hz, receiver.kappa_l, receiver.beta)


def band_noise(receiver, n_bins, bin_width_hz, offset_hz, s):
    """Read-only ``noise_total`` over ``band_detunings`` at delivered squeezing s."""
    return _noise_template(n_bins, bin_width_hz, offset_hz, receiver.kappa_l, receiver.beta,
                           receiver.n_c0, s, receiver.n_f, receiver.n_a)


def band_visibility(receiver, g, n_bins, bin_width_hz, offset_hz):
    """``visibility`` at coupling g over ``band_detunings``, a new array.

    The per-bin shape 1 + x^2 is the cached part: it depends on the loaded
    linewidth alone, so the calibrations of a campaign share it, and only
    the receiver's three Lorentzian constants are applied per call.
    """
    return _alpha(_lorentzian(receiver, g),
                  _lorentzian_shape(receiver.kappa, n_bins, bin_width_hz, offset_hz))


def _read_only(out):
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=4)
def _reflectance_template(n_bins, bin_width_hz, offset_hz, kappa_l, beta):
    delta = band_detunings(n_bins, bin_width_hz, offset_hz)
    return _read_only(cavity_reflectance(delta, kappa_l, beta))


@functools.lru_cache(maxsize=4)
def _noise_template(n_bins, bin_width_hz, offset_hz, kappa_l, beta, n_c0, s, n_f, n_a):
    refl = _reflectance_template(n_bins, bin_width_hz, offset_hz, kappa_l, beta)
    return _read_only(noise_total(refl, n_c0, s, n_f, n_a))


@functools.lru_cache(maxsize=4)
def _lorentzian_shape(kappa, n_bins, bin_width_hz, offset_hz):
    return _read_only(_shape(kappa, band_detunings(n_bins, bin_width_hz, offset_hz)))


@dataclass(frozen=True, slots=True)
class ReceiverParams:
    """Operating point of the receiver chain.

    Attributes
    ----------
    nu_c : float
        Cavity resonance frequency, Hz.
    kappa_l : float
        Internal (weak-port plus wall loss) linewidth, Hz FWHM.
    beta : float
        Overcoupling ratio kappa_m / kappa_l of the measurement port.
    n_c0 : float
        Cavity-emitted noise at full absorption, quanta (>= 0.25).  Equals
        the thermal occupation of the cavity walls when fully thermalized;
        larger values model excess cavity noise.
    n_f : float
        Noise of the input field sourced by the matched termination,
        quanta (>= 0.25).
    eta : float
        Squeezer-to-amplifier transmission efficiency, in (0, 1].
    g_s : float
        Squeezer output variance ratio (1 = squeezer off).
    n_a : float
        Flat amplifier-added noise referred to the amplifier input, quanta.
    g_a_db : float
        Amplifier power gain in dB (bookkeeping only; cancels everywhere).
    """

    nu_c: float
    kappa_l: float
    beta: float
    n_c0: float
    n_f: float
    eta: float = 1.0
    g_s: float = 1.0
    n_a: float = 0.0
    g_a_db: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.nu_c) and self.nu_c > 0.0):
            raise ConfigError(f"nu_c must be finite and > 0, got {self.nu_c!r}")
        _check_geometry(self.kappa_l, self.beta)
        if not (math.isfinite(self.n_c0) and self.n_c0 >= VACUUM_QUANTA):
            raise ConfigError(
                f"cavity noise must be >= vacuum floor {VACUUM_QUANTA}, got {self.n_c0!r}"
            )
        if not (math.isfinite(self.n_f) and self.n_f >= VACUUM_QUANTA):
            raise ConfigError(
                f"input field noise must be >= vacuum floor {VACUUM_QUANTA}, got {self.n_f!r}"
            )
        if not (math.isfinite(self.eta) and 0.0 < self.eta <= 1.0):
            raise ConfigError(f"eta must be in (0, 1], got {self.eta!r}")
        if not (math.isfinite(self.g_s) and self.g_s >= 0.0):
            raise ConfigError(f"g_s must be >= 0, got {self.g_s!r}")
        if not (math.isfinite(self.n_a) and self.n_a >= 0.0):
            raise ConfigError(f"added noise must be >= 0, got {self.n_a!r}")
        if not math.isfinite(self.g_a_db):
            raise ConfigError(f"amplifier gain must be finite, got {self.g_a_db!r}")

    @property
    def kappa(self):
        """Loaded linewidth kappa_l (1 + beta), Hz."""
        return self.kappa_l * (1.0 + self.beta)

    @property
    def delivered(self):
        """Delivered squeezing S = eta g_s + (1 - eta)."""
        return delivered_squeezing(self.eta, self.g_s)

    @property
    def gain(self):
        """Linear power gain of the chain."""
        return 10.0 ** (self.g_a_db / 10.0)


@dataclass
class NoiseBudget:
    """Spectral decomposition of the receiver noise at a set of detunings.

    All arrays are aligned with ``detunings`` (Hz from resonance) and in
    quanta.  ``total`` is n_c + n_r + n_a, ``s_ax`` the smooth
    signal-delivery envelope (zero when no hypothesis is attached) and
    ``alpha`` the resulting visibility s_ax / total, as ``noise_budget`` fills them.
    """

    detunings: np.ndarray
    n_c: np.ndarray
    n_r: np.ndarray
    n_a: np.ndarray
    s_ax: np.ndarray
    total: np.ndarray
    alpha: np.ndarray

    CSV_COLUMNS = ("delta_hz", "N_c", "N_r", "N_A", "S_ax", "alpha")

    def columns(self):
        """Stack the budget as columns matching CSV_COLUMNS."""
        return np.column_stack(
            [self.detunings, self.n_c, self.n_r, self.n_a, self.s_ax, self.alpha]
        )


def noise_budget(params, detunings, hypothesis=None):
    """Evaluate the receiver noise budget over an array of detunings.

    The cavity emits N_c0 scaled by the absorption profile, the (squeezed)
    input field reflects with S * N_f scaled by the reflectance, and the
    amplifier adds a flat n_a.  When a hypothesis is attached, the signal
    envelope g^2 * (1 - |Gamma|^2) is filled in template units (the
    absolute scale belongs to the campaign sensitivity normalization); the
    signal-to-cavity-noise ratio is independent of both detuning and
    coupling by construction.

    Parameters
    ----------
    params : ReceiverParams
    detunings : array_like
        Detunings from resonance, Hz.
    hypothesis : AxionHypothesis, optional

    Returns
    -------
    NoiseBudget
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    if not np.all(np.isfinite(detunings)):
        raise ConfigError("detunings must be finite")
    refl = cavity_reflectance(detunings, params.kappa_l, params.beta)
    absorbed = 1.0 - refl
    n_c = params.n_c0 * absorbed
    n_r = params.delivered * params.n_f * refl
    n_a = np.full_like(detunings, params.n_a)
    if hypothesis is None:
        s_ax = np.zeros_like(detunings)
    else:
        s_ax = hypothesis.g_ksvz**2 * absorbed
    total = n_c + n_r + n_a
    return NoiseBudget(
        detunings=detunings, n_c=n_c, n_r=n_r, n_a=n_a, s_ax=s_ax,
        total=total, alpha=s_ax / total,
    )


def _lorentzian(params, g):
    """(a0, c0, c1) of alpha = a0 / (c0 (1 + x^2) + c1) in the module docstring; no checks."""
    c = 4.0 * params.beta / (1.0 + params.beta) ** 2
    s_nf = params.delivered * params.n_f
    return g**2 * c, s_nf + params.n_a, c * (params.n_c0 - s_nf)


def visibility(params, hypothesis, delta):
    """Smooth signal visibility alpha(delta) = S_ax / (N_c + N_r + N_A).

    Evaluated as the Lorentzian g^2 c / (c0 (1 + x^2) + c1) in
    x = 2 delta / kappa of the module docstring, the budget's ratio
    rearranged.  Template units (signal envelope g^2 * absorption);
    absolute normalization cancels in every ratio this feeds.  Maximized
    on resonance, where the cavity noise dominates the budget.  A
    non-finite detuning raises ConfigError.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ConfigError("detunings must be finite")
    alpha = _alpha(_lorentzian(params, hypothesis.g_ksvz), _shape(params.kappa, delta))
    return float(alpha) if alpha.ndim == 0 else alpha


def _shape(kappa, delta):
    """1 + x^2 in x = 2 delta / kappa."""
    return 1.0 + (2.0 * delta / kappa) ** 2


def _alpha(lorentzian, shape):
    """The Lorentzian a0 / (c0 (1 + x^2) + c1) over a ``_shape``; no checks."""
    a0, c0, c1 = lorentzian
    return a0 / (c0 * shape + c1)


def scan_rate(params, hypothesis, window_linewidths=20.0):
    """Relative mass-scan rate: integral of alpha(delta)^2 over detuning.

    The integrand is the square of ``visibility``'s Lorentzian, including
    the flat added noise, over +/- ``window_linewidths`` loaded linewidths.
    With a^2 = 1 + c1 / c0 and X = 2 ``window_linewidths`` the integral has
    the closed form (Malnou et al., PRX 9, 021023 (2019))

        (a0 / c0)^2 (kappa / 2) [X / (a^2 (X^2 + a^2)) + atan(X / a) / a^3],

    evaluated in t = 1 / a = sqrt(c0 / (c0 + c1)) so that c0 = 0 (no
    reflected or added noise, a flat alpha) takes its t -> 0 limit.  The
    result scales as g^4 and carries arbitrary (template) units, so only
    ratios between operating points are meaningful.

    Raises
    ------
    NumericError
        If the rate is not finite and >= 0 (a negative window).
    """
    a0, c0, c1 = _lorentzian(params, hypothesis.g_ksvz)
    d = c0 + c1  # on-resonance denominator, > 0 for any valid ReceiverParams
    t = math.sqrt(c0 / d)
    x = 2.0 * window_linewidths
    tail = math.atan(x * t) / t if t else x
    value = 0.5 * params.kappa * (a0 / d) ** 2 * (x / (1.0 + (x * t) ** 2) + tail)
    if not math.isfinite(value) or value < 0.0:
        raise NumericError(f"scan rate is {value!r}, expected finite and >= 0")
    return value


def optimize_coupling(s, n_c0, n_f, n_a, bounds=(0.1, 100.0)):
    """Coupling ratio beta maximizing the scan rate.

    With a = S * N_f and b = N_c0 - S * N_f, the scan rate over all
    detunings is proportional to beta^2 / (a (1+beta)^2 + 4 b beta)^{3/2},
    whose maximum is the positive root of a beta^2 - (a + 2b) beta - 2a = 0
    (Malnou et al., "Squeezed vacuum used to accelerate the search for a
    weak classical signal", PRX 9, 021023 (2019)).  Since p = a + 2b > -a,
    p + sqrt(p^2 + 8 a^2) never cancels, even for anti-squeezed input.

    Parameters
    ----------
    s : float
        Delivered squeezing (1 = unsqueezed).
    n_c0, n_f : float
        Cavity and input-field noises, quanta.
    n_a : float
        Flat added noise, quanta.  Validated but excluded from the
        optimum: it is negligible at the operating point and, unlike the
        cavity-filtered terms, does not move with beta; the coupling that
        reproduces the measured operating points follows from the
        cavity-emitted and reflected noises alone, and n_a shifts the true
        optimum by less than the scan-rate flatness around it.
    bounds : tuple of float
        Interval the optimum must lie strictly inside.

    Returns
    -------
    float

    Raises
    ------
    CouplingAtBoundary
        If the optimum lies outside ``bounds`` or does not exist (s = 0,
        for which ever-stronger overcoupling always helps).
    """
    if not (np.isfinite(s) and s >= 0.0):
        raise ConfigError(f"delivered squeezing must be >= 0, got {s!r}")
    if not (np.isfinite(n_c0) and n_c0 > 0.0):
        raise ConfigError(f"cavity noise must be > 0, got {n_c0!r}")
    if not (np.isfinite(n_f) and n_f > 0.0):
        raise ConfigError(f"input field noise must be > 0, got {n_f!r}")
    if not (np.isfinite(n_a) and n_a >= 0.0):
        raise ConfigError(f"added noise must be >= 0, got {n_a!r}")
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise ConfigError(f"bounds must satisfy 0 < lo < hi, got {bounds!r}")

    a = s * n_f
    if a == 0.0:
        raise CouplingAtBoundary(
            "delivered squeezing s = 0 has no coupling optimum: "
            "ever-stronger overcoupling always helps"
        )
    p = 2.0 * n_c0 - a  # a + 2b
    beta = (p + math.sqrt(p * p + 8.0 * a * a)) / (2.0 * a)
    if not lo < beta < hi:
        raise CouplingAtBoundary(
            f"scan-rate optimum beta={beta:.4g} lies outside the bounds "
            f"{lo:.4g}..{hi:.4g}; widen the bounds or check inputs"
        )
    return beta


def report_enhancement(params_squeezed, params_unsqueezed, hypothesis):
    """Scan-rate enhancement of squeezed over unsqueezed operation.

    Optimizes the coupling separately for each operating point, then
    compares full-model scan rates at those couplings.

    Returns
    -------
    dict with keys ``beta_squeezed``, ``beta_unsqueezed``, ``rate_ratio``.
    """
    from dataclasses import replace

    beta_sq = optimize_coupling(
        params_squeezed.delivered,
        params_squeezed.n_c0,
        params_squeezed.n_f,
        params_squeezed.n_a,
    )
    beta_un = optimize_coupling(
        params_unsqueezed.delivered,
        params_unsqueezed.n_c0,
        params_unsqueezed.n_f,
        params_unsqueezed.n_a,
    )
    rate_sq = scan_rate(replace(params_squeezed, beta=beta_sq), hypothesis)
    rate_un = scan_rate(replace(params_unsqueezed, beta=beta_un), hypothesis)
    return {
        "beta_squeezed": beta_sq,
        "beta_unsqueezed": beta_un,
        "rate_ratio": rate_sq / rate_un,
    }


def __getattr__(name):
    """Resolve ``quad`` to ``scipy.integrate.quad``, imported on first use.

    Only for the call counter of ``perfbench/spans.py``, which looks the
    name up in this module; nothing in haloscan calls it, so the counter
    reads 0 and importing haloscan loads no scipy.
    """
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
