"""Raw spectra to standardized grand spectrum.

Stages: metadata cuts, two-stage Savitzky-Golay structure removal,
maximum-likelihood combination onto the RF grid, lineshape-matched
coadding, rescan flagging.

Both Savitzky-Golay stages use one cached kernel per (window, order).
Stage 1 smooths the campaign average with polynomial-fitted edges
(scipy's mode='interp'), because its edge values feed the interior
windows of stage 2.  Stage 2 is a linear FFT convolution evaluated on
the interior only: bins within half the wider window of either edge
are invalid anyway, so their excess is set to exactly 0 and no edge
fit is made.  It runs as one batched FFT per chunk of STAGE2_CHUNK
spectra.

process_group holds no more than one chunk of spectra in memory: a first
pass over the group keeps a running sum for the stage-1 average, a
second runs stage 2 chunk by chunk and adds each chunk into the
combination in step order.  A spectrum may be a ``spectra.SpectrumFile``,
whose PSD is read from disk in each pass.

The statistics here are deliberate.  Dividing out a fitted baseline
correlates neighboring bins (the smoother's kernel h obeys
(h*h)(0) = h(0), so each stage removes a little variance and spreads
negative covariance over its window).  A matched-filter sum over those
bins would come out with variance well below 1 if standardized naively.
remove_structure therefore measures the exact post-filter lag
autocovariance from its own kernels, and coadd_grand standardizes with
it.  Cross-spectrum covariance through the shared stage-1 average enters
at O(1/n_spectra) with exponentially small kernel weights at the
relevant lags and is dropped.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import frozen_cache, read_array_file, read_only, write_array_file
from .axion import AxionHypothesis, canonical_kernel, reference_amplitude
from .calibration import assign_calibrations
from .errors import ConfigError, DataError
from .receiver import band_visibility, squeezer_ratio
from .spectra import at_recorded_tuning, band_centre, recorded_centre

# Kernel coverage below which a grand-spectrum bin is flagged invalid.
MIN_SUPPORT = 0.999

# Spectra per batched stage-2 FFT.  At the 5-smooth FFT lengths, on 2
# vCPUs over 50 spectra, pairs take 17% less stage-2 time than one
# spectrum at a time at 4,000 bins and 11% less at 30,000.  Blocks of 4
# take another 10% less at 4,000 bins but 20% more at 30,000, and cost
# memory, as process_group holds one chunk.
STAGE2_CHUNK = 2


@dataclass(frozen=True)
class CutCriteria:
    """Thresholds on per-spectrum diagnostics; None disables a rule."""

    drift_hz_max: float = 20e3
    squeezing_db_min: float = None
    probe_power_lo: float = 0.5
    probe_power_hi: float = 1.5

    def __post_init__(self):
        if self.drift_hz_max < 0:
            raise ConfigError(f"drift cut must be >= 0 Hz, got {self.drift_hz_max!r}")
        if self.probe_power_lo > self.probe_power_hi:
            raise ConfigError(
                f"probe power cut needs lo <= hi, got {self.probe_power_lo!r} > "
                f"{self.probe_power_hi!r}"
            )


@dataclass(frozen=True)
class ProcessSettings:
    """Two-stage Savitzky-Golay chain plus rescan policy.

    Default RF window is sized for the production 30000-bin band: wide
    enough to spare the ~100-bin signal template (<10% attenuation at
    full campaign depth), narrow enough to follow per-step baseline
    structure, whose shortest component spans n_bins/6.  Bands much
    smaller than the default need a proportionally smaller RF window.
    """

    if_window_bins: int = 101
    if_order: int = 4
    rf_window_bins: int = 1001
    rf_order: int = 2
    rescan_threshold_sigma: float = 3.455
    merge_width_bins: int = 90
    cuts: CutCriteria = field(default_factory=CutCriteria)

    def __post_init__(self):
        for window, order, tag in (
            (self.if_window_bins, self.if_order, "if"),
            (self.rf_window_bins, self.rf_order, "rf"),
        ):
            if window % 2 != 1 or window < 3:
                raise ConfigError(f"{tag} filter window must be odd and >= 3, got {window}")
            if not 0 <= order < window:
                raise ConfigError(f"{tag} filter order {order} invalid for window {window}")
        if self.rescan_threshold_sigma <= 0:
            raise ConfigError("rescan threshold must be > 0")
        if self.merge_width_bins < 1:
            raise ConfigError("merge width must be >= 1 bin")


@dataclass
class CutLog:
    kept_ids: tuple
    cut: dict  # step_id -> reason

    @property
    def n_cut(self):
        return len(self.cut)

    def to_dict(self):
        return {
            "kept_ids": list(self.kept_ids),
            "cut": {str(k): v for k, v in sorted(self.cut.items())},
            "n_kept": len(self.kept_ids),
            "n_cut": self.n_cut,
        }


@dataclass
class ProcessedSpectrum:
    """Dimensionless per-bin excess for one step, mean 0 under null;
    ``valid`` is the read-only mask every spectrum of one removal shares;
    ``metadata`` is the raw spectrum's, whose tuning sets the weights
    (``spectra.at_recorded_tuning``)."""

    step_id: int
    nu_start_hz: float
    bin_width_hz: float
    excess: np.ndarray
    sigma: float
    valid: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n_bins(self):
        return self.excess.size


@dataclass(frozen=True)
class FilterReport:
    """Everything downstream needs to know about the structure removal.

    gamma is the lag autocovariance of the processed excess in units of
    the raw radiometer variance, gamma[0] slightly below 1.  t_signal is
    the matched-projection survival of an axion-shaped excess through
    both stages, wide_suppression the same for 100 kHz structure.
    kernel is the template the transfer was measured with; the coadd must
    reuse it so attenuation enters the sensitivity exactly once.
    """

    n_spectra: int
    t_signal: float
    wide_suppression: float
    gamma: np.ndarray
    kernel: np.ndarray


@dataclass
class CombinedSpectrum:
    """Information-weighted accumulation on the common RF grid.

    num[i] = sum_s a_s(i) e_s(i) / var_s and den[i] = sum_s a_s(i)^2 / var_s
    with a_s the per-bin expected fractional excess of a g = 1 axion
    centered there.  The amplitude estimate is num/den with standard
    deviation 1/sqrt(den); den = 0 marks a bin with no coverage.
    """

    rf_start_hz: float
    bin_width_hz: float
    num: np.ndarray
    den: np.ndarray
    n_contrib: np.ndarray


@dataclass
class GrandSpectrum:
    """Standardized excess x (unit variance under null) and per-bin
    sensitivity eta_sens: an axion at coupling g gives E[x] = g^2 * eta_sens."""

    rf_start_hz: float
    bin_width_hz: float
    x: np.ndarray
    eta_sens: np.ndarray
    n_contrib: np.ndarray
    support: np.ndarray
    valid: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def frequencies(self):
        return self.rf_start_hz + np.arange(self.x.size) * self.bin_width_hz


@dataclass(frozen=True)
class RescanCandidate:
    nu_hz: float
    rf_index: int
    significance: float
    n_merged: int


@dataclass
class RescanList:
    threshold_sigma: float
    candidates: tuple

    def to_dict(self):
        return {
            "threshold_sigma": self.threshold_sigma,
            "candidates": [dataclasses.asdict(c) for c in self.candidates],
        }


def apply_cuts(spectra, criteria):
    """Partition spectra by the diagnostic thresholds; first rule wins.

    Spectra lacking a diagnostic pass that rule; cuts act only on
    measured metadata, never on simulation truth tags.
    """
    kept = []
    cut = {}
    for spectrum in spectra:
        meta = spectrum.metadata
        reason = None
        drift = meta.get("freq_drift_hz")
        if drift is not None and abs(drift) > criteria.drift_hz_max:
            reason = "drift"
        if reason is None and criteria.squeezing_db_min is not None:
            sq = meta.get("squeezing_db")
            if sq is not None and sq < criteria.squeezing_db_min:
                reason = "squeezing"
        if reason is None:
            probe = meta.get("probe_power")
            if probe is not None and not (
                criteria.probe_power_lo <= probe <= criteria.probe_power_hi
            ):
                reason = "probe"
        if reason is None:
            kept.append(spectrum)
        else:
            cut[spectrum.step_id] = reason
    return kept, CutLog(kept_ids=tuple(s.step_id for s in kept), cut=cut)


@frozen_cache(maxsize=None)
def _savgol_kernel(window, order):
    """Savitzky-Golay smoothing kernel, read-only.

    The least-squares value at the window centre of a degree-``order``
    polynomial, solved on the Vandermonde matrix as
    ``scipy.signal.savgol_coeffs`` does (same coefficients bit for bit).
    """
    half = window // 2
    t = np.arange(half, -half - 1, -1, dtype=float)
    vander = t ** np.arange(order + 1, dtype=float)[:, None]
    unit = np.zeros(order + 1)
    unit[0] = 1.0
    return np.linalg.lstsq(vander, unit, rcond=np.finfo(float).eps * window)[0]


def _fft_length(n):
    """The smallest 2^a 3^b 5^c >= n, for n >= 1.

    numpy's FFT is about as fast per point on these lengths as on powers
    of two, and the nearest one lies a few percent above n, where the next
    power of two can lie almost 2x above it.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@frozen_cache(maxsize=32)
def _kernel_spectrum(window, order, n_bins):
    """(n_fft, rfft of the kernel), n_fft = ``_fft_length(n_bins + window - 1)``,
    so the FFT product is a linear convolution."""
    n_fft = _fft_length(n_bins + window - 1)
    return n_fft, np.fft.rfft(_savgol_kernel(window, order), n_fft)


def _savgol_interp(x, window, order):
    """Stage-1 baseline: ``savgol_filter(x, window, order, mode='interp')``.

    Kernel in the interior; within half a window of each end, the
    polynomial fitted to the first or last ``window`` samples.
    """
    y = np.convolve(x, _savgol_kernel(window, order), mode="same")
    half = window // 2
    t = np.arange(window, dtype=float)
    y[:half] = np.polyval(np.polyfit(t, x[:window], order), t[:half])
    y[-half:] = np.polyval(np.polyfit(t, x[-window:], order), t[-half:])
    return y


def _detrend_interior(r, window, order, trim):
    """Stage 2: each row of r over its own Savitzky-Golay baseline, minus 1.

    r is one spectrum or a 2-D block of them, one per row; the block takes
    one batched FFT, with the same bits as a call per row.  Evaluated on
    bins trim .. n - trim - 1 only (trim >= window // 2, so each of their
    windows lies inside the band); the trim bins at either end are
    exactly 0.
    """
    n = r.shape[-1]
    n_fft, spectrum = _kernel_spectrum(window, order, n)
    product = np.fft.rfft(r, n_fft)
    product *= spectrum
    baseline = np.fft.irfft(product, n_fft)
    del product
    shift = window // 2  # full-convolution index of output bin 0
    excess = np.zeros(r.shape)
    interior = excess[..., trim : n - trim]
    np.divide(r[..., trim : n - trim], baseline[..., shift + trim : shift + n - trim], out=interior)
    interior -= 1.0
    return excess


def _edge_trim(settings):
    """Bins at each band edge left invalid by the wider filter window."""
    return max(settings.if_window_bins, settings.rf_window_bins) // 2


def _delta_minus(kernel):
    out = -np.asarray(kernel, dtype=float)
    out[len(out) // 2] += 1.0
    return out


def _lag_autocovariance(h1, h2, n_spectra):
    """Exact lag autocovariance of (I-H2)(eps - H1 avg(eps)), sigma^2 = 1.

    Own-noise kernel k = (d-h2)*(d-h1/M); the shared average injects the
    other spectra's noise through g = (d-h2)*h1 at weight 1/M each.
    """
    m = n_spectra
    k = np.convolve(_delta_minus(h2), _delta_minus(h1 / m))
    g = np.convolve(_delta_minus(h2), h1)
    kk = np.correlate(k, k, mode="full")
    gg = np.correlate(g, g, mode="full")
    center = k.size - 1
    gamma = kk[center:] + ((m - 1) / m**2) * gg[center:]
    return gamma


@frozen_cache(maxsize=4)
def measure_filter_transfer(settings, lineshape, n_spectra, n_bins, *, nu_ref_hz):
    """Filter characterization by synthetic injection through the real path.

    A small axion-shaped bump rides one flat spectrum of n_spectra; the
    stage-1 average therefore sees it diluted by 1/n_spectra, exactly as
    in campaign processing.  Transfer is the matched projection of the
    processed excess onto the injected shape, summed over the valid
    interior (the processed edges are 0).  The same path measures the
    survival of 100 kHz-wide structure, which must be strongly suppressed.

    The report depends on the arguments alone, so the last few are
    cached; its ``gamma`` and ``kernel`` are read-only.
    """
    if settings.rf_window_bins >= n_bins or settings.if_window_bins >= n_bins:
        raise ConfigError("filter window exceeds the analysis band")
    m = n_spectra
    weights = canonical_kernel(nu_ref_hz, lineshape)
    trim = _edge_trim(settings)

    def run(shape):
        amp = 1e-3
        bumped = 1.0 + amp * shape
        avg = 1.0 + amp * shape / m
        b1 = _savgol_interp(avg, settings.if_window_bins, settings.if_order)
        out = _detrend_interior(bumped / b1, settings.rf_window_bins, settings.rf_order, trim)
        return float(np.dot(out, amp * shape) / np.dot(amp * shape, amp * shape))

    signal_shape = np.zeros(n_bins)
    start = n_bins // 2
    signal_shape[start : start + weights.size] = weights / weights.max()

    wide_bins = int(round(100e3 / lineshape.bin_width_hz))
    sigma_bins = wide_bins / 2.3548  # FWHM to Gaussian sigma
    grid = np.arange(n_bins)
    wide_shape = np.exp(-0.5 * ((grid - n_bins / 2) / sigma_bins) ** 2)

    t_signal = run(signal_shape)
    wide = run(wide_shape)
    h1 = _savgol_kernel(settings.if_window_bins, settings.if_order)
    h2 = _savgol_kernel(settings.rf_window_bins, settings.rf_order)
    return FilterReport(
        n_spectra=m,
        t_signal=t_signal,
        wide_suppression=wide,
        gamma=_lag_autocovariance(h1, h2, m),
        kernel=weights,
    )


# A group's shared stage-1 fit: the IF baseline every normalized spectrum
# is divided by, the filter report, the validity mask and the edge trim.
_StageOne = collections.namedtuple("_StageOne", "baseline report valid trim")


def _normalized(spectrum, out=None):
    psd = spectrum.psd  # one read for a spectrum backed by a file
    return np.divide(psd, psd.mean(), out=out)


def _fit_stage_one(spectra, settings, lineshape):
    """Pass 1 over a group: the stage-1 baseline of the average of the
    mean-normalized spectra, kept as a running sum (the same bits as
    ``np.mean`` over the stacked rows), and the filter report."""
    if not spectra:
        raise DataError("no spectra to process; empty campaign")
    n_bins = spectra[0].n_bins
    db = spectra[0].bin_width_hz
    for s in spectra:
        if s.n_bins != n_bins or s.bin_width_hz != db:
            raise DataError("spectra disagree on the IF grid")
    lineshape.check_bin_width(db)
    m = len(spectra)
    centers = [recorded_centre(s) for s in spectra]
    # also refuses a filter window that does not fit the band
    report = measure_filter_transfer(
        settings, lineshape, m, n_bins, nu_ref_hz=float(np.median(centers))
    )
    total = np.zeros(n_bins)
    for s in spectra:
        total += _normalized(s)
    baseline = _savgol_interp(total / m, settings.if_window_bins, settings.if_order)
    trim = _edge_trim(settings)
    valid = np.zeros(n_bins, dtype=bool)
    valid[trim : n_bins - trim] = True
    return _StageOne(baseline=baseline, report=report, valid=read_only(valid), trim=trim)


def remove_structure(spectra, settings, lineshape, *, _fit=None):
    """Two-stage structure removal; returns (processed list, FilterReport).

    Stage 1 fits the shared IF shape on the average of the mean-normalized
    spectra and divides it out of each one; stage 2 fits and divides each
    spectrum's own residual baseline by FFT convolution on the interior,
    STAGE2_CHUNK spectra per batched FFT.  Edge bins inside half the
    wider filter window are marked invalid, with excess exactly 0, rather
    than edge-corrected, trading ~1% of band for exact interior statistics.

    ``process_group`` passes ``_fit``, the stage-1 fit of the whole group
    that ``spectra`` is one chunk of.
    """
    fit = _fit if _fit is not None else _fit_stage_one(spectra, settings, lineshape)
    gamma0 = float(fit.report.gamma[0])
    processed = []
    for start in range(0, len(spectra), STAGE2_CHUNK):
        chunk = spectra[start : start + STAGE2_CHUNK]
        rows = np.empty((len(chunk), fit.baseline.size))
        for row, s in zip(rows, chunk):
            _normalized(s, out=row)
        rows /= fit.baseline
        excess = _detrend_interior(rows, settings.rf_window_bins, settings.rf_order, fit.trim)
        processed += [
            ProcessedSpectrum(
                step_id=s.step_id,
                nu_start_hz=s.nu_start_hz,
                bin_width_hz=s.bin_width_hz,
                excess=row,
                sigma=math.sqrt(gamma0 / s.n_averages),
                valid=fit.valid,
                metadata=s.metadata,
            )
            for s, row in zip(chunk, excess)
        ]
    return processed, fit.report


def _signal_coefficient(spectrum, cal, geometry, lineshape, tau_s, snr_ref):
    """Per-bin expected fractional excess of a g = 1 axion, from the
    measured calibration at the step's recorded tuning."""
    receiver = at_recorded_tuning(
        geometry, spectrum,
        n_c0=max(cal.n_c0_hat, 0.25),
        n_a=cal.n_a_hat,
        g_s=max(0.0, squeezer_ratio(geometry.eta, cal.s_hat)),
    )
    hyp = AxionHypothesis(nu_a_hz=receiver.nu_c, g_ksvz=1.0, snr_ref=snr_ref)
    a_ref = reference_amplitude(hyp, receiver, lineshape, tau_s=tau_s)
    db = spectrum.bin_width_hz
    offset = band_centre(spectrum) - receiver.nu_c
    return a_ref / db * band_visibility(receiver, 1.0, spectrum.n_bins, db, offset)


def lattice_offset(start_hz, bin_width_hz, grid_start_hz, grid_bin_width_hz, name):
    """The bin of a grid on which another grid's first bin lies.

    The one rule for placing one bin grid on another: the bin widths must
    be equal and the offset a whole number of bins, to within 1e-6; a
    DataError naming the placed grid (``name``) is raised otherwise.  Bin
    i of the placed grid then lies on bin i + offset of the other.
    """
    if bin_width_hz != grid_bin_width_hz:
        raise DataError(
            f"{name}: bin width {bin_width_hz} Hz differs from the {grid_bin_width_hz} Hz grid"
        )
    off = (start_hz - grid_start_hz) / grid_bin_width_hz
    if abs(off - round(off)) > 1e-6:
        raise DataError(f"{name}: band start not on the common {grid_bin_width_hz} Hz lattice")
    return int(round(off))


def _empty_combination(spectra):
    """A zero CombinedSpectrum on the RF grid that covers every band."""
    db = spectra[0].bin_width_hz
    rf_start = min(s.nu_start_hz for s in spectra)
    n_rf = max(
        lattice_offset(s.nu_start_hz, s.bin_width_hz, rf_start, db, f"step {s.step_id}") + s.n_bins
        for s in spectra
    )
    return CombinedSpectrum(
        rf_start_hz=rf_start,
        bin_width_hz=db,
        num=np.zeros(n_rf),
        den=np.zeros(n_rf),
        n_contrib=np.zeros(n_rf, dtype=np.int32),
    )


def combine_spectra(processed, cal_results, geometry, lineshape, *, tau_s,
                    snr_ref=AxionHypothesis.snr_ref, _into=None):
    """Maximum-likelihood combination onto the common 100 Hz RF grid.

    Each spectrum contributes to a bin with weight (per-bin SNR)^2, so
    between two spectra with 2:1 amplitude response the weights are 4:1.
    ``process_group`` passes ``_into``, the combination of the whole
    group, which the spectra of each chunk are added into in step order.
    """
    if not processed:
        raise DataError("nothing to combine")
    lineshape.check_bin_width(processed[0].bin_width_hz)
    combined = _into if _into is not None else _empty_combination(processed)
    offsets = [
        lattice_offset(p.nu_start_hz, p.bin_width_hz, combined.rf_start_hz,
                       combined.bin_width_hz, f"step {p.step_id}")
        for p in processed
    ]
    cal_map = assign_calibrations([p.step_id for p in processed], cal_results)
    for p, off in zip(processed, offsets):
        a = _signal_coefficient(p, cal_map[p.step_id], geometry, lineshape, tau_s, snr_ref)
        var = p.sigma**2
        on = slice(off, off + p.n_bins)
        num, den, n_contrib = combined.num[on], combined.den[on], combined.n_contrib[on]
        # where= adds only the valid bins, with no gathered copies
        term = a * p.excess
        term /= var
        np.add(num, term, out=num, where=p.valid)
        np.square(a, out=a)
        a /= var
        np.add(den, a, out=den, where=p.valid)
        np.add(n_contrib, 1, out=n_contrib, where=p.valid)
    return combined


def _valid(eta_sens, support):
    """The grand-spectrum validity mask, for the coadd and the file reader alike."""
    return (eta_sens > 0) & (support >= MIN_SUPPORT)


def included(grand):
    """The bins the analysis counts: valid, with positive sensitivity.

    The one rule for rescan flags, persistence and the exclusion.  The
    ``eta_sens`` term matters for grand spectra whose ``valid`` was not
    computed by ``_valid``.
    """
    return grand.valid & (grand.eta_sens > 0)


def coadd_grand(combined, report):
    """Matched-filter coadd over the lineshape span at every RF bin.

    x_q = sum_k w_k num_{q+k}, standardized by the filtered-noise
    covariance: Var = Lambda * sum_k w_k^2 den_{q+k} / ||w||^2 with
    Lambda = w^T P w and P the normalized lag-covariance Toeplitz form.
    The kernel comes from the filter report, so the coadd template and
    the measured attenuation refer to the same shape.  Bins whose kernel
    weight falls partly on uncovered bins keep their standardized x but
    are flagged invalid (see ``_valid``).

    No more than four arrays the size of the grid are held at once: one
    zero-padded input buffer, refilled for each correlation, and the
    correlations, which become x, eta_sens and support in place.
    """
    w = report.kernel
    span = w.size
    n_rf = combined.num.size
    if span >= n_rf:
        raise DataError("lineshape span exceeds the combined band")

    rho = report.gamma / report.gamma[0]
    wac = np.correlate(w, w, mode="full")  # lags -(span-1)..span-1
    lags = np.abs(np.arange(-(span - 1), span))
    rho_at = np.zeros(lags.shape)
    inside = lags < rho.size
    rho_at[inside] = rho[lags[inside]]
    w_norm2 = float(wac[span - 1])
    lam = float(np.sum(wac * rho_at))

    padded = np.zeros(n_rf + span - 1)
    head = padded[:n_rf]  # the span - 1 bins after it stay 0
    head[:] = combined.num
    x = np.correlate(padded, w, mode="valid")
    head[:] = combined.den
    eta = np.correlate(padded, w**2, mode="valid")  # sum_k w_k^2 den_{q+k}

    var = np.multiply(lam, eta, out=head)
    var /= w_norm2
    ok = var > 0
    skip = ~ok
    np.sqrt(var, out=var, where=ok)
    np.divide(x, var, out=x, where=ok)
    x[skip] = 0.0
    eta *= w_norm2
    np.divide(eta, lam, out=eta, where=ok)
    np.sqrt(eta, out=eta, where=ok)
    eta *= report.t_signal
    eta[skip] = 0.0
    del ok, skip, var

    np.greater(combined.den, 0, out=head)  # coverage, 1.0 or 0.0
    support = np.correlate(padded, w, mode="valid")
    del padded, head
    support /= w.sum()
    return GrandSpectrum(
        rf_start_hz=combined.rf_start_hz,
        bin_width_hz=combined.bin_width_hz,
        x=x,
        eta_sens=eta,
        n_contrib=combined.n_contrib.copy(),
        support=support,
        valid=_valid(eta, support),
        metadata={},
    )


def flag_rescans(grand, threshold_sigma, merge_width_bins):
    """Bins at or above threshold, merged within one lineshape width,
    highest significance first."""
    hits = np.flatnonzero((grand.x >= threshold_sigma) & included(grand))
    # runs of hits no more than merge_width_bins apart; none without a hit
    breaks = np.flatnonzero(np.diff(hits) > merge_width_bins) + 1
    groups = np.split(hits, breaks) if hits.size else []
    out = []
    for group in groups:
        best = int(group[np.argmax(grand.x[group])])
        out.append(
            RescanCandidate(
                nu_hz=float(grand.rf_start_hz + best * grand.bin_width_hz),
                rf_index=best,
                significance=float(grand.x[best]),
                n_merged=group.size,
            )
        )
    out.sort(key=lambda c: -c.significance)
    return RescanList(threshold_sigma=threshold_sigma, candidates=tuple(out))


def check_persistence(candidates, rescan_grand, threshold_sigma, merge_width_bins):
    """Confront first-pass candidates with the follow-up grand spectrum.

    A candidate persists when any included follow-up bin within one
    merge width of its frequency reaches the threshold again.  Returns one
    record per candidate; ``significance_rescan`` is None, and the
    candidate not covered, when no included bin lies in that window.
    """
    counted = included(rescan_grand)
    records = []
    for cand in candidates:
        center = int(
            round((cand.nu_hz - rescan_grand.rf_start_hz) / rescan_grand.bin_width_hz)
        )
        # clipped at 0, as a negative bound would count from the top end
        lo, hi = max(center - merge_width_bins, 0), max(center + merge_width_bins + 1, 0)
        usable = rescan_grand.x[lo:hi][counted[lo:hi]]
        best = float(np.max(usable)) if usable.size else None
        records.append(
            {
                "nu_hz": cand.nu_hz,
                "significance_initial": cand.significance,
                "significance_rescan": best,
                "persisted": best is not None and best >= threshold_sigma,
                "covered": best is not None,
            }
        )
    return records


def process_group(spectra, cal_results, geometry, lineshape, settings, *, tau_s,
                  snr_ref=AxionHypothesis.snr_ref, threads=1):
    """Structure removal, combination and coadd for one group of spectra.

    Returns (grand, combined, processed step ids, filter report).  Two
    passes over ``spectra``, each reading every PSD once: the stage-1 fit,
    then per chunk of STAGE2_CHUNK spectra the batched stage 2 and the
    combination, in step order, so that no more than one chunk of
    processed spectra is held.  The result is the same, bit for bit, as
    ``remove_structure`` -> ``combine_spectra`` -> ``coadd_grand``.

    Single-threaded; ``threads`` is accepted and ignored, so the output
    does not depend on it.
    """
    fit = _fit_stage_one(spectra, settings, lineshape)
    combined = _empty_combination(spectra)
    for start in range(0, len(spectra), STAGE2_CHUNK):
        chunk, _ = remove_structure(
            spectra[start : start + STAGE2_CHUNK], settings, lineshape, _fit=fit
        )
        combine_spectra(
            chunk, cal_results, geometry, lineshape,
            tau_s=tau_s, snr_ref=snr_ref, _into=combined,
        )
    grand = coadd_grand(combined, fit.report)
    return grand, combined, tuple(s.step_id for s in spectra), fit.report


@dataclass
class ProcessOutput:
    """``processed`` holds the step ids of the processed (kept) spectra."""

    grand: GrandSpectrum
    processed: tuple
    filter_report: FilterReport
    cut_log: CutLog
    rescans: RescanList


def process_campaign(spectra, cal_results, geometry, lineshape, settings, *, tau_s,
                     snr_ref=AxionHypothesis.snr_ref, threads=1):
    """Cuts, then ``process_group`` on the kept spectra, then rescan flags.

    Single-threaded; ``threads`` is accepted and ignored, so the output
    does not depend on it.
    """
    kept, cut_log = apply_cuts(spectra, settings.cuts)
    if not kept:
        raise DataError("all spectra were cut; empty campaign")
    grand, _, processed, report = process_group(
        kept, cal_results, geometry, lineshape, settings, tau_s=tau_s, snr_ref=snr_ref
    )
    rescans = flag_rescans(
        grand, settings.rescan_threshold_sigma, settings.merge_width_bins
    )
    return ProcessOutput(
        grand=grand,
        processed=processed,
        filter_report=report,
        cut_log=cut_log,
        rescans=rescans,
    )


_GRAND_CORE_KEYS = ("rf_start_hz", "bin_width_hz")
_GRAND_COLUMNS = ("x", "eta_sens", "n_contrib", "support")


def write_grand_spectrum(grand, path):
    """Grand spectrum in the versioned array format (see ``artifacts``):
    x, eta_sens, n_contrib and support columns; valid is recomputed on read."""
    core = {"rf_start_hz": float(grand.rf_start_hz), "bin_width_hz": float(grand.bin_width_hz)}
    columns = {name: getattr(grand, name) for name in _GRAND_COLUMNS}
    write_array_file(path, "grand", core, grand.metadata, columns)


def read_grand_spectrum(path):
    core, metadata, columns = read_array_file(path, "grand", _GRAND_CORE_KEYS, _GRAND_COLUMNS)
    try:
        rf_start, db = float(core["rf_start_hz"]), float(core["bin_width_hz"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad header: {exc}") from exc
    return GrandSpectrum(
        rf_start_hz=rf_start,
        bin_width_hz=db,
        x=columns["x"],
        eta_sens=columns["eta_sens"],
        n_contrib=columns["n_contrib"].astype(np.int32, copy=False),
        support=columns["support"],
        valid=_valid(columns["eta_sens"], columns["support"]),
        metadata=metadata,
    )
