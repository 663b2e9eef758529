"""Bayesian aggregation of the grand spectrum into exclusion statements.

Every bin carries a likelihood ratio u = exp(mu * x - mu^2 / 2) with
mu = g^2 * eta_sens, rescans multiply in, and the aggregate is the plain
mean over scanned bins, which is what absorbs the look-elsewhere effect.

Since mu is linear in g^2, the combined update of a bin is a quadratic in
g^2: ln U = a * g^2 - b * g^4 with a = sum(eta_sens * x) and
b = sum(eta_sens^2) / 2, summed over the initial scan and the aligned
rescans (the Gaussian prior update of Palken et al., "Improved analysis
framework for axion dark matter searches", PRD 101, 123011 (2020)).
run_exclusion sums a and b over the whole initial grid and adds each
rescan over the slice of initial bins it overlaps, at its whole-bin offset
(``pipeline.lattice_offset``) and where both scans include the bin.  It
gathers the two sums at the included bins, one after the other, then makes
one grid loop: at each coupling a vectorised log-mean-exp over the
n_windows windows, shifted by each window's largest ln U.  The aggregate
curve is the size-weighted pool of the window means, the bisection for g*
reuses (a, b), and g* and the window contours take their grid cell from one
last-crossing rule.  The rescans are iterated once, so a generator can read
each one as it is summed in and free it before the next.  Besides the
scans, a run holds the two grid-sized sums until they are gathered, then (a, b), the included bin indices until the
windows are cut, and two buffers over the included bins for the grid loop.
exclusion_curve, exclusion_coupling and subaggregate_windows each return
part of one run_exclusion call; the first two pool a single window.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_open, read_json, write_json
from .errors import ConfigError, DataError
from .pipeline import included, lattice_offset

DEFAULT_TARGET = 0.1
DEFAULT_G_GRID = (0.5, 5.0, 200)
DEFAULT_N_WINDOWS = 100
DEFAULT_XTOL = 1e-3


def default_g_grid():
    lo, hi, n = DEFAULT_G_GRID
    return np.geomspace(lo, hi, n)


def _coupling_grid(g_grid):
    """The coupling grid as a float array: finite, positive, increasing."""
    grid = default_g_grid() if g_grid is None else np.asarray(g_grid, dtype=float)
    if not (
        grid.ndim == 1
        and grid.size > 0
        and np.all(np.isfinite(grid))
        and np.all(grid > 0)
        and np.all(np.diff(grid) > 0)
    ):
        raise ConfigError("coupling grid must be finite, positive and strictly increasing")
    return grid


def _coefficients(initial, rescans):
    """Per-included-bin (a, b) with ln U = a * g^2 - b * g^4.

    a = sum(eta * x) and b = sum(eta^2) / 2 over the initial scan and every
    rescan bin that lands on an included initial bin; rescan bins
    elsewhere carry no weight.  Summed on the initial grid, by slice, then
    gathered at the included bins.  Also returns the included bin indices.
    """
    mask = included(initial)
    if not mask.any():
        raise DataError("grand spectrum has no included bins")
    a = np.multiply(initial.x, initial.eta_sens, out=np.zeros(mask.size), where=mask)
    b = np.square(initial.eta_sens, out=np.zeros(mask.size), where=mask)
    b *= 0.5
    for k, grand in enumerate(rescans):
        shift = lattice_offset(grand.rf_start_hz, grand.bin_width_hz, initial.rf_start_hz,
                               initial.bin_width_hz, f"rescan grand spectrum {k}")
        _add_rescan(a, b, mask, grand, shift)
    a = a[mask]
    b = b[mask]
    index_of = np.flatnonzero(mask)
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if np.any(bad):
        first = _frequency(initial, index_of[np.argmax(bad)])
        raise DataError(
            f"non-finite x or eta_sens in {int(bad.sum())} included bins "
            f"(first at {first:.1f} Hz)"
        )
    return a, b, index_of


def _add_rescan(a, b, mask, grand, shift):
    """Add a rescan's eta * x to a and eta^2 / 2 to b over the initial
    bins it overlaps that ``mask`` and the rescan both include."""
    # rescan bins lo..hi-1 lie on initial bins lo+shift..hi+shift-1
    lo, hi = max(0, -shift), min(grand.x.size, mask.size - shift)
    if lo >= hi:
        return
    on = slice(lo + shift, hi + shift)
    sel = included(grand)[lo:hi] & mask[on]
    eta, term = grand.eta_sens[lo:hi], np.empty(hi - lo)
    np.add(a[on], np.multiply(eta, grand.x[lo:hi], out=term, where=sel), out=a[on], where=sel)
    np.square(eta, out=term, where=sel)
    np.add(b[on], np.multiply(0.5, term, out=term, where=sel), out=b[on], where=sel)


def _frequency(grand, index):
    """``grand.frequencies[index]``, without the whole array."""
    return grand.rf_start_hz + index * grand.bin_width_hz


def _log_means(a, b, grid, sizes):
    """ln of the mean update over groups of bins, for every coupling.

    Group k is the next run of sizes[k] bins, the first groups one bin
    longer than the rest, as ``_windows`` cuts them; returns a (groups,
    couplings) array.  Works one coupling at a time in two buffers the
    size of a: a couplings x bins matrix would cost tens of MB on a full
    campaign.
    """
    starts = np.cumsum(sizes) - sizes
    log_u, quartic = np.empty_like(a), np.empty_like(a)
    # the groups as the rows of two 2-D views of log_u
    base = int(sizes[-1])
    n_long = int(np.count_nonzero(sizes > base))
    cut = n_long * (base + 1)
    long, short = log_u[:cut].reshape(n_long, base + 1), log_u[cut:].reshape(-1, base)
    out = np.empty((sizes.size, len(grid)))
    for j, g in enumerate(grid):
        G = g * g
        np.multiply(G, a, out=log_u)
        log_u -= np.multiply(G * G, b, out=quartic)
        # each group's largest term becomes exactly 1, so its sum cannot
        # overflow or underflow to zero
        peak = np.maximum.reduceat(log_u, starts)
        long -= peak[:n_long, None]
        short -= peak[n_long:, None]
        np.exp(log_u, out=log_u)
        out[:, j] = peak + np.log(np.add.reduceat(log_u, starts) / sizes)
    return out


def _check_limits(target, xtol):
    if not 0.0 < target < 1.0:
        raise ConfigError(f"target must be in (0, 1), got {target!r}")
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise ConfigError(f"xtol must be finite and > 0, got {xtol!r}")


def _last_crossings(curves, target):
    """Per row, the last grid cell that starts on or crosses the target, or -1."""
    d = curves - target
    hits = (d[:, :-1] == 0.0) | ((d[:, :-1] > 0) != (d[:, 1:] > 0))
    return np.where(hits, np.arange(hits.shape[1]), -1).max(axis=1, initial=-1)


def _root(a, b, grid, curve, target, xtol):
    """Bisection for U(g) = target in the curve's last crossing cell, or None."""
    j = _last_crossings(curve[None], target)[0]
    if j < 0:
        return None
    g_lo, g_hi, f_lo = grid[j], grid[j + 1], curve[j] - target
    while g_hi - g_lo > xtol:
        mid = 0.5 * (g_lo + g_hi)
        f_mid = float(np.exp(_log_means(a, b, [mid], np.array([a.size]))[0])[0]) - target
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            g_lo, f_lo = mid, f_mid
        else:
            g_hi = mid
    return 0.5 * (g_lo + g_hi)


def _windows(initial, index_of, n_windows):
    """Sizes and first and last bin frequencies of the windows."""
    if n_windows < 1:
        raise ConfigError("n_windows must be >= 1")
    if n_windows > index_of.size:
        raise ConfigError(
            f"n_windows = {n_windows} exceeds the {index_of.size} included bins"
        )
    base, extra = divmod(index_of.size, n_windows)
    sizes = base + (np.arange(n_windows) < extra)
    ends = np.cumsum(sizes)
    first, last = index_of[ends - sizes], index_of[ends - 1]
    return sizes, _frequency(initial, first), _frequency(initial, last)


def _contours(grid, surface, target):
    """g at which each window crosses the target, NaN where it never does."""
    contour = np.full(surface.shape[0], np.nan)
    for i, j in enumerate(_last_crossings(surface, target)):
        if j >= 0:
            # log-linear interpolation within the grid cell
            d_lo, d_hi = surface[i, j] - target, surface[i, j + 1] - target
            frac = d_lo / (d_lo - d_hi) if d_lo != 0.0 else 0.0
            contour[i] = grid[j] * (grid[j + 1] / grid[j]) ** frac
    return contour


@dataclass
class ExclusionResult:
    g_grid: np.ndarray
    aggregate_u: np.ndarray
    g_star: float  # None when no crossing was bracketed
    target: float
    n_bins: int
    window_lo: np.ndarray
    window_hi: np.ndarray
    window_surface: np.ndarray
    window_contour: np.ndarray
    metadata: dict

    def __post_init__(self):
        if self.g_star is not None and self.g_star <= 0:
            raise DataError("g_star must be positive when present")


def run_exclusion(
    initial,
    rescans=(),
    *,
    target=DEFAULT_TARGET,
    g_grid=None,
    n_windows=DEFAULT_N_WINDOWS,
    xtol=DEFAULT_XTOL,
    band_hz=None,
    metadata=None,
):
    if band_hz is not None:
        lo_hz, hi_hz = float(band_hz[0]), float(band_hz[1])
        if not lo_hz < hi_hz:
            raise ConfigError(f"aggregation band must satisfy lo < hi, got {band_hz}")
        # Coverage tapers off beyond the tuned range; bins out there carry
        # near-zero sensitivity and would only dilute the aggregate.
        freqs = initial.frequencies
        valid = freqs >= lo_hz
        valid &= freqs <= hi_hz
        del freqs
        valid &= initial.valid
        if not valid.any():
            raise DataError("no usable bins inside the aggregation band")
        initial = dataclasses.replace(initial, valid=valid)
    _check_limits(target, xtol)
    grid = _coupling_grid(g_grid)
    a, b, index_of = _coefficients(initial, rescans)
    sizes, lo, hi = _windows(initial, index_of, n_windows)
    n_bins = index_of.size
    del index_of
    log_surface = _log_means(a, b, grid, sizes)
    # the aggregate is the size-weighted mean of the window means; the
    # largest window term at each coupling becomes exactly 1
    peak = log_surface.max(axis=0)
    pooled = (sizes[:, None] * np.exp(log_surface - peak)).sum(axis=0)
    curve = np.exp(peak + np.log(pooled / n_bins))
    surface = np.exp(log_surface)
    return ExclusionResult(
        g_grid=grid,
        aggregate_u=curve,
        g_star=_root(a, b, grid, curve, target, xtol),
        target=target,
        n_bins=int(n_bins),
        window_lo=lo,
        window_hi=hi,
        window_surface=surface,
        window_contour=_contours(grid, surface, target),
        metadata=dict(metadata or {}),
    )


def exclusion_curve(initial, rescans=(), g_grid=None):
    """(grid, aggregate U(g)) over all included bins."""
    result = run_exclusion(initial, rescans, g_grid=g_grid, n_windows=1)
    return result.g_grid, result.aggregate_u


def exclusion_coupling(initial, rescans=(), *, target=DEFAULT_TARGET, g_grid=None,
                       xtol=DEFAULT_XTOL):
    """Coupling where the aggregate update falls to the target.

    Returns (g_star or None, grid, curve).  With multiple grid crossings
    the largest is taken, which is the conservative exclusion boundary.
    """
    result = run_exclusion(initial, rescans, target=target, g_grid=g_grid, n_windows=1, xtol=xtol)
    return result.g_star, result.g_grid, result.aggregate_u


def subaggregate_windows(initial, rescans=(), *, n_windows=DEFAULT_N_WINDOWS, g_grid=None,
                         target=DEFAULT_TARGET):
    """Per-window aggregate surface U_s plus the window 10% contours.

    Included bins are split, in frequency order, into n_windows
    contiguous groups with the remainder spread over the first groups.
    Returns (window_lo, window_hi, surface, contour) where surface is
    n_windows x len(g_grid) and contour holds the g at which each window
    crosses the target (NaN where it never does).
    """
    result = run_exclusion(initial, rescans, target=target, g_grid=g_grid, n_windows=n_windows)
    return result.window_lo, result.window_hi, result.window_surface, result.window_contour


def write_exclusion_result(result, out_dir):
    """JSON summary plus the three CSV tables."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "format": "haloscan-exclusion",
        "version": 1,
        "target": result.target,
        "g_star": result.g_star,
        "n_bins": result.n_bins,
        "n_windows": int(result.window_lo.size),
        "g_grid": [float(g) for g in result.g_grid],
        "aggregate_u": [float(u) for u in result.aggregate_u],
        "metadata": result.metadata,
    }
    write_json(payload, os.path.join(out_dir, "exclusion.json"))

    with atomic_open(os.path.join(out_dir, "exclusion_curve.csv")) as fh:
        fh.write("g_ksvz,aggregate_u\n")
        for g, u in zip(result.g_grid.tolist(), result.aggregate_u.tolist()):
            fh.write(f"{g!r},{u!r}\n")

    with atomic_open(os.path.join(out_dir, "window_contours.csv")) as fh:
        fh.write("window_lo_hz,window_hi_hz,g_at_target\n")
        for lo, hi, g in zip(result.window_lo, result.window_hi, result.window_contour):
            g_text = "" if math.isnan(g) else repr(float(g))
            fh.write(f"{float(lo)!r},{float(hi)!r},{g_text}\n")

    with atomic_open(os.path.join(out_dir, "window_surface.csv")) as fh:
        header = ",".join(map(repr, result.g_grid.tolist()))
        fh.write(f"window_lo_hz,window_hi_hz,{header}\n")
        for lo, hi, row in zip(result.window_lo.tolist(), result.window_hi.tolist(),
                               result.window_surface):
            fh.write(f"{lo!r},{hi!r},{','.join(map(repr, row.tolist()))}\n")


def read_exclusion_result(path):
    return read_json(path, "haloscan-exclusion")
