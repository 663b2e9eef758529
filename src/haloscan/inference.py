"""Bayesian aggregation of the grand spectrum into exclusion statements.

Every bin carries a likelihood ratio u = exp(mu * x - mu^2 / 2) with
mu = g^2 * eta_sens, rescans multiply in, and the aggregate is the plain
mean over scanned bins, which is what absorbs the look-elsewhere effect.

Since mu is linear in g^2, the combined update of a bin is a quadratic in
g^2: ln U = a * g^2 - b * g^4 with a = sum(eta_sens * x) and
b = sum(eta_sens^2) / 2, summed over the initial scan and the aligned
rescans (the Gaussian prior update of Palken et al., "Improved analysis
framework for axion dark matter searches", PRD 101, 123011 (2020)).  Each
alignment pass builds (a, b) for every included bin; every coupling is then
a vectorised log-mean-exp over bins or windows, each shifted by its largest
ln U.  The curve, the bisection and the window surface each make their own
pass, so exclusion_coupling makes two and run_exclusion three.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_open, write_json
from .errors import ConfigError, DataError

DEFAULT_TARGET = 0.1
DEFAULT_G_GRID = (0.5, 5.0, 200)


def log_prior_update(x, mu_a):
    """ln u for excess x and expected signal mu_a; linear in x by design."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu_a, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mu))):
        raise ConfigError("prior update needs finite inputs")
    return mu * x - 0.5 * mu**2


def prior_update(x, mu_a):
    return np.exp(log_prior_update(x, mu_a))


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


def _included(grand):
    return grand.valid & (grand.eta_sens > 0)


def _aligned_scans(initial, rescans):
    """Integer bin offsets of each rescan grand against the initial grid."""
    db = initial.bin_width_hz
    out = []
    for grand in rescans:
        if grand.bin_width_hz != db:
            raise DataError("rescan bin width differs from initial scan")
        off = (grand.rf_start_hz - initial.rf_start_hz) / db
        if abs(off - round(off)) > 1e-6:
            raise DataError("rescan grid not aligned to the initial lattice")
        out.append((int(round(off)), grand))
    return out


def _coefficients(initial, rescans):
    """Per-included-bin (a, b) with ln U = a * g^2 - b * g^4.

    a = sum(eta * x) and b = sum(eta^2) / 2 over the initial scan and every
    aligned rescan bin that lands on an included initial bin; rescan bins
    elsewhere carry no weight.  Also returns the included bin indices.
    """
    mask = _included(initial)
    index_of = np.flatnonzero(mask)
    if index_of.size == 0:
        raise DataError("grand spectrum has no included bins")
    eta = initial.eta_sens[mask]
    a = eta * initial.x[mask]
    b = 0.5 * eta**2
    position = np.full(initial.x.size, -1, dtype=np.int64)
    position[index_of] = np.arange(index_of.size)
    for off, grand in _aligned_scans(initial, rescans):
        sub = np.flatnonzero(_included(grand))
        idx = sub + off
        inside = (idx >= 0) & (idx < position.size)
        rows = position[idx[inside]]
        hit = rows >= 0
        src = sub[inside][hit]
        eta_r = grand.eta_sens[src]
        a[rows[hit]] += eta_r * grand.x[src]
        b[rows[hit]] += 0.5 * eta_r**2
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if np.any(bad):
        first = initial.frequencies[index_of[np.argmax(bad)]]
        raise DataError(
            f"non-finite x or eta_sens in {int(bad.sum())} included bins "
            f"(first at {first:.1f} Hz)"
        )
    return a, b, index_of


def _log_means(a, b, grid, starts, sizes):
    """ln of the mean update over groups of bins, for every coupling.

    Group k is the run of bins starting at starts[k] with sizes[k] bins;
    returns a (groups, couplings) array.  Works one coupling at a time: a
    couplings x bins matrix would cost tens of MB on a full campaign.
    """
    out = np.empty((starts.size, len(grid)))
    for j, g in enumerate(grid):
        G = g * g
        log_u = G * a - G * G * b
        # each group's largest term becomes exactly 1, so its sum cannot
        # overflow or underflow to zero
        peak = np.maximum.reduceat(log_u, starts)
        shifted = np.exp(log_u - np.repeat(peak, sizes))
        out[:, j] = peak + np.log(np.add.reduceat(shifted, starts) / sizes)
    return out


def _aggregate(a, b, grid):
    """Aggregate U(g) over all included bins, one value per coupling."""
    return np.exp(_log_means(a, b, grid, np.zeros(1, dtype=np.intp), np.array([a.size]))[0])


def aggregate_update(initial, rescans=(), *, g=1.0):
    """Scalar aggregate U(g) for one coupling."""
    a, b, _ = _coefficients(initial, rescans)
    return float(_aggregate(a, b, [g])[0])


def exclusion_curve(initial, rescans=(), g_grid=None):
    grid = _coupling_grid(g_grid)
    a, b, _ = _coefficients(initial, rescans)
    return grid, _aggregate(a, b, grid)


def _bracketed_root(evaluate, g_lo, g_hi, u_lo, u_hi, target, xtol):
    """Bisection for U(g) = target on a bracketing interval."""
    f_lo = u_lo - target
    while g_hi - g_lo > xtol:
        mid = 0.5 * (g_lo + g_hi)
        f_mid = evaluate(mid) - target
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            g_lo, f_lo = mid, f_mid
        else:
            g_hi = mid
    return 0.5 * (g_lo + g_hi)


def exclusion_coupling(initial, rescans=(), *, target=DEFAULT_TARGET, g_grid=None, xtol=1e-3):
    """Coupling where the aggregate update falls to the target.

    Returns (g_star or None, grid, curve).  With multiple grid crossings
    the largest is taken, which is the conservative exclusion boundary.
    """
    if not 0.0 < target < 1.0:
        raise ConfigError(f"target must be in (0, 1), got {target!r}")
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise ConfigError(f"xtol must be finite and > 0, got {xtol!r}")
    grid, curve = exclusion_curve(initial, rescans, _coupling_grid(g_grid))
    crossing = None
    for i in range(grid.size - 1):
        lo, hi = curve[i] - target, curve[i + 1] - target
        if lo == 0.0 or (lo > 0) != (hi > 0):
            crossing = i
    if curve[-1] == target:
        crossing = grid.size - 2
    if crossing is None:
        return None, grid, curve

    a, b, _ = _coefficients(initial, rescans)
    g_star = _bracketed_root(
        lambda g: float(_aggregate(a, b, [g])[0]),
        grid[crossing],
        grid[crossing + 1],
        curve[crossing],
        curve[crossing + 1],
        target,
        xtol,
    )
    return g_star, grid, curve


def _window_sizes(n_included, n_windows):
    if n_windows < 1:
        raise ConfigError("n_windows must be >= 1")
    if n_windows > n_included:
        raise ConfigError(
            f"n_windows = {n_windows} exceeds the {n_included} included bins"
        )
    base, extra = divmod(n_included, n_windows)
    return base + (np.arange(n_windows) < extra)


def subaggregate_windows(initial, rescans=(), *, n_windows=100, g_grid=None, target=DEFAULT_TARGET):
    """Per-window aggregate surface U_s plus the window 10% contours.

    Included bins are split, in frequency order, into n_windows
    contiguous groups with the remainder spread over the first groups.
    Returns (window_lo, window_hi, surface, contour) where surface is
    n_windows x len(g_grid) and contour holds the g at which each window
    crosses the target (NaN where it never does).
    """
    grid = _coupling_grid(g_grid)
    a, b, index_of = _coefficients(initial, rescans)
    sizes = _window_sizes(index_of.size, n_windows)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    freqs = initial.frequencies
    lo = freqs[index_of[starts]]
    hi = freqs[index_of[ends - 1]]

    surface = np.exp(_log_means(a, b, grid, starts, sizes))

    # a window's contour is its last grid cell that starts on or crosses the target
    d = surface - target
    d_lo, d_hi = d[:, :-1], d[:, 1:]
    hits = (d_lo == 0.0) | ((d_lo > 0) != (d_hi > 0))
    contour = np.full(n_windows, np.nan)
    for i in np.flatnonzero(hits.any(axis=1)):
        j = hits.shape[1] - 1 - int(np.argmax(hits[i, ::-1]))
        if d_lo[i, j] == 0.0:
            contour[i] = grid[j]
        else:
            # log-linear interpolation within the grid cell
            frac = d_lo[i, j] / (d_lo[i, j] - d_hi[i, j])
            contour[i] = grid[j] * (grid[j + 1] / grid[j]) ** frac
    return lo, hi, surface, contour


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
    n_windows=100,
    xtol=1e-3,
    band_hz=None,
    metadata=None,
):
    if band_hz is not None:
        lo_hz, hi_hz = float(band_hz[0]), float(band_hz[1])
        if not lo_hz < hi_hz:
            raise ConfigError(f"aggregation band must satisfy lo < hi, got {band_hz}")
        # Coverage tapers off beyond the tuned range; bins out there carry
        # near-zero sensitivity and would only dilute the aggregate.
        inband = (initial.frequencies >= lo_hz) & (initial.frequencies <= hi_hz)
        if not np.any(initial.valid & inband):
            raise DataError("no usable bins inside the aggregation band")
        initial = dataclasses.replace(initial, valid=initial.valid & inband)
    g_star, grid, curve = exclusion_coupling(
        initial, rescans, target=target, g_grid=g_grid, xtol=xtol
    )
    n_bins = int(np.count_nonzero(_included(initial)))
    lo, hi, surface, contour = subaggregate_windows(
        initial, rescans, n_windows=min(n_windows, n_bins), g_grid=grid, target=target
    )
    return ExclusionResult(
        g_grid=grid,
        aggregate_u=curve,
        g_star=g_star,
        target=target,
        n_bins=n_bins,
        window_lo=lo,
        window_hi=hi,
        window_surface=surface,
        window_contour=contour,
        metadata=dict(metadata or {}),
    )


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
        for g, u in zip(result.g_grid, result.aggregate_u):
            fh.write(f"{float(g)!r},{float(u)!r}\n")

    with atomic_open(os.path.join(out_dir, "window_contours.csv")) as fh:
        fh.write("window_lo_hz,window_hi_hz,g_at_target\n")
        for lo, hi, g in zip(result.window_lo, result.window_hi, result.window_contour):
            g_text = "" if math.isnan(g) else repr(float(g))
            fh.write(f"{float(lo)!r},{float(hi)!r},{g_text}\n")

    with atomic_open(os.path.join(out_dir, "window_surface.csv")) as fh:
        header = ",".join(repr(float(g)) for g in result.g_grid)
        fh.write(f"window_lo_hz,window_hi_hz,{header}\n")
        for i in range(result.window_lo.size):
            row = ",".join(repr(float(v)) for v in result.window_surface[i])
            fh.write(
                f"{float(result.window_lo[i])!r},{float(result.window_hi[i])!r},{row}\n"
            )


def read_exclusion_result(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read exclusion result: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}") from exc
    if payload.get("format") != "haloscan-exclusion":
        raise DataError(f"{path}: not an exclusion result file")
    return payload
