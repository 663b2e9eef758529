"""Bayesian aggregation of the grand spectrum into exclusion statements.

Every bin carries a likelihood ratio u = exp(mu * x - mu^2 / 2) with
mu = g^2 * eta_sens, rescans multiply in, and the aggregate is the plain
mean over scanned bins, which is what absorbs the look-elsewhere effect.
All products and means run in log space; only final scalars are
exponentiated.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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


def combine_updates(initial, rescans=()):
    """Elementwise product of aligned update arrays.

    Rescan arrays must be full length with 1.0 at bins they did not
    cover, so uncovered bins keep the initial update.
    """
    out = np.array(initial, dtype=float, copy=True)
    for rescan in rescans:
        rescan = np.asarray(rescan, dtype=float)
        if rescan.shape != out.shape:
            raise DataError("rescan update array not aligned with initial scan")
        out *= rescan
    return out


def aggregate(updates):
    """Mean update over bins, via log-sum-exp for dynamic range."""
    updates = np.asarray(updates, dtype=float)
    if updates.size == 0:
        raise DataError("cannot aggregate an empty bin set")
    with np.errstate(divide="ignore"):
        return float(np.exp(logsumexp(np.log(updates)) - math.log(updates.size)))


def default_g_grid():
    lo, hi, n = DEFAULT_G_GRID
    return np.geomspace(lo, hi, n)


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


def _log_updates_at(initial, aligned, g):
    """Combined ln U per included bin of the initial grand at coupling g."""
    mask = initial.valid & (initial.eta_sens > 0)
    mu = g * g * initial.eta_sens[mask]
    log_u = mu * initial.x[mask] - 0.5 * mu**2
    index_of = np.flatnonzero(mask)
    position = np.full(initial.x.size, -1, dtype=np.int64)
    position[index_of] = np.arange(index_of.size)
    for off, grand in aligned:
        sub = grand.valid & (grand.eta_sens > 0)
        idx = np.flatnonzero(sub) + off
        inside = (idx >= 0) & (idx < position.size)
        idx = idx[inside]
        rows = position[idx]
        hit = rows >= 0
        mu_r = g * g * grand.eta_sens[sub][inside][hit]
        log_u[rows[hit]] += mu_r * grand.x[sub][inside][hit] - 0.5 * mu_r**2
        # rescan bins outside the included initial set carry no weight
    return log_u, index_of


def aggregate_update(initial, rescans=(), *, g=1.0):
    """Scalar aggregate U(g) for one coupling."""
    aligned = _aligned_scans(initial, rescans)
    log_u, _ = _log_updates_at(initial, aligned, g)
    if log_u.size == 0:
        raise DataError("grand spectrum has no included bins")
    return float(np.exp(logsumexp(log_u) - math.log(log_u.size)))


def exclusion_curve(initial, rescans=(), g_grid=None):
    grid = default_g_grid() if g_grid is None else np.asarray(g_grid, dtype=float)
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ConfigError("coupling grid must be positive and increasing")
    aligned = _aligned_scans(initial, rescans)
    n = None
    curve = np.empty(grid.size)
    for i, g in enumerate(grid):
        log_u, _ = _log_updates_at(initial, aligned, g)
        if n is None:
            n = log_u.size
            if n == 0:
                raise DataError("grand spectrum has no included bins")
        curve[i] = np.exp(logsumexp(log_u) - math.log(n))
    return grid, curve


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
    grid, curve = exclusion_curve(initial, rescans, g_grid)
    crossing = None
    for i in range(grid.size - 1):
        lo, hi = curve[i] - target, curve[i + 1] - target
        if lo == 0.0 or (lo > 0) != (hi > 0):
            crossing = i
    if curve[-1] == target:
        crossing = grid.size - 2
    if crossing is None:
        return None, grid, curve

    aligned = _aligned_scans(initial, rescans)

    def evaluate(g):
        log_u, _ = _log_updates_at(initial, aligned, g)
        return float(np.exp(logsumexp(log_u) - math.log(log_u.size)))

    g_star = _bracketed_root(
        evaluate,
        grid[crossing],
        grid[crossing + 1],
        curve[crossing],
        curve[crossing + 1],
        target,
        xtol,
    )
    return g_star, grid, curve


def _window_slices(n_included, n_windows):
    if n_windows < 1:
        raise ConfigError("n_windows must be >= 1")
    if n_windows > n_included:
        raise ConfigError(
            f"n_windows = {n_windows} exceeds the {n_included} included bins"
        )
    base, extra = divmod(n_included, n_windows)
    slices = []
    start = 0
    for i in range(n_windows):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def subaggregate_windows(initial, rescans=(), *, n_windows=100, g_grid=None, target=DEFAULT_TARGET):
    """Per-window aggregate surface U_s plus the window 10% contours.

    Included bins are split, in frequency order, into n_windows
    contiguous groups with the remainder spread over the first groups.
    Returns (window_lo, window_hi, surface, contour) where surface is
    n_windows x len(g_grid) and contour holds the g at which each window
    crosses the target (NaN where it never does).
    """
    grid = default_g_grid() if g_grid is None else np.asarray(g_grid, dtype=float)
    aligned = _aligned_scans(initial, rescans)
    log_u0, index_of = _log_updates_at(initial, aligned, grid[0])
    slices = _window_slices(index_of.size, n_windows)
    freqs = initial.frequencies
    lo = np.array([freqs[index_of[s][0]] for s in slices])
    hi = np.array([freqs[index_of[s][-1]] for s in slices])

    surface = np.empty((n_windows, grid.size))
    for j, g in enumerate(grid):
        log_u, _ = _log_updates_at(initial, aligned, g)
        for i, s in enumerate(slices):
            chunk = log_u[s]
            surface[i, j] = np.exp(logsumexp(chunk) - math.log(chunk.size))

    contour = np.full(n_windows, np.nan)
    for i in range(n_windows):
        row = surface[i]
        for j in range(grid.size - 1):
            a, b = row[j] - target, row[j + 1] - target
            if a == 0.0:
                contour[i] = grid[j]
            elif (a > 0) != (b > 0):
                # log-linear interpolation within the grid cell
                frac = a / (a - b)
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
    aligned = _aligned_scans(initial, rescans)
    log_u, index_of = _log_updates_at(initial, aligned, grid[0])
    lo, hi, surface, contour = subaggregate_windows(
        initial, rescans, n_windows=min(n_windows, index_of.size), g_grid=grid, target=target
    )
    return ExclusionResult(
        g_grid=grid,
        aggregate_u=curve,
        g_star=g_star,
        target=target,
        n_bins=index_of.size,
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
