"""Command line driver.

Subcommands map one-to-one onto pipeline stages; every stage reads its
inputs from the output directory, so any stage can be re-run from
persisted artifacts.  Artifacts are deterministic for a fixed resolved
configuration; wall-clock timestamps go to ``sidecar.json`` only.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import glob
import json
import logging
import os
import shutil
import sys

import numpy as np

from . import __version__
from .artifacts import atomic_open, write_json
from .axion import AxionHypothesis, mass_uev
from .calibration import (
    read_calibration_results,
    run_calibration,
    write_calibration_results,
)
from .campaign import rescan_steps, simulate_campaign, simulate_rescans
from .config import load_config
from .errors import ConfigError, DataError, HaloscanError, NumericError
from .inference import run_exclusion, write_exclusion_result
from .pipeline import (
    check_persistence,
    flag_rescans,
    process_campaign,
    process_group,
    read_grand_spectrum,
    write_grand_spectrum,
)
from .receiver import noise_budget, report_enhancement
from .spectra import (
    read_calibration_set,
    read_spectrum,
    write_calibration_set,
    write_spectrum,
)

log = logging.getLogger("haloscan")

STAGES = ("simulate", "calibrate", "process", "exclude", "budget", "enhancement")

_MANIFEST = "manifest.json"
_SIDECAR = "sidecar.json"


class Workspace:
    """Fixed layout of the output directory."""

    def __init__(self, root):
        self.root = root
        self.spectra_dir = self.path("spectra")
        self.calibration_dir = self.path("calibration")
        self.cal_results = self.path("calibration_results.json")
        self.grand = self.path("grand_spectrum.dat")
        self.rescan_dir = self.path("rescans")
        self.rescan_grand = self.path("rescans", "grand_spectrum.dat")
        self.exclusion_dir = self.path("exclusion")

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    def calset_dir(self, step_id):
        return os.path.join(self.calibration_dir, f"step_{step_id:05d}")


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _read_previous(path):
    """A JSON file an earlier stage wrote, or {} if it is missing or unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def _update_manifest(ws, cfg, stage, artifacts):
    """Record stage completion; deterministic content, no timestamps."""
    path = ws.path(_MANIFEST)
    manifest = {
        "format": "haloscan-manifest",
        "version": 1,
        "config_hash": cfg.hash(),
        "master_seed": cfg.master_seed,
        "package_version": __version__,
        "stages": {},
    }
    previous = _read_previous(path)
    if previous.get("config_hash") == manifest["config_hash"]:
        manifest["stages"] = previous.get("stages", {})
    manifest["stages"][stage] = {
        "artifacts": sorted(os.path.relpath(p, ws.root) for p in artifacts)
    }
    write_json(manifest, path)

    sidecar = _read_previous(ws.path(_SIDECAR))
    sidecar.setdefault("stages", {})[stage] = _utc_now()
    write_json(sidecar, ws.path(_SIDECAR))


def _provenance(cfg):
    """Stamp for the metadata of every spectrum and grand spectrum written."""
    return {"config_hash": cfg.hash(), "master_seed": cfg.master_seed}


def _check_seed(cfg, metadata, source):
    """Refuse an input written under a different master seed."""
    seed = metadata.get("master_seed")
    if seed != cfg.master_seed:
        raise DataError(
            f"{source} was written under master_seed {seed!r}, but this run uses "
            f"{cfg.master_seed}; re-run simulate and the later stages with one seed"
        )


# -- stages ---------------------------------------------------------


def _acquisition(cfg):
    """Keywords shared by the initial scan and the rescans."""
    return {
        "lineshape": cfg.lineshape(),
        "tau_s": cfg.get("acquisition", "tau_s"),
        "bin_width_hz": cfg.get("acquisition", "bin_width_hz"),
        "n_bins": cfg.get("acquisition", "n_bins"),
    }


def _write_spectra(cfg, spectra, directory):
    """Stamp and write science spectra as step_NNNNN.spec; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    stamp = _provenance(cfg)
    paths = []
    for spectrum in spectra:
        path = os.path.join(directory, f"step_{spectrum.step_id:05d}.spec")
        spectrum.metadata.update(stamp)
        write_spectrum(spectrum, path)
        paths.append(path)
    return paths


def stage_simulate(cfg, ws):
    plan = cfg.tuning_plan()
    if plan.n_steps == 0:
        raise ConfigError("tuning plan is empty; nothing to simulate")
    log.info("simulating %d steps", plan.n_steps)
    spectra, calsets = simulate_campaign(
        plan,
        cfg.receiver(),
        cfg.baseline_model(),
        hypotheses=cfg.hypotheses(),
        anomaly_rate=cfg.get("anomalies", "rate"),
        anomaly_types=cfg.get("anomalies", "types"),
        cal_every=cfg.get("calibration", "cal_every"),
        t_hot_k=cfg.get("calibration", "t_hot_k"),
        t_cold_k=cfg.get("calibration", "t_cold_k"),
        **_acquisition(cfg),
    )
    artifacts = _write_spectra(cfg, spectra, ws.spectra_dir)
    stamp = _provenance(cfg)
    for calset in calsets:
        directory = ws.calset_dir(calset.step_id)
        for spectrum in calset.spectra().values():
            spectrum.metadata.update(stamp)
        write_calibration_set(calset, directory)
        artifacts.append(directory)
    _update_manifest(ws, cfg, "simulate", artifacts)
    log.info("wrote %d spectra, %d calibration sets", len(spectra), len(calsets))


def _load_spectra(cfg, ws):
    paths = sorted(glob.glob(os.path.join(ws.spectra_dir, "step_*.spec")))
    if not paths:
        raise DataError(f"no spectra found under {ws.spectra_dir}; run simulate first")
    spectra = [read_spectrum(p) for p in paths]
    for path, spectrum in zip(paths, spectra):
        _check_seed(cfg, spectrum.metadata, path)
    return spectra


def stage_calibrate(cfg, ws):
    dirs = sorted(glob.glob(os.path.join(ws.calibration_dir, "step_*")))
    dirs = [d for d in dirs if os.path.isdir(d)]
    if not dirs:
        raise DataError(
            f"no calibration sets found under {ws.calibration_dir}; run simulate first"
        )
    geometry = cfg.receiver()
    results = [_calibrate_one(cfg, geometry, d) for d in dirs]
    write_calibration_results(results, ws.cal_results)
    _update_manifest(ws, cfg, "calibrate", [ws.cal_results])
    log.info("calibrated %d sets", len(results))


def _calibrate_one(cfg, geometry, directory):
    calset = read_calibration_set(directory)
    for role, spectrum in calset.spectra().items():
        _check_seed(cfg, spectrum.metadata, os.path.join(directory, f"{role}.spec"))
    return run_calibration(calset, geometry, eta=cfg.get("receiver", "eta"))


def _write_jsons(directory, payloads):
    """Write each name -> payload as JSON under directory; returns the paths."""
    paths = [os.path.join(directory, name) for name in payloads]
    for path, payload in zip(paths, payloads.values()):
        write_json(payload, path)
    return paths


def _write_grand(cfg, grand, path):
    grand.metadata.update(_provenance(cfg))
    write_grand_spectrum(grand, path)


def _read_grand(cfg, path):
    grand = read_grand_spectrum(path)
    _check_seed(cfg, grand.metadata, path)
    return grand


def stage_process(cfg, ws):
    """Process the initial scan, then re-acquire and process its candidates."""
    spectra = _load_spectra(cfg, ws)
    if not os.path.exists(ws.cal_results):
        raise DataError(f"{ws.cal_results} not found; run calibrate first")
    cal_results = read_calibration_results(ws.cal_results)
    geometry = cfg.receiver()
    acquisition = _acquisition(cfg)
    lineshape = acquisition["lineshape"]
    settings = cfg.process_settings()
    analysis = {"tau_s": acquisition["tau_s"], "snr_ref": cfg.get("sensitivity", "snr_ref")}

    out = process_campaign(spectra, cal_results, geometry, lineshape, settings, **analysis)
    candidates = out.rescans.candidates
    # only process writes rescans/; a follow-up left by an earlier run must
    # not reach exclude when this run flags no candidates
    if os.path.isdir(ws.rescan_dir):
        shutil.rmtree(ws.rescan_dir)
    _write_grand(cfg, out.grand, ws.grand)
    report = out.filter_report
    artifacts = [ws.grand] + _write_jsons(ws.root, {
        "cut_log.json": out.cut_log.to_dict(),
        "filter_report.json": {
            "t_signal": report.t_signal,
            "wide_suppression": report.wide_suppression,
            "if_window_bins": settings.if_window_bins,
            "if_order": settings.if_order,
            "rf_window_bins": settings.rf_window_bins,
            "rf_order": settings.rf_order,
            "n_spectra": report.n_spectra,
        },
        "rescan_candidates.json": out.rescans.to_dict(),
    })
    log.info(
        "processed %d spectra (%d cut), %d rescan candidates",
        len(out.processed), out.cut_log.n_cut, len(candidates),
    )

    if candidates:
        plan = cfg.tuning_plan()
        steps = rescan_steps(plan, [c.nu_hz for c in candidates])
        log.info("re-acquiring %d steps for %d candidates", len(steps), len(candidates))
        rescans = simulate_rescans(
            plan, steps, geometry, cfg.baseline_model(),
            hypotheses=cfg.hypotheses(), **acquisition,
        )
        artifacts += _write_spectra(cfg, rescans, os.path.join(ws.rescan_dir, "spectra"))
        grand, _, _, _ = process_group(
            rescans, cal_results, geometry, lineshape, settings, **analysis
        )
        _write_grand(cfg, grand, ws.rescan_grand)
        threshold, merge = settings.rescan_threshold_sigma, settings.merge_width_bins
        artifacts += [ws.rescan_grand] + _write_jsons(ws.rescan_dir, {
            "candidates.json": flag_rescans(grand, threshold, merge).to_dict(),
            "persistence.json": {
                "candidates": check_persistence(candidates, grand, threshold, merge)
            },
        })
    _update_manifest(ws, cfg, "process", artifacts)


def stage_exclude(cfg, ws):
    if not os.path.exists(ws.grand):
        raise DataError(f"{ws.grand} not found; run process first")
    initial = _read_grand(cfg, ws.grand)
    followups = []
    if os.path.exists(ws.rescan_grand):
        followups.append(_read_grand(cfg, ws.rescan_grand))
    band = (cfg.get("campaign", "lo_hz"), cfg.get("campaign", "hi_hz"))
    result = run_exclusion(
        initial,
        tuple(followups),
        target=cfg.get("inference", "target"),
        g_grid=cfg.g_grid(),
        n_windows=cfg.get("inference", "n_windows"),
        xtol=cfg.get("inference", "xtol"),
        band_hz=band,
        metadata={
            "config_hash": cfg.hash(),
            "master_seed": cfg.master_seed,
            "package_version": __version__,
            "n_followups": len(followups),
            "band_hz": [band[0], band[1]],
            "mass_window_uev": [mass_uev(band[0]), mass_uev(band[1])],
            "skipped_mass_windows_uev": [
                [mass_uev(lo), mass_uev(hi)] for lo, hi in cfg.get("campaign", "skip_windows")
            ],
        },
    )
    write_exclusion_result(result, ws.exclusion_dir)
    artifacts = [
        os.path.join(ws.exclusion_dir, name)
        for name in ("exclusion.json", "exclusion_curve.csv",
                     "window_contours.csv", "window_surface.csv")
    ]
    _update_manifest(ws, cfg, "exclude", artifacts)
    if result.g_star is None:
        log.warning("exclusion target not bracketed by the coupling grid")
    else:
        log.info("excluded couplings above %.4f at target %.3f",
                 result.g_star, result.target)


def _operating_points(cfg):
    """(squeezed receiver, its unsqueezed twin, g = 1 axion on resonance)."""
    squeezed = cfg.receiver()
    hyp = AxionHypothesis(
        nu_a_hz=squeezed.nu_c, g_ksvz=1.0, snr_ref=cfg.get("sensitivity", "snr_ref")
    )
    return squeezed, dataclasses.replace(squeezed, g_s=1.0), hyp


def _write_budget_csv(budget, path):
    with atomic_open(path) as fh:
        fh.write(",".join(budget.CSV_COLUMNS) + "\n")
        np.savetxt(fh, budget.columns(), fmt="%.10e", delimiter=",")


def stage_budget(cfg, ws):
    squeezed, unsqueezed, hyp = _operating_points(cfg)
    half_span = (cfg.get("acquisition", "n_bins") // 2) * cfg.get(
        "acquisition", "bin_width_hz"
    )
    detunings = np.linspace(-half_span, half_span, 3001)
    artifacts = []
    for name, params in (("budget.csv", squeezed), ("budget_unsqueezed.csv", unsqueezed)):
        path = ws.path(name)
        _write_budget_csv(noise_budget(params, detunings, hyp), path)
        artifacts.append(path)
    _update_manifest(ws, cfg, "budget", artifacts)
    log.info("wrote noise budgets over +-%.0f Hz", half_span)


def stage_enhancement(cfg, ws):
    squeezed, unsqueezed, hyp = _operating_points(cfg)
    report = report_enhancement(squeezed, unsqueezed, hyp)
    report.update(
        {
            "eta": squeezed.eta,
            "g_s": squeezed.g_s,
            "delivered_squeezing": squeezed.delivered,
            "n_c0": squeezed.n_c0,
            "n_f": squeezed.n_f,
            "n_a": squeezed.n_a,
            "config_hash": cfg.hash(),
        }
    )
    path = ws.path("enhancement.json")
    write_json(report, path)
    _update_manifest(ws, cfg, "enhancement", [path])
    log.info("scan-rate ratio %.3f at couplings %.3f / %.3f",
             report["rate_ratio"], report["beta_squeezed"], report["beta_unsqueezed"])


# -- driver ---------------------------------------------------------


def _run_stage(stage, cfg, ws):
    # Looked up when called, not bound in a table at import, so that a
    # wrapper installed on the module attribute (a tracer, a test) is used.
    globals()[f"stage_{stage}"](cfg, ws)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="campaign configuration file")
    parser.add_argument("--out", default=None, help="output directory (default: [output] directory)")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="replace campaign.master_seed for this run")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every stage is single-threaded "
                             "and its output does not depend on it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="haloscan",
        description="Simulate and analyze a squeezed-receiver cavity dark matter scan.",
    )
    parser.add_argument("--version", action="version", version=f"haloscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "simulate": "generate science spectra and calibration sets",
        "calibrate": "fit receiver parameters from calibration sets",
        "process": "remove structure, combine, coadd, flag and re-acquire candidates",
        "exclude": "compute the aggregate exclusion and windowed limits",
        "budget": "tabulate the per-component noise budget",
        "enhancement": "compare optimized squeezed and unsqueezed scan rates",
        "all": "run every stage in order",
    }
    for name in STAGES + ("all",):
        p = sub.add_parser(name, help=descriptions[name])
        _add_common(p)
    p = sub.add_parser("run", help="run one named stage")
    _add_common(p)
    p.add_argument("--stage", required=True, choices=STAGES + ("all",))
    return parser


def _configure_logging():
    level_name = os.environ.get("HALOSCAN_LOG", "warning").strip().lower()
    levels = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }
    if level_name not in levels:
        raise ConfigError(
            f"HALOSCAN_LOG must be one of {sorted(levels)}, got {level_name!r}"
        )
    logging.basicConfig(
        stream=sys.stderr,
        level=levels[level_name],
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fail(exc, code):
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
        file=sys.stderr,
    )
    log.debug("failing with code %d", code, exc_info=True)
    return code


def main(argv=None):
    try:
        _configure_logging()
    except ConfigError as exc:
        return _fail(exc, 2)
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command == "run":
        command = args.stage
    try:
        cfg = load_config(args.config, seed_override=args.seed_override)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        out_dir = args.out if args.out is not None else cfg.get("output", "directory")
        ws = Workspace(out_dir)
        os.makedirs(ws.root, exist_ok=True)
        stages = STAGES if command == "all" else (command,)
        for stage in stages:
            log.info("stage %s", stage)
            _run_stage(stage, cfg, ws)
    except ConfigError as exc:
        return _fail(exc, 2)
    except NumericError as exc:
        return _fail(exc, 3)
    except (DataError, OSError) as exc:
        return _fail(exc, 4)
    except HaloscanError as exc:  # base class: treat as config misuse
        return _fail(exc, 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
