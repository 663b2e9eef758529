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
from .artifacts import atomic_open, read_json, write_json
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
    open_spectrum,
    read_calibration_set,
    write_calibration_set,
    write_spectrum,
)

log = logging.getLogger("haloscan")

# (name, help, outputs) of each stage, in run order.  A stage owns its
# outputs, paths under the output directory: they are deleted before it
# runs, and every file under them is listed in the manifest after.
STAGES = (
    ("simulate", "generate science spectra and calibration sets", ("spectra", "calibration")),
    ("calibrate", "fit receiver parameters from calibration sets", ("calibration_results.json",)),
    ("process", "remove structure, combine, coadd, flag and re-acquire candidates",
     ("grand_spectrum.dat", "cut_log.json", "filter_report.json", "rescan_candidates.json",
      "rescans")),
    ("exclude", "compute the aggregate exclusion and windowed limits", ("exclusion",)),
    ("budget", "tabulate the per-component noise budget", ("budget.csv", "budget_unsqueezed.csv")),
    ("enhancement", "compare optimized squeezed and unsqueezed scan rates", ("enhancement.json",)),
)
STAGE_NAMES = tuple(name for name, _, _ in STAGES)

_MANIFEST = "manifest.json"
_SIDECAR = "sidecar.json"


class Workspace:
    """Fixed layout of the output directory: the outputs of STAGES."""

    def __init__(self, root):
        self.root = root
        self.outputs = {name: tuple(self.path(p) for p in paths) for name, _, paths in STAGES}
        self.spectra_dir, self.calibration_dir = self.outputs["simulate"]
        (self.cal_results,) = self.outputs["calibrate"]
        (self.grand, self.cut_log, self.filter_report, self.rescan_candidates,
         self.rescan_dir) = self.outputs["process"]
        self.rescan_grand = os.path.join(self.rescan_dir, "grand_spectrum.dat")
        (self.exclusion_dir,) = self.outputs["exclude"]
        self.budget, self.budget_unsqueezed = self.outputs["budget"]
        (self.enhancement,) = self.outputs["enhancement"]

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    def calset_dir(self, step_id):
        return os.path.join(self.calibration_dir, f"step_{step_id:05d}")


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _read_previous(path):
    """The JSON object an earlier command wrote, or {} if there is none."""
    try:
        return read_json(path)
    except DataError:
        return {}


def _stages(record):
    """The "stages" object of a manifest or sidecar: the record's own, or a
    new {} if it has none or it is not an object."""
    stages = record.get("stages")
    return stages if isinstance(stages, dict) else {}


def _provenance(cfg):
    """Stamp for the metadata of every spectrum, grand spectrum and
    calibration results file written."""
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


def _write_spectra(stamp, spectra, directory):
    """Stamp and write science spectra as step_NNNNN.spec."""
    os.makedirs(directory, exist_ok=True)
    for spectrum in spectra:
        spectrum.metadata.update(stamp)
        write_spectrum(spectrum, os.path.join(directory, f"step_{spectrum.step_id:05d}.spec"))


def _write_calsets(stamp, calsets, ws):
    """Stamp and write calibration sets."""
    for calset in calsets:
        for spectrum in calset.spectra().values():
            spectrum.metadata.update(stamp)
        write_calibration_set(calset, ws.calset_dir(calset.step_id))


def stage_simulate(cfg, ws):
    """Simulate the plan one step at a time, writing each step's spectrum and
    calibration set as soon as it is drawn; seeds and draws are per step."""
    plan = cfg.tuning_plan()
    log.info("simulating %d steps", plan.n_steps)
    options = dict(
        hypotheses=cfg.hypotheses(),
        anomaly_rate=cfg.get("anomalies", "rate"),
        anomaly_types=cfg.get("anomalies", "types"),
        cal_every=cfg.get("calibration", "cal_every"),
        t_hot_k=cfg.get("calibration", "t_hot_k"),
        t_cold_k=cfg.get("calibration", "t_cold_k"),
        **_acquisition(cfg),
    )
    receiver, baseline = cfg.receiver(), cfg.baseline_model()
    stamp = _provenance(cfg)
    n_calsets = 0
    for step in plan.steps:
        one_step = dataclasses.replace(plan, steps=(step,))
        spectra, calsets = simulate_campaign(one_step, receiver, baseline, **options)
        _write_spectra(stamp, spectra, ws.spectra_dir)
        _write_calsets(stamp, calsets, ws)
        n_calsets += len(calsets)
    log.info("wrote %d spectra, %d calibration sets", plan.n_steps, n_calsets)


def _load_spectra(cfg, ws):
    """The science spectra's headers; each PSD is read when a pass needs it."""
    paths = sorted(glob.glob(os.path.join(ws.spectra_dir, "step_*.spec")))
    if not paths:
        raise DataError(f"no spectra found under {ws.spectra_dir}; run simulate first")
    spectra = [open_spectrum(p) for p in paths]
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
    write_calibration_results(results, ws.cal_results, _provenance(cfg))
    log.info("calibrated %d sets", len(results))


def _calibrate_one(cfg, geometry, directory):
    calset = read_calibration_set(directory)
    for role, spectrum in calset.spectra().items():
        _check_seed(cfg, spectrum.metadata, os.path.join(directory, f"{role}.spec"))
    return run_calibration(calset, geometry, eta=cfg.get("receiver", "eta"))


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
    cal_results, metadata = read_calibration_results(ws.cal_results)
    _check_seed(cfg, metadata, ws.cal_results)
    geometry = cfg.receiver()
    acquisition = _acquisition(cfg)
    lineshape = acquisition["lineshape"]
    settings = cfg.process_settings()
    analysis = {"tau_s": acquisition["tau_s"], "snr_ref": cfg.get("sensitivity", "snr_ref")}

    out = process_campaign(spectra, cal_results, geometry, lineshape, settings, **analysis)
    candidates = out.rescans.candidates
    _write_grand(cfg, out.grand, ws.grand)
    report = out.filter_report
    write_json(out.cut_log.to_dict(), ws.cut_log)
    write_json({
        "t_signal": report.t_signal,
        "wide_suppression": report.wide_suppression,
        "if_window_bins": settings.if_window_bins,
        "if_order": settings.if_order,
        "rf_window_bins": settings.rf_window_bins,
        "rf_order": settings.rf_order,
        "n_spectra": report.n_spectra,
    }, ws.filter_report)
    write_json(out.rescans.to_dict(), ws.rescan_candidates)
    log.info(
        "processed %d spectra (%d cut), %d rescan candidates",
        len(out.processed), out.cut_log.n_cut, len(candidates),
    )
    del out  # frees the initial grand spectrum before the rescans are processed

    if candidates:
        plan = cfg.tuning_plan()
        steps = rescan_steps(plan, [c.nu_hz for c in candidates])
        log.info("re-acquiring %d steps for %d candidates", len(steps), len(candidates))
        rescans = simulate_rescans(
            plan, steps, geometry, cfg.baseline_model(),
            hypotheses=cfg.hypotheses(), **acquisition,
        )
        _write_spectra(_provenance(cfg), rescans, os.path.join(ws.rescan_dir, "spectra"))
        grand, _, _, _ = process_group(
            rescans, cal_results, geometry, lineshape, settings, **analysis
        )
        _write_grand(cfg, grand, ws.rescan_grand)
        threshold, merge = settings.rescan_threshold_sigma, settings.merge_width_bins
        write_json(flag_rescans(grand, threshold, merge).to_dict(),
                   os.path.join(ws.rescan_dir, "candidates.json"))
        write_json({"candidates": check_persistence(candidates, grand, threshold, merge)},
                   os.path.join(ws.rescan_dir, "persistence.json"))


def stage_exclude(cfg, ws):
    if not os.path.exists(ws.grand):
        raise DataError(f"{ws.grand} not found; run process first")
    initial = _read_grand(cfg, ws.grand)
    followups = [p for p in (ws.rescan_grand,) if os.path.exists(p)]
    band = (cfg.get("campaign", "lo_hz"), cfg.get("campaign", "hi_hz"))
    result = run_exclusion(
        initial,
        # read one at a time, so each is freed once its terms are summed
        (_read_grand(cfg, path) for path in followups),
        target=cfg.get("inference", "target"),
        g_grid=cfg.g_grid(),
        n_windows=cfg.get("inference", "n_windows"),
        xtol=cfg.get("inference", "xtol"),
        band_hz=band,
        metadata={
            **_provenance(cfg),
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
    table = budget.columns()
    n_rows, n_cols = table.shape
    row = ",".join(["%.10e"] * n_cols) + "\n"
    with atomic_open(path) as fh:
        fh.write(",".join(budget.CSV_COLUMNS) + "\n")
        fh.write(row * n_rows % tuple(table.ravel().tolist()))


def stage_budget(cfg, ws):
    squeezed, unsqueezed, hyp = _operating_points(cfg)
    half_span = (cfg.get("acquisition", "n_bins") // 2) * cfg.get(
        "acquisition", "bin_width_hz"
    )
    detunings = np.linspace(-half_span, half_span, 3001)
    for path, params in ((ws.budget, squeezed), (ws.budget_unsqueezed, unsqueezed)):
        _write_budget_csv(noise_budget(params, detunings, hyp), path)
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
    write_json(report, ws.enhancement)
    log.info("scan-rate ratio %.3f at couplings %.3f / %.3f",
             report["rate_ratio"], report["beta_squeezed"], report["beta_unsqueezed"])


# -- driver ---------------------------------------------------------


def _run_stage(stage, cfg, ws):
    """Delete the stage's outputs, run it, and return every file under them,
    sorted and relative to the output directory."""
    outputs = ws.outputs[stage]
    for path in outputs:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)
    # Looked up when called, not bound in a table at import, so that a
    # wrapper installed on the module attribute (a tracer, a test) is used.
    globals()[f"stage_{stage}"](cfg, ws)
    written = [p for p in outputs if os.path.isfile(p)]
    for path in outputs:
        written += (os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
    root = ws.path("")  # every output starts with it; cheaper than os.path.relpath
    return sorted(p[len(root):] for p in written)


def _run_stages(stages, cfg, ws):
    """Run stages in order and record those that finish, also when a later
    one fails: stage -> its files in the manifest (deterministic, no
    timestamps), stage -> its finishing time in the sidecar.  The manifest
    starts over when the config hash changes, and the sidecar names the
    manifest's stages.  Each record is read once and written once per
    command; the manifest is also written before a stage it lists runs."""
    manifest = {
        "format": "haloscan-manifest",
        "version": 1,
        "config_hash": cfg.hash(),
        "master_seed": cfg.master_seed,
        "package_version": __version__,
        "stages": {},
    }
    previous = _read_previous(ws.path(_MANIFEST))
    recorded = set(_stages(previous))  # the stages the manifest on disk lists
    if previous.get("config_hash") == manifest["config_hash"]:
        manifest["stages"] = _stages(previous)
    sidecar = _read_previous(ws.path(_SIDECAR))
    finished_at = _stages(sidecar)
    try:
        for stage in stages:
            log.info("stage %s", stage)
            manifest["stages"].pop(stage, None)
            if stage in recorded:  # so that no entry lists the files of a stage that fails
                write_json(manifest, ws.path(_MANIFEST))
                recorded = set(manifest["stages"])
            manifest["stages"][stage] = {"artifacts": _run_stage(stage, cfg, ws)}
            finished_at[stage] = _utc_now()
    finally:
        sidecar["stages"] = {stage: finished_at.get(stage) for stage in manifest["stages"]}
        write_json(manifest, ws.path(_MANIFEST))
        write_json(sidecar, ws.path(_SIDECAR))


def _add_common(parser):
    parser.add_argument("--config", required=True, help="campaign configuration file")
    parser.add_argument("--out", default=None, help="output directory (default: [output] directory)")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="replace campaign.master_seed for this run")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every stage is single-threaded "
                             "and its output does not depend on it")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so that they
    print the one JSON object of every failure; the subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="haloscan",
        description="Simulate and analyze a squeezed-receiver cavity dark matter scan.",
    )
    parser.add_argument("--version", action="version", version=f"haloscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, _ in STAGES + (("all", "run every stage in order", ()),):
        _add_common(sub.add_parser(name, help=help_text))
    p = sub.add_parser("run", help="run one named stage")
    _add_common(p)
    p.add_argument("--stage", required=True, choices=STAGE_NAMES + ("all",))
    return parser


# built once, at import: about 1 ms of argparse that each in-process call of
# main() would otherwise pay again
_PARSER = build_parser()


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
    try:
        args = _PARSER.parse_args(argv)
        command = args.stage if args.command == "run" else args.command
        cfg = load_config(args.config, seed_override=args.seed_override)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        out_dir = args.out if args.out is not None else cfg.get("output", "directory")
        ws = Workspace(out_dir)
        os.makedirs(ws.root, exist_ok=True)
        _run_stages(STAGE_NAMES if command == "all" else (command,), cfg, ws)
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
