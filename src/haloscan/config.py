"""Declarative campaign configuration.

Flat INI with fixed sections.  Every key has a documented default,
unknown sections or keys are rejected, and the resolved configuration
(defaults filled in, overrides applied) has a stable canonical text
whose SHA-256 stamps every artifact.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import axion, campaign, inference
from .axion import AxionHypothesis, LineshapeParams
from .campaign import ANOMALY_TYPES, hypothesis_in_band, make_baseline_model, make_tuning_plan
from .errors import ConfigError
from .pipeline import CutCriteria, ProcessSettings
from .receiver import ReceiverParams, delivered_squeezing, thermal_quanta


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text):
    value = _parse_float(text)
    if value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _parse_directory(text):
    if not text.strip():
        raise ValueError("must not be empty")
    return text.strip()


def _parse_optional_float(text):
    text = text.strip()
    if text.lower() in ("", "none", "off"):
        return None
    return _parse_float(text)


def _parse_pairs(text):
    """Space-separated x:y pairs of finite numbers, e.g. '4.140e9:4.145e9'."""
    out = []
    for item in text.split():
        x, sep, y = item.partition(":")
        if not sep:
            raise ValueError(f"expected x:y, got {item!r}")
        out.append((_parse_float(x), _parse_float(y)))
    return tuple(out)


def _bounded(parse, lo, hi=math.inf, open_=False):
    """``parse``, then refuse a value outside [lo, hi], or (lo, hi) if ``open_``."""
    if hi == math.inf:
        domain = f"{'>' if open_ else '>='} {lo}"
    else:
        domain = f"in {'(' if open_ else '['}{lo}, {hi}{')' if open_ else ']'}"

    def parse_bounded(text):
        value = parse(text)
        if not (lo < value < hi if open_ else lo <= value <= hi):
            raise ValueError(f"must be {domain}, got {value!r}")
        return value

    return parse_bounded


def _parse_types(text):
    """Space-separated anomaly type names, e.g. 'drift jpa_sag probe'."""
    items = tuple(text.split())
    for t in items:
        if t not in ANOMALY_TYPES:
            raise ValueError(f"unknown anomaly type {t!r}")
    return items


# section -> key -> (parser, default), a default the library has read from it.
# The parser refuses a value outside the key's own domain; rules that join
# keys, or that a builder's constructor owns, are in _validate_cross_fields.
_SCHEMA = {
    "campaign": {
        "lo_hz": (_bounded(_parse_float, 0, open_=True), 4.100e9),
        "hi_hz": (_parse_float, 4.178e9),
        "step_hz": (_parse_float, 85e3),
        "skip_windows": (_parse_pairs, ((4.140e9, 4.145e9),)),
        "master_seed": (_bounded(_parse_int, 0), 20260822),
    },
    "acquisition": {
        "tau_s": (_bounded(_parse_float, 0, open_=True), axion.DEFAULT_TAU_S),
        "bin_width_hz": (_bounded(_parse_float, 0, open_=True), LineshapeParams.bin_width_hz),
        "n_bins": (_bounded(_parse_int, 2), campaign.DEFAULT_N_BINS),
    },
    "receiver": {
        "kappa_l_hz": (_parse_float, 88.1e3),
        "beta": (_parse_float, 7.1),
        "eta": (_parse_float, 2.0 / 3.0),
        "g_s": (_parse_float, 0.10),
        "n_c0": (_parse_float, 0.41),
        "n_a": (_parse_float, 0.03),
        "gain_db": (_parse_float, 60.0),
        "fridge_temp_k": (_bounded(_parse_float, 0), 0.061),
        "n_f": (_parse_optional_float, None),
    },
    "calibration": {
        "cal_every": (_bounded(_parse_int, 1), campaign.DEFAULT_CAL_EVERY),
        "t_hot_k": (_parse_float, campaign.DEFAULT_T_HOT_K),
        "t_cold_k": (_bounded(_parse_float, 0), campaign.DEFAULT_T_COLD_K),
    },
    "baseline": {
        "n_components_lo": (_parse_int, campaign.DEFAULT_N_COMPONENTS[0]),
        "n_components_hi": (_parse_int, campaign.DEFAULT_N_COMPONENTS[1]),
        "excursion": (_parse_float, campaign.DEFAULT_EXCURSION),
        "step_components_max": (_parse_int, campaign.BaselineModel.step_components_max),
        "step_excursion": (_parse_float, campaign.BaselineModel.step_excursion),
    },
    "anomalies": {
        "rate": (_bounded(_parse_float, 0, 1), 0.0),
        "types": (_parse_types, ANOMALY_TYPES),
    },
    "injections": {
        "list": (_parse_pairs, ()),
    },
    "sensitivity": {
        "snr_ref": (_bounded(_parse_float, 0, open_=True), AxionHypothesis.snr_ref),
        "velocity_dispersion_kms": (_parse_float, LineshapeParams.velocity_dispersion_kms),
        "span_bins": (_parse_int, LineshapeParams.span_bins),
    },
    "cuts": {
        "drift_hz_max": (_parse_float, CutCriteria.drift_hz_max),
        "squeezing_db_min": (_parse_optional_float, CutCriteria.squeezing_db_min),
        "probe_power_lo": (_parse_float, CutCriteria.probe_power_lo),
        "probe_power_hi": (_parse_float, CutCriteria.probe_power_hi),
    },
    "filters": {
        "if_window_bins": (_parse_int, ProcessSettings.if_window_bins),
        "if_order": (_parse_int, ProcessSettings.if_order),
        "rf_window_bins": (_parse_int, ProcessSettings.rf_window_bins),
        "rf_order": (_parse_int, ProcessSettings.rf_order),
    },
    "rescan": {
        "threshold_sigma": (_parse_float, ProcessSettings.rescan_threshold_sigma),
        "merge_width_bins": (_parse_int, ProcessSettings.merge_width_bins),
    },
    "inference": {
        "target": (_bounded(_parse_float, 0, 1, open_=True), inference.DEFAULT_TARGET),
        "g_lo": (_parse_float, inference.DEFAULT_G_GRID[0]),
        "g_hi": (_parse_float, inference.DEFAULT_G_GRID[1]),
        "g_points": (_bounded(_parse_int, 2), inference.DEFAULT_G_GRID[2]),
        "n_windows": (_bounded(_parse_int, 1), inference.DEFAULT_N_WINDOWS),
        "xtol": (_bounded(_parse_float, 0, open_=True), inference.DEFAULT_XTOL),
    },
    "output": {
        "directory": (_parse_directory, "out"),
    },
}


def _canonical(value):
    if isinstance(value, tuple):
        return "[" + " ".join(_canonical(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class CampaignConfig:
    """Resolved configuration; access values via get(section, key)."""

    values: tuple  # (section, key, value) in schema order; the hash depends on it

    def get(self, section, key):
        for s, k, v in self.values:
            if s == section and k == key:
                return v
        raise KeyError(f"{section}.{key}")

    # -- provenance -------------------------------------------------

    def canonical_text(self):
        lines = []
        current = None
        for section, key, value in self.values:
            if section != current:
                lines.append(f"[{section}]")
                current = section
            lines.append(f"{key} = {_canonical(value)}")
        return "\n".join(lines) + "\n"

    def hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    @property
    def master_seed(self):
        return self.get("campaign", "master_seed")

    # -- domain object builders ------------------------------------

    def receiver(self):
        """The receiver at the band center; n_f defaults to the fridge's thermal quanta."""
        nu_c = 0.5 * (self.get("campaign", "lo_hz") + self.get("campaign", "hi_hz"))
        n_f = self.get("receiver", "n_f")
        if n_f is None:
            n_f = float(thermal_quanta(nu_c, self.get("receiver", "fridge_temp_k")))
        return ReceiverParams(
            nu_c=nu_c,
            kappa_l=self.get("receiver", "kappa_l_hz"),
            beta=self.get("receiver", "beta"),
            n_c0=self.get("receiver", "n_c0"),
            n_f=n_f,
            eta=self.get("receiver", "eta"),
            g_s=self.get("receiver", "g_s"),
            n_a=self.get("receiver", "n_a"),
            g_a_db=self.get("receiver", "gain_db"),
        )

    def lineshape(self):
        return LineshapeParams(
            velocity_dispersion_kms=self.get("sensitivity", "velocity_dispersion_kms"),
            bin_width_hz=self.get("acquisition", "bin_width_hz"),
            span_bins=self.get("sensitivity", "span_bins"),
        )

    def tuning_plan(self):
        plan = make_tuning_plan(
            self.get("campaign", "lo_hz"),
            self.get("campaign", "hi_hz"),
            self.get("campaign", "step_hz"),
            self.get("campaign", "skip_windows"),
            master_seed=self.master_seed,
        )
        if plan.n_steps == 0:
            raise ConfigError("the skip windows leave no tuning step; nothing to simulate")
        return plan

    def baseline_model(self):
        return make_baseline_model(
            self.master_seed,
            n_components=(
                self.get("baseline", "n_components_lo"),
                self.get("baseline", "n_components_hi"),
            ),
            excursion=self.get("baseline", "excursion"),
            step_components_max=self.get("baseline", "step_components_max"),
            step_excursion=self.get("baseline", "step_excursion"),
        )

    def hypotheses(self):
        """The injections, each refused unless some tuning step's band holds it."""
        snr_ref = self.get("sensitivity", "snr_ref")
        injections = self.get("injections", "list")
        steps = self.tuning_plan().steps if injections else ()
        grid = {
            "bin_width_hz": self.get("acquisition", "bin_width_hz"),
            "n_bins": self.get("acquisition", "n_bins"),
            "lineshape": self.lineshape(),
        }
        out = []
        for nu, g in injections:
            hyp = AxionHypothesis(nu_a_hz=nu, g_ksvz=g, snr_ref=snr_ref)
            if not any(hypothesis_in_band(step, hyp, **grid) for step in steps):
                raise ConfigError(f"injection at {nu} Hz lies outside every tuning step's band")
            out.append(hyp)
        return tuple(out)

    def process_settings(self):
        return ProcessSettings(
            if_window_bins=self.get("filters", "if_window_bins"),
            if_order=self.get("filters", "if_order"),
            rf_window_bins=self.get("filters", "rf_window_bins"),
            rf_order=self.get("filters", "rf_order"),
            rescan_threshold_sigma=self.get("rescan", "threshold_sigma"),
            merge_width_bins=self.get("rescan", "merge_width_bins"),
            cuts=CutCriteria(
                drift_hz_max=self.get("cuts", "drift_hz_max"),
                squeezing_db_min=self.get("cuts", "squeezing_db_min"),
                probe_power_lo=self.get("cuts", "probe_power_lo"),
                probe_power_hi=self.get("cuts", "probe_power_hi"),
            ),
        )

    def g_grid(self):
        lo = self.get("inference", "g_lo")
        hi = self.get("inference", "g_hi")
        if not 0 < lo < hi:
            raise ConfigError(f"coupling grid needs 0 < g_lo < g_hi, got {lo}, {hi}")
        return np.geomspace(lo, hi, self.get("inference", "g_points"))


# Each builder with the sections it reads.  Loading builds each once, so a
# value its constructor refuses stops the run before any stage writes.
_BUILDERS = (
    ("campaign", CampaignConfig.tuning_plan),
    ("campaign, receiver", CampaignConfig.receiver),
    ("acquisition, sensitivity", CampaignConfig.lineshape),
    ("campaign, baseline", CampaignConfig.baseline_model),
    ("campaign, acquisition, injections, sensitivity", CampaignConfig.hypotheses),
    ("cuts, filters, rescan", CampaignConfig.process_settings),
    ("inference", CampaignConfig.g_grid),
)


def _validate_cross_fields(cfg):
    """Rules that join two keys, then the builders' own checks."""
    lo, hi = cfg.get("campaign", "lo_hz"), cfg.get("campaign", "hi_hz")
    if not hi > lo:
        raise ConfigError(f"campaign.hi_hz must be > lo_hz, got {hi!r} <= {lo!r}")
    if cfg.get("baseline", "n_components_lo") > cfg.get("baseline", "n_components_hi"):
        raise ConfigError("baseline.n_components_lo must be <= n_components_hi")
    t_hot, t_cold = cfg.get("calibration", "t_hot_k"), cfg.get("calibration", "t_cold_k")
    if not t_hot > t_cold:
        raise ConfigError(f"calibration.t_hot_k must be > t_cold_k, got {t_hot!r} <= {t_cold!r}")
    n_bins = cfg.get("acquisition", "n_bins")
    for key in ("if_window_bins", "rf_window_bins"):
        window = cfg.get("filters", key)
        if window >= n_bins:
            raise ConfigError(f"filters.{key} must be < acquisition.n_bins, got {window} >= {n_bins}")
    for sections, build in _BUILDERS:
        try:
            build(cfg)
        except ConfigError as exc:
            raise ConfigError(f"[{sections}] {exc}") from exc
    # After receiver(), which refuses eta or g_s out of its own range.
    eta, g_s = cfg.get("receiver", "eta"), cfg.get("receiver", "g_s")
    if not delivered_squeezing(eta, g_s) > 0:
        raise ConfigError(
            f"receiver delivered squeezing eta * g_s + 1 - eta must be > 0, "
            f"got eta = {eta!r}, g_s = {g_s!r}"
        )


def load_config(path, *, seed_override=None):
    """Parse, validate against the schema, fill defaults, apply overrides."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    if seed_override is not None:
        parser.read_dict({"campaign": {"master_seed": str(seed_override)}})

    resolved = []
    for section, keys in _SCHEMA.items():
        for key, (parse, default) in keys.items():
            value = default
            if parser.has_option(section, key):
                try:
                    value = parse(parser.get(section, key))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
            resolved.append((section, key, value))

    cfg = CampaignConfig(values=tuple(resolved))
    _validate_cross_fields(cfg)
    return cfg
