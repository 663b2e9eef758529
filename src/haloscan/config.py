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

from .axion import AxionHypothesis, LineshapeParams
from .campaign import ANOMALY_TYPES, make_baseline_model, make_tuning_plan
from .errors import ConfigError
from .pipeline import CutCriteria, ProcessSettings
from .receiver import ReceiverParams, thermal_quanta

_NO_DEFAULT = object()

# section -> key -> (parser, default); parser takes the raw string.


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


def _parse_str(text):
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


def _parse_types(text):
    """Space-separated anomaly type names, e.g. 'drift jpa_sag probe'."""
    items = tuple(text.split())
    for t in items:
        if t not in ANOMALY_TYPES:
            raise ValueError(f"unknown anomaly type {t!r}")
    return items


_SCHEMA = {
    "campaign": {
        "lo_hz": (_parse_float, 4.100e9),
        "hi_hz": (_parse_float, 4.178e9),
        "step_hz": (_parse_float, 85e3),
        "skip_windows": (_parse_pairs, ((4.140e9, 4.145e9),)),
        "master_seed": (_parse_int, 20260822),
    },
    "acquisition": {
        "tau_s": (_parse_float, 3600.0),
        "bin_width_hz": (_parse_float, 100.0),
        "n_bins": (_parse_int, 30000),
    },
    "receiver": {
        "kappa_l_hz": (_parse_float, 88.1e3),
        "beta": (_parse_float, 7.1),
        "eta": (_parse_float, 2.0 / 3.0),
        "g_s": (_parse_float, 0.10),
        "n_c0": (_parse_float, 0.41),
        "n_a": (_parse_float, 0.03),
        "gain_db": (_parse_float, 60.0),
        "fridge_temp_k": (_parse_float, 0.061),
        "n_f": (_parse_optional_float, None),
    },
    "calibration": {
        "cal_every": (_parse_int, 9),
        "t_hot_k": (_parse_float, 0.333),
        "t_cold_k": (_parse_float, 0.061),
    },
    "baseline": {
        "n_components_lo": (_parse_int, 3),
        "n_components_hi": (_parse_int, 5),
        "excursion": (_parse_float, 0.30),
        "step_components_max": (_parse_int, 2),
        "step_excursion": (_parse_float, 0.05),
    },
    "anomalies": {
        "rate": (_parse_float, 0.0),
        "types": (_parse_types, ANOMALY_TYPES),
    },
    "injections": {
        "list": (_parse_pairs, ()),
    },
    "sensitivity": {
        "snr_ref": (_parse_float, 1.0),
        "velocity_dispersion_kms": (_parse_float, 270.0),
        "span_bins": (_parse_int, 512),
    },
    "cuts": {
        "drift_hz_max": (_parse_float, 20e3),
        "squeezing_db_min": (_parse_optional_float, None),
        "probe_power_lo": (_parse_float, 0.5),
        "probe_power_hi": (_parse_float, 1.5),
    },
    "filters": {
        "if_window_bins": (_parse_int, 101),
        "if_order": (_parse_int, 4),
        "rf_window_bins": (_parse_int, 1001),
        "rf_order": (_parse_int, 2),
    },
    "rescan": {
        "threshold_sigma": (_parse_float, 3.455),
        "merge_width_bins": (_parse_int, 90),
    },
    "inference": {
        "target": (_parse_float, 0.1),
        "g_lo": (_parse_float, 0.5),
        "g_hi": (_parse_float, 5.0),
        "g_points": (_parse_int, 200),
        "n_windows": (_parse_int, 100),
        "xtol": (_parse_float, 1e-3),
    },
    "output": {
        "directory": (_parse_str, "out"),
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

    def band_center_hz(self):
        return 0.5 * (self.get("campaign", "lo_hz") + self.get("campaign", "hi_hz"))

    def n_f(self):
        override = self.get("receiver", "n_f")
        if override is not None:
            return override
        return float(
            thermal_quanta(self.band_center_hz(), self.get("receiver", "fridge_temp_k"))
        )

    def receiver(self, nu_c_hz=None):
        return ReceiverParams(
            nu_c=self.band_center_hz() if nu_c_hz is None else nu_c_hz,
            kappa_l=self.get("receiver", "kappa_l_hz"),
            beta=self.get("receiver", "beta"),
            n_c0=self.get("receiver", "n_c0"),
            n_f=self.n_f(),
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
        return make_tuning_plan(
            self.get("campaign", "lo_hz"),
            self.get("campaign", "hi_hz"),
            self.get("campaign", "step_hz"),
            self.get("campaign", "skip_windows"),
            beta=self.get("receiver", "beta"),
            master_seed=self.master_seed,
        )

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
        snr_ref = self.get("sensitivity", "snr_ref")
        out = []
        lo = self.get("campaign", "lo_hz")
        hi = self.get("campaign", "hi_hz")
        margin = self.get("sensitivity", "span_bins") * self.get("acquisition", "bin_width_hz")
        half_band = (self.get("acquisition", "n_bins") // 2) * self.get("acquisition", "bin_width_hz")
        for nu, g in self.get("injections", "list"):
            if not (lo - half_band - margin <= nu <= hi + half_band + margin):
                raise ConfigError(
                    f"injections: {nu} Hz lies outside every simulated band"
                )
            out.append(AxionHypothesis(nu_a_hz=nu, g_ksvz=g, snr_ref=snr_ref))
        return tuple(out)

    def cut_criteria(self):
        return CutCriteria(
            drift_hz_max=self.get("cuts", "drift_hz_max"),
            squeezing_db_min=self.get("cuts", "squeezing_db_min"),
            probe_power_lo=self.get("cuts", "probe_power_lo"),
            probe_power_hi=self.get("cuts", "probe_power_hi"),
        )

    def process_settings(self):
        return ProcessSettings(
            if_window_bins=self.get("filters", "if_window_bins"),
            if_order=self.get("filters", "if_order"),
            rf_window_bins=self.get("filters", "rf_window_bins"),
            rf_order=self.get("filters", "rf_order"),
            rescan_threshold_sigma=self.get("rescan", "threshold_sigma"),
            merge_width_bins=self.get("rescan", "merge_width_bins"),
            cuts=self.cut_criteria(),
        )

    def g_grid(self):
        lo = self.get("inference", "g_lo")
        hi = self.get("inference", "g_hi")
        n = self.get("inference", "g_points")
        if not 0 < lo < hi:
            raise ConfigError(f"inference grid needs 0 < g_lo < g_hi, got {lo}, {hi}")
        if n < 2:
            raise ConfigError(f"inference.g_points must be >= 2, got {n}")
        return np.geomspace(lo, hi, n)


def _validate_cross_fields(cfg):
    if cfg.get("campaign", "lo_hz") > cfg.get("campaign", "hi_hz"):
        raise ConfigError("campaign.lo_hz must be <= campaign.hi_hz")
    if cfg.get("acquisition", "tau_s") <= 0:
        raise ConfigError("acquisition.tau_s must be > 0")
    if cfg.get("acquisition", "bin_width_hz") <= 0:
        raise ConfigError("acquisition.bin_width_hz must be > 0")
    if cfg.get("acquisition", "n_bins") < 2:
        raise ConfigError("acquisition.n_bins must be >= 2")
    if not 0 <= cfg.get("anomalies", "rate") <= 1:
        raise ConfigError("anomalies.rate must be in [0, 1]")
    if cfg.get("baseline", "n_components_lo") > cfg.get("baseline", "n_components_hi"):
        raise ConfigError("baseline.n_components_lo must be <= n_components_hi")
    if not 0 < cfg.get("inference", "target") < 1:
        raise ConfigError("inference.target must be in (0, 1)")
    xtol = cfg.get("inference", "xtol")
    if not (np.isfinite(xtol) and xtol > 0):
        raise ConfigError("inference.xtol must be finite and > 0")
    if cfg.get("campaign", "master_seed") < 0:
        raise ConfigError("campaign.master_seed must be >= 0")


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

    resolved = []
    for section, keys in _SCHEMA.items():
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    value = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
            else:
                value = default
            resolved.append((section, key, value))

    if seed_override is not None:
        resolved = [
            (s, k, seed_override if (s, k) == ("campaign", "master_seed") else v)
            for s, k, v in resolved
        ]
    cfg = CampaignConfig(values=tuple(resolved))
    _validate_cross_fields(cfg)
    return cfg


def default_config():
    resolved = [
        (section, key, default)
        for section, keys in _SCHEMA.items()
        for key, (_, default) in keys.items()
    ]
    return CampaignConfig(values=tuple(resolved))
