"""Configuration resolution, provenance hashing, and the CLI driver."""

import configparser
import hashlib
import inspect
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from haloscan.axion import LineshapeParams, mass_uev
from haloscan.campaign import make_baseline_model, simulate_campaign
from haloscan.cli import main
from haloscan.config import _SCHEMA, load_config
from haloscan.errors import ConfigError, NumericError
from haloscan.inference import default_g_grid, run_exclusion
from haloscan.pipeline import (
    ProcessSettings, process_campaign, read_grand_spectrum, write_grand_spectrum,
)
from haloscan.receiver import thermal_quanta
from haloscan.spectra import read_spectrum, write_spectrum
from conftest import REFERENCE_INI

# Five steps, small band; the tight RF window is required at this band
# size, the production default follows the per-step baseline instead.
SMALL_INI = textwrap.dedent(
    """\
    [campaign]
    lo_hz = 4.1400e9
    hi_hz = 4.140360e9
    step_hz = 85e3
    skip_windows =
    master_seed = 4242

    [acquisition]
    tau_s = 600
    bin_width_hz = 100
    n_bins = 4000

    [calibration]
    cal_every = 2

    [filters]
    rf_window_bins = 301
    rf_order = 4
    """
)
# The first three of SMALL_INI's steps.
THREE_STEP_INI = SMALL_INI.replace("hi_hz = 4.140360e9", "hi_hz = 4.140170e9")


def write_ini(path, text):
    path.write_text(text)
    return str(path)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def defaults(tmp_path_factory):
    """The configuration an empty INI resolves to."""
    return load_config(write_ini(tmp_path_factory.mktemp("cfg") / "empty.ini", ""))


# -- configuration --------------------------------------------------


class TestConfigResolution:
    def test_empty_file_fills_defaults(self, defaults):
        assert defaults.values == tuple(
            (section, key, default)
            for section, keys in _SCHEMA.items()
            for key, (_, default) in keys.items()
        )

    def test_default_values(self, defaults):
        cfg = defaults
        assert cfg.master_seed == 20260822
        assert cfg.get("acquisition", "n_bins") == 30000
        assert cfg.get("receiver", "beta") == 7.1
        assert cfg.get("filters", "rf_window_bins") == 1001
        assert cfg.get("filters", "rf_order") == 2
        assert cfg.get("rescan", "threshold_sigma") == 3.455
        assert cfg.get("inference", "target") == 0.1

    def test_overrides_apply(self, tmp_path):
        cfg = load_config(
            write_ini(tmp_path / "o.ini", "[receiver]\nbeta = 2.8\n")
        )
        assert cfg.get("receiver", "beta") == 2.8
        assert cfg.get("receiver", "g_s") == 0.10

    def test_anomaly_types_space_separated(self, tmp_path):
        # the README documents the key in this form
        cfg = load_config(
            write_ini(tmp_path / "t.ini", "[anomalies]\ntypes = drift jpa_sag probe\n")
        )
        assert cfg.get("anomalies", "types") == ("drift", "jpa_sag", "probe")

    def test_unknown_section_rejected(self, tmp_path):
        path = write_ini(tmp_path / "s.ini", "[reciever]\nbeta = 2\n")
        with pytest.raises(ConfigError, match="reciever"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_ini(tmp_path / "k.ini", "[receiver]\nbetaa = 2\n")
        with pytest.raises(ConfigError, match="betaa"):
            load_config(path)

    def test_bad_values_rejected(self, tmp_path):
        path = write_ini(tmp_path / "v.ini", "[receiver]\nbeta = fast\n")
        with pytest.raises(ConfigError, match="receiver.beta"):
            load_config(path)
        path = write_ini(tmp_path / "i.ini", "[acquisition]\nn_bins = 12.5\n")
        with pytest.raises(ConfigError, match="n_bins"):
            load_config(path)
        path = write_ini(
            tmp_path / "a.ini", "[anomalies]\ntypes = gremlins\n"
        )
        with pytest.raises(ConfigError, match="gremlins"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))

    def test_malformed_ini_rejected(self, tmp_path):
        path = write_ini(tmp_path / "m.ini", "beta = 2 with no section\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    @pytest.mark.parametrize(
        "body",
        [
            "[campaign]\nlo_hz = 4.2e9\nhi_hz = 4.1e9\n",
            "[acquisition]\ntau_s = -1\n",
            "[acquisition]\nn_bins = 1\n",
            "[anomalies]\nrate = 1.5\n",
            "[baseline]\nn_components_lo = 9\nn_components_hi = 3\n",
            "[inference]\ntarget = 1.0\n",
            "[campaign]\nstep_hz = nan\n",
            "[acquisition]\ntau_s = nan\n",
            "[acquisition]\ntau_s = inf\n",
            "[acquisition]\nn_bins = inf\n",
            "[rescan]\nthreshold_sigma = nan\n",
            "[cuts]\ndrift_hz_max = nan\n",
            "[cuts]\nsqueezing_db_min = -inf\n",
            "[campaign]\nskip_windows = nan:nan\n",
            "[campaign]\nskip_windows = 4.14e9:inf\n",
            "[injections]\nlist = nan:1.0\n",
            "[injections]\nlist = 4.152e9:1.0:2.0\n",
        ],
    )
    def test_cross_field_validation(self, tmp_path, body):
        path = write_ini(tmp_path / "x.ini", body)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_get_unknown_key_raises(self, defaults):
        with pytest.raises(KeyError):
            defaults.get("receiver", "nope")


class TestConfigHash:
    def test_hash_ignores_formatting(self, tmp_path):
        a = load_config(
            write_ini(
                tmp_path / "a.ini",
                "[receiver]\nbeta = 2.8\n[acquisition]\ntau_s = 60\n",
            )
        )
        b = load_config(
            write_ini(
                tmp_path / "b.ini",
                "; comment\n[acquisition]\ntau_s   =   60\n\n[receiver]\nbeta=2.8\n",
            )
        )
        assert a.hash() == b.hash()
        assert len(a.hash()) == 64
        assert set(a.hash()) <= set("0123456789abcdef")

    def test_hash_tracks_values(self, tmp_path):
        base = load_config(write_ini(tmp_path / "c.ini", ""))
        changed = load_config(
            write_ini(tmp_path / "d.ini", "[receiver]\nbeta = 2.8\n")
        )
        assert base.hash() != changed.hash()

    def test_seed_override(self, tmp_path):
        path = write_ini(tmp_path / "e.ini", SMALL_INI)
        base = load_config(path)
        overridden = load_config(path, seed_override=777)
        assert overridden.master_seed == 777
        assert overridden.hash() != base.hash()
        explicit = load_config(
            write_ini(
                tmp_path / "f.ini",
                SMALL_INI.replace("master_seed = 4242", "master_seed = 777"),
            )
        )
        assert overridden.hash() == explicit.hash()

    def test_canonical_text_stable(self, tmp_path):
        path = write_ini(tmp_path / "empty.ini", "")
        text = load_config(path).canonical_text()
        assert text == load_config(path).canonical_text()
        assert text.startswith("[campaign]\n")
        assert "rf_window_bins = 1001" in text

    def test_readme_defaults_match_schema(self, tmp_path, defaults):
        """The README's block of keys and defaults, comments stripped, is
        the configuration an empty INI resolves to."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
        path = write_ini(tmp_path / "readme.ini", "\n".join(l for l in lines if l) + "\n")
        assert load_config(path).canonical_text() == defaults.canonical_text()


class TestBuilders:
    def test_receiver_sits_at_band_center(self, defaults):
        receiver = defaults.receiver()
        assert receiver.nu_c == 0.5 * (4.100e9 + 4.178e9)
        assert receiver.beta == 7.1
        assert receiver.kappa_l == 88.1e3

    def test_fridge_occupancy_defaults_to_thermal(self, tmp_path, defaults):
        receiver = defaults.receiver()
        assert receiver.n_f == pytest.approx(
            float(thermal_quanta(receiver.nu_c, 0.061)), rel=1e-12
        )
        fixed = load_config(write_ini(tmp_path / "n.ini", "[receiver]\nn_f = 0.3\n"))
        assert fixed.receiver().n_f == 0.3

    def test_injection_wiring(self, tmp_path):
        cfg = load_config(
            write_ini(
                tmp_path / "inj.ini",
                "[injections]\nlist = 4.139e9:1.5\n[sensitivity]\nsnr_ref = 0.8\n",
            )
        )
        (hyp,) = cfg.hypotheses()
        assert hyp.nu_a_hz == 4.139e9
        assert hyp.g_ksvz == 1.5
        assert hyp.snr_ref == 0.8

    def test_unreachable_injection_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            load_config(write_ini(tmp_path / "far.ini", "[injections]\nlist = 1.0e9:1.0\n"))

    def test_coupling_grid_validation(self, tmp_path):
        """A bad coupling grid is refused when the config loads."""
        with pytest.raises(ConfigError, match="g_lo < g_hi"):
            load_config(write_ini(tmp_path / "g.ini", "[inference]\ng_lo = 2.0\ng_hi = 1.0\n"))
        with pytest.raises(ConfigError, match="g_points"):
            load_config(write_ini(tmp_path / "p.ini", "[inference]\ng_points = 1\n"))

    def test_process_settings_wiring(self, tmp_path):
        cfg = load_config(write_ini(tmp_path / "w.ini", SMALL_INI))
        settings = cfg.process_settings()
        assert settings.rf_window_bins == 301
        assert settings.rf_order == 4
        assert settings.rescan_threshold_sigma == 3.455
        assert settings.cuts.drift_hz_max == 20e3

    def test_empty_ini_builds_library_defaults(self, defaults):
        """The schema reads its defaults from the library, so an empty INI
        builds what a library call that leaves every keyword out uses."""
        assert defaults.process_settings() == ProcessSettings()
        assert defaults.lineshape() == LineshapeParams()
        assert defaults.baseline_model() == make_baseline_model(defaults.master_seed)
        simulate = keyword_defaults(simulate_campaign)
        for keyword, (section, key) in {
            "tau_s": ("acquisition", "tau_s"),
            "bin_width_hz": ("acquisition", "bin_width_hz"),
            "n_bins": ("acquisition", "n_bins"),
            "anomaly_rate": ("anomalies", "rate"),
            "anomaly_types": ("anomalies", "types"),
            "cal_every": ("calibration", "cal_every"),
            "t_hot_k": ("calibration", "t_hot_k"),
            "t_cold_k": ("calibration", "t_cold_k"),
        }.items():
            assert defaults.get(section, key) == simulate[keyword], keyword
        snr_ref = keyword_defaults(process_campaign)["snr_ref"]
        assert defaults.get("sensitivity", "snr_ref") == snr_ref
        exclusion = keyword_defaults(run_exclusion)
        for key in ("target", "n_windows", "xtol"):
            assert defaults.get("inference", key) == exclusion[key], key
        np.testing.assert_array_equal(defaults.g_grid(), default_g_grid())


def keyword_defaults(function):
    """Parameter name -> default of a library function."""
    return {name: p.default for name, p in inspect.signature(function).parameters.items()}


def test_readme_library_example_runs(monkeypatch, capsys):
    """The README's "Library use" block, run as written from the repository
    root, reaches a finite exclusion on configs/ensemble.ini."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert 'load_config("configs/ensemble.ini"' in block
    monkeypatch.chdir(root)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    g_star = namespace["excl"].g_star
    assert g_star is not None and math.isfinite(g_star)
    assert capsys.readouterr().out == f"{g_star}\n"


# -- command line ---------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One full pipeline run shared by the artifact checks."""
    root = tmp_path_factory.mktemp("cliws")
    ini = write_ini(root / "small.ini", SMALL_INI)
    out = root / "out_all"
    assert run_cli("all", "--config", ini, "--out", out) == 0
    return ini, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def artifact_digests(root):
    """sha256 of every file under ``root`` except the sidecar."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "sidecar.json"
    }


class TestPipelineViaCli:
    def test_simulate_artifacts(self, cli_run):
        _, out = cli_run
        specs = sorted(os.listdir(out / "spectra"))
        assert specs == [f"step_{i:05d}.spec" for i in range(5)]
        spectrum = read_spectrum(out / "spectra" / "step_00000.spec")
        assert spectrum.psd.size == 4000
        assert spectrum.bin_width_hz == 100.0
        calsets = sorted(os.listdir(out / "calibration"))
        assert calsets == ["step_00000", "step_00002", "step_00004"]

    def test_manifest_provenance(self, cli_run):
        ini, out = cli_run
        manifest = read_json(out / "manifest.json")
        assert manifest["format"] == "haloscan-manifest"
        assert manifest["version"] == 1
        assert manifest["config_hash"] == load_config(ini).hash()
        assert manifest["master_seed"] == 4242
        assert set(manifest["stages"]) == {
            "simulate", "calibrate", "process", "exclude", "budget", "enhancement",
        }
        for stage in manifest["stages"].values():
            assert stage["artifacts"] == sorted(stage["artifacts"])
            assert all(not os.path.isabs(a) for a in stage["artifacts"])

    def test_sidecar_holds_timestamps(self, cli_run):
        _, out = cli_run
        sidecar = read_json(out / "sidecar.json")
        assert set(sidecar["stages"]) == {
            "simulate", "calibrate", "process", "exclude", "budget", "enhancement",
        }
        for stamp in sidecar["stages"].values():
            assert "T" in stamp and "+00:00" in stamp

    def test_critical_coupling_runs_end_to_end(self, tmp_path):
        """beta = 1 puts a bin with zero reflectance on resonance; calibrate
        still fits a finite squeezing there and process accepts it."""
        ini = write_ini(tmp_path / "critical.ini", SMALL_INI + "\n[receiver]\nbeta = 1.0\n")
        out = tmp_path / "out"
        assert run_cli("all", "--config", ini, "--out", out) == 0
        delivered = load_config(ini).receiver().delivered
        for result in read_json(out / "calibration_results.json")["results"]:
            assert result["s_hat"] == pytest.approx(delivered, abs=2e-3)

    def test_calibration_results(self, cli_run):
        _, out = cli_run
        payload = read_json(out / "calibration_results.json")
        assert payload["format"] == "haloscan-calibration"
        assert [r["step_id"] for r in payload["results"]] == [0, 2, 4]

    def test_artifacts_carry_provenance(self, cli_run):
        ini, out = cli_run
        stamp = {"config_hash": load_config(ini).hash(), "master_seed": 4242}
        spectra = [
            out / "spectra" / "step_00004.spec",
            out / "calibration" / "step_00002" / "hot.spec",
            *sorted((out / "rescans" / "spectra").iterdir()),
        ]
        for path in spectra:
            meta = read_spectrum(path).metadata
            assert {k: meta[k] for k in stamp} == stamp
        for path in (out / "grand_spectrum.dat", out / "rescans" / "grand_spectrum.dat"):
            assert read_grand_spectrum(path).metadata == stamp
        assert read_json(out / "calibration_results.json")["metadata"] == stamp

    def test_process_artifacts(self, cli_run):
        _, out = cli_run
        grand = read_grand_spectrum(out / "grand_spectrum.dat")
        assert grand.valid.sum() > 3000
        assert abs(float(grand.x[grand.valid].mean())) < 0.1
        report = read_json(out / "filter_report.json")
        assert 0.0 < report["t_signal"] < 1.0
        assert report["rf_window_bins"] == 301
        cut_log = read_json(out / "cut_log.json")
        assert cut_log["n_kept"] + cut_log["n_cut"] == 5
        assert "candidates" in read_json(out / "rescan_candidates.json")

    def test_exclusion_artifacts(self, cli_run):
        ini, out = cli_run
        payload = read_json(out / "exclusion" / "exclusion.json")
        assert payload["metadata"]["config_hash"] == load_config(ini).hash()
        assert payload["metadata"]["master_seed"] == 4242
        assert payload["n_bins"] > 3000
        curve = (out / "exclusion" / "exclusion_curve.csv").read_text().splitlines()
        assert len(curve) == 201
        assert (out / "exclusion" / "window_contours.csv").exists()
        assert (out / "exclusion" / "window_surface.csv").exists()

    def test_unbracketed_target_writes_null_g_star(self, cli_run, tmp_path, caplog):
        """A coupling grid that never reaches the target is a result, not an
        error: g_star is null, every window contour is empty, and a warning says so."""
        _, out_all = cli_run
        out = tmp_path / "low"
        shutil.copytree(out_all, out)
        low = write_ini(tmp_path / "low.ini",
                        SMALL_INI + "\n[inference]\ng_lo = 0.5\ng_hi = 0.6\ng_points = 5\n")
        with caplog.at_level(logging.WARNING, logger="haloscan"):
            assert run_cli("exclude", "--config", low, "--out", out) == 0
        assert read_json(out / "exclusion" / "exclusion.json")["g_star"] is None
        rows = (out / "exclusion" / "window_contours.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)
        assert "not bracketed" in caplog.text

    def test_exclusion_states_mass_window(self, cli_run):
        """The band and skip windows as axion masses h nu / e, ueV/c^2."""
        _, out = cli_run
        metadata = read_json(out / "exclusion" / "exclusion.json")["metadata"]
        assert metadata["mass_window_uev"] == [mass_uev(4.1400e9), mass_uev(4.140360e9)]
        assert metadata["skipped_mass_windows_uev"] == []

    def test_default_band_is_the_papers_mass_window(self, tmp_path):
        """16.956-17.279 ueV/c^2 with 17.122-17.142 skipped: the abstract's
        16.96-17.12 and 17.14-17.28 ueV/c^2."""
        cfg = load_config(write_ini(tmp_path / "empty.ini", ""))
        band = [cfg.get("campaign", "lo_hz"), cfg.get("campaign", "hi_hz")]
        assert [round(mass_uev(nu), 3) for nu in band] == [16.956, 17.279]
        skipped = [[round(mass_uev(nu), 3) for nu in w] for w in cfg.get("campaign", "skip_windows")]
        assert skipped == [[17.122, 17.142]]

    def test_budget_tables(self, cli_run):
        _, out = cli_run
        for name in ("budget.csv", "budget_unsqueezed.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "delta_hz,N_c,N_r,N_A,S_ax,alpha"
            assert len(lines) == 3002
            row = [float(v) for v in lines[1].split(",")]
            assert len(row) == 6

    def test_enhancement_report(self, cli_run):
        ini, out = cli_run
        report = read_json(out / "enhancement.json")
        assert report["rate_ratio"] > 1.0
        assert report["beta_squeezed"] > report["beta_unsqueezed"]
        assert report["config_hash"] == load_config(ini).hash()


class TestDeterminismAndStages:
    def test_rerun_is_byte_identical(self, cli_run, tmp_path):
        ini, out_all = cli_run
        out = tmp_path / "again"
        assert run_cli("simulate", "--config", ini, "--out", out) == 0
        for i in range(5):
            name = f"step_{i:05d}.spec"
            assert (out / "spectra" / name).read_bytes() == (
                out_all / "spectra" / name
            ).read_bytes()

    def test_simulate_writes_what_the_whole_campaign_draws(self, cli_run, tmp_path):
        # simulate writes step by step; the bytes are those of one
        # simulate_campaign over the whole plan, stamped and written
        ini, out_all = cli_run
        cfg = load_config(ini)
        spectra, calsets = simulate_campaign(
            cfg.tuning_plan(), cfg.receiver(), cfg.baseline_model(),
            hypotheses=cfg.hypotheses(), lineshape=cfg.lineshape(),
            tau_s=cfg.get("acquisition", "tau_s"),
            bin_width_hz=cfg.get("acquisition", "bin_width_hz"),
            n_bins=cfg.get("acquisition", "n_bins"),
            anomaly_rate=cfg.get("anomalies", "rate"),
            anomaly_types=cfg.get("anomalies", "types"),
            cal_every=cfg.get("calibration", "cal_every"),
            t_hot_k=cfg.get("calibration", "t_hot_k"),
            t_cold_k=cfg.get("calibration", "t_cold_k"),
        )
        expected = {f"spectra/step_{s.step_id:05d}.spec": s for s in spectra}
        for calset in calsets:
            for role, s in calset.spectra().items():
                expected[f"calibration/step_{calset.step_id:05d}/{role}.spec"] = s
        written = [*out_all.glob("spectra/*.spec"), *out_all.glob("calibration/*/*.spec")]
        assert sorted(str(p.relative_to(out_all)) for p in written) == sorted(expected)
        stamp = {"config_hash": cfg.hash(), "master_seed": cfg.master_seed}
        for rel, spectrum in expected.items():
            spectrum.metadata.update(stamp)
            write_spectrum(spectrum, tmp_path / "one.spec")
            assert (tmp_path / "one.spec").read_bytes() == (out_all / rel).read_bytes(), rel

    def test_threads_do_not_change_artifacts(self, cli_run, tmp_path):
        ini, out_all = cli_run
        out = tmp_path / "mt"
        assert run_cli("all", "--config", ini, "--out", out, "--threads", "3") == 0
        digests = artifact_digests(out)
        assert "grand_spectrum.dat" in digests
        assert digests == artifact_digests(out_all)

    def test_seed_override_changes_artifacts(self, cli_run, tmp_path):
        ini, out_all = cli_run
        out = tmp_path / "seeded"
        assert run_cli(
            "simulate", "--config", ini, "--out", out, "--seed-override", "777"
        ) == 0
        assert (out / "spectra" / "step_00000.spec").read_bytes() != (
            out_all / "spectra" / "step_00000.spec"
        ).read_bytes()
        manifest = read_json(out / "manifest.json")
        assert manifest["master_seed"] == 777
        assert manifest["config_hash"] != read_json(out_all / "manifest.json")[
            "config_hash"
        ]

    def test_stages_rerun_from_persisted_artifacts(self, cli_run, tmp_path):
        ini, out_all = cli_run
        out = tmp_path / "resume"
        shutil.copytree(out_all, out)
        os.remove(out / "calibration_results.json")
        os.remove(out / "grand_spectrum.dat")
        shutil.rmtree(out / "exclusion")
        for stage in ("calibrate", "process", "exclude"):
            assert run_cli(stage, "--config", ini, "--out", out) == 0
        assert (out / "grand_spectrum.dat").read_bytes() == (
            out_all / "grand_spectrum.dat"
        ).read_bytes()
        assert read_json(out / "exclusion" / "exclusion.json") == read_json(
            out_all / "exclusion" / "exclusion.json"
        )

    def test_process_drops_stale_followup(self, cli_run, tmp_path):
        # a re-run that flags no candidates must not leave the earlier
        # run's rescan grand spectrum for exclude to fold in
        _, out_all = cli_run
        out = tmp_path / "stale"
        shutil.copytree(out_all, out)
        assert (out / "rescans" / "grand_spectrum.dat").exists()
        ini = write_ini(tmp_path / "quiet.ini", SMALL_INI + "[rescan]\nthreshold_sigma = 50\n")
        for stage in ("process", "exclude"):
            assert run_cli(stage, "--config", ini, "--out", out) == 0
        assert read_json(out / "rescan_candidates.json")["candidates"] == []
        assert not (out / "rescans").exists()
        assert read_json(out / "exclusion" / "exclusion.json")["metadata"]["n_followups"] == 0

    def test_resimulated_smaller_plan_leaves_no_stale_steps(self, cli_run, tmp_path):
        # simulate deletes the larger plan's spectra and calibration sets,
        # so the later stages see the smaller plan only
        _, out_all = cli_run
        ini = write_ini(tmp_path / "three.ini", THREE_STEP_INI)
        out = tmp_path / "shrunk"
        shutil.copytree(out_all, out)
        for stage in ("simulate", "calibrate", "process", "exclude"):
            assert run_cli(stage, "--config", ini, "--out", out) == 0
        fresh = tmp_path / "fresh"
        assert run_cli("all", "--config", ini, "--out", fresh) == 0
        assert read_json(fresh / "cut_log.json")["kept_ids"] == [0, 1, 2]
        for rel in ("cut_log.json", "exclusion/exclusion.json"):
            assert read_json(out / rel) == read_json(fresh / rel), rel

    def test_failed_stage_leaves_no_manifest_entry(self, cli_run, tmp_path, capsys):
        ini, out_all = cli_run
        out = tmp_path / "broken"
        shutil.copytree(out_all, out)
        (out / "calibration_results.json").write_text("{not json")
        assert run_cli("process", "--config", ini, "--out", out) == 4
        assert stderr_payload(capsys)["error"] == "DataError"
        manifest = read_json(out / "manifest.json")
        assert "process" not in manifest["stages"]
        assert set(read_json(out / "sidecar.json")["stages"]) == set(manifest["stages"])
        assert not (out / "grand_spectrum.dat").exists()

    def test_stages_before_a_failure_are_recorded(self, tmp_path, capsys, monkeypatch):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)

        def explode(cfg, ws):
            raise NumericError("no grand spectrum today")

        monkeypatch.setattr("haloscan.cli.stage_process", explode)
        out = tmp_path / "o"
        assert run_cli("all", "--config", ini, "--out", out) == 3
        assert stderr_payload(capsys)["exit_code"] == 3
        assert set(read_json(out / "manifest.json")["stages"]) == {"simulate", "calibrate"}
        assert set(read_json(out / "sidecar.json")["stages"]) == {"simulate", "calibrate"}

    def test_manifest_lists_every_artifact_once(self, cli_run):
        _, out = cli_run
        listed = [
            rel
            for stage in read_json(out / "manifest.json")["stages"].values()
            for rel in stage["artifacts"]
        ]
        on_disk = {
            str(path.relative_to(out)) for path in out.rglob("*") if path.is_file()
        } - {"manifest.json", "sidecar.json"}
        assert len(listed) == len(set(listed))
        assert set(listed) == on_disk

    def test_run_subcommand_maps_to_stage(self, cli_run, tmp_path):
        ini, _ = cli_run
        out = tmp_path / "runcmd"
        assert run_cli(
            "run", "--config", ini, "--out", out, "--stage", "budget"
        ) == 0
        assert (out / "budget.csv").exists()

    def test_manifest_resets_when_config_changes(self, cli_run, tmp_path):
        ini, _ = cli_run
        out = tmp_path / "reset"
        assert run_cli("budget", "--config", ini, "--out", out) == 0
        assert set(read_json(out / "manifest.json")["stages"]) == {"budget"}
        assert run_cli(
            "enhancement", "--config", ini, "--out", out, "--seed-override", "999"
        ) == 0
        manifest = read_json(out / "manifest.json")
        assert set(manifest["stages"]) == {"enhancement"}
        assert manifest["master_seed"] == 999
        assert set(read_json(out / "sidecar.json")["stages"]) == {"enhancement"}

    @pytest.mark.parametrize("name", ["manifest.json", "sidecar.json"])
    @pytest.mark.parametrize("text", ["[]", '"x"', '{"stages": []}'])
    def test_non_object_record_is_replaced(self, tmp_path, name, text):
        # valid JSON that is not a manifest or sidecar counts as no record
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_text(text)
        assert run_cli("budget", "--config", ini, "--out", out) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["format"] == "haloscan-manifest"
        assert manifest["config_hash"] == load_config(ini).hash()
        assert manifest["stages"] == {
            "budget": {"artifacts": ["budget.csv", "budget_unsqueezed.csv"]}
        }
        assert set(read_json(out / "sidecar.json")["stages"]) == {"budget"}


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


# Values outside each key's domain, as set on SMALL_INI.  Every other key
# of the schema is listed in EXEMPT_KEYS: its parser accepts any value.
BAD_VALUES = {
    ("campaign", "lo_hz"): ["-1"],
    ("campaign", "hi_hz"): ["4.0e9", "4.1400e9"],  # 4.1400e9 is lo_hz: a one-point band
    ("campaign", "step_hz"): ["0"],
    # the second skip window leaves no tuning step
    ("campaign", "skip_windows"): ["4.15e9:4.14e9", "4.139e9:4.141e9"],
    ("campaign", "master_seed"): ["-1"],
    ("acquisition", "tau_s"): ["0"],
    ("acquisition", "bin_width_hz"): ["0"],
    ("acquisition", "n_bins"): ["1", "200"],  # 200 is below rf_window_bins = 301
    ("receiver", "kappa_l_hz"): ["-5"],
    ("receiver", "beta"): ["0"],
    ("receiver", "eta"): ["1.5"],
    ("receiver", "g_s"): ["-1"],
    ("receiver", "n_c0"): ["0.1"],
    ("receiver", "n_a"): ["-1"],
    ("receiver", "fridge_temp_k"): ["-1"],
    ("receiver", "n_f"): ["0.1"],
    ("receiver", "gain_db"): ["3100", "-3000"],  # beyond +-1000 dB the powers overflow or underflow
    ("calibration", "cal_every"): ["0"],
    ("calibration", "t_hot_k"): ["0.01"],
    ("calibration", "t_cold_k"): ["-1"],
    ("baseline", "n_components_lo"): ["-1"],
    ("baseline", "n_components_hi"): ["1"],
    ("baseline", "excursion"): ["1.5"],
    ("baseline", "step_components_max"): ["0"],
    ("baseline", "step_excursion"): ["1.5"],
    ("anomalies", "rate"): ["1.5"],
    ("anomalies", "types"): ["gremlins"],
    ("injections", "list"): ["4.1402e9:-1", "1.0e9:1.0"],
    ("sensitivity", "snr_ref"): ["0"],
    ("sensitivity", "velocity_dispersion_kms"): ["0"],
    ("sensitivity", "span_bins"): ["4"],
    ("cuts", "drift_hz_max"): ["-1"],
    ("cuts", "probe_power_lo"): ["2"],
    ("cuts", "probe_power_hi"): ["0.1"],
    ("filters", "if_window_bins"): ["100"],
    ("filters", "if_order"): ["101"],
    ("filters", "rf_window_bins"): ["300", "4001"],
    ("filters", "rf_order"): ["-1"],
    ("rescan", "threshold_sigma"): ["0"],
    ("rescan", "merge_width_bins"): ["0"],
    ("inference", "target"): ["1"],
    ("inference", "g_lo"): ["-1"],
    ("inference", "g_hi"): ["0.1"],
    ("inference", "g_points"): ["1"],
    ("inference", "n_windows"): ["0"],
    ("inference", "xtol"): ["0"],
    ("output", "directory"): [""],
}
EXEMPT_KEYS = {("cuts", "squeezing_db_min")}


def bad_value_cases():
    """One case per bad value of every schema key; a key with neither a
    bad value nor an exemption yields a case with value None, which fails."""
    for section, keys in _SCHEMA.items():
        for key in keys:
            if (section, key) not in EXEMPT_KEYS:
                for value in BAD_VALUES.get((section, key), [None]):
                    yield pytest.param(section, key, value, id=f"{section}.{key}={value}")


def test_bad_values_name_schema_keys():
    assert set(BAD_VALUES) | EXEMPT_KEYS <= {(s, k) for s in _SCHEMA for k in _SCHEMA[s]}


class TestFailureModes:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_cli(
            "budget", "--config", tmp_path / "nope.ini", "--out", tmp_path / "o"
        ) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "bad.ini", "[receiver]\nwarp = 9\n")
        assert run_cli("budget", "--config", ini, "--out", tmp_path / "o") == 2
        assert "warp" in stderr_payload(capsys)["message"]

    def test_bad_thread_count_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        assert run_cli(
            "budget", "--config", ini, "--out", tmp_path / "o", "--threads", "0"
        ) == 2
        assert stderr_payload(capsys)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--config", REFERENCE_INI, "--bogus"], "unrecognized arguments: --bogus"),
            ([], "required: --config"),
            (["--config", REFERENCE_INI, "--threads", "x"], "invalid int value: 'x'"),
        ],
        ids=["unknown_flag", "no_config", "non_integer_threads"],
    )
    def test_bad_arguments_print_json_and_exit_2(self, tmp_path, capsys, args, message):
        assert run_cli("all", *args, "--out", tmp_path / "o") == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError" and payload["exit_code"] == 2
        assert message in payload["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(flag)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out

    def test_unreachable_injection_exits_2(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "inj.ini", SMALL_INI + "\n[injections]\nlist = 1.0e9:1.0\n"
        )
        assert run_cli("simulate", "--config", ini, "--out", tmp_path / "o") == 2
        assert stderr_payload(capsys)["error"] == "ConfigError"

    # Fifteen candidate steps 85 kHz apart; the skip window removes the nine
    # between 4.14017 and 4.14102 GHz.  Each band reaches 200 kHz plus the
    # 51.2 kHz lineshape span from its step, so 4.14042-4.14077 GHz is in no band.
    GAP_INI = SMALL_INI.replace("hi_hz = 4.140360e9", "hi_hz = 4.1412e9").replace(
        "skip_windows =", "skip_windows = 4.1402e9:4.1410e9"
    )

    def test_injection_in_skipped_gap_exits_2_at_load(self, tmp_path, capsys):
        """An injection inside the hull of the bands but in none of them is
        refused at load, not silently left out of every spectrum."""
        injection = "\n[injections]\nlist = {}:1.0\n"
        ini = write_ini(tmp_path / "gap.ini", self.GAP_INI + injection.format("4.1406e9"))
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert "injection at 4140600000.0 Hz" in payload["message"]
        assert not out.exists()
        # just inside the last band below the gap
        covered = write_ini(tmp_path / "ok.ini", self.GAP_INI + injection.format("4.1404e9"))
        assert [h.nu_a_hz for h in load_config(covered).hypotheses()] == [4.1404e9]

    def test_too_many_windows_exits_2(self, cli_run, tmp_path, capsys):
        """exclude refuses more windows than included bins rather than
        shrinking them to one bin each."""
        _, out_all = cli_run
        out = tmp_path / "windows"
        shutil.copytree(out_all, out)
        shutil.rmtree(out / "exclusion")
        many = write_ini(tmp_path / "many.ini", SMALL_INI + "\n[inference]\nn_windows = 10000000\n")
        assert run_cli("exclude", "--config", many, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert "n_windows = 10000000 exceeds" in payload["message"]
        assert not (out / "exclusion").exists()

    @pytest.mark.parametrize(
        "setting", ["step_components_max = 0", "step_excursion = 1.5"]
    )
    def test_bad_baseline_setting_exits_2(self, tmp_path, capsys, setting):
        ini = write_ini(tmp_path / "bad.ini", SMALL_INI + f"\n[baseline]\n{setting}\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert setting.split()[0] in payload["message"]
        assert not (out / "spectra").exists()

    @pytest.mark.parametrize("key,value", [("tau_s", "nan"), ("n_bins", "inf")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        line = next(l for l in SMALL_INI.splitlines() if l.startswith(key + " "))
        ini = write_ini(tmp_path / "bad.ini", SMALL_INI.replace(line, f"{key} = {value}"))
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert f"acquisition.{key}" in payload["message"]
        assert "finite" in payload["message"]
        assert not (out / "spectra").exists()

    def test_zero_xtol_exits_2_before_simulate(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "bad.ini", SMALL_INI + "\n[inference]\nxtol = 0\n")
        out = tmp_path / "o"
        assert run_cli("all", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert "xtol" in payload["message"]
        assert not (out / "spectra").exists()

    @pytest.mark.parametrize(
        "ini_seed,flags",
        [("-1", ()), ("4242", ("--seed-override", "-3"))],
        ids=["ini", "flag"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, ini_seed, flags):
        text = SMALL_INI.replace("master_seed = 4242", f"master_seed = {ini_seed}")
        ini = write_ini(tmp_path / "seed.ini", text)
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", ini, "--out", out, *flags) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert "master_seed" in payload["message"]
        assert not (out / "spectra").exists()

    @pytest.mark.parametrize("section,settings,key", [
        ("cuts", "probe_power_lo = 2\nprobe_power_hi = 1", "probe power"),
        ("cuts", "drift_hz_max = -1", "drift"),
        ("rescan", "merge_width_bins = 0", "merge width"),
        ("inference", "g_points = 1", "g_points"),
        ("inference", "n_windows = 0", "n_windows"),
        ("sensitivity", "snr_ref = 0", "snr_ref"),
    ], ids=["probe_power_inverted", "negative_drift", "zero_merge_width", "one_g_point",
            "zero_windows", "zero_snr_ref"])
    def test_late_stage_setting_refused_at_load(self, tmp_path, capsys, section, settings, key):
        """Settings only a later stage reads still exit 2 before --out exists."""
        ini = write_ini(tmp_path / "bad.ini", SMALL_INI + f"\n[{section}]\n{settings}\n")
        out = tmp_path / "o"
        assert run_cli("all", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert key in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", bad_value_cases())
    def test_out_of_domain_value_exits_2_at_load(self, tmp_path, capsys, section, key, value):
        """Every key refuses a value outside its domain before --out exists."""
        assert value is not None, f"{section}.{key}: add a bad value or an exemption"
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(SMALL_INI)
        parser.read_dict({section: {key: value}})
        ini = tmp_path / "bad.ini"
        with open(ini, "w") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        assert run_cli("all", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert section in payload["message"]
        assert not out.exists()

    def test_empty_out_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        """--out '' is refused like an empty [output] directory, not as the
        exit-4 failure of creating a directory named ''."""
        monkeypatch.chdir(tmp_path)
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        assert run_cli("all", "--config", ini, "--out", "") == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert "output.directory" in payload["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.ini"]

    def test_one_point_band_exits_2_at_load(self, tmp_path, capsys):
        """lo_hz == hi_hz is refused at load, naming both keys, rather than
        after three stages have written, when exclude needs lo < hi."""
        ini = write_ini(
            tmp_path / "one.ini", SMALL_INI.replace("hi_hz = 4.140360e9", "hi_hz = 4.1400e9")
        )
        out = tmp_path / "o"
        assert run_cli("all", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert "campaign.hi_hz" in payload["message"]
        assert "lo_hz" in payload["message"]
        assert not out.exists()

    def test_negative_fridge_temperature_exits_2_with_n_f_set(self, tmp_path, capsys):
        """fridge_temp_k is checked by its parser, so an explicit n_f, which
        receiver() uses in place of the fridge's thermal quanta, does not hide it."""
        ini = write_ini(
            tmp_path / "t.ini", SMALL_INI + "\n[receiver]\nn_f = 0.3\nfridge_temp_k = -1\n"
        )
        out = tmp_path / "o"
        assert run_cli("all", "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert "receiver.fridge_temp_k" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["all", "simulate", "enhancement"])
    def test_no_delivered_vacuum_exits_2(self, tmp_path, capsys, stage):
        """eta = 1 and g_s = 0 deliver S = 0, which no stage can model."""
        ini = write_ini(
            tmp_path / "s0.ini", SMALL_INI + "\n[receiver]\neta = 1\ng_s = 0\n"
        )
        out = tmp_path / "o"
        assert run_cli(stage, "--config", ini, "--out", out) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2
        assert "eta * g_s + 1 - eta" in payload["message"]
        assert not out.exists()

    def test_numeric_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)

        def explode(cfg, ws):
            raise NumericError("quadrature says no")

        monkeypatch.setattr("haloscan.cli.stage_budget", explode)
        assert run_cli("budget", "--config", ini, "--out", tmp_path / "o") == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "NumericError"
        assert payload["exit_code"] == 3

    def test_stage_looked_up_when_called(self, tmp_path, monkeypatch):
        # wrappers set on the module attribute (a tracer) must be the ones run
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        calls = []
        monkeypatch.setattr(
            "haloscan.cli.stage_budget", lambda cfg, ws: calls.append((cfg, ws))
        )
        assert run_cli("budget", "--config", ini, "--out", tmp_path / "o") == 0
        [(cfg, ws)] = calls
        assert cfg.hash() == load_config(ini).hash()
        assert ws.root == str(tmp_path / "o")
        assert not (tmp_path / "o" / "budget.csv").exists()

    def test_process_before_simulate_exits_4(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        assert run_cli("process", "--config", ini, "--out", tmp_path / "o") == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert "simulate" in payload["message"]

    def test_process_before_calibrate_exits_4(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "three.ini", THREE_STEP_INI)
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", ini, "--out", out) == 0
        assert run_cli("process", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert "calibration_results.json" in payload["message"]
        assert "run calibrate first" in payload["message"]

    def test_calibrate_before_simulate_exits_4(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        assert run_cli("calibrate", "--config", ini, "--out", tmp_path / "o") == 4
        assert stderr_payload(capsys)["exit_code"] == 4

    def test_exclude_before_process_exits_4(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        assert run_cli("exclude", "--config", ini, "--out", tmp_path / "o") == 4
        assert stderr_payload(capsys)["error"] == "DataError"

    def test_mixed_seeds_refused(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        out = tmp_path / "o"
        for stage in ("simulate", "calibrate"):
            assert run_cli(stage, "--config", ini, "--out", out, "--seed-override", "1") == 0
        assert run_cli("process", "--config", ini, "--out", out, "--seed-override", "2") == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert payload["exit_code"] == 4
        assert "master_seed 1" in payload["message"]
        assert not (out / "grand_spectrum.dat").exists()

    @pytest.mark.parametrize("seed", [4242, None])
    def test_process_refuses_calibrations_of_another_seed(self, cli_run, tmp_path, capsys,
                                                           seed):
        # spectra re-simulated under seed 7 next to the calibrations of seed
        # 4242, or of a results file that names no seed
        ini, out_all = cli_run
        out = tmp_path / "resimulated"
        shutil.copytree(out_all, out)
        if seed is None:
            cal = read_json(out / "calibration_results.json")
            del cal["metadata"]
            (out / "calibration_results.json").write_text(json.dumps(cal))
        assert run_cli("simulate", "--config", ini, "--out", out, "--seed-override", "7") == 0
        assert run_cli("process", "--config", ini, "--out", out, "--seed-override", "7") == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert "calibration_results.json" in payload["message"]
        assert f"master_seed {seed!r}" in payload["message"]
        assert not (out / "grand_spectrum.dat").exists()

    @pytest.mark.parametrize("stage", ["calibrate", "exclude"])
    def test_stage_refuses_other_seed(self, cli_run, tmp_path, capsys, stage):
        ini, out_all = cli_run
        out = tmp_path / "copy"
        shutil.copytree(out_all, out)
        assert run_cli(stage, "--config", ini, "--out", out, "--seed-override", "2") == 4
        payload = stderr_payload(capsys)
        assert payload["exit_code"] == 4
        assert "master_seed 4242" in payload["message"]

    def test_v1_text_spectrum_exits_4(self, cli_run, tmp_path, capsys):
        ini, out_all = cli_run
        out = tmp_path / "old"
        shutil.copytree(out_all, out)
        (out / "spectra" / "step_00001.spec").write_text(
            "haloscan-spectrum v1\n# step_id 1\n# n_bins 1\n1.0\n"
        )
        assert run_cli("process", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert "simulate" in payload["message"]

    def test_non_finite_grand_spectrum_exits_4(self, cli_run, tmp_path, capsys):
        ini, out_all = cli_run
        out = tmp_path / "nan"
        shutil.copytree(out_all, out)
        grand = read_grand_spectrum(out / "grand_spectrum.dat")
        cfg = load_config(ini)
        freqs = grand.frequencies
        inband = (freqs >= cfg.get("campaign", "lo_hz")) & (freqs <= cfg.get("campaign", "hi_hz"))
        grand.x[np.flatnonzero(grand.valid & inband)[0]] = math.nan
        write_grand_spectrum(grand, out / "grand_spectrum.dat")
        assert run_cli("exclude", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert payload["exit_code"] == 4
        assert "non-finite" in payload["message"]

    @pytest.mark.parametrize("key, value", [("nu_c_hz", "4.14e9"), ("beta", "7.1")])
    def test_non_numeric_step_metadata_exits_4(self, cli_run, tmp_path, capsys, key, value):
        ini, out_all = cli_run
        out = tmp_path / "meta"
        shutil.copytree(out_all, out)
        path = out / "spectra" / "step_00001.spec"
        spectrum = read_spectrum(path)
        spectrum.metadata[key] = value
        write_spectrum(spectrum, path)
        assert run_cli("process", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert key in payload["message"]

    @pytest.mark.parametrize("edit", [
        lambda entry: entry.pop("n_a_hat"),
        lambda entry: entry.update(s_sigma="0.1"),
    ], ids=["missing_n_a_hat", "string_s_sigma"])
    def test_malformed_calibration_results_exit_4(self, cli_run, tmp_path, capsys, edit):
        ini, out_all = cli_run
        out = tmp_path / "cal"
        shutil.copytree(out_all, out)
        payload = read_json(out / "calibration_results.json")
        edit(payload["results"][0])
        (out / "calibration_results.json").write_text(json.dumps(payload))
        assert run_cli("process", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert payload["exit_code"] == 4

    def test_non_numeric_load_temperature_exits_4(self, cli_run, tmp_path, capsys):
        ini, out_all = cli_run
        out = tmp_path / "warm"
        shutil.copytree(out_all, out)
        path = out / "calibration" / "step_00000" / "hot.spec"
        spectrum = read_spectrum(path)
        spectrum.metadata["load_temp_k"] = "warm"
        write_spectrum(spectrum, path)
        assert run_cli("calibrate", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert "load_temp_k" in payload["message"]

    def test_non_numeric_calibration_nu_c_exits_4(self, cli_run, tmp_path, capsys):
        ini, out_all = cli_run
        out = tmp_path / "tuned"
        shutil.copytree(out_all, out)
        path = out / "calibration" / "step_00000" / "meas2.spec"
        spectrum = read_spectrum(path)
        spectrum.metadata["nu_c_hz"] = "4.15e9"
        write_spectrum(spectrum, path)
        assert run_cli("calibrate", "--config", ini, "--out", out) == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "DataError"
        assert payload["exit_code"] == 4
        assert "nu_c_hz" in payload["message"]

    def test_output_path_collision_exits_4(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        blocker = tmp_path / "file_not_dir"
        blocker.write_text("x")
        assert run_cli("budget", "--config", ini, "--out", blocker) == 4
        assert stderr_payload(capsys)["exit_code"] == 4


class TestLogging:
    def test_invalid_level_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HALOSCAN_LOG", "chatty")
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        assert run_cli("budget", "--config", ini, "--out", tmp_path / "o") == 2
        payload = stderr_payload(capsys)
        assert "HALOSCAN_LOG" in payload["message"]
        assert payload["error"] == "ConfigError"
        assert payload["exit_code"] == 2

    def test_info_level_reports_progress(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HALOSCAN_LOG", "info")
        ini = write_ini(tmp_path / "ok.ini", SMALL_INI)
        root = logging.getLogger()
        saved_handlers = root.handlers[:]
        saved_level = root.level
        for handler in saved_handlers:
            root.removeHandler(handler)
        try:
            assert run_cli("budget", "--config", ini, "--out", tmp_path / "o") == 0
            err = capsys.readouterr().err
        finally:
            for handler in root.handlers[:]:
                root.removeHandler(handler)
            for handler in saved_handlers:
                root.addHandler(handler)
            root.setLevel(saved_level)
        assert "INFO haloscan" in err
        assert "stage budget" in err


def test_python_m_haloscan_help():
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "haloscan", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exclude" in proc.stdout
