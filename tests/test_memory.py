"""Peak memory of the stages: a few spectra, not the campaign, and a few
arrays the size of the RF grid, not a dozen.

tracemalloc sees numpy's allocations, so the peak traced bytes inside a
stage are deterministic.  The stage bounds are fixed multiples of one
spectrum and do not grow with the 40 steps of the campaign; the coadd,
exclusion and exclude-stage bounds are multiples of one float64 array over
the RF grid.
"""

import os
import textwrap
import tracemalloc

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it on first use; here, no stage pays for it

from haloscan import axion, campaign, cli, pipeline, receiver
from haloscan.config import load_config
from haloscan.inference import run_exclusion
from haloscan.pipeline import STAGE2_CHUNK, GrandSpectrum, read_grand_spectrum

N_BINS = 4000
SPECTRUM_BYTES = 8 * N_BINS

# 40 steps 10 kHz apart, so the RF grid (7,900 bins) stays near two spectra.
FORTY_STEPS_INI = textwrap.dedent(
    f"""\
    [campaign]
    lo_hz = 4.1400e9
    hi_hz = 4.14039e9
    step_hz = 10e3
    skip_windows =
    master_seed = 4242

    [acquisition]
    tau_s = 600
    bin_width_hz = 100
    n_bins = {N_BINS}

    [calibration]
    cal_every = 9

    [filters]
    rf_window_bins = 301
    rf_order = 4
    """
)

# One step: its science spectrum, a calibration set of five and the
# simulation's temporaries.
SIMULATE_BOUND = 30 * SPECTRUM_BYTES
# One chunk of stage 2, about 5 spectra's worth per row (the row, its FFT
# padded to 4,320 bins and the convolution), plus the filter-transfer
# measurement, the coadd over the RF grid, the rescans and, with the caches
# cold, the cached on-resonance lineshape weights of the 40 step
# frequencies (about 5 spectra) and the visibility's cached 1 + x^2 over the
# band (1 spectrum): about 28 spectra in all.
PROCESS_BOUND = (7 * STAGE2_CHUNK + 20) * SPECTRUM_BYTES

# In float64 arrays over the RF grid.  The coadd's result alone is about
# 3.6 (x, eta_sens and support, n_contrib and valid).  The exclusion sums
# (a, b) over the initial grid and gathers them at the included bins one
# at a time, about 4.2 at its peak; over the couplings it keeps (a, b)
# and two buffers of that size.
COADD_BOUND = 6
EXCLUSION_BOUND = 4.5
# The whole exclude stage, whose follow-up grand spectrum is read only when
# the exclusion sums it in and freed right after: about 16.7 arrays, with
# the initial grand spectrum alive throughout.
EXCLUDE_STAGE_BOUND = 17.5

# Every cache a stage fills, so that a stage traced after another test has
# warmed them still pays for what it caches.
CACHES = (axion._kernel_weights, campaign._shared_baseline, pipeline._savgol_kernel,
          pipeline._kernel_spectrum, pipeline.measure_filter_transfer,
          receiver._reflectance_template, receiver._noise_template,
          receiver._lorentzian_shape)


def peak_traced_bytes(stage, cfg, ws):
    """Peak traced bytes of one stage, run with every cache cold."""
    for cache in CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        stage(cfg, ws)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def forty_steps(tmp_path):
    """(config, workspace) of the forty-step campaign, nothing run yet."""
    ini = tmp_path / "forty.ini"
    ini.write_text(FORTY_STEPS_INI)
    cfg = load_config(str(ini))
    ws = cli.Workspace(str(tmp_path / "out"))
    os.makedirs(ws.root)
    return cfg, ws


def test_stage_peaks_do_not_scale_with_steps(tmp_path):
    cfg, ws = forty_steps(tmp_path)
    assert cfg.tuning_plan().n_steps == 40

    simulate_peak = peak_traced_bytes(cli.stage_simulate, cfg, ws)
    cli.stage_calibrate(cfg, ws)
    process_peak = peak_traced_bytes(cli.stage_process, cfg, ws)

    assert simulate_peak < SIMULATE_BOUND, simulate_peak / SPECTRUM_BYTES
    assert process_peak < PROCESS_BOUND, process_peak / SPECTRUM_BYTES


def test_coadd_holds_few_grid_arrays(tmp_path, monkeypatch):
    cfg, ws = forty_steps(tmp_path)
    cli.stage_simulate(cfg, ws)
    cli.stage_calibrate(cfg, ws)

    peaks = []
    coadd_grand = pipeline.coadd_grand

    def traced(combined, report):
        tracemalloc.start()
        try:
            return coadd_grand(combined, report)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * combined.num.size))
            tracemalloc.stop()

    monkeypatch.setattr(pipeline, "coadd_grand", traced)
    cli.stage_process(cfg, ws)
    assert peaks  # the initial scan, then the rescans if any
    assert max(peaks) <= COADD_BOUND, peaks


def test_exclude_stage_frees_each_followup(tmp_path):
    cfg, ws = forty_steps(tmp_path)
    for stage in (cli.stage_simulate, cli.stage_calibrate, cli.stage_process):
        stage(cfg, ws)
    assert os.path.exists(ws.rescan_grand)  # one follow-up
    grid_bytes = 8 * read_grand_spectrum(ws.grand).x.size
    peak = peak_traced_bytes(cli.stage_exclude, cfg, ws) / grid_bytes
    assert peak <= EXCLUDE_STAGE_BOUND, peak


def test_exclusion_holds_few_grid_arrays():
    n_rf = 200_000
    rng = np.random.default_rng(5)

    def grand(rf_start_hz, n):
        return GrandSpectrum(
            rf_start_hz=rf_start_hz,
            bin_width_hz=100.0,
            x=rng.standard_normal(n),
            eta_sens=rng.uniform(0.5, 1.0, n),
            n_contrib=np.full(n, 4, dtype=np.int32),
            support=np.ones(n),
            valid=np.ones(n, dtype=bool),
        )

    initial = grand(4.1e9, n_rf)
    rescan = grand(4.1e9 + 100.0 * 5000, n_rf - 20_000)  # 5,000 bins up the grid
    tracemalloc.start()
    try:
        result = run_exclusion(initial, (rescan,), n_windows=100)
        peak = tracemalloc.get_traced_memory()[1] / (8 * n_rf)
    finally:
        tracemalloc.stop()
    assert result.g_star is not None
    assert peak <= EXCLUSION_BOUND, peak


def test_templates_miss_once_per_receiver_state(tmp_path):
    """One fresh ``haloscan all`` on the five-step config computes each
    per-bin receiver template once per receiver state: a key that held
    nu_c would miss once per step."""
    from test_config_cli import SMALL_INI

    ini = tmp_path / "five.ini"
    ini.write_text(SMALL_INI)
    for cache in CACHES:
        cache.cache_clear()
    assert cli.main(["all", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    # One cavity geometry; the science (and meas2) and meas3 noise, squeezer
    # on and off; one loaded linewidth on the band and on the reference band.
    expected = {receiver._reflectance_template: 1, receiver._noise_template: 2,
                receiver._lorentzian_shape: 2}
    for template, states in expected.items():
        info = template.cache_info()
        assert info.misses == states, (template.__name__, info)
        assert info.hits > 0, (template.__name__, info)
