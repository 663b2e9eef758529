"""Peak memory of the simulate and process stages: a few spectra, not the campaign.

tracemalloc sees numpy's allocations, so the peak traced bytes inside a
stage are deterministic.  The bounds are fixed multiples of one spectrum
and do not grow with the 40 steps of the campaign.
"""

import os
import textwrap
import tracemalloc

from haloscan import cli
from haloscan.config import load_config
from haloscan.pipeline import STAGE2_CHUNK

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
# One chunk of stage 2, about 7 spectra's worth per row (the row, its FFT
# padded to 8,192 bins and the convolution), plus the filter-transfer
# measurement, the coadd over the RF grid and the rescans.
PROCESS_BOUND = (7 * STAGE2_CHUNK + 40) * SPECTRUM_BYTES


def peak_traced_bytes(stage, cfg, ws):
    tracemalloc.start()
    try:
        stage(cfg, ws)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage_peaks_do_not_scale_with_steps(tmp_path):
    ini = tmp_path / "forty.ini"
    ini.write_text(FORTY_STEPS_INI)
    cfg = load_config(str(ini))
    assert cfg.tuning_plan().n_steps == 40
    ws = cli.Workspace(str(tmp_path / "out"))
    os.makedirs(ws.root)

    simulate_peak = peak_traced_bytes(cli.stage_simulate, cfg, ws)
    cli.stage_calibrate(cfg, ws)
    process_peak = peak_traced_bytes(cli.stage_process, cfg, ws)

    assert simulate_peak < SIMULATE_BOUND, simulate_peak / SPECTRUM_BYTES
    assert process_peak < PROCESS_BOUND, process_peak / SPECTRUM_BYTES
