"""Squeezed-receiver cavity dark matter scan: simulation and analysis.

The package models a tunable microwave cavity read out through a
phase-sensitive amplifier chain, simulates stepped scan campaigns with
realistic spectral baselines and instrument anomalies, calibrates the
receiver from dedicated measurements, reduces the spectra to a single
standardized grand spectrum, and turns that spectrum into coupling
exclusions with candidate re-acquisition.
"""

__version__ = "0.1.0"

from .axion import (
    AxionHypothesis,
    LineshapeParams,
    bin_signal,
    canonical_kernel,
    lineshape,
    lineshape_kernel,
    reference_amplitude,
)
from .calibration import (
    CalibrationResult,
    assign_calibrations,
    infer_added_noise,
    infer_cavity_noise,
    infer_squeezing,
    read_calibration_results,
    run_calibration,
    write_calibration_results,
)
from .campaign import (
    BaselineModel,
    TuningPlan,
    TuningStep,
    band_start,
    derive_seed,
    make_baseline_model,
    make_tuning_plan,
    rescan_steps,
    simulate_calibration,
    simulate_campaign,
    simulate_rescans,
    simulate_spectrum,
)
from .config import CampaignConfig, load_config
from .errors import (
    ConfigError,
    CouplingAtBoundary,
    DataError,
    HaloscanError,
    NumericError,
)
from .inference import (
    ExclusionResult,
    exclusion_coupling,
    exclusion_curve,
    run_exclusion,
    subaggregate_windows,
)
from .pipeline import (
    CombinedSpectrum,
    CutCriteria,
    CutLog,
    FilterReport,
    GrandSpectrum,
    ProcessedSpectrum,
    ProcessSettings,
    RescanCandidate,
    RescanList,
    apply_cuts,
    check_persistence,
    coadd_grand,
    combine_spectra,
    flag_rescans,
    included,
    measure_filter_transfer,
    process_campaign,
    process_group,
    read_grand_spectrum,
    remove_structure,
    write_grand_spectrum,
)
from .receiver import (
    NoiseBudget,
    ReceiverParams,
    cavity_reflectance,
    delivered_squeezing,
    noise_budget,
    noise_total,
    optimize_coupling,
    report_enhancement,
    scan_rate,
    squeezer_ratio,
    thermal_quanta,
    visibility,
)
from .spectra import (
    CalibrationSet,
    RawSpectrum,
    SpectrumFile,
    open_spectrum,
    read_calibration_set,
    read_spectrum,
    write_calibration_set,
    write_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
