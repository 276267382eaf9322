"""Bistatic radar localization toolkit.

Deterministic simulation and analysis for device-free target
localization with communication-style OFDM signals: exact bistatic
geometry, dilution-of-precision prediction, a signal-level OFDM receiver
chain (MUSIC angle estimation, direct-path cancellation, matched-filter
delay, range-Doppler processing), weighted multistatic fusion, and
reproducible experiment sweeps with CSV output.
"""

from types import ModuleType as _ModuleType

from .channel import (
    ArrayModel,
    BeamCapture,
    PathDescriptor,
    array_factor,
    build_paths,
    make_rng,
    propagate,
    steering_vector,
    substream_normals,
)
from .config import (
    ENGINE_MODEL,
    ENGINE_SIGNAL,
    MotionConfig,
    ScenarioConfig,
    apply_bandwidth,
    dumps_scenario,
    error_model_for,
    load_scenario,
    parse_scenario,
    preset_scenario,
)
from .errors import (
    BistarError,
    ConfigError,
    DegenerateGeometryError,
    DetectionError,
)
from .estimation import (
    MEAN_ABS_TO_SIGMA,
    Measurement,
    RangeDopplerMap,
    beamform,
    doppler_peak,
    doppler_to_velocity,
    estimate_tdoa,
    matched_filter,
    model_measure_batch,
    music_aoa,
    null_steer_beamform,
    null_steer_weights,
    project_out_stream,
    range_doppler,
)
from .fusion import (
    FusionBatchResult,
    gdop_weights,
    solve_multistatic_batch,
)
from .gdop import (
    CONDITION_LIMIT,
    MeasurementErrorModel,
    gdop_arrays,
    gdop_batch,
)
from .geometry import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    BistaticPair,
    Mode,
    NodePosition,
    RadarParams,
    TargetState,
    aoa_gradient,
    bistatic_ranges,
    bistatic_snr,
    collinearity_deg,
    iso_range_point,
    locate_batch,
    locate_bistatic,
    r2_from_measurements,
    sum_range_gradient,
    sum_range_rate,
    true_aoa,
    true_tdoa,
    wrap_angle,
    wrap_angles,
)
from .harness import (
    DopplerResult,
    GdopMap,
    GridSpec,
    MultistaticResult,
    MultistaticRow,
    SweepResult,
    SweepRow,
    run_doppler,
    run_gdop_map,
    run_iso_range_sweep,
    run_multistatic,
    waveform_for_radar,
    write_doppler_csv,
    write_gdop_map_csv,
    write_multistatic_csv,
    write_range_doppler_csv,
    write_sweep_csv,
)
from .waveform import (
    IqCapture,
    WaveformConfig,
    demodulate_slot,
    fast_length,
    generate_slot,
    matched_reference,
    resource_grid,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
