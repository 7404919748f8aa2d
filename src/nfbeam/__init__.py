"""Near-field beam training over large uniform linear arrays using a
far-field DFT codebook: beam-pattern closed forms, a width-inversion
location estimator with three baselines, and Monte-Carlo experiments for
NMSE, achievable rate, and training overhead."""

from .beamforming import multiuser_precode, multiuser_rate, single_user_rate
from .beampattern import (
    AlphaBeta,
    MainAngleSet,
    central_gain,
    closed_form_f,
    closed_form_width,
    exact_gain,
    interpolated_width,
    measure_width,
    normalized_pattern,
    taylor_f,
    width_law,
)
from .channel import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    PolarPoint,
    channel_gain,
    element_distances,
    los_channel,
    near_field_steering,
    region_boundaries,
)
from .codebooks import (
    Codebook,
    build_dft_codebook,
    build_polar_codebook,
    dft_angle_grid,
)
from .errors import DomainError, EmptyGridError, EmptyMainSetError, SingularChannelError
from .estimators import (
    EstimatorConfig,
    LocationEstimate,
    beam_sweep,
    cluster_indices,
    default_z_mu_grid,
    estimate_angle,
    estimate_distance,
    exhaustive_training,
    fast_training,
    joint_training,
    proposed_training,
)
from .numerics import NoiseModel, erf_complex
from .simharness import (
    MetricsRecord,
    ScenarioConfig,
    UserSampler,
    calibrate_noise,
    overhead_report,
    run_nmse_experiment,
    run_rate_experiment,
)

__version__ = "0.1.0"
