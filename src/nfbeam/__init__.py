"""Near-field beam training over large uniform linear arrays using a
far-field DFT codebook: beam-pattern closed forms, a width-inversion
location estimator with three baselines, and Monte-Carlo experiments for
NMSE, achievable rate, and training overhead.

The top level holds what the README, the demos and the benchmark read,
plus the four error types; every other name is imported from its module.
"""

from .beampattern import (
    AlphaBeta,
    central_gain,
    closed_form_f,
    closed_form_width,
    exact_gain,
    interpolated_width,
    measure_width,
    normalized_pattern,
    taylor_f,
)
from .channel import ArrayConfig, PolarPoint, region_boundaries
from .codebooks import build_dft_codebook, build_polar_codebook
from .errors import DomainError, EmptyGridError, EmptyMainSetError, SingularChannelError
from .estimators import (
    EstimatorConfig,
    default_z_mu_grid,
    exhaustive_training,
    fast_training,
    joint_training,
    proposed_training,
)
from .numerics import NoiseModel
from .simharness import (
    ScenarioConfig,
    calibrate_noise,
    run_nmse_experiment,
    run_rate_experiment,
    write_records_csv,
)
from .svgplot import line_plot_svg

__version__ = "0.1.0"
