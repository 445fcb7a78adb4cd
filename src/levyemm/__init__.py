"""Levy-driven moving averages, explicit equivalent-martingale-measure
construction, and Monte Carlo verification of the measure-change claims."""

from ._backend import available_backends, backend_name
from .emm_construct import (
    GirsanovKernelH1,
    GirsanovKernelH2,
    f_zeta,
    lambda_of_zeta,
    make_h1_kernel,
    make_h2_kernel,
    sigma_pm,
    validate_girsanov_kernel,
)
from .girsanov import (
    DensityProcess,
    QCharacteristics,
    density_process,
    f_lm,
    lm_compensator,
    lm_criterion_check,
    q_characteristics,
    simulate_under_q,
    stoch_exp,
)
from .kernel import (
    Kernel,
    density_condition,
    emm_classify,
    exponential_kernel,
    integrate_halfline,
    lp_norm,
    power_density_kernel,
    power_kernel,
    zero_start_kernel,
)
from .levy_model import (
    DensityMeasure,
    DiscreteMeasure,
    LevyTriplet,
    TruncationFunction,
    ZeroMeasure,
    drift_xi,
    indicator_inside,
    indicator_outside_band,
    levy_integrate,
    retriplet,
    symmetric_alpha_stable,
    tail_law,
    tempered_stable,
    uniform_band,
)
from .path_sim import (
    LatticePath,
    MovingAveragePath,
    PathSimulator,
    SimConfig,
    extract_jump_measure,
    moving_average,
    simulate_levy,
    y_at,
)
from .verify import (
    StatReport,
    brownian_invariance_test,
    conditional_jump_law_test,
    finite_expect,
    jump_intensity_test,
    mean_density_test,
    q_martingale_test,
)

__version__ = "0.1.0"
