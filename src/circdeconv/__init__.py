"""circdeconv: quadratic functional estimation and uniformity testing for
densities observed through circular convolution with a known error density.

The observation model is Y = X + eps mod 1 on [0, 1). The package
estimates the squared L2 distance of the density of X to the uniform
density, tests uniformity at a prescribed level, evaluates the matching
theoretical rates and lower-bound constructions, and ships a reproducible
Monte Carlo harness with a CLI front end.
"""

from .errors import (
    CalibrationError,
    CertificationError,
    CircdeconvError,
    ClassNotSummable,
    ConditionViolation,
    DimensionNotFound,
    IngestError,
    InvalidDensityError,
)
from .estimation import (
    empirical_coeffs_batch,
    estimate_q,
    estimate_q_batch,
)
from .fourier import (
    FourierDensity,
    NoiseModel,
    SmoothnessClass,
    ellipsoid_membership,
    quadratic_functional,
    truncated_functional,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_risk_experiment,
    run_test_experiment,
)
from .ingest import (
    CircularSample,
    ingest_circular_data,
)
from .lowerbounds import (
    HypercubeFamily,
    TwoPointPair,
    build_hypercube,
    build_two_point,
    chi2_mixture_bound,
    exact_mixture_chi2,
    hellinger_reduction_bound,
    testing_to_estimation_lb,
)
from .rates import (
    OrderDescriptor,
    RateReport,
    RiskBoundBreakdown,
    ScanRow,
    base_term,
    find_eta,
    fit_log_rate,
    fit_rate,
    nu_k_sq,
    numeric_rate_scan,
    optimal_dim_est,
    optimal_two_point_freq,
    radius_upper,
    risk_upper_bound,
    theoretical_estimation_rate,
    theoretical_testing_radius,
)
from .sampling import (
    sample_batch,
)
from .testing import (
    TestCalibration,
    TestResult,
    calibrate,
    run_test,
)

__version__ = "0.1.0"
