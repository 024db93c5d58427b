"""Proximal saddle steps, weighted-loss landscapes, and coupled flows.

The package couples a Euclidean decision variable x in R^m with an interior
probability vector q over S loss functions.  Its core is an entropy-
regularized proximal map whose iteration (`run_ppa`) seeks pairs where the
weighted gradient vanishes and all losses agree; `landscape` classifies such
pairs through Riemannian second-order analysis under the Fisher metric, and
`flows` integrates the matching continuous-time dynamics.  `checks` bundles
randomized property checks for every advertised identity, also reachable
through the `baryopt` command-line tool.
"""

from types import ModuleType as _ModuleType

from .checks import KNOWN_FAILING, SCOPES, CheckResult, format_result, run_checks
from .errors import (
    ConfigError,
    DegenerateMetricError,
    DimensionMismatchError,
    HessiansUnavailableError,
    InvalidDomainError,
    ProxNonConvergenceError,
)
from .flows import (
    KIND_MIN_MAX,
    KIND_MIN_MIN,
    FlowConfig,
    FlowTrace,
    df_dt_analytic,
    entropy,
    entropy_rate_analytic,
    flow_vector_field,
    integrate_flow,
    integrate_flow_full,
    pseudo_riemannian_residual,
)
from .landscape import (
    CriticalValueReport,
    HessianReport,
    LandscapePoint,
    christoffel_correction,
    critical_value_scan,
    euclidean_hessian,
    f_bar,
    fix_equals_critical_check,
    grad_f_bar,
    metric,
    riemannian_hessian,
)
from .objectives import (
    ConstantFamily,
    DerivativeCheck,
    ObjectiveFamily,
    OuterSumFamily,
    QuadraticFamily,
    barygradient,
    finite_diff_check,
    outer_product,
    outer_sum,
    rank_one_factor_check,
    random_quadratic,
    symmetric_quadratic,
)
from .ppa import (
    STATUS_CONVERGED,
    STATUS_INNER_FAILURE,
    STATUS_MAX_ITER,
    PpaConfig,
    PpaRecord,
    PpaTrace,
    fejer_diagnostic,
    run_ppa,
)
from .prox import (
    ProxConfig,
    ProxResult,
    bfne_gap,
    fixed_point_residual,
    minimize_fixed_weights,
    monotone_operator,
    monotonicity_gap,
    prox,
    resolvent_residual,
    saddle_objective,
)
from .simplex_geometry import (
    HybridPoint,
    SimplexPoint,
    as_logits,
    christoffel,
    covariance,
    covariance_derivative_tensor,
    fisher_information,
    hybrid_bregman,
    kl,
    logits_from_point,
    negentropy,
    negentropy_grad_inverse,
    point_from_logits,
    sigma_pinned,
    softargmax,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules, which the imports bind
# as attributes too, are left out (`prox` is the function, not the module).
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
