"""iggl: sparse association graphs from mixed-type data.

Learns a sparse precision matrix over variables whose columns follow
arbitrary user-chosen marginal losses (deviances, robust location losses,
margin losses, counts) by repeatedly linearizing the loss and solving an
ordinary penalized Gaussian graph learning problem.
"""

__version__ = "0.1.0"

from .core import (
    FitProblem,
    FitResult,
    IterState,
    choose_phi,
    estimate_intercepts,
    first_iteration_s,
    fit,
    outer_objective,
    poisson_preprocess,
    theta_update,
    xi_update,
)
from .datagen import GraphPattern, make_precision, sample_gaussian, sample_glm
from .glasso import GGLInstance, PrecisionEstimate, ggl_objective, kkt_residual, log_det_pd, solve_ggl
from .losses import (
    ColumnLoss,
    LOSS_KINDS,
    batch_grad,
    batch_value,
    default_lipschitz,
    loss_from_config,
    loss_grad,
    loss_value,
    make_loss,
    robust_scale,
    scale_to_unit_lipschitz,
)
from .select import (
    EdgeMetrics,
    PathResult,
    bic,
    bregman,
    bregman_sym,
    edge_metrics,
    fit_path,
    lambda_grid,
)

__all__ = [
    "ColumnLoss",
    "EdgeMetrics",
    "FitProblem",
    "FitResult",
    "GGLInstance",
    "GraphPattern",
    "IterState",
    "LOSS_KINDS",
    "PathResult",
    "PrecisionEstimate",
    "batch_grad",
    "batch_value",
    "bic",
    "bregman",
    "bregman_sym",
    "choose_phi",
    "default_lipschitz",
    "edge_metrics",
    "estimate_intercepts",
    "first_iteration_s",
    "fit",
    "fit_path",
    "ggl_objective",
    "kkt_residual",
    "lambda_grid",
    "log_det_pd",
    "loss_from_config",
    "loss_grad",
    "loss_value",
    "make_loss",
    "make_precision",
    "outer_objective",
    "poisson_preprocess",
    "robust_scale",
    "sample_gaussian",
    "sample_glm",
    "scale_to_unit_lipschitz",
    "solve_ggl",
    "theta_update",
    "xi_update",
]
