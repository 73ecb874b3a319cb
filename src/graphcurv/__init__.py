"""Graphs of prescribed extrinsic curvature over model hypersurfaces."""

from .charts import (
    BaseHypersurface,
    EpsilonChart,
    EuclideanChart,
    HyperbolicChart,
    alpha_of_theta,
    equidistant_curvature,
    theta_of_alpha,
)
from .errors import (
    ConfigError,
    DegenerateMetric,
    DomainMismatch,
    GraphCurvError,
    NoConvergence,
    NonAdmissible,
    NonAdmissibleInit,
    OutOfChart,
    OutOfRange,
    SingularLinearSystem,
    SingularShapeOperator,
    StepsizeUnderflow,
    TransversalityFailure,
)
from .grids import (
    GridDomain,
    export_csv,
    load_grid,
    prolong_values,
    refine_domain,
    restrict_values,
    save_grid,
)
from .assembly import (
    CurvatureAssembly,
    assemble_curvature,
    conformal_graph_curvature,
    order_compare,
)
from .shape_oracle import ShapeData, curvature_oracle
from .linearize import (
    EllipticOperator,
    HeldLU,
    build_DK,
    build_JK,
    measured_normal_curvature,
    stability_check,
)
from .solver import (
    ContinuationOptions,
    ContinuationState,
    NewtonOptions,
    NewtonResult,
    SolveTarget,
    continuation_solve,
    newton_solve,
    perturb_rhs,
    rhs_perturbation,
    smooth_random_field,
    start_state,
    uniqueness_probe,
)
from .diagnostics import (
    BarrierPair,
    EstimateReport,
    curvature_norm_report,
    make_barrier_pair,
    offset_barrier,
    pogorelov_monitor,
    sphere_cap_barrier,
    square_split,
    validate_sandwich,
)
from .config import load_config, parse_config

__version__ = "0.1.0"
