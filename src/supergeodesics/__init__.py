"""Geodesics and the geodesic flow on Riemannian supermanifold charts.

Core layers:

* :mod:`supergeodesics.grassmann` -- the finite Grassmann algebra scalar type
* :mod:`supergeodesics.superexpr` -- symbolic superfunctions and morphisms
* :mod:`supergeodesics.geometry` -- graded metrics and Christoffel symbols
* :mod:`supergeodesics.geodesics` -- supergeodesic integration
* :mod:`supergeodesics.cotangent` -- energy, Hamiltonian field, flow
* :mod:`supergeodesics.expmap` -- exponential map and isometry checks
* :mod:`supergeodesics.model` / :mod:`supergeodesics.cli` -- model files, CLI
"""

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    GridTooShort,
    IntegrationFailure,
    InvalidPoint,
    LeftDomain,
    MismatchedGeneratorCount,
    ModelError,
    NonHomogeneousField,
    NonHomogeneousOperand,
    OddElement,
    ParityViolation,
    SignatureMismatch,
    SingularBody,
    SuperGeometryError,
    UnknownCoordinate,
    UnknownIdentifier,
    ZeroBody,
)
from .grassmann import GrassmannElement, Parity
from .superexpr import (
    ChartSignature,
    SuperMorphism,
    compose,
    evaluate,
    parse_expression,
    partial_derivative,
    substitute,
)
from .geometry import (
    ChristoffelTable,
    MetricChart,
    SuperPoint,
    christoffel_at,
    metric_inverse_at,
    metric_validate,
    reduce_body,
)
from .geodesics import (
    InitialCondition,
    Trajectory,
    covariant_derivative_t,
    covariant_derivative_theta,
    geodesic_rhs,
    integrate_geodesic,
    integrate_goertsches,
    metric_speed,
)
from .cotangent import (
    FlowState,
    PhasePoint,
    RoundtripReport,
    energy_at,
    energy_series,
    flat,
    integrate_flow,
    roundtrip_check,
    sharp,
    xh_at,
)
from .expmap import (
    ExpJacobianReport,
    LinearTangentMap,
    TangentFiberPoint,
    exp_at,
    exp_jacobian_check,
    isometry_check,
    linearization_test,
    naturality_check,
    numerical_tangent_map,
    tangent_map,
)
from .model import ModelFile, bundled_models, load_model
from .verify import run_suites

__version__ = "0.1.0"
