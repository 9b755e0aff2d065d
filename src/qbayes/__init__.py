"""Bayesian inverses, disintegrations, and state-preserving conditional
expectations for UCP maps between finite-dimensional C*-algebras."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    HomSpec,
    MultiMatrixAlgebra,
    apply_hom,
    matrix_unit,
    matrix_units,
    unit,
    zero,
)
from .bayesinv import (
    BayesAnalysis,
    ExistenceResult,
    battery,
    bayes_inverse,
    existence,
    left_right_bayes,
    verify_bayes,
)
from .channel import (
    Channel,
    LinearMap,
    ae_deterministic,
    ae_equal,
    compose,
    from_choi,
    from_hom,
    from_kraus,
    identity_channel,
    is_ucp,
    kraus_factor,
)
from .disint import (
    DisintegrationResult,
    FactorizationCertificate,
    bayes_disint_bridge,
    build_disintegration,
    condexp_characterize,
    disintegrate,
    factorize,
    takesaki_battery,
    verify_disintegration,
)
from .errors import (
    ExtensionFailure,
    InternalInconsistency,
    InvalidCertificate,
    NegativeEigenvalue,
    NoConvergence,
    NotCP,
    NotHermitian,
    ParseError,
    QBayesError,
    SchemaError,
    ShapeMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    Verdict,
    hermitian_eigen,
    herm_fun,
    partial_trace_left,
    partial_trace_right,
    pseudoinverse,
)
from .modular import (
    ACReport,
    CornerMap,
    ac_condition_algebraic,
    ac_condition_sampled,
    corner_map,
    modular_at,
    modular_flow,
)
from .state import (
    State,
    SupportData,
    evaluate,
    in_nullspace,
    pullback,
    support,
)
