"""Bayesian inverses, disintegrations, and state-preserving conditional
expectations for UCP maps between finite-dimensional C*-algebras."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    CentralSupportPair,
    HomSpec,
    MultiMatrixAlgebra,
    apply_hom,
    central_projections,
    central_support_pairs,
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
    compositionality_check,
    existence,
    left_right_bayes,
    verify_bayes,
)
from .channel import (
    Channel,
    LinearMap,
    StinespringData,
    ae_deterministic,
    ae_equal,
    compose,
    from_hom,
    from_kraus,
    hs_adjoint,
    identity_channel,
    is_ucp,
    stinespring,
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
    HermitianEigen,
    Tolerances,
    Verdict,
    hermitian_eigen,
    herm_fun,
    kron,
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
    compress,
    evaluate,
    in_nullspace,
    is_faithful,
    lift,
    pullback,
    support,
)
