"""Exact primal-dual affine programming over ordered rings.

Five exact-arithmetic ring instances (integers, rationals, odd-denominator
rationals, leading-coefficient-ordered polynomials, and a non-commutative
skew polynomial ring), the affine program model with its key and duality
identities, theorem-indexed counterexample generators with re-checkable
certificates, and a brute-force box enumeration oracle.
"""

from .errors import (
    DimensionMismatch,
    NoSmallestPositive,
    NotAPositiveNonUnit,
    ParseError,
    PreconditionViolated,
    RingLpError,
    RingMismatch,
    StepLosesFeasibility,
    UnsupportedRing,
)
from .rings import (
    Magnitude,
    Ordering,
    RingDescriptor,
    RingElement,
    RingId,
    POLY_X,
    SKEW_X,
    SKEW_Y,
    add,
    all_descriptors,
    classify_magnitude,
    compare,
    descriptor,
    from_int,
    from_rational,
    is_central,
    is_zero,
    mul,
    neg,
    one,
    parse_element,
    poly,
    pretty,
    sign,
    skew,
    sub,
    to_text,
    try_invert,
    zero,
)
from .sampling import Sampler, verify_order_axioms
from .reports import AxiomReport, AxiomViolation, CheckReport, TrialSummary
from .linalg import RMatrix, RVector, matrix, vec_text, vector, zero_vector
from .affine import (
    FeasibilityVerdict,
    ProgramData,
    ViolationKind,
    assert_weak_duality,
    dual_slack,
    duality_equation_residual,
    eval_f,
    eval_g,
    gap,
    identity_program_trials,
    identity_trials,
    is_dual_feasible,
    is_primal_feasible,
    key_equation_residual,
    primal_slack,
    random_program,
    weak_duality_trials,
)
from .enumeration import (
    BoxSpec,
    EdtReport,
    ProgramStatus,
    Scope,
    StatusKind,
    candidate_values,
    certify_optimal_pair,
    classify_edt,
    enumerate_dual,
    enumerate_primal,
    feasible_points,
)
from .constructions import (
    BundleKind,
    CounterexampleBundle,
    InfeasibleSide,
    SequenceRole,
    WitnessSequence,
    certificate_dict,
    dual_decreasing_sequence,
    dual_decreasing_step,
    gap_program,
    infeasible_optimal_program,
    magnitude_gap_check,
    no_central_between_check,
    no_central_between_trials,
    primal_improving_sequence,
    primal_improving_step,
    strong_duality_counterexample,
    verify_bundle,
)
from .progfile import load_program, parse_program, serialize_program

__version__ = "0.1.0"
