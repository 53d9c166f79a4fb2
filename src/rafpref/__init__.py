"""Exact-rational preference relations over availability profiles.

A profile assigns each alternative an exact probability of being
available. The package provides the priority-order (lexicographic)
comparator and utility-based rivals, executable audits of the order and
dominance axioms with counterexample witnesses, and a finite-model
verifier that enumerates every weak order on a grid and confirms which
axiom sets pin the comparator down uniquely.
"""

from .core import (
    ArityMismatchError,
    ContextMismatchError,
    GridSpec,
    InvalidArityError,
    InvalidContextError,
    InvalidGridError,
    OutOfRangeError,
    PriorityContext,
    Raf,
    RafprefError,
    Rational,
    RationalParseError,
    default_context,
    first_difference,
    format_rational,
    grid_points,
    make_raf,
    parse_rational,
    pointwise_geq,
    strictly_dominates,
)
from .relations import (
    ComparisonOutcome,
    InvalidWeightError,
    LexicographicRelation,
    MaxExpectedPayoffRelation,
    MissingPayoffsError,
    NonContiguousRanksError,
    PreferenceRelation,
    RankedRelation,
    TableRelation,
    UnknownPointError,
    UtilityRelation,
    WeightArityMismatchError,
    WeightedLogProductRelation,
    WeightVector,
    at_least_as_good,
    lex_compare,
    mep_utility,
    table_relation,
    utility_compare,
    wlog_compare,
)
from .axioms import (
    ALL_AXIOMS,
    AxiomId,
    AxiomReport,
    AxiomResult,
    AxiomViolation,
    CheckConfig,
    check_axiom2_ms,
    check_iwa,
    check_non_compensation,
    check_order_axioms,
    check_strong_dominance,
    check_strong_monotonicity,
    check_weak_dominance,
    check_weak_iwa,
    replay_violation,
    run_checks,
)
from .characterization import (
    CharacterizationReport,
    EqualInputsError,
    ProofStep,
    ProofTrace,
    TooManyPointsError,
    UnprunedWalkError,
    VERIFY_AXIOMS,
    WalkBudgetError,
    construct_proof_witness,
    enumerate_weak_orders,
    fubini,
    lex_ranking,
    proof_trace_check,
    verify_characterization,
)

__version__ = "0.1.0"
