"""Teter-property certification for numerical semigroup rings."""

from .classify import (
    StronglyTeter,
    TeterReport,
    WitnessData,
    monomial_teter_witness,
    strongly_teter_check,
    teter_check,
    type_condition,
    witness_shifts,
)
from .errors import (
    CrossCheckError,
    EmptyGeneratorsError,
    FullSemigroupError,
    GorensteinInputError,
    ImproperIdealError,
    NonCoprimeError,
    NonStabilizedError,
    NotAMemberError,
    NoWitnessError,
    PrecisionTooSmallError,
    TangentConeNotCMError,
    TeterError,
)
from .fiber import (
    ApproximationCertificate,
    FiberProductRing,
    build_approximation,
    default_precision,
    verify_approximation,
)
from .graded import GradedModel, assoc_graded_is_cm, build_graded_model, socle_dim_mod_xstar
from .ideals import QuotientData, RelativeIdeal, canonical_ideal, quotient_data
from .report import build_report_document, render_text
from .semigroup import NumericalSemigroup

__version__ = "0.1.0"

__all__ = [
    "ApproximationCertificate",
    "CrossCheckError",
    "EmptyGeneratorsError",
    "FiberProductRing",
    "FullSemigroupError",
    "GorensteinInputError",
    "GradedModel",
    "ImproperIdealError",
    "NonCoprimeError",
    "NonStabilizedError",
    "NotAMemberError",
    "NoWitnessError",
    "NumericalSemigroup",
    "PrecisionTooSmallError",
    "QuotientData",
    "RelativeIdeal",
    "StronglyTeter",
    "TangentConeNotCMError",
    "TeterError",
    "TeterReport",
    "WitnessData",
    "assoc_graded_is_cm",
    "build_approximation",
    "build_graded_model",
    "build_report_document",
    "canonical_ideal",
    "default_precision",
    "monomial_teter_witness",
    "quotient_data",
    "render_text",
    "socle_dim_mod_xstar",
    "strongly_teter_check",
    "teter_check",
    "type_condition",
    "verify_approximation",
    "witness_shifts",
]
