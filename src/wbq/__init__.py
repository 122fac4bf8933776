"""Exact computational representation theory of quantized walled Brauer
algebras: cellular bases, cell modules, Gram and decomposition matrices,
blocks, and the mixed-tensor-space model that certifies them.

All arithmetic is exact and runs on Python ints (reduced fractions of
integer polynomials in q and rho, and in q on rho = q^a, cyclotomic
integers, rationals); there is no floating point anywhere in the package.
"""

from . import combinat, engine, linalg, repthy, scalars, tensor, words
from .errors import (
    DenominatorVanishes,
    IndexOutOfRange,
    IntegralityViolation,
    InterpolationUnstable,
    NotInSpan,
    OracleMismatch,
    RankCertificationFailed,
    RankTooSmall,
    RhoDependentDivisor,
    TraceSystemSingular,
    WbqError,
)
from .scalars import FieldSpec
from .linalg import FieldContext
from .engine import structure_constants
from .repthy import (
    analyze,
    blocks,
    decomposition_matrix,
    gram_matrix,
    relation_suite,
    schur_weyl_rank,
    semisimplicity,
    singular_dimension_check,
)

__version__ = "0.1.0"

__all__ = [
    "DenominatorVanishes",
    "FieldContext",
    "FieldSpec",
    "IndexOutOfRange",
    "IntegralityViolation",
    "InterpolationUnstable",
    "NotInSpan",
    "OracleMismatch",
    "RankCertificationFailed",
    "RankTooSmall",
    "RhoDependentDivisor",
    "TraceSystemSingular",
    "WbqError",
    "analyze",
    "blocks",
    "combinat",
    "decomposition_matrix",
    "engine",
    "gram_matrix",
    "linalg",
    "relation_suite",
    "repthy",
    "scalars",
    "schur_weyl_rank",
    "semisimplicity",
    "singular_dimension_check",
    "structure_constants",
    "tensor",
    "words",
]
