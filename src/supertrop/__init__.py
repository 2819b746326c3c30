"""Exact supertropical linear algebra with a seeded verification harness."""

from .errors import InternalError, NotInvertible, OrderTooLarge, RejectionLimit, Singular
from .scalars import (
    EPS,
    Scalar,
    add,
    ghost,
    ghost_surpasses,
    mul,
    parse_scalar,
    pow,
    tangible,
)
from .matrices import (
    CharPoly,
    ConjectureCase,
    ConjectureReport,
    Matrix,
    adjoint,
    char_poly,
    cofactor,
    conjecture_check,
    det,
    det_brute,
    det_power,
    format_matrix,
    is_nonsingular,
    parse_matrix,
    pseudoinverse,
)
from .polynomials import (
    Poly,
    build_alpha,
    build_beta,
    build_gamma,
    claim1_check,
    claim2_check,
    claim3_check,
    decomposition_checks,
    evaluate,
    poly_add,
    poly_mul,
)

__version__ = "0.1.0"
