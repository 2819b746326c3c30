"""Exact supertropical linear algebra with a seeded verification harness."""

from .errors import InternalError, NotInvertible, OrderTooLarge, RejectionLimit, Singular
from .scalars import (
    EPS,
    Scalar,
    add,
    format_scalar,
    ghost,
    ghost_surpasses,
    is_invertible,
    mul,
    nu,
    nu_equiv,
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
    det_assignment,
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
    format_poly,
    poly_add,
    poly_mul,
)

__version__ = "0.1.0"
