"""Exact rational linear algebra: the classical side of the cross-checks.

Every value is an exact ``fractions.Fraction`` so every identity is tested
as an exact equation.  Determinants and principal-minor sums scale each row
to integers by the lcm of its denominators and run Bareiss elimination on
ints, dividing by the product of the scales once at the end.  The two
identities of interest:

* Jacobi: the k-th principal-minor sum of the (signed) adjugate equals
  ``det^(k-1)`` times the (n-k)-th principal-minor sum of the matrix.
  This is a polynomial identity, valid for singular matrices too once k >= 1.
* reciprocal: relates the characteristic coefficients of an invertible
  matrix to those of its inverse.

:func:`oracle_report` computes ``det(X)``, ``E(X)``, ``E(adj X)`` and
``E(X^-1)`` once per matrix and checks every k against them;
``jacobi_check`` and ``reciprocal_check`` read single verdicts from it.

Note the adjugate here carries the classical cofactor signs, unlike the
unsigned supertropical adjoint in :mod:`supertrop.matrices`.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

from .errors import Singular
from .scalars import parse_grid, parse_rational

__all__ = [
    "as_rational_matrix",
    "rat_det",
    "rat_adjugate",
    "rat_inverse",
    "minor_sums",
    "char_coeffs",
    "OracleReport",
    "oracle_report",
    "jacobi_check",
    "reciprocal_check",
    "parse_rational_matrix",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational_matrix(rows):
    """Normalize to a square tuple-of-tuples of Fractions."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(out)
    if n == 0:
        raise ValueError("matrix order must be at least 1")
    for row in out:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return out


def _int_rows(X):
    """``(rows, scales)``: row i of X times ``scales[i]``, the lcm of its denominators.

    Every entry must be a ``Fraction`` or an ``int``; the scaled rows are
    lists of ints, fresh so that :func:`_int_det` may consume them.
    """
    rows, scales = [], []
    for row in X:
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return rows, scales


def _int_det(a) -> int:
    """Determinant of an integer matrix by Bareiss elimination with row pivoting.

    Every division is exact (Sylvester's identity), so ``//`` keeps the
    arithmetic on ints.  ``a`` is overwritten.
    """
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        top = a[col]
        pivot = top[col]
        for r in range(col + 1, n):
            row = a[r]
            lead = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * pivot - lead * top[c]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def rat_det(X) -> Fraction:
    """Determinant by integer Bareiss elimination.

    Each row is scaled to integers by the lcm of its denominators, so no
    ``Fraction`` arithmetic happens until the one division by the product
    of the row scales at the end.
    """
    rows, scales = _int_rows(X)
    return Fraction(_int_det(rows), math.prod(scales))


def _minor_det(X, skip_row, skip_col):
    n = len(X)
    cells = [
        [X[r][c] for c in range(n) if c != skip_col]
        for r in range(n)
        if r != skip_row
    ]
    return rat_det(cells)


def _adjugate_by_cofactors(X):
    n = len(X)
    if n == 1:
        return ((_ONE,),)
    return tuple(
        tuple(
            (-1) ** (i + j) * _minor_det(X, j, i)  # transposed placement
            for j in range(n)
        )
        for i in range(n)
    )


def rat_adjugate(X, inverse=None):
    """Signed classical adjugate, satisfying ``adj(X) @ X = det(X) * I``.

    Cofactor route up to order 5; for larger invertible matrices the cheaper
    ``det(X) * inverse(X)`` route is used (the cofactor route remains the
    fallback when the determinant vanishes).  A caller that already holds
    ``rat_inverse(X)`` passes it as ``inverse``.  Above order 5 the result
    is therefore not independent of the Gauss-Jordan inverse.
    """
    n = len(X)
    if n <= 5:
        return _adjugate_by_cofactors(X)
    d = rat_det(X)
    if d == 0:
        return _adjugate_by_cofactors(X)
    if inverse is None:
        inverse = rat_inverse(X)
    return tuple(tuple(d * x for x in row) for row in inverse)


def rat_inverse(X):
    """Exact inverse by Gauss-Jordan elimination; raises Singular if det = 0."""
    n = len(X)
    a = [list(row) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(X)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise Singular("matrix has determinant 0")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r == col:
                continue
            lead = a[r][col]
            if lead:
                a[r] = [x - lead * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def minor_sums(X):
    """``E[k]`` = sum of all principal k-by-k minors, k = 0..n (E[0] = 1).

    X is scaled to integer rows once; a principal minor of the scaled rows
    is the minor of X times the product of its rows' scales, so each sum
    is gathered over the common denominator ``prod(scales)`` in ints.
    """
    n = len(X)
    rows, scales = _int_rows(X)
    common = math.prod(scales)
    sums = [_ONE]
    for k in range(1, n + 1):
        total = 0
        for subset in itertools.combinations(range(n), k):
            minor = _int_det([[rows[a][b] for b in subset] for a in subset])
            if minor:
                total += minor * (common // math.prod(scales[a] for a in subset))
        sums.append(Fraction(total, common))
    return sums


def char_coeffs(X):
    """Coefficient of ``lambda^(n-k)`` in ``det(lambda I - X)``: ``(-1)^k E_k``."""
    return _signed(minor_sums(X))


def _signed(sums):
    return [(-1) ** k * e for k, e in enumerate(sums)]


# Report records across the package are ``collections.namedtuple`` classes,
# subclassed with ``__slots__ = ()`` where one needs a docstring or an ``ok``
# property: immutable, compared by value, and built at import without the
# decorator machinery (and its ``inspect``/``ast`` imports) that every CLI
# run would otherwise pay for in set-up.
OracleReport = collections.namedtuple("OracleReport", "det jacobi reciprocal")


def oracle_report(X) -> OracleReport:
    """Check the Jacobi and reciprocal identities for every k at once.

    ``det(X)``, ``E(X)``, ``E(adj X)`` and, for invertible X, ``E(X^-1)`` are
    each computed once.  The inverse comes from Gauss-Jordan.  Up to order 5
    the adjugate comes from cofactors, independently of it, so the
    reciprocal check does not reduce to the Jacobi check.  Above order 5 an
    invertible X's adjugate is ``det * inverse`` (see :func:`rat_adjugate`),
    so there both verdicts rest on the same Gauss-Jordan inverse and the
    reciprocal check is no independent witness for the Jacobi check.  In the
    returned ``(det, jacobi, reciprocal)``, ``jacobi[k]`` for
    k = 0..n is the Jacobi verdict, ``None`` at k = 0 when ``det == 0``;
    ``reciprocal[k]`` for k = 0..n is the reciprocal verdict, and
    ``reciprocal`` is ``None`` for a singular matrix.
    """
    n = len(X)
    d = rat_det(X)
    inverse = rat_inverse(X) if d != 0 else None
    e = minor_sums(X)
    e_adj = minor_sums(rat_adjugate(X, inverse))
    jacobi = tuple(
        None if k == 0 and d == 0 else e_adj[k] == d ** (k - 1) * e[n - k]
        for k in range(n + 1)
    )
    reciprocal = None
    if inverse is not None:
        chi = _signed(e)
        chi_inv = _signed(minor_sums(inverse))
        reciprocal = tuple(chi[n] * chi_inv[k] == chi[n - k] for k in range(n + 1))
    return OracleReport(d, jacobi, reciprocal)


def _check_k(X, k):
    n = len(X)
    if not (0 <= k <= n):
        raise ValueError(f"k must lie in 0..{n}, got {k}")


def jacobi_check(X, k: int) -> bool:
    """Exact test of ``E_k(adj X) == det(X)^(k-1) * E_{n-k}(X)``.

    Holds for every rational X when k >= 1; k = 0 needs an invertible X
    (the right side carries ``det^(-1)``).  Reads :func:`oracle_report`.
    """
    _check_k(X, k)
    verdict = oracle_report(X).jacobi[k]
    if verdict is None:
        raise Singular("k = 0 requires an invertible matrix")
    return verdict


def reciprocal_check(X, k: int) -> bool:
    """Exact test of ``chi_n(X) * chi_k(X^-1) == chi_{n-k}(X)``.

    Reads :func:`oracle_report`.
    """
    _check_k(X, k)
    report = oracle_report(X)
    if report.reciprocal is None:
        raise Singular("reciprocal identity needs an invertible matrix")
    return report.reciprocal[k]


def parse_rational_matrix(text: str):
    """Same layout as the supertropical matrix format, tokens bare rationals."""
    return as_rational_matrix(parse_grid(text, parse_rational))
