"""Formal sparse polynomials over the n*n entry variables of a square matrix.

A polynomial maps exponent grids (flattened to an n*n tuple) to non-eps
scalar coefficients.  The module builds three distinguished polynomials for
a given order n and level k:

* ``alpha``: the k-th characteristic coefficient of the adjoint of the
  all-variable matrix;
* ``beta``: the (k-1)-fold product of the variable determinant times the
  (n-k)-th characteristic coefficient of the variable matrix;
* ``gamma``: the restriction of beta to its tangible-coefficient terms.

Every characteristic coefficient, and so every determinant, comes from one
graded row DP: the kernel's row DP of ``det(A + lambda I)`` run with
polynomial arithmetic.  One pass over the variable matrix gives ``det`` and
every ``chi_m`` behind beta; one pass over the symbolic adjoint, whose cells
are the determinants of the variable minors, gives every alpha.  Both are
kept per order.  The tests compare alpha and beta term for term with direct
enumerations of permutations and index tuples.

On top of these sit the mechanical support/evaluation checks used by the
verification harness.  Orders are capped at ``SYMBOLIC_CAP`` (4): the term
counts explode combinatorially beyond that.

Substituting a matrix ``A`` for the variables is a semiring homomorphism, so
``alpha(A) = chi_k(adj A)`` and ``beta(A) = det(A)^(k-1) * chi_{n-k}(A)``
hold exactly, ghost tags included.  The per-matrix checks therefore read
alpha and beta for every k from one kernel pass over ``A`` and evaluate only
gamma, compiled once per (n, k); ``engine="both"`` also evaluates alpha and beta
symbolically and raises :class:`InternalError` on any disagreement.

Variable indices in the public helpers are 1-based (``v11`` is the top-left
entry), matching the printed form ``v{row}{col}``.
"""

from __future__ import annotations

import collections
from functools import lru_cache

from .errors import InternalError, OrderTooLarge, Singular
from .matrices import Matrix, _minor, _row_plan, _surpassing_sides
from .scalars import EPS, Scalar, add, mul, ghost_surpasses, tangible

__all__ = [
    "SYMBOLIC_CAP",
    "Poly",
    "zero_poly",
    "unit_poly",
    "variable",
    "poly_add",
    "poly_mul",
    "poly_det",
    "build_alpha",
    "build_beta",
    "build_gamma",
    "evaluate",
    "format_poly",
    "Claim1Report",
    "Claim2Report",
    "Claim3Report",
    "DecompositionReport",
    "claim1_check",
    "claim2_check",
    "claim3_check",
    "decomposition_checks",
]

#: Largest order for which alpha/beta/gamma are built symbolically.
SYMBOLIC_CAP = 4


class Poly:
    """Sparse polynomial: exponent grid -> coefficient (eps never stored).

    :func:`evaluate` keeps a compiled form of the terms in a private slot,
    so the terms of an evaluated polynomial must not change.
    """

    __slots__ = ("n", "terms", "_compiled")

    def __init__(self, n, terms=None):
        if n < 1:
            raise ValueError("polynomial order must be at least 1")
        self.n = n
        width = n * n
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(f"exponent grid must have {width} entries, got {len(exps)}")
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative ints: {exps}")
            if not isinstance(coeff, Scalar):
                raise TypeError("coefficients must be Scalar")
            if coeff.tag is None:
                continue
            clean[exps] = coeff
        self.terms = clean
        self._compiled = None

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Poly(n={self.n}, terms={len(self.terms)})"

    def sorted_terms(self):
        """Terms in canonical order: by total degree, then lexicographically."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))


def _raw(n, terms):
    """Internal constructor bypassing validation (callers keep the invariants)."""
    p = Poly.__new__(Poly)
    p.n = n
    p.terms = terms
    p._compiled = None
    return p


def zero_poly(n: int) -> Poly:
    return _raw(n, {})


def unit_poly(n: int) -> Poly:
    return _raw(n, {(0,) * (n * n): tangible(0)})


def variable(n: int, i: int, j: int) -> Poly:
    """The single-variable monomial ``v_ij`` (1-based) with unit coefficient."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"variable indices out of range for order {n}: ({i}, {j})")
    exps = [0] * (n * n)
    exps[(i - 1) * n + (j - 1)] = 1
    return _raw(n, {tuple(exps): tangible(0)})


def poly_add(p: Poly, q: Poly) -> Poly:
    if p.n != q.n:
        raise ValueError(f"order mismatch: {p.n} vs {q.n}")
    if not p.terms:
        return q
    if not q.terms:
        return p
    terms = dict(p.terms)
    for exps, coeff in q.terms.items():
        seen = terms.get(exps)
        terms[exps] = coeff if seen is None else add(seen, coeff)
    return _raw(p.n, terms)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if p.n != q.n:
        raise ValueError(f"order mismatch: {p.n} vs {q.n}")
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            coeff = mul(c1, c2)
            seen = terms.get(exps)
            terms[exps] = coeff if seen is None else add(seen, coeff)
    return _raw(p.n, terms)


def _poly_sums(cells, n):
    """``sums[k]``: the sum of all principal k-by-k minors of the square grid
    ``cells`` of order-n polynomials, k = 0..m; ``sums[m]`` is its determinant.

    The row DP of :func:`matrices._principal_sums` over the same index plan,
    with :func:`poly_add` and :func:`poly_mul` as the semiring: ``f[S][d]``
    sums the assignments of rows ``0..|S|-1`` onto the columns ``S`` in which
    ``d`` rows take the tangible unit lambda on the diagonal.
    """
    m = len(cells)
    by_count, pairs = _row_plan(m)
    zero = zero_poly(n)
    f = [None] * (1 << m)
    f[0] = [unit_poly(n)]
    for r in range(m):
        row = cells[r]
        low = (2 << r) - 1
        for S in by_count[r + 1]:
            out = [zero] * ((S & low).bit_count() + 1)
            for T, j in pairs[S]:
                prev = f[T]
                if j == r:
                    for d, p in enumerate(prev, 1):
                        out[d] = poly_add(out[d], p)
                for d, p in enumerate(prev):
                    out[d] = poly_add(out[d], poly_mul(p, row[j]))
            f[S] = out
    return f[-1][::-1]  # f[full][m] is the unit: every row takes lambda


def poly_det(cells, n: int) -> Poly:
    """Determinant of a square grid of polynomials over order-n variables.

    The empty grid yields the unit (empty-product convention), which is what
    the k = 0 / k = n edge cases rely on.
    """
    return _poly_sums(cells, n)[-1]


def _variable_cells(n):
    return [[variable(n, i + 1, j + 1) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def _variable_sums(n):
    """Every ``chi_m`` of the all-variable matrix, m = 0..n."""
    return _poly_sums(_variable_cells(n), n)


@lru_cache(maxsize=None)
def _adjoint_sums(n):
    """Every ``chi_m`` of the adjoint of the all-variable matrix, m = 0..n;
    its entry (i, j) is the minor without row j and column i."""
    cells = _variable_cells(n)
    adj = [[poly_det(_minor(cells, j, i), n) for j in range(n)] for i in range(n)]
    return _poly_sums(adj, n)


def _check_caps(n, k, k_floor):
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > SYMBOLIC_CAP:
        raise OrderTooLarge(f"symbolic construction capped at order {SYMBOLIC_CAP}, got {n}")
    if not (k_floor <= k <= n):
        raise ValueError(f"k must lie in {k_floor}..{n}, got {k}")


@lru_cache(maxsize=None)
def build_alpha(n: int, k: int) -> Poly:
    """The k-th characteristic coefficient of the adjoint variable matrix.

    Results are cached (they are pure in ``n`` and ``k``); treat the returned
    polynomial as read-only.
    """
    _check_caps(n, k, 0)
    return _adjoint_sums(n)[k]


@lru_cache(maxsize=None)
def build_beta(n: int, k: int) -> Poly:
    """``det^(k-1) * chi_{n-k}`` of the variable matrix, k >= 1.

    k = 0 is rejected: it would need the inverse determinant, which is not a
    polynomial.  Built via polynomial products.  Cached; treat as read-only.
    """
    _check_caps(n, k, 1)
    sums = _variable_sums(n)
    beta = unit_poly(n)
    for _ in range(k - 1):
        beta = poly_mul(beta, sums[n])
    return poly_mul(beta, sums[n - k])


@lru_cache(maxsize=None)
def build_gamma(n: int, k: int) -> Poly:
    """The tangible-coefficient part of beta.  Cached; treat as read-only."""
    beta = build_beta(n, k)
    return _raw(n, {e: c for e, c in beta.terms.items() if c.is_tangible})


def _compiled(p):
    """The terms of ``p`` as ``(coefficient, support, indices)``: ``support``
    has bit ``i`` set for each flat entry index ``i`` with a non-zero
    exponent, and ``indices`` lists each such ``i`` as often as its exponent.
    Built on the first call and kept on ``p``."""
    compiled = p._compiled
    if compiled is None:
        compiled = p._compiled = tuple(
            (
                coeff,
                sum(1 << i for i, e in enumerate(exps) if e),
                tuple(i for i, e in enumerate(exps) for _ in range(e)),
            )
            for exps, coeff in p.terms.items()
        )
    return compiled


def evaluate(p: Poly, A: Matrix) -> Scalar:
    """Value of ``p`` at the matrix ``A``; the empty polynomial gives eps.

    A term is eps when its support meets an eps entry, and a ghost when it
    meets a ghost entry or has a ghost coefficient; its value is the
    coefficient's plus the entry values, each counted by its exponent.
    """
    if p.n != A.n:
        raise ValueError(f"order mismatch: polynomial {p.n} vs matrix {A.n}")
    values = []
    eps_mask = ghost_mask = 0
    bit = 1
    for row in A.rows:
        for s in row:
            if s.tag is None:
                eps_mask |= bit
            elif not s.tag:
                ghost_mask |= bit
            values.append(s.value)
            bit <<= 1
    value_at = values.__getitem__
    best_value = None
    best_tag = None
    for coeff, support, indices in _compiled(p):
        if support & eps_mask:
            continue
        value = sum(map(value_at, indices), coeff.value)
        tag = 0 if support & ghost_mask else coeff.tag
        if best_value is None or value > best_value:
            best_value = value
            best_tag = tag
        elif value == best_value:
            best_tag = 0
    if best_value is None:
        return EPS
    return Scalar(best_value, best_tag)


def format_poly(p: Poly) -> str:
    """One term per line, ``coeff * v11^a11 ... vnn^ann``, canonical order.

    Every variable is printed with its exponent (including 0) so the lines
    are fixed-width and diff-stable for golden files.
    """
    n = p.n
    names = [f"v{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    lines = []
    for exps, coeff in p.sorted_terms():
        grid = " ".join(f"{name}^{e}" for name, e in zip(names, exps))
        lines.append(f"{coeff.token} * {grid}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# claim checks


class Claim1Report(
    collections.namedtuple("Claim1Report", "n k alpha_terms beta_terms violations")
):
    """Support comparison of alpha and beta: every grid with a tangible
    coefficient on either side must appear (non-eps) on both sides."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class Claim2Report(collections.namedtuple("Claim2Report", "n k gamma_terms missing")):
    """gamma must be a sub-sum of alpha: its support inside alpha's support."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.missing


class Claim3Report(collections.namedtuple("Claim3Report", "n k beta_value gamma_value")):
    """beta(A) and gamma(A), which must be equal scalars."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.beta_value == self.gamma_value


class DecompositionReport(
    collections.namedtuple(
        "DecompositionReport",
        "n k alpha_value beta_value u_exists tangible_case_ok surpasses",
    )
):
    """The three scalar decompositions behind the surpassing theorem:
    ``u_exists``, some addend u with alpha(A) = beta(A) + u;
    ``tangible_case_ok``, if alpha(A) is tangible, some s with
    beta(A) = alpha(A) + s; ``surpasses``, alpha(A) ghost-surpasses beta(A)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.u_exists and self.tangible_case_ok and self.surpasses


def claim1_check(n: int, k: int) -> Claim1Report:
    _check_caps(n, k, 1)
    alpha = build_alpha(n, k)
    beta = build_beta(n, k)
    tangible_support = {e for e, c in alpha.terms.items() if c.is_tangible}
    tangible_support |= {e for e, c in beta.terms.items() if c.is_tangible}
    violations = tuple(
        sorted(e for e in tangible_support if e not in alpha.terms or e not in beta.terms)
    )
    return Claim1Report(
        n=n,
        k=k,
        alpha_terms=len(alpha),
        beta_terms=len(beta),
        violations=violations,
    )


def claim2_check(n: int, k: int) -> Claim2Report:
    _check_caps(n, k, 1)
    alpha = build_alpha(n, k)
    gamma = build_gamma(n, k)
    missing = tuple(sorted(e for e in gamma.terms if e not in alpha.terms))
    return Claim2Report(n=n, k=k, gamma_terms=len(gamma), missing=missing)


def _exists_addend(target: Scalar, base: Scalar) -> bool:
    """True iff some x (any element) satisfies ``target = base + x``."""
    if target == base:
        return True
    if base.tag is None:
        return True
    if target.tag is None:
        return False
    if target.value > base.value:
        return True
    return target.tag == 0 and target.value == base.value


def _claims_reports(A: Matrix, ks, engine: str = "auto"):
    """``(Claim3Report, DecompositionReport)`` of ``A`` for each k in ``ks``.

    alpha(A) and beta(A) are the two sides of the surpassing check, read for
    every k from the kernel pass that :func:`matrices.conjecture_check` uses;
    the same pass settles non-singularity.  Only gamma goes through
    :func:`evaluate`.  Under ``engine="both"`` alpha and beta are also evaluated
    symbolically, and a disagreement raises :class:`InternalError`.
    """
    n = A.n
    for k in ks:
        _check_caps(n, k, 1)
    d, sides = _surpassing_sides(A, engine)
    if not d.is_tangible:
        raise Singular("claim 3 is stated for non-singular matrices")
    reports = []
    for k in ks:
        alpha_value, beta_value = sides[k]
        if engine == "both":
            for name, kernel, build in (("alpha", alpha_value, build_alpha),
                                        ("beta", beta_value, build_beta)):
                symbolic = evaluate(build(n, k), A)
                if kernel != symbolic:
                    raise InternalError(
                        f"{name}_{{{n},{k}}}(A) disagrees: kernel {kernel.token}, "
                        f"symbolic {symbolic.token}"
                    )
        gamma_value = evaluate(build_gamma(n, k), A)
        reports.append((
            Claim3Report(n=n, k=k, beta_value=beta_value, gamma_value=gamma_value),
            DecompositionReport(
                n=n,
                k=k,
                alpha_value=alpha_value,
                beta_value=beta_value,
                u_exists=_exists_addend(alpha_value, beta_value),
                tangible_case_ok=(
                    not alpha_value.is_tangible or _exists_addend(beta_value, alpha_value)
                ),
                surpasses=ghost_surpasses(alpha_value, beta_value),
            ),
        ))
    return reports


def claim3_check(A: Matrix, k: int) -> Claim3Report:
    """Exact equality of beta and gamma evaluated at a non-singular matrix."""
    return _claims_reports(A, (k,))[0][0]


def decomposition_checks(A: Matrix, k: int) -> DecompositionReport:
    """The three decompositions of alpha(A) against beta(A), A non-singular."""
    return _claims_reports(A, (k,))[0][1]
