"""Formal sparse polynomials over the n*n entry variables of a square matrix.

A polynomial maps monomials to tags.  A monomial is one int, its key: the
exponent of the variable with flat index ``i = (row - 1) * n + (col - 1)``
is the nibble at bits ``4i .. 4i + 3``.  Every exponent the builders make
is at most k <= n <= 5 < 16, so a product of two monomials is the sum of
their keys, with no carry between nibbles.  :func:`_exponents` reads a key
back as its n*n exponent grid.

Every coefficient the builders make has value 0, so a term keeps only the
tag of its coefficient: 1 for ``0t``, a monomial that arises once, and 0
for ``0g``, one that arises more than once (Izhakian and Rowen,
"Supertropical algebra", 2010).  A sum of two terms on one monomial is
``0g``; a product of two terms has tag ``t1 & t2``.  The module builds
three distinguished polynomials for a given order n and level k:

* ``alpha``: the k-th characteristic coefficient of the adjoint of the
  all-variable matrix;
* ``beta``: the (k-1)-fold product of the variable determinant times the
  (n-k)-th characteristic coefficient of the variable matrix;
* ``gamma``: the restriction of beta to its terms of tag 1.

Every characteristic coefficient is a sum of principal-minor determinants,
and is built as one: :func:`poly_det` is the kernel's prefix row DP run
with polynomial arithmetic, and ``chi_k`` of a grid adds up ``poly_det`` of
its principal k-by-k subgrids.  alpha is that sum over the symbolic
adjoint, whose cells are the determinants of the variable minors; beta is
the variable determinant to the power k - 1 times that sum over the variable
matrix at n - k.  The adjoint cells and the variable determinant are kept
per order.  The pieces of one sum have disjoint supports: a term of
alpha's piece on the index set S has row and column sums k - 1 on S and k
off it, and a term of beta's piece on R has sums k on R and k - 1 off it,
so each tag is decided inside its piece.  The tests check that split, and
compare alpha and beta term for term with direct enumerations of
permutations and index tuples.

On top of these sit the mechanical support/evaluation checks used by the
verification harness.  :data:`SYMBOLIC_KMAX` caps the k that the builders
accept at each order: every k up to order 4, and k <= 3 at order 5, where
alpha has 178,960 terms at k = 3 and 1,184,930 at k = 4.

Substituting a matrix ``A`` for the variables is a semiring homomorphism, so
``alpha(A) = chi_k(adj A)`` and ``beta(A) = det(A)^(k-1) * chi_{n-k}(A)``
hold exactly, ghost tags included.  The per-matrix checks therefore read
alpha and beta for every k from one kernel pass over ``A``, and evaluate
gamma symbolically; ``engine="both"`` also evaluates alpha and beta
symbolically and raises :class:`InternalError` on any disagreement.

Evaluation does not walk the terms.  :func:`_compile` folds the keys of
one or more polynomials into one DAG over row fields: a node is the sum of
some terms below a prefix of rows, each edge one distinct field of the next
row times a node below it, and equal nodes are shared, across the
polynomials too, each polynomial being one root.  :func:`_fold` reads each
distinct field once and makes one addition per edge, so at order 5, k = 3
alpha's 178,960 terms cost 10,882 edges and 250 fields.  The fold is the
same regrouping by distributivity as the kernel's row DP, and each term is
one path from its root to a leaf, so it is counted exactly once.  A claims
trial makes one fold per matrix, of one DAG per order (:func:`_claims_dag`)
whose roots are gamma for every k checked, and alpha and beta too under
``engine="both"``: gamma(n, k) over k = 1..n reads 5 fields and 7 edges at
order 2, 25 and 50 at order 3 and 85 and 405 at order 4, where one DAG per
k read 7 and 8, 37 and 56, and 121 and 426, and scanned the entries once
per k.  :func:`evaluate` is the one-root case, its DAG kept on the
polynomial.

Variable indices in the public helpers are 1-based: ``variable(n, 1, 1)`` is
``v11``, the top-left entry.
"""

from __future__ import annotations

import collections
import itertools
from functools import lru_cache, reduce
from operator import itemgetter, or_

from .errors import InternalError, OrderTooLarge, Singular
from .matrices import Matrix, _minor, _row_plan, _surpassing_sides
from .scalars import EPS, Scalar, ghost_surpasses

__all__ = [
    "SYMBOLIC_KMAX",
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
    "Claim1Report",
    "Claim2Report",
    "Claim3Report",
    "DecompositionReport",
    "claim1_check",
    "claim2_check",
    "claim3_check",
    "decomposition_checks",
]

#: The largest k for which alpha/beta/gamma are built, per order; an order
#: that is not a key is not built at all.
SYMBOLIC_KMAX = {1: 1, 2: 2, 3: 3, 4: 4, 5: 3}

#: Bits per exponent in a monomial key.
_NIBBLE = 4


class Poly:
    """Sparse polynomial over the n*n entry variables of order ``n``.

    ``terms`` maps each monomial key (see the module docstring) to the tag
    of its coefficient: 1 for ``0t``, 0 for ``0g``.  A monomial that is
    absent has coefficient eps.  Both arguments are stored as given, without
    a check or a copy.  :func:`evaluate` keeps the row-field DAG of the
    terms (:func:`_compiled`) in a private slot, so the terms of an
    evaluated polynomial must not change.
    """

    __slots__ = ("n", "terms", "_compiled")

    def __init__(self, n, terms):
        self.n = n
        self.terms = terms
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


def zero_poly(n: int) -> Poly:
    return Poly(n, {})


def unit_poly(n: int) -> Poly:
    return Poly(n, {0: 1})


def variable(n: int, i: int, j: int) -> Poly:
    """The single-variable monomial ``v_ij`` (1-based) with coefficient ``0t``."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"variable indices out of range for order {n}: ({i}, {j})")
    return Poly(n, {1 << _NIBBLE * ((i - 1) * n + (j - 1)): 1})


def _exponents(key, n):
    """The n*n exponent grid of the monomial ``key``, flattened row by row."""
    return tuple(key >> _NIBBLE * i & 15 for i in range(n * n))


def poly_add(p: Poly, q: Poly) -> Poly:
    if p.n != q.n:
        raise ValueError(f"order mismatch: {p.n} vs {q.n}")
    if not p.terms:
        return q
    if not q.terms:
        return p
    terms = dict(p.terms)
    for key, tag in q.terms.items():
        terms[key] = 0 if key in terms else tag
    return Poly(p.n, terms)


def poly_mul(p: Poly, q: Poly) -> Poly:
    """The product of ``p`` and ``q``: each pair of terms adds its keys.
    A factor with an exponent above 7 is refused, since the product of two
    such could carry out of its 4 bits into the next variable's."""
    if p.n != q.n:
        raise ValueError(f"order mismatch: {p.n} vs {q.n}")
    high = ((1 << _NIBBLE * p.n * p.n) - 1) // 15 * 8  # bit 3 of each of the n*n nibbles
    if (reduce(or_, p.terms, 0) | reduce(or_, q.terms, 0)) & high:
        raise ValueError("a factor has an exponent above 7, which a product could carry into the next variable")
    terms = {}
    for e1, t1 in p.terms.items():
        for e2, t2 in q.terms.items():
            key = e1 + e2
            terms[key] = 0 if key in terms else t1 & t2
    return Poly(p.n, terms)


def poly_det(cells, n: int) -> Poly:
    """Determinant of a square grid of polynomials over order-n variables.

    The prefix row DP of :func:`matrices._prefix_dp` on the same index plan:
    ``f[S]`` sums the assignments of the first ``|S|`` rows onto the columns
    ``S``, and every product ``f[T] * cell`` of its sum is added term by
    term straight into the one dict of ``f[S]``, with the tags of
    :func:`poly_add` and :func:`poly_mul`.  O(m 2^m) polynomial products for
    an m-by-m grid.  The empty grid yields the unit (empty-product
    convention), which k = 0 and k = n rely on.

    A term of the result takes one cell per row, so none of its exponents
    exceeds the sum over the rows of the row's largest exponent; a grid
    where that sum is above 15, so that a product could carry out of its
    4 bits into the next variable's, is refused before the DP.
    """
    m = len(cells)
    if sum(max(map(_top_exponent, row), default=0) for row in cells) > 15:
        raise ValueError("the rows' largest exponents sum above 15, which a product could carry into the next variable")
    by_count, pairs = _row_plan(m)
    f = [None] * (1 << m)
    f[0] = {0: 1}
    for r in range(m):
        row = cells[r]
        for S in by_count[r + 1]:
            terms = {}
            for T, j in pairs[S]:
                cell = row[j].terms.items()
                for e1, t1 in f[T].items():
                    for e2, t2 in cell:
                        key = e1 + e2
                        terms[key] = 0 if key in terms else t1 & t2
            f[S] = terms
    return Poly(n, f[-1])


def _top_exponent(p):
    """The largest exponent in any term of ``p``; 0 for the zero polynomial."""
    return max((key >> i & 15 for key in p.terms for i in range(0, key.bit_length(), _NIBBLE)), default=0)


def _principal_sum(cells, n, k):
    """``chi_k`` of the square grid ``cells``: the sum of the determinants of
    its principal k-by-k subgrids."""
    return reduce(poly_add, (
        poly_det([[cells[i][j] for j in S] for i in S], n)
        for S in itertools.combinations(range(len(cells)), k)
    ))


def _variable_cells(n):
    return [[variable(n, i + 1, j + 1) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def _variable_det(n):
    """The determinant of the all-variable matrix."""
    return poly_det(_variable_cells(n), n)


@lru_cache(maxsize=None)
def _adjoint_cells(n):
    """The adjoint of the all-variable matrix: its cell (i, j) is the
    determinant of the minor without row j and column i."""
    cells = _variable_cells(n)
    return tuple(tuple(poly_det(_minor(cells, j, i), n) for j in range(n)) for i in range(n))


def _check_caps(n, k, k_floor):
    if n < 1:
        raise ValueError("order must be at least 1")
    if n not in SYMBOLIC_KMAX:
        raise OrderTooLarge(f"symbolic construction capped at order {max(SYMBOLIC_KMAX)}, got {n}")
    if not (k_floor <= k <= n):
        raise ValueError(f"k must lie in {k_floor}..{n}, got {k}")
    if k > SYMBOLIC_KMAX[n]:
        raise OrderTooLarge(f"symbolic construction at order {n} capped at k = {SYMBOLIC_KMAX[n]}, got {k}")


@lru_cache(maxsize=None)
def build_alpha(n: int, k: int) -> Poly:
    """The k-th characteristic coefficient of the adjoint variable matrix.

    Results are cached (they are pure in ``n`` and ``k``); treat the returned
    polynomial as read-only.
    """
    _check_caps(n, k, 0)
    return _principal_sum(_adjoint_cells(n), n, k)


@lru_cache(maxsize=None)
def build_beta(n: int, k: int) -> Poly:
    """``det^(k-1) * chi_{n-k}`` of the variable matrix, k >= 1.

    k = 0 is rejected: it would need the inverse determinant, which is not a
    polynomial.  Built via polynomial products.  Cached; treat as read-only.
    """
    _check_caps(n, k, 1)
    beta = unit_poly(n)
    for _ in range(k - 1):
        beta = poly_mul(beta, _variable_det(n))
    return poly_mul(beta, _principal_sum(_variable_cells(n), n, n - k))


@lru_cache(maxsize=None)
def build_gamma(n: int, k: int) -> Poly:
    """The terms of beta with tag 1.  Cached; treat as read-only."""
    beta = build_beta(n, k)
    return Poly(n, {key: tag for key, tag in beta.terms.items() if tag})


def _nibbles(key):
    """``(support, indices)`` of the monomial ``key``, read nibble by nibble:
    ``support`` has bit ``i`` set for each flat entry index ``i`` with a
    non-zero exponent, and ``indices`` lists each such ``i`` as often as its
    exponent."""
    support = 0
    indices = []
    i = 0
    while key:
        e = key & 15
        if e:
            support |= 1 << i
            indices += [i] * e
        key >>= _NIBBLE
        i += 1
    return support, tuple(indices)


def _compile(n, polys):
    """The row-field DAG of the polynomials ``polys``, all of order ``n``:
    ``(supports, reads, nodes, roots)``, one root per polynomial.

    A key's row-r field is its n nibbles for row r, and its prefix at row r
    is its fields above r.  The DAG is built bottom-up, one pass per row
    from the last: for each polynomial in turn, the keys with their tags (at
    the last row), or the prefixes of the row below with their node ids
    (above it), are grouped by their prefix at row r, and each group is a
    node, the tuple of its ``(field id, child)`` edges in one canonical
    order (by child, then field).  Equal nodes of a row, tags included, are
    interned across all the polynomials, so equal sub-polynomials share one
    node, whichever polynomial they come from.  ``nodes`` lists the nodes
    row by row, last row first: ``nodes[i]`` has id ``i + 2``, and ids 0
    and 1 are the leaves, the coefficients ``0g`` and ``0t`` that a
    last-row edge names by its term's tag.  ``roots[q]`` is the id of the
    first-row node of ``polys[q]``, or ``None`` if it is the zero
    polynomial; equal polynomials share their root.

    Every distinct field, of any row and any polynomial, has one id:
    ``supports[id]`` has bit ``i`` set for each flat entry index ``i`` of
    non-zero exponent, and ``reads[id]`` gets from a matrix's flat entry
    values, with a 0 appended, each index as often as its exponent, padded
    with the appended 0 to at least two (a getter of one index returns no
    tuple).

    Each key of ``polys[q]`` is exactly one path from ``roots[q]`` to a
    leaf, its fields in row order, and each such path is one key: the
    fields of a node are distinct, each edge naming one prefix of the row
    below.
    """
    width = _NIBBLE * n
    mask = (1 << width) - 1
    ids = {}  # each distinct field, in place in its key, to its id
    nodes = []  # node i has id i + 2, after the leaves
    items = [p.terms.items() for p in polys]  # per root, (prefix, child): first the keys and tags
    for r in reversed(range(n)):
        shift = width * r
        low = (1 << shift) - 1
        level = {}
        base = len(nodes) + 2
        for q, pairs in enumerate(items):
            groups = collections.defaultdict(list)
            for key, child in pairs:
                groups[key & low].append(child << width | key >> shift)
            items[q] = [
                (prefix, level.setdefault(tuple(sorted(edges)), base + len(level)))
                for prefix, edges in groups.items()
            ]
        nodes += [
            tuple((ids.setdefault((e & mask) << shift, len(ids)), e >> width) for e in node)
            for node in level
        ]
    supports, indices = zip(*map(_nibbles, ids)) if ids else ((), ())
    pad = (n * n,) * 2
    reads = tuple(itemgetter(*(i + pad)[:max(len(i), 2)]) for i in indices)
    roots = tuple(pairs[0][1] if pairs else None for pairs in items)
    return supports, reads, tuple(nodes), roots


def _compiled(p):
    """The one-root DAG of :func:`_compile` for ``p``, built on the first
    call and kept on ``p``."""
    compiled = p._compiled
    if compiled is None:
        compiled = p._compiled = _compile(p.n, (p,))
    return compiled


def _fold(dag, A):
    """The value at the matrix ``A`` of each root of ``dag`` (see
    :func:`_compile`), as a list of scalars; a ``None`` root gives eps.

    One scan of the entries gives their values and the eps and ghost masks.
    Each distinct field is read once: eps if its support meets an eps entry,
    else the sum of its entries' values, each counted by its exponent, and a
    ghost iff its support meets a ghost entry.  Then each node is folded
    once, from the last row up: its value is the sum over its edges of field
    times child, and a tie at the top gives a ghost.  By distributivity this
    regroups the sum of the terms, as the kernel's row DP regroups a
    permutation sum, and each term is counted once, being one path from its
    root to a leaf: that matters, since addition is not idempotent.  A call
    costs the DAG's fields plus its edges, however many roots share them.
    """
    supports, reads, nodes, roots = dag
    entries = []
    eps_mask = ghost_mask = 0
    bit = 1
    for row in A.rows:
        for s in row:
            if s.tag is None:
                eps_mask |= bit
            elif not s.tag:
                ghost_mask |= bit
            entries.append(s.value)
            bit <<= 1
    entries.append(0)  # the getters' pad
    field = [None if support & eps_mask else sum(read(entries)) for support, read in zip(supports, reads)]
    values = [0, 0]  # per node id, its value, or None for eps; the leaves first
    tags = [0, 1]
    for node in nodes:
        best = tag = None
        for f, c in node:
            a = field[f]
            b = values[c]
            if a is None or b is None:
                continue
            a += b
            if best is None or a > best:
                best = a
                tag = 0 if supports[f] & ghost_mask else tags[c]
            elif a == best:
                tag = 0
        values.append(best)
        tags.append(tag)
    return [EPS if r is None or values[r] is None else Scalar(values[r], tags[r]) for r in roots]


def evaluate(p: Poly, A: Matrix) -> Scalar:
    """Value of ``p`` at the matrix ``A``; the empty polynomial gives eps.

    The one-root case of :func:`_fold`, on the DAG of ``p`` alone
    (:func:`_compiled`).  A call costs the DAG's fields plus its edges, not
    the terms times their degree.
    """
    if p.n != A.n:
        raise ValueError(f"order mismatch: polynomial {p.n} vs matrix {A.n}")
    return _fold(_compiled(p), A)[0]


@lru_cache(maxsize=None)
def _claims_dag(n, ks, both):
    """The DAG of :func:`_compile` over every polynomial that a claims trial
    at order ``n`` evaluates for the k in the tuple ``ks``: gamma(n, k) for
    each k, then, if ``both``, alpha(n, k) for each k and beta(n, k) for
    each k."""
    builds = (build_gamma, build_alpha, build_beta) if both else (build_gamma,)
    return _compile(n, [build(n, k) for build in builds for k in ks])


# ---------------------------------------------------------------------------
# claim checks


class Claim1Report(
    collections.namedtuple("Claim1Report", "n k alpha_terms beta_terms violations")
):
    """Support comparison of alpha and beta: every monomial with tag 1 on
    either side must appear on both sides.  ``violations`` lists the
    exponent grids of those that do not."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class Claim2Report(collections.namedtuple("Claim2Report", "n k gamma_terms missing")):
    """gamma must be a sub-sum of alpha: its support inside alpha's support.
    ``missing`` lists the exponent grids of gamma's monomials outside it."""

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
    tangible_support = {e for e, tag in alpha.terms.items() if tag}
    tangible_support |= {e for e, tag in beta.terms.items() if tag}
    violations = tuple(sorted(
        _exponents(e, n) for e in tangible_support if e not in alpha.terms or e not in beta.terms
    ))
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
    missing = tuple(sorted(_exponents(e, n) for e in gamma.terms if e not in alpha.terms))
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
    the same pass settles non-singularity.  The symbolic side is one
    :func:`_fold` of the order's DAG (:func:`_claims_dag`): gamma(A) for
    every k, and under ``engine="both"`` alpha(A) and beta(A) for every k
    too, from one scan of the entries; a disagreement with the kernel raises
    :class:`InternalError`.
    """
    n = A.n
    ks = tuple(ks)
    for k in ks:
        _check_caps(n, k, 1)
    d, sides = _surpassing_sides(A, engine)
    if not d.is_tangible:
        raise Singular("claim 3 is stated for non-singular matrices")
    symbolic = _fold(_claims_dag(n, ks, engine == "both"), A)
    if engine == "both":
        for name, column in (("alpha", 0), ("beta", 1)):
            for k, value in zip(ks, symbolic[(column + 1) * len(ks):]):
                kernel = sides[k][column]
                if kernel != value:
                    raise InternalError(
                        f"{name}_{{{n},{k}}}(A) disagrees: kernel {kernel.token}, "
                        f"symbolic {value.token}"
                    )
    reports = []
    for k, gamma_value in zip(ks, symbolic):
        alpha_value, beta_value = sides[k]
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
