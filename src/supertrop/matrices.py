"""Square matrices over the supertropical scalars.

Three determinant engines with an identical output contract:

* ``det_brute`` folds the semiring sum over all n! permutation products
  (the reference, capped at a configurable order);
* a subset-DP kernel sums the same permutations row by row over column
  subsets in O(n 2^n); one pass of prefix and suffix row DPs gives the
  determinant and every cofactor, and a cycle-cover DP gives every sum of
  principal minors;
* ``det_assignment`` solves the max-weight perfect-matching problem on the
  value grid once, with exact arithmetic, in O(n^3); it reads uniqueness of
  the optimal permutation off the final potentials (no cycle among the tight
  edges, an O(n^2) search) and derives the tangible/ghost tag from
  uniqueness plus the tags along the optimum.

The ``auto`` engine is the kernel at every order, so it costs O(n 2^n)
time and memory for a determinant and O(3^n) for the characteristic
coefficients; ``brute`` and ``assignment`` compute each minor separately;
``both`` runs all three and raises :class:`InternalError` on any
disagreement.  The engine names are :data:`ENGINES`.

On top of the determinant sit unsigned cofactors, the adjoint (transposed
cofactor grid), the characteristic coefficients (sums of principal minors),
the pseudoinverse, and the per-k surpassing check they were built for.

Rows and columns of :func:`cofactor` are numbered from 1, matching the usual
matrix convention; everything else is positional.
"""

from __future__ import annotations

import collections
import itertools

from .errors import InternalError, OrderTooLarge, Singular
from .scalars import EPS, Scalar, add, mul, ghost_surpasses, parse_grid, parse_scalar, tangible
from .scalars import pow as scalar_pow

__all__ = [
    "Matrix",
    "CharPoly",
    "ConjectureCase",
    "ConjectureReport",
    "BRUTE_CAP",
    "ENGINES",
    "det",
    "det_brute",
    "det_assignment",
    "det_power",
    "cofactor",
    "adjoint",
    "char_poly",
    "is_nonsingular",
    "pseudoinverse",
    "conjecture_check",
    "parse_matrix",
    "format_matrix",
]

#: Default order cap for the brute-force engine (``brute`` and ``both``).
BRUTE_CAP = 8

#: The determinant engines, by name.
ENGINES = ("auto", "brute", "assignment", "both")


class Matrix:
    """An immutable n-by-n grid of scalars, n >= 1.

    The kernel's prefix DP of the matrix is kept in a private slot once a
    determinant or adjoint has needed it; equality, hashing and ``repr``
    read the rows alone.
    """

    __slots__ = ("n", "rows", "_prefix")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix order must be at least 1")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got a row of length {len(row)} for order {n}")
            for entry in row:
                if not isinstance(entry, Scalar):
                    raise TypeError(f"matrix entries must be Scalar, got {type(entry).__name__}")
        self.n = n
        self.rows = rows
        self._prefix = None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        """The multiplicative identity: unit ``0t`` on the diagonal, eps elsewhere."""
        return cls([[tangible(0) if i == j else EPS for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(s.token for s in row) for row in self.rows)
        return f"Matrix({self.n}: {body})"


def _trusted(rows):
    """A :class:`Matrix` on ``rows``, a non-empty square grid of
    :class:`Scalar`, without re-checking them (callers keep the invariants).

    A matrix that is returned, compared or hashed needs a tuple of tuples;
    a minor that only feeds a determinant engine may be a list of lists,
    which builds faster and leaves no tuples on the interpreter's free lists.
    """
    A = Matrix.__new__(Matrix)
    A.n = len(rows)
    A.rows = rows
    A._prefix = None
    return A


class CharPoly(collections.namedtuple("CharPoly", "n coeffs")):
    """Characteristic coefficients: ``coeffs[k]`` is the sum of all principal
    k-by-k minors, so ``coeffs[0]`` is the unit and ``coeffs[n]`` the determinant."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# determinant engines


def _det_brute_cells(cells):
    n = len(cells)
    best_value = None
    best_tag = None
    for perm in itertools.permutations(range(n)):
        value = 0
        tag = 1
        alive = True
        for i in range(n):
            s = cells[i][perm[i]]
            if s.tag is None:
                alive = False
                break
            value = value + s.value
            tag &= s.tag
        if not alive:
            continue
        if best_value is None or value > best_value:
            best_value = value
            best_tag = tag
        elif value == best_value:
            best_tag = 0
    if best_value is None:
        return EPS
    return Scalar(best_value, best_tag)


def _best_assignment(weights):
    """Exact max-weight perfect matching on an n-by-n grid.

    ``weights[i][j]`` is an int/Fraction, or ``None`` for a forbidden edge.
    Returns ``(sigma, total, tight)`` with ``sigma[i]`` the column matched to
    row ``i`` and ``tight[i]`` the columns ``j`` whose edge ``(i, j)`` has
    reduced cost 0 against the final potentials, or ``None`` when no perfect
    matching avoids the forbidden edges.  The potentials are dual feasible
    (no reduced cost is negative) and every matched edge is tight, so a
    perfect matching has the optimal total iff all its edges are tight.
    Forbidden edges are priced with an exact big-M penalty, so feasibility
    is read off the solution rather than special-cased; nothing here keeps
    one from ending tight, so callers skip them.
    """
    n = len(weights)
    finite = [w for row in weights for w in row if w is not None]
    if not finite:
        return None
    w_max = max(finite)
    w_min = min(finite)
    forbidden_cost = (w_max - w_min + 1) * (n + 1)
    cost = [
        [forbidden_cost if w is None else w_max - w for w in row]
        for row in weights
    ]
    # Exact infinity.  Costs lie in [0, forbidden_cost].  A phase moves each
    # potential by at most its shortest-path length, which the direct edge
    # from the new row (u = 0) to a never-used free column (v = 0) bounds by
    # forbidden_cost; u only grows and v only shrinks, so no reduced cost
    # c - u - v ever exceeds (n + 1) * forbidden_cost.
    inf = (n + 2) * forbidden_cost

    # Shortest-augmenting-path assignment with potentials, 1-based arrays.
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            row_cost = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row_cost[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    sigma = [0] * n
    for j in range(1, n + 1):
        sigma[match[j] - 1] = j - 1
    total = 0
    for i in range(n):
        w = weights[i][sigma[i]]
        if w is None:
            return None  # optimum needs a forbidden edge: infeasible
        total = total + w
    tight = [
        [j for j in range(n) if cost[i][j] - u[i + 1] - v[j + 1] == 0]
        for i in range(n)
    ]
    return sigma, total, tight


def _has_cycle(succ):
    """Whether the digraph on ``range(len(succ))`` with successor lists
    ``succ`` has a directed cycle: one iterative depth-first search, linear
    in its arcs."""
    state = [0] * len(succ)  # 0 unseen, 1 on the search path, 2 finished
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        path = [(root, iter(succ[root]))]
        while path:
            node, arcs = path[-1]
            for nxt in arcs:
                if state[nxt] == 1:
                    return True
                if not state[nxt]:
                    state[nxt] = 1
                    path.append((nxt, iter(succ[nxt])))
                    break
            else:
                state[node] = 2
                path.pop()
    return False


def _det_assignment_cells(cells):
    n = len(cells)
    weights = [[None if s.tag is None else s.value for s in row] for row in cells]
    solved = _best_assignment(weights)
    if solved is None:
        return EPS
    sigma, best, tight = solved
    # A rival optimum is all tight edges, so it differs from sigma by cycles
    # of the digraph on rows with an arc i -> (the row matched to j) for each
    # tight non-eps edge (i, j) off sigma; sigma is unique iff it has none
    # (Butkovic 1995).  Eps edges are priced, not absent, so they may be
    # tight, but no permutation through one has a finite value.
    row_of = [0] * n
    for i, j in enumerate(sigma):
        row_of[j] = i
    succ = [
        [row_of[j] for j in tight[i] if j != sigma[i] and weights[i][j] is not None]
        for i in range(n)
    ]
    if _has_cycle(succ):
        return Scalar(best, 0)
    tag = 1
    for i in range(n):
        tag &= cells[i][sigma[i]].tag
    return Scalar(best, tag)


# ---------------------------------------------------------------------------
# subset-DP kernel
#
# The kernel works on raw cells: ``(value, tag)`` pairs, ``None`` for eps.
# The semiring is commutative and distributive, so regrouping a permutation
# sum over subsets gives exactly the brute-force result, ghost tags included,
# provided every permutation is counted once (addition is not idempotent:
# a tangible plus itself is a ghost).

_UNIT = (0, 1)


def _raw(cells):
    return [[None if s.tag is None else (s.value, s.tag) for s in row] for row in cells]


def _scalar(p):
    return EPS if p is None else Scalar(p[0], p[1])


def _radd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return (a[0], 0)


def _prefix_dp(raw):
    """``f[S]``: the sum over the assignments of rows ``0..|S|-1`` onto the
    column set ``S``; ``f[full]`` is the determinant.  O(n 2^n)."""
    n = len(raw)
    f = [None] * (1 << n)
    f[0] = _UNIT
    for S in range(1, 1 << n):
        row = raw[S.bit_count() - 1]
        best = None
        m = S
        while m:
            low = m & -m
            m ^= low
            prev = f[S ^ low]
            e = row[low.bit_length() - 1]
            if prev is None or e is None:
                continue
            v = prev[0] + e[0]
            if best is None or v > best:
                best = v
                tag = prev[1] & e[1]
            elif v == best:
                tag = 0
        if best is not None:
            f[S] = (best, tag)
    return f


def _prefix_table(A):
    """The prefix DP of the matrix ``A``, computed once and kept on ``A``."""
    P = A._prefix
    if P is None:
        P = A._prefix = _prefix_dp(_raw(A.rows))
    return P


def _cofactor_dp(A):
    """Raw determinant and every raw cofactor of ``A`` from its prefix DP and
    one suffix row DP.

    ``cof[i][j]`` deletes row ``i`` and column ``j``: rows above ``i`` take a
    column set ``S`` and rows below take the rest of the columns but ``j``.
    O(n 2^n).
    """
    n = A.n
    full = (1 << n) - 1
    P = _prefix_table(A)
    Q = _prefix_dp(_raw(A.rows[::-1]))  # Q[T]: the last |T| rows onto the columns T
    cof = [[None] * n for _ in range(n)]
    for S in range(full):
        p = P[S]
        if p is None:
            continue
        row = cof[S.bit_count()]
        rest = full ^ S
        m = rest
        while m:
            low = m & -m
            m ^= low
            q = Q[rest ^ low]
            if q is not None:
                j = low.bit_length() - 1
                row[j] = _radd(row[j], (p[0] + q[0], p[1] & q[1]))
    return P[full], cof


def _principal_sums(raw):
    """``sums[k]``: the sum of all principal k-by-k minors, k = 0..n.

    Each permutation of a subset ``S`` is split into the cycle through the
    smallest vertex of ``S`` and a permutation of the rest, so it is counted
    once.  Cycles come from Held-Karp path sums that start at their smallest
    vertex.  O(n^2 2^n + 3^n).
    """
    n = len(raw)
    size = 1 << n
    full = size - 1
    cyc = [None] * size  # cyc[C]: sum over the cyclic permutations of C
    paths = [None] * size  # paths[C][v]: paths from min(C) through C to v
    for s in range(n):
        sbit = 1 << s
        above = full ^ ((sbit << 1) - 1)
        paths[sbit] = {s: _UNIT}
        for m in range(1 << (n - s - 1)):
            C = sbit | (m << (s + 1))
            ends = paths[C]
            if ends is None:
                continue
            total = None
            free = above & ~C
            for v, p in ends.items():
                row = raw[v]
                e = row[s]
                if e is not None:
                    total = _radd(total, (p[0] + e[0], p[1] & e[1]))
                f = free
                while f:
                    low = f & -f
                    f ^= low
                    w = low.bit_length() - 1
                    e = row[w]
                    if e is None:
                        continue
                    nxt = paths[C | low]
                    if nxt is None:
                        nxt = paths[C | low] = {}
                    nxt[w] = _radd(nxt.get(w), (p[0] + e[0], p[1] & e[1]))
            cyc[C] = total
    g = [None] * size  # g[S]: the principal minor on S
    g[0] = _UNIT
    sums = [None] * (n + 1)
    sums[0] = _UNIT
    for S in range(1, size):
        low = S & -S
        rest = S ^ low
        sub = rest
        best = None
        while True:
            c = cyc[low | sub]
            if c is not None:
                r = g[rest ^ sub]
                if r is not None:
                    v = c[0] + r[0]
                    if best is None or v > best:
                        best = v
                        tag = c[1] & r[1]
                    elif v == best:
                        tag = 0
            if not sub:
                break
            sub = (sub - 1) & rest
        if best is not None:
            g[S] = (best, tag)
            k = S.bit_count()
            sums[k] = _radd(sums[k], g[S])
    return sums


def _det_dp_cells(A):
    """The kernel determinant of the matrix ``A``: the last prefix DP entry."""
    return _scalar(_prefix_table(A)[-1])


def _det_of(A, engine, cap):
    if engine == "auto":
        return _det_dp_cells(A)
    cells = A.rows
    if engine == "assignment":
        return _det_assignment_cells(cells)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if len(cells) > cap:
        raise OrderTooLarge(f"brute-force determinant capped at order {cap}, got {len(cells)}")
    b = _det_brute_cells(cells)
    if engine == "both":
        d = _det_dp_cells(A)
        a = _det_assignment_cells(cells)
        if not d == b == a:
            raise InternalError(
                f"determinant engines disagree: dp={d.token} brute={b.token} assignment={a.token}"
            )
    return b


def _batched(engine):
    """Whether ``engine`` takes a whole family of minors from one kernel pass."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine in ("auto", "both")


def _agree(what, kernel, per_minor):
    if kernel != per_minor:
        raise InternalError(f"{what} disagree: kernel {kernel!r}, per-minor {per_minor!r}")


def det_brute(A: Matrix, cap: int = BRUTE_CAP) -> Scalar:
    """Reference determinant: semiring sum over all permutation products."""
    return _det_of(A, "brute", cap)


def det_assignment(A: Matrix) -> Scalar:
    """Assignment-problem determinant; same output contract as :func:`det_brute`.

    One exact assignment solve gives the optimal value and permutation; the
    determinant is a ghost when a second permutation attains that value (a
    cycle of tight edges against the final potentials), else it carries the
    tags along the optimum.  O(n^3) for the solve, O(n^2) for the rest.
    """
    return _det_assignment_cells(A.rows)


def det(A: Matrix, engine: str = "auto", cap: int = BRUTE_CAP) -> Scalar:
    """Determinant with engine selection.

    ``auto`` runs the subset-DP kernel, whose O(n 2^n) time and memory
    bound the order in practice (``assignment`` is polynomial); ``both``
    runs the kernel, brute force and the assignment engine and raises
    :class:`InternalError` if they ever disagree.  ``cap`` bounds the
    brute-force engine.
    """
    return _det_of(A, engine, cap)


def det_power(d: Scalar, m: int) -> Scalar:
    """``d`` to the ``m``-fold product, reading the empty product as the unit.

    Unlike ``scalars.pow`` this accepts ``m == 0`` for any ``d`` (including
    eps), which is what the ``k - 1`` exponents of the surpassing check need.
    """
    if m == 0:
        return tangible(0)
    return scalar_pow(d, m)


# ---------------------------------------------------------------------------
# cofactors, adjoint, characteristic coefficients


def cofactor(A: Matrix, i: int, j: int, engine: str = "auto") -> Scalar:
    """Unsigned minor: determinant of A with row ``i`` and column ``j`` removed.

    ``i`` and ``j`` are 1-based.  For a 1-by-1 matrix the deletion is empty and
    the cofactor is the unit ``0t`` (empty-product convention).
    """
    n = A.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"cofactor indices out of range for order {n}: ({i}, {j})")
    if n == 1:
        return tangible(0)
    minor = _trusted([
        [s for c, s in enumerate(row) if c != j - 1]
        for r, row in enumerate(A.rows)
        if r != i - 1
    ])
    return _det_of(minor, engine, BRUTE_CAP)


def _adjoint_by_minors(A, engine):
    n = A.n
    return Matrix(
        [[cofactor(A, j + 1, i + 1, engine) for j in range(n)] for i in range(n)]
    )


def _kernel_adjoint(A, engine, d, cof):
    """``adj A`` from the raw cofactor grid ``cof`` of a kernel pass; under
    ``both`` it and the determinant ``d`` are checked minor by minor."""
    adj = _trusted(tuple(tuple(map(_scalar, col)) for col in zip(*cof)))
    if engine == "both":
        _agree("determinants", d, det(A, engine))
        _agree("adjoints", adj, _adjoint_by_minors(A, engine))
    return adj


def _det_and_adjoint(A, engine):
    """``(det A, adj A)``; one kernel pass where the engine batches."""
    if not _batched(engine):
        return det(A, engine), adjoint(A, engine)
    d, cof = _cofactor_dp(A)
    d = _scalar(d)
    return d, _kernel_adjoint(A, engine, d, cof)


def adjoint(A: Matrix, engine: str = "auto") -> Matrix:
    """The matrix whose (i, j) entry is the (j, i) cofactor of ``A``."""
    if _batched(engine):
        return _det_and_adjoint(A, engine)[1]
    return _adjoint_by_minors(A, engine)


def _char_poly_by_minors(A, engine):
    n = A.n
    rows = A.rows
    coeffs = [tangible(0)]
    for k in range(1, n + 1):
        acc = EPS
        for subset in itertools.combinations(range(n), k):
            minor = _trusted([[rows[a][b] for b in subset] for a in subset])
            acc = add(acc, _det_of(minor, engine, BRUTE_CAP))
        coeffs.append(acc)
    return CharPoly(n, tuple(coeffs))


def char_poly(A: Matrix, engine: str = "auto") -> CharPoly:
    """All characteristic coefficients of ``A``: sums of principal minors.

    Where the engine batches, one cycle-cover pass gives every coefficient;
    otherwise each minor is a separate determinant.
    """
    if not _batched(engine):
        return _char_poly_by_minors(A, engine)
    cp = CharPoly(A.n, tuple(_scalar(c) for c in _principal_sums(_raw(A.rows))))
    if engine == "both":
        _agree("characteristic coefficients", cp, _char_poly_by_minors(A, engine))
    return cp


def is_nonsingular(A: Matrix, engine: str = "auto") -> bool:
    """True iff the determinant is tangible (equivalently, invertible)."""
    return det(A, engine).is_tangible


def pseudoinverse(A: Matrix, engine: str = "auto") -> Matrix:
    """Adjoint scaled by the inverse determinant; requires a tangible determinant."""
    d, adj = _det_and_adjoint(A, engine)
    if not d.is_tangible:
        raise Singular(f"pseudoinverse needs a tangible determinant, got {d.token}")
    inv = scalar_pow(d, -1)
    return Matrix([[mul(inv, s) for s in row] for row in adj.rows])


# ---------------------------------------------------------------------------
# the surpassing check


class ConjectureCase(collections.namedtuple("ConjectureCase", "k lhs rhs holds")):
    """One k of the check: ``holds`` iff the scalar ``lhs`` ghost-surpasses ``rhs``."""

    __slots__ = ()


class ConjectureReport(collections.namedtuple("ConjectureReport", "n det singular cases")):
    """The per-k :class:`ConjectureCase` records of one matrix and its determinant."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(case.holds for case in self.cases)


def _surpassing_sides(A, engine):
    """``(det A, sides)`` from one kernel pass where the engine batches:
    ``sides[k]`` is ``(chi_k(adj A), det(A)^(k-1) * chi_{n-k}(A))``, k = 0..n,
    and ``sides[0]`` is ``None`` unless ``det A`` is tangible.

    The batched engines hand the raw cofactor grid, transposed, straight to
    the principal-minor pass; only ``both`` builds ``adj A`` as a matrix, to
    check it and its coefficients minor by minor.
    """
    n = A.n
    if _batched(engine):
        d, cof = _cofactor_dp(A)
        d = _scalar(d)
        chi_adj = tuple(map(_scalar, _principal_sums(list(zip(*cof)))))
        if engine == "both":
            adj = _kernel_adjoint(A, engine, d, cof)
            _agree("characteristic coefficients", CharPoly(n, chi_adj), _char_poly_by_minors(adj, engine))
    else:
        d, adj = _det_and_adjoint(A, engine)
        chi_adj = char_poly(adj, engine).coeffs
    chi = char_poly(A, engine).coeffs
    sides = [
        (chi_adj[k], mul(det_power(d, k - 1), chi[n - k])) if k or d.is_tangible else None
        for k in range(n + 1)
    ]
    return d, sides


def conjecture_check(
    A: Matrix,
    engine: str = "auto",
    ks=None,
    allow_singular: bool = False,
) -> ConjectureReport:
    """Per-k check that the k-th characteristic coefficient of the adjoint
    ghost-surpasses ``det^(k-1)`` times the (n-k)-th coefficient of ``A``.

    One kernel pass gives ``det`` and ``adj A``; ``chi(A)`` and ``chi(adj A)``
    are the only other quantities computed.  The pseudoinverse form
    ``det * chi_k(pinv A) |= chi_{n-k}(A)`` is the same inequality scaled by
    the tangible unit ``det^(1-k)``, so it is checked in the tests, not here.

    With ``allow_singular`` the check runs on singular matrices too, skipping
    k = 0 (which needs the inverse determinant).  This path is exploratory:
    no correctness claim attaches to it.
    """
    n = A.n
    k_list = range(n + 1) if ks is None else sorted(set(ks))
    for k in k_list:
        if not (0 <= k <= n):
            raise ValueError(f"k must lie in 0..{n}, got {k}")
    d, sides = _surpassing_sides(A, engine)
    singular = not d.is_tangible
    if singular and not allow_singular:
        raise Singular(f"surpassing check needs a non-singular matrix, determinant is {d.token}")
    cases = tuple(
        ConjectureCase(k, *sides[k], ghost_surpasses(*sides[k]))
        for k in k_list
        if sides[k] is not None  # k = 0 of a singular matrix
    )
    return ConjectureReport(n, d, singular, cases)


# ---------------------------------------------------------------------------
# text format: first line the order, then n rows of n scalar tokens


def parse_matrix(text: str) -> Matrix:
    return Matrix(parse_grid(text, parse_scalar))


def format_matrix(A: Matrix) -> str:
    lines = [str(A.n)]
    lines.extend(" ".join(s.token for s in row) for row in A.rows)
    return "\n".join(lines) + "\n"
