"""Square matrices over the supertropical scalars.

Three determinant engines with an identical output contract:

* ``det_brute`` folds the semiring sum over all n! permutation products
  (the reference, capped at a configurable order);
* a subset-DP kernel sums the same permutations row by row over column
  subsets in O(n 2^n); one pass of prefix and suffix row DPs gives the
  determinant and every cofactor, and one row DP of ``det(A + lambda I)``,
  graded by the number of rows that take lambda, gives every sum of
  principal minors in O(n^2 2^n).  It keeps one index plan per order, built
  on first use, with O(n 2^n) memory, so the inner loops of its row DPs do
  no bit arithmetic;
* the assignment engine solves the max-weight perfect-matching problem on
  the value grid with exact arithmetic, by Dijkstra searches for shortest
  paths against dual-feasible potentials.  Three drivers share them: the
  determinant augments every row from the empty matching (O(n^3)) and is
  kept on the matrix with its raw and cost grids; the principal minors walk
  the subset lattice, each minor one augmentation (O(m^2) at order m) from
  the minor one index smaller, and skip every subtree whose weak-duality
  bound is strictly above the cheapest minor seen at each order it reaches.
  A matrix's walk reuses its determinant's grids and is bounded by that
  solve's optimal dual, feasible for the whole grid and tight on it; the
  adjoint's grid, which has no solve, is bounded by its row-then-column
  reduction dual (O(n^2)).  The cofactors start from the whole matrix's
  optimum, one search per column to completion.  Uniqueness of a minor's
  optimal permutation, and so its tangible/ghost tag, is read off the
  potentials it ends with (no cycle among the tight edges, an O(m^2)
  search).  That search runs for the determinant, for at most one
  principal minor per order k (the unique top minor of ``chi_k``, as the
  tags of the others cannot reach the sum), and for every cofactor of a
  ghost or eps determinant, O(n^4) in all.  A tangible determinant's
  optimum is unique, so each cofactor's optima are it flipped along a
  shortest path of its column's search, and all n^2 cofactors are read off
  the n shortest-path trees (value, eps and tag from the path, uniqueness
  from counting the tight predecessors of each column on it), O(n^3) in
  all.

One table, ``_ENGINES``, holds every engine by name (:data:`ENGINES`) as
three functions on raw ``(value, tag)``/``None`` cells: the determinant of a
matrix, the determinant with the whole cofactor grid, and the principal-minor
sums of a grid.  ``auto`` is the kernel at every order, so it costs
O(n 2^n) time and memory for a determinant and O(n^2 2^n) time for the
characteristic coefficients; ``brute`` folds each minor on its own;
``assignment`` takes each family of minors from its driver.  ``both`` is
built from the other three: it runs each of them and raises
:class:`InternalError` on any disagreement.  The public functions look the
engine up and convert to and from raw cells; none branches on its name.

On top of the determinant sit unsigned cofactors, the adjoint (transposed
cofactor grid), the characteristic coefficients (sums of principal minors),
the pseudoinverse, and the per-k surpassing check they were built for.

Rows and columns of :func:`cofactor` are numbered from 1, matching the usual
matrix convention; everything else is positional.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from .errors import InternalError, OrderTooLarge, Singular
from .scalars import EPS, Scalar, mul, ghost_surpasses, parse_grid, parse_scalar, tangible
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


class Matrix:
    """An immutable n-by-n grid of scalars, n >= 1.

    The kernel's prefix DP and the assignment engine's solve of the matrix
    are kept in private slots once a determinant or adjoint has needed them;
    equality, hashing and ``repr`` read the rows alone.
    """

    __slots__ = ("n", "rows", "_prefix", "_assign")

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
        self._assign = None

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
    a minor that only feeds a determinant engine may be a list of rows.
    """
    A = Matrix.__new__(Matrix)
    A.n = len(rows)
    A.rows = rows
    A._prefix = None
    A._assign = None
    return A


class CharPoly(collections.namedtuple("CharPoly", "n coeffs")):
    """Characteristic coefficients: ``coeffs[k]`` is the sum of all principal
    k-by-k minors, so ``coeffs[0]`` is the unit and ``coeffs[n]`` the determinant."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# raw cells
#
# Every engine works on raw cells: ``(value, tag)`` pairs, ``None`` for eps.

_UNIT = (0, 1)


def _raw(cells):
    return [[None if s.tag is None else (s.value, s.tag) for s in row] for row in cells]


def _scalar(p):
    return EPS if p is None else Scalar(p[0], p[1])


def _scalar_grid(raw_rows):
    """A :class:`Matrix` on the raw rows ``raw_rows``."""
    return _trusted(tuple(tuple(map(_scalar, row)) for row in raw_rows))


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


def _minor(rows, i, j):
    """``rows`` without row ``i`` and column ``j`` (0-based), as a list."""
    return [row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i]


# ---------------------------------------------------------------------------
# brute force


def _brute_cap(n, cap=BRUTE_CAP):
    if n > cap:
        raise OrderTooLarge(f"brute-force determinant capped at order {cap}, got {n}")


def _brute_det(raw, cap=BRUTE_CAP):
    """The raw determinant of the raw grid ``raw``: the semiring sum of all
    n! permutation products.  Refuses an order above ``cap``.

    The fold runs on the values alone; the tags matter only for a unique
    best permutation, which is tangible iff all of its entries are.
    """
    n = len(raw)
    _brute_cap(n, cap)
    values = [[None if e is None else e[0] for e in row] for row in raw]
    best = None
    for perm in itertools.permutations(range(n)):
        value = 0
        for row, j in zip(values, perm):
            v = row[j]
            if v is None:
                break
            value += v
        else:
            if best is None or value > best:
                best = value
                best_perm = perm
                tied = False
            elif value == best:
                tied = True
    if best is None:
        return None
    return best, 0 if tied else min([row[j][1] for row, j in zip(raw, best_perm)], default=1)


def _brute_cofactors(A):
    """The raw determinant and raw cofactor grid of ``A``, each cofactor
    folded on its own and the determinant expanded along row 0 of them.

    The permutations that send row 0 to column ``j`` sum to ``a[0][j]``
    times the cofactor ``(0, j)``, by distributivity, so the expansion is
    the fold of all n! of them, ghost tags included (see the subset-DP
    kernel's section comment).  Refuses an order above BRUTE_CAP, as the
    fold itself would.
    """
    raw = _raw(A.rows)
    n = A.n
    _brute_cap(n)
    cof = [[_brute_det(_minor(raw, i, j)) for j in range(n)] for i in range(n)]
    d = None
    for a, c in zip(raw[0], cof[0]):
        if a is not None and c is not None:
            d = _radd(d, (a[0] + c[0], a[1] & c[1]))
    return d, cof


def _brute_sums(raw, A=None):
    """``sums[k]``: the sum of all principal k-by-k minors of the raw grid
    ``raw``, each minor folded on its own; ``A`` is ignored."""
    n = len(raw)
    sums = [_UNIT] + [None] * n
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            sums[k] = _radd(sums[k], _brute_det([[raw[a][b] for b in S] for a in S]))
    return sums


# ---------------------------------------------------------------------------
# assignment engine
#
# One search, :func:`_dijkstra`, one update, :func:`_reroute`, and three
# drivers of them: the determinant (every row augmented from the empty
# matching), the principal minors (the subset lattice, one augmentation per
# minor, subtrees cut by a dual bound) and the cofactors (from the whole
# matrix's optimum, one search per column).  Costs are exact ints or
# Fractions throughout.


def _assignment_grid(raw):
    """The exact min-cost grid of the assignment engine on the raw grid ``raw``.

    A non-eps entry of value ``w`` costs ``hi - w >= 0``, with ``hi`` the
    largest value on the grid; an eps entry costs ``forbidden``.  A perfect
    matching of any minor of order m <= n that avoids eps entries costs at
    most ``m * (hi - lo) < forbidden``, and one through an eps entry costs at
    least ``forbidden``, so a minor's optimum takes an eps entry iff all of
    its perfect matchings do.  The same grid therefore serves every minor.
    """
    values = [e[0] for row in raw for e in row if e is not None]
    hi = max(values, default=0)
    lo = min(values, default=0)
    forbidden = (hi - lo + 1) * (len(raw) + 1)
    return [[forbidden if e is None else hi - e[0] for e in row] for row in raw]


def _dijkstra(cost, u, v, row_of, cols, start):
    """Shortest paths from the row ``start`` over the reduced costs
    ``cost[i][j] - u[i] - v[j]`` of the columns ``cols``: ``(dist, way,
    scanned, end)``.

    ``u`` and ``v`` are row and column potentials, dual feasible on the
    minor's edges (no reduced cost is negative) with every matched edge
    tight; ``row_of[j]`` is the row matched to column ``j``, -1 when free.
    Columns are popped nearest first; a popped matched column ``j`` extends
    its distance ``dist[j]`` through its row ``row_of[j]``.  The search stops
    at the first free column it pops, returned as ``end``; when every column
    of ``cols`` is matched it pops them all and ``end`` is ``None``.
    ``scanned`` lists the popped matched columns in pop order, and
    ``way[j]`` is the row before column ``j`` on its shortest path; a column
    outside ``cols`` keeps distance 0.  The distances start from
    ``start``'s own reduced costs, so no "infinity" is needed.  O(m^2) on m
    columns, plus O(n) for the column-indexed lists on a grid of order n.
    """
    row = cost[start]
    base = u[start]
    dist = [0] * len(cost)  # indexed by column; only ``cols`` are read
    for j in cols:
        dist[j] = row[j] - base - v[j]
    way = [start] * len(cost)
    todo = list(cols)
    scanned = []
    while todo:
        j1 = min(todo, key=dist.__getitem__)
        i1 = row_of[j1]
        if i1 < 0:
            return dist, way, scanned, j1
        todo.remove(j1)
        scanned.append(j1)
        row = cost[i1]
        base = u[i1] - dist[j1]
        for j in todo:
            d = row[j] - base - v[j]
            if d < dist[j]:
                dist[j] = d
                way[j] = i1
    return dist, way, scanned, None


def _reroute(u, v, row_of, col_of, dist, way, scanned, start, end):
    """Rematch along the shortest path from the free row ``start`` to the
    free column ``end`` that :func:`_dijkstra` found, in place.

    With ``D = dist[end]``, ``start`` moves by D, and each scanned column
    ``j`` and the row matched to it by ``max(0, D - dist[j])``: only the
    columns popped before ``end`` can move, as popping is in order of
    distance, so a search that went on past ``end`` serves as well.  That
    keeps every reduced cost non-negative and makes the whole path tight,
    and the matching flips along it.  O(n).
    """
    top = dist[end]
    u[start] += top
    for j in scanned:
        lift = top - dist[j]
        if lift > 0:
            u[row_of[j]] += lift
            v[j] -= lift
    while True:
        i = way[end]
        row_of[end] = i
        col_of[i], end = end, col_of[i]
        if i == start:
            return


def _augment(cost, u, v, row_of, col_of, cols, start):
    """One shortest augmenting path from the free row ``start`` to a free
    column of ``cols``, in place: :func:`_dijkstra` then :func:`_reroute`.
    ``col_of[i]`` is the column of row ``i``; ``cols`` lists the minor's
    columns, at least one of them free, and its rows are ``start`` and the
    rows matched to those columns.  O(m^2) on m columns.
    """
    dist, way, scanned, end = _dijkstra(cost, u, v, row_of, cols, start)
    _reroute(u, v, row_of, col_of, dist, way, scanned, start, end)


def _best_assignment(cost):
    """The determinant driver: an optimal perfect matching of the whole grid
    ``cost``, one augmentation per row from the empty matching and zero
    potentials (dual feasible, as no cost is negative).  O(n^3).

    Returns the state ``(u, v, row_of, col_of)``: optimal potentials and a
    matching that is optimal against them, as :func:`_augment` keeps them.
    Every search runs over all columns, and a row not yet augmented keeps
    ``u = 0`` while ``v`` only falls, so no reduced cost of the whole grid,
    eps entries included, is ever negative: the potentials are a feasible
    dual of every principal minor too (:func:`_principal_states`).
    """
    n = len(cost)
    state = ([0] * n, [0] * n, [-1] * n, [-1] * n)
    cols = range(n)
    for i in range(n):
        _augment(cost, *state, cols, i)
    return state


def _reduction_bound(cost):
    """``g_i = u_i + v_i`` for the row-then-column reduction dual of the cost
    grid ``cost``, ``u_i = min_j cost[i][j]`` and ``v_j = min_i (cost[i][j] -
    u_i)``: feasible for the whole grid, so a bound for
    :func:`_principal_states` on a grid with no solve of its own.  O(n^2).
    """
    low = [min(row) for row in cost]
    return [low[i] + min([row[i] - b for row, b in zip(cost, low)]) for i in range(len(cost))]


def _principal_states(cost, g, bounded=False):
    """The principal-minor driver: ``(S, paid, state)`` for every non-empty
    index tuple ``S``, with ``state`` optimal for the minor on ``S`` and
    ``paid`` its cost; with ``bounded``, only for the minors that can still
    be the cheapest of their order.

    ``g`` is ``g_i = u_i + v_i`` for a dual ``(u, v)`` feasible for the
    whole grid (no reduced cost ``cost[i][j] - u_i - v_j`` is negative, eps
    entries included): the assignment solve's optimal dual
    (:func:`_best_assignment`) for a matrix that has one, else
    :func:`_reduction_bound`.  Such a dual is feasible for every minor, so a
    minor on ``T`` costs at least the sum of ``g`` over ``T`` (weak
    duality); the whole grid's optimal dual makes that sum tight on the
    whole index set.

    The subset lattice is walked depth first, over the indices sorted by
    ``g`` and each minor's children smallest ``g`` first, so ``S`` lists
    its indices in that order.  The child ``S + (t,)`` copies the state of
    ``S``, sets ``v[t]`` and then ``u[t]`` to the largest values that keep
    every reduced cost into column ``t`` and out of row ``t`` non-negative,
    and augments once from row ``t`` to the one free column, ``t``: one
    O(m^2) augmentation per minor of order m.  A minor's cost is the sum of
    its potentials, as every matched edge is tight.  The augmentation moves
    each scanned column and its row by opposite amounts and only ``u[t]`` by
    the path's length, so the child costs its parent's cost plus its final
    ``u[t] + v[t]``.

    A minor below ``T`` of order k' adds k' - |T| indices after ``T``'s last
    position, so it costs at least the sum of ``g`` over ``T`` plus the
    k' - |T| smallest ``g`` there, the next ones in the walk.  A bounded walk
    skips ``T``, and its whole subtree, when that bound is strictly above the
    least cost seen at every order k' it reaches; an order with no minor
    seen yet, or a bound equal to the least cost (a tie makes a ghost),
    keeps ``T``.  Once two minors of an order share its least cost, that
    order's sum is already a ghost of their value (or eps, when that cost is
    the grid's ``forbidden`` or more) and one more minor of the same cost
    cannot change it, so until a cheaper minor appears the bound there must
    be strictly below the least cost.  Its later siblings are then skipped
    too, as each of their bounds is at least ``T``'s.

    Each yielded state is a fresh copy that nothing changes afterwards (the
    minors below it copy it in turn), so a caller may keep any of them.
    """
    n = len(cost)
    order = sorted(range(n), key=g.__getitem__)
    prefix = list(itertools.accumulate([g[t] for t in order], initial=0))
    least = [None] * (n + 1)  # least[k]: the least cost of a minor of order k seen so far
    tied = [False] * (n + 1)  # tied[k]: a second minor of order k has cost least[k]
    # Each entry: a minor S (of bound sum ``floor`` and cost ``paid``), its
    # state, and the position in ``order`` of the next child to visit.
    stack = [((), 0, 0, ([0] * n, [0] * n, [-1] * n, [-1] * n), 0)]
    while stack:
        S, floor, paid, state, p = stack.pop()
        t = order[p]
        m = len(S) + 1
        if bounded:
            # The bound at order m + d adds the d smallest g after position p.
            floor_t = floor + g[t] - prefix[p + 1]
            for best, tie, ahead in zip(least[m:m + n - p], tied[m:], prefix[p + 1:]):
                if best is None or floor_t + ahead < best or floor_t + ahead == best and not tie:
                    break
            else:
                continue
        if p + 1 < n:
            stack.append((S, floor, paid, state, p + 1))
        T = S + (t,)
        u, v, row_of, col_of = state
        u, v, row_of, col_of = child = u[:], v[:], row_of[:], col_of[:]
        v[t] = min([cost[i][t] - u[i] for i in S], default=0)
        row = cost[t]
        u[t] = min([row[j] - v[j] for j in T])
        _augment(cost, u, v, row_of, col_of, T, t)
        paid_t = paid + u[t] + v[t]
        yield T, paid_t, child
        if least[m] is None or paid_t < least[m]:
            least[m] = paid_t
            tied[m] = False
        elif paid_t == least[m]:
            tied[m] = True
        if p + 1 < n:
            stack.append((T, floor + g[t], paid_t, child, p + 1))


def _cofactor_states(cost, state):
    """The cofactor driver: from ``state``, optimal for the whole grid,
    ``(i, j, minor)`` for every row ``i`` and column ``j``, column by column,
    where ``minor`` is ``(state, rows, cols)`` for the minor without row
    ``i`` and column ``j``, with a state optimal for it.

    Deleting a row and a column keeps the potentials feasible.  If row ``i``
    is matched to column ``j`` the rest of the matching is already optimal.
    Otherwise the row ``r`` matched to ``j`` loses its column and the column
    ``c`` of row ``i`` comes free, and the minor needs one shortest path
    from ``r`` to ``c``.  One :func:`_dijkstra` per column ``j``, from ``r``
    over the other n - 1 columns, gives all of them: every column is
    matched, so it runs to completion, and the columns it pops before ``c``
    and their distances are those of the minor's own search, which stops at
    ``c``, since it reaches row ``i`` only through ``c``.  So each cofactor
    is a copy and a :func:`_reroute`, O(n), and all n^2 states cost O(n^3);
    reading each with :func:`_minor_value` makes O(n^4).  The cofactors of
    a tangible determinant skip the states and read the same searches'
    trees directly (:func:`_assignment_cofactors`); these states serve a
    ghost or eps one.  The ``rows`` and ``cols`` lists are shared between
    minors; callers only read them.
    """
    n = len(cost)
    u, v, row_of, col_of = state
    without = [[x for x in range(n) if x != y] for y in range(n)]
    for j, cols in enumerate(without):
        r = row_of[j]
        dist, way, scanned, _ = _dijkstra(cost, u, v, row_of, cols, r)
        for i, rows in enumerate(without):
            if i == r:
                yield i, j, (state, rows, cols)
                continue
            minor = u[:], v[:], row_of[:], col_of[:]
            _reroute(*minor, dist, way, scanned, r, col_of[i])
            yield i, j, (minor, rows, cols)


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


def _optimum(raw, col_of, rows):
    """The optimal matching ``col_of`` read on ``rows`` of the raw grid
    ``raw``: ``None`` when it takes an eps entry, else its value and the AND
    of the tags along it.  O(m), no search."""
    value = 0
    tag = 1
    for i in rows:
        e = raw[i][col_of[i]]
        if e is None:
            return None
        value = value + e[0]
        tag &= e[1]
    return value, tag


def _minor_value(raw, cost, state, rows, cols):
    """The raw determinant of the minor on ``rows`` x ``cols`` from a
    ``state`` optimal for it: ``None`` (eps) when the optimum takes an eps
    entry, else its value, with the tags along it unless a second
    permutation ties it.  The assignment engine runs it for the determinant,
    for at most one principal minor per order, and for each cofactor of a
    ghost or eps determinant; a tangible determinant's cofactors need none
    (:func:`_assignment_cofactors`).

    Every optimal permutation of the minor is tight under any optimal dual
    of it (complementary slackness), so a rival differs from the matching by
    cycles of the digraph on rows with an arc ``i -> row_of[j]`` for each
    tight edge ``(i, j)`` off the matching; the optimum is unique iff there
    is none (Butkovic 1995).  Eps edges are priced, not absent, so one may be
    tight, but none lies on such a cycle: swapping along it would give a
    permutation of the same cost through an eps entry, which costs more than
    any finite optimum (see :func:`_assignment_grid`).  The search is skipped
    when a ghost entry on the optimum settles the tag.  O(m^2).
    """
    u, v, row_of, col_of = state
    best = _optimum(raw, col_of, rows)
    if best is None or not best[1]:
        return best
    succ = [()] * len(raw)
    for i in rows:
        row = cost[i]
        base = u[i]
        mine = col_of[i]
        succ[i] = [row_of[j] for j in cols if j != mine and row[j] - base == v[j]]
    if any(succ) and _has_cycle(succ):
        return best[0], 0
    return best


def _assignment_table(A):
    """``(raw, cost, state, det)``: the assignment engine's solve of the whole
    matrix ``A``, computed once and kept on ``A`` for its cofactors."""
    T = A._assign
    if T is None:
        raw = _raw(A.rows)
        cost = _assignment_grid(raw)
        state = _best_assignment(cost)
        full = range(A.n)
        T = A._assign = (raw, cost, state, _minor_value(raw, cost, state, full, full))
    return T


def _assignment_cofactors(A):
    """The raw determinant and raw cofactor grid of ``A``, from the solve
    kept on ``A`` and one :func:`_dijkstra` per column.

    A ghost or eps determinant reads each of the n^2 minors of
    :func:`_cofactor_states` with :func:`_minor_value`, O(n^4) in all.

    A tangible determinant has a unique optimum ``sigma`` with tangible
    entries, and column ``j``'s search alone, from ``r = sigma^-1(j)``,
    gives all n cofactors of column ``j``: no copy, reroute or cycle
    search.  The minor without row ``i`` and column ``j`` keeps ``sigma``
    but for ``(r, j)`` and ``(i, c)``, ``c = sigma(i)``, and its optima are
    exactly that matching flipped along a shortest path from ``r`` to
    ``c``: a rival that also turned a cycle would turn one of zero reduced
    cost, which would rival ``sigma`` itself.  So the minor costs
    ``cost(sigma) - cost[r][j] - cost[i][c] + u[r] + v[c] + dist[c]``, a
    value of ``det - a[r][j] - u[r] + u[i] - dist[c]``; it is eps iff the
    path takes an eps entry (then, and only then, it costs at least the
    grid's ``forbidden``); and it is tangible iff every entry the path adds
    is tangible and the path is the only shortest one.  That holds iff
    every column on the path has exactly one tight predecessor row, and a
    column's path is its ``way`` predecessor's path and one edge, so one
    pass over the columns in pop order tags them all.  Each row sits at
    its column's distance (``r`` at 0), and the tight rows into a column
    are counted over every row after the search: two columns at equal
    distance joined by a tight edge pop in either order, so the relaxation
    alone can miss the later one.  Row ``i``, absent from the minor, is
    never a tight predecessor on the path to ``c``, as it would close a
    cycle of zero reduced cost.  O(n^2) per column, O(n^3) in all.
    """
    raw, cost, state, d = _assignment_table(A)
    n = A.n
    cof = [[None] * n for _ in range(n)]
    if d is None or not d[1]:
        for i, j, minor in _cofactor_states(cost, state):
            cof[i][j] = _minor_value(raw, cost, *minor)
        return d, cof
    u, v, row_of, col_of = state
    by_col = list(zip(*cost))
    for j in range(n):
        r = row_of[j]
        dist, way, scanned, _ = _dijkstra(cost, u, v, row_of, [x for x in range(n) if x != j], r)
        # level[p]: row p's distance (its column's; r's is dist[j] = 0) less u[p]
        level = [dist[c] - w for c, w in zip(col_of, u)]
        tags = [None] * n  # tags[x]: None if the path to x takes eps, else its tag
        tags[j] = 1
        for x in scanned:
            p = way[x]
            t = tags[col_of[p]]
            e = raw[p][x]
            if t is not None and e is not None:
                # The tight rows into x: its own, way[x], and any rival.
                tags[x] = t & e[1] and int(list(map(operator.add, by_col[x], level)).count(dist[x] + v[x]) == 2)
        base = d[0] - raw[r][j][0] - u[r]
        for i, c in enumerate(col_of):
            if tags[c] is not None:
                cof[i][j] = (base + u[i] - dist[c], tags[c])
    return d, cof


def _assignment_sums(raw, A=None):
    """``sums[k]``: the sum of all principal k-by-k minors of the raw grid
    ``raw``, one augmentation per minor that the bounded walk of
    :func:`_principal_states` solves.

    Given the matrix ``A`` of ``raw``, the walk takes the raw and cost grids
    of the determinant's solve kept on ``A`` (:func:`_assignment_table`) and
    is bounded by its optimal dual; a grid with no matrix, the adjoint's, is
    bounded by its reduction dual (:func:`_reduction_bound`).

    Only the top minors of an order decide its sum: two tied at the top give
    a ghost, a single one passes its own tag on, and every lower minor's tag
    is lost.  A minor's value is its order times the grid's largest value,
    less its cost, and a minor that takes an eps entry costs more than any
    that does not, so the cheapest minors of an order are its top ones.  The
    walk skips any minor that costs strictly more than one already seen at
    its order, or as much as two tied ones, and keeps, per order, the least
    cost the walk reports, whether it is tied, and the first ``(S, state)``
    at that cost.  Each order's winner is read once at the end: a tied one
    off its optimum (:func:`_optimum`, no search), a ghost of its value, or
    eps; a unique one by :func:`_minor_value`, whose cycle search runs only
    when its optimum has tangible entries.  Addition is associative and
    commutative, so this is exactly the :func:`_radd` fold of every minor.
    """
    if A is None:
        cost = _assignment_grid(raw)
        g = _reduction_bound(cost)
    else:
        raw, cost, (u, v, _, _), _ = _assignment_table(A)
        g = list(map(operator.add, u, v))
    top = [None] * (len(raw) + 1)  # top[k]: [cost, tied, S, state] of the cheapest
    for S, paid, state in _principal_states(cost, g, bounded=True):
        t = top[len(S)]
        if t is None or paid < t[0]:
            top[len(S)] = [paid, False, S, state]
        elif paid == t[0]:
            t[1] = True
    sums = [_UNIT]
    for _, tied, S, state in top[1:]:
        if tied:
            best = _optimum(raw, state[3], S)
            sums.append(None if best is None else (best[0], 0))
        else:
            sums.append(_minor_value(raw, cost, state, S, S))
    return sums


# ---------------------------------------------------------------------------
# subset-DP kernel
#
# The semiring is commutative and distributive, so regrouping a permutation
# sum over subsets gives exactly the brute-force result, ghost tags included,
# provided every permutation is counted once (addition is not idempotent:
# a tangible plus itself is a ghost).
#
# The principal minors come from the same row DP run on ``A + lambda I``
# with lambda a tangible unit: ``det(A + lambda I) = sum_d chi_{n-d} lambda^d``
# (Cuninghame-Green's characteristic maxpolynomial).  Expanding the product
# of each permutation over the diagonal sums ``a_ii + lambda`` pairs a
# permutation with a set ``F`` of its fixed points that take lambda, and
# such a pair is exactly a set ``F`` with a permutation of the rest.  So
# the coefficient of lambda^d counts every permutation of every principal
# minor of order n - d once, and equals ``chi_{n-d}`` exactly.
#
# The subset arithmetic of the row DPs depends on the order alone, so it is
# done once per order, on first use, into an index plan that every later
# call at that order shares and none changes.  A plan holds O(n 2^n) small
# tuples, and each subset index in it is one shared int.


@functools.cache
def _row_plan(n):
    """``(by_count, pairs)`` for order ``n``: ``by_count[c]`` lists the
    subsets of ``range(n)`` of size ``c``, and ``pairs[S]`` lists
    ``(S ^ 1 << j, j)`` for every ``j`` in ``S``, ascending."""
    size = 1 << n
    index = tuple(range(size))
    by_count = [[] for _ in range(n + 1)]
    for S in index:
        by_count[S.bit_count()].append(S)
    pairs = tuple(
        tuple((index[S ^ 1 << j], j) for j in range(n) if S >> j & 1) for S in index
    )
    return tuple(map(tuple, by_count)), pairs


def _prefix_dp(raw):
    """``f[S]``: the sum over the assignments of rows ``0..|S|-1`` onto the
    column set ``S``; ``f[full]`` is the determinant.  O(n 2^n)."""
    n = len(raw)
    by_count, pairs = _row_plan(n)
    f = [None] * (1 << n)
    f[0] = _UNIT
    for r in range(n):
        row = raw[r]
        for S in by_count[r + 1]:
            best = None
            for T, j in pairs[S]:
                prev = f[T]
                e = row[j]
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
    by_count, pairs = _row_plan(n)
    P = _prefix_table(A)
    Q = _prefix_dp(_raw(A.rows[::-1]))  # Q[T]: the last |T| rows onto the columns T
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        row = cof[i]
        for S in by_count[i]:
            p = P[S]
            if p is None:
                continue
            pv, pt = p
            for T, j in pairs[full ^ S]:
                q = Q[T]
                if q is None:
                    continue
                v = pv + q[0]
                old = row[j]
                if old is None or v > old[0]:
                    row[j] = (v, pt & q[1])
                elif v == old[0]:
                    row[j] = (v, 0)
    return P[full], cof


def _principal_sums(raw, A=None):
    """``sums[k]``: the sum of all principal k-by-k minors, k = 0..n;
    ``A`` is ignored.

    One row DP of ``det(A + lambda I)``: ``f[S][d]`` is the sum over the
    assignments of rows ``0..|S|-1`` onto the column set ``S`` in which ``d``
    rows take lambda, and ``chi_k`` is ``f[full][n - k]``.  Row ``r`` extends
    ``f[S ^ 1 << j][d]`` by ``a_rj`` and, for ``j == r``, also carries
    ``f[S ^ 1 << r][d]`` into ``f[S][d + 1]``, as lambda is a tangible unit.
    ``f[S]`` lists ``d = 0..m``, with ``m`` the number of indices in ``S``
    below ``|S|`` (the rows that can take lambda), and ``None`` for eps.
    O(n^2 2^n).
    """
    n = len(raw)
    by_count, pairs = _row_plan(n)
    f = [None] * (1 << n)
    f[0] = [_UNIT]
    for r in range(n):
        row = raw[r]
        low = (2 << r) - 1
        for S in by_count[r + 1]:
            out = [None] * ((S & low).bit_count() + 1)
            for T, j in pairs[S]:
                prev = f[T]
                if j == r:
                    d = 1
                    for p in prev:
                        if p is not None:
                            o = out[d]
                            if o is None or p[0] > o[0]:
                                out[d] = p
                            elif p[0] == o[0]:
                                out[d] = (p[0], 0)
                        d += 1
                e = row[j]
                if e is None:
                    continue
                ev, et = e
                d = 0
                for p in prev:
                    if p is not None:
                        x = p[0] + ev
                        o = out[d]
                        if o is None or x > o[0]:
                            out[d] = (x, p[1] & et)
                        elif x == o[0]:
                            out[d] = (x, 0)
                    d += 1
            f[S] = out
    return f[-1][::-1]  # f[full][n] is the unit: every row takes lambda


# ---------------------------------------------------------------------------
# the engine table
#
# Each engine is three functions on raw cells, with one contract:
#
# * ``det(A)``: the raw determinant of the Matrix ``A``; it may keep its work
#   on ``A`` (the kernel's prefix DP in ``_prefix``, the assignment solve in
#   ``_assign``) for a later call on the same matrix;
# * ``cofactors(A)``: ``(det, cof)``, the raw determinant of ``A`` and its
#   raw cofactor grid, ``cof[i][j]`` the minor without row ``i`` and column
#   ``j`` (0-based), as a list of lists;
# * ``sums(raw, A=None)``: ``sums[k]`` for k = 0..n, the sum of all principal
#   k-by-k minors of the raw grid ``raw`` (rows may be any sequences), as a
#   list.  ``A``, when given, is the Matrix whose raw grid ``raw`` is: the
#   assignment engine then reads the raw grid, cost grid and optimal dual of
#   the solve kept on ``A`` (building it if ``det`` has not), and the other
#   engines ignore it.  A grid with no matrix, such as the adjoint's raw
#   cofactor grid, comes without one.
#
# On equal input every engine returns equal raw cells, ghost tags included.
# Brute force refuses an order above BRUTE_CAP on each determinant it folds.
# ``both`` runs the other three on the same input and returns the kernel's
# result when all agree; any disagreement raises InternalError.

_Engine = collections.namedtuple("_Engine", "det cofactors sums")

_ENGINES = {
    "auto": _Engine(lambda A: _prefix_table(A)[-1], _cofactor_dp, _principal_sums),
    "brute": _Engine(lambda A: _brute_det(_raw(A.rows)), _brute_cofactors, _brute_sums),
    "assignment": _Engine(
        lambda A: _assignment_table(A)[3], _assignment_cofactors, _assignment_sums
    ),
}


def _show(x):
    return "[" + " ".join(map(_show, x)) + "]" if isinstance(x, list) else _scalar(x).token


def _agreed(what, results):
    """The kernel's entry of ``results``, one per leg of ``both``, when all
    three are equal; else :class:`InternalError` naming ``what``."""
    kernel, brute, assignment = results
    if not kernel == brute == assignment:
        raise InternalError(
            f"{what} disagree: kernel {_show(kernel)}, brute {_show(brute)}, "
            f"assignment {_show(assignment)}"
        )
    return kernel


def _legs():
    """The three engines behind ``both``, read from the table at each call."""
    return [_ENGINES[name] for name in ("auto", "brute", "assignment")]


def _both_cofactors(A):
    dets, grids = zip(*[leg.cofactors(A) for leg in _legs()])
    return _agreed("determinant engines", dets), _agreed("adjoints", grids)


_ENGINES["both"] = _Engine(
    lambda A: _agreed("determinant engines", [leg.det(A) for leg in _legs()]),
    _both_cofactors,
    lambda raw, A=None: _agreed("characteristic coefficients", [leg.sums(raw, A) for leg in _legs()]),
)

#: The determinant engines, by name: one entry each in the engine table.
ENGINES = tuple(_ENGINES)


def _engine(name):
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}") from None


# ---------------------------------------------------------------------------
# determinants


def det_brute(A: Matrix, cap: int = BRUTE_CAP) -> Scalar:
    """Reference determinant: semiring sum over all permutation products,
    refused above order ``cap``."""
    return _scalar(_brute_det(_raw(A.rows), cap))


def det(A: Matrix, engine: str = "auto") -> Scalar:
    """Determinant with engine selection.

    ``auto`` runs the subset-DP kernel, whose O(n 2^n) time and memory
    bound the order in practice (``assignment`` is polynomial); ``both``
    runs the kernel, brute force and the assignment engine and raises
    :class:`InternalError` if they ever disagree.
    """
    return _scalar(_engine(engine).det(A))


def det_power(d: Scalar, m: int) -> Scalar:
    """``d`` to the ``m``-fold product, reading the empty product as the unit.

    Unlike ``scalars.pow`` this accepts ``m == 0`` for any ``d`` (including
    eps), which is what the ``k - 1`` exponents of the surpassing check need.
    """
    if m == 0:
        return tangible(0)
    return scalar_pow(d, m)


def is_nonsingular(A: Matrix, engine: str = "auto") -> bool:
    """True iff the determinant is tangible (equivalently, invertible)."""
    return det(A, engine).is_tangible


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
    return _scalar(_engine(engine).det(_trusted(_minor(A.rows, i - 1, j - 1))))


def adjoint(A: Matrix, engine: str = "auto") -> Matrix:
    """The matrix whose (i, j) entry is the (j, i) cofactor of ``A``."""
    return _scalar_grid(zip(*_engine(engine).cofactors(A)[1]))


def char_poly(A: Matrix, engine: str = "auto") -> CharPoly:
    """All characteristic coefficients of ``A``: sums of principal minors."""
    return CharPoly(A.n, tuple(map(_scalar, _engine(engine).sums(_raw(A.rows), A))))


def pseudoinverse(A: Matrix, engine: str = "auto") -> Matrix:
    """Adjoint scaled by the inverse determinant; requires a tangible determinant."""
    d, cof = _engine(engine).cofactors(A)
    d = _scalar(d)
    if not d.is_tangible:
        raise Singular(f"pseudoinverse needs a tangible determinant, got {d.token}")
    inv = scalar_pow(d, -1)
    return Matrix([[mul(inv, _scalar(c)) for c in col] for col in zip(*cof)])


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
    """``(det A, sides)`` from the engine's cofactors and two sums passes:
    ``sides[k]`` is ``(chi_k(adj A), det(A)^(k-1) * chi_{n-k}(A))``, k = 0..n,
    and ``sides[0]`` is ``None`` unless ``det A`` is tangible.

    The raw cofactor grid, transposed, goes straight to the sums function, so
    ``adj A`` is never built as a matrix of scalars; ``chi(A)``'s pass is
    handed ``A`` itself, whose kept solve the assignment engine reuses.
    """
    n = A.n
    engine = _engine(engine)
    d, cof = engine.cofactors(A)
    d = _scalar(d)
    chi_adj = tuple(map(_scalar, engine.sums(list(zip(*cof)))))
    chi = tuple(map(_scalar, engine.sums(_raw(A.rows), A)))
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

    The engine's cofactor pass gives ``det`` and ``adj A``; ``chi(A)`` and
    ``chi(adj A)`` are the only other quantities computed.  The pseudoinverse form
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
