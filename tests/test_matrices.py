import itertools
from fractions import Fraction

import pytest

from supertrop import (
    EPS,
    InternalError,
    Matrix,
    OrderTooLarge,
    Singular,
    add,
    adjoint,
    char_poly,
    cofactor,
    conjecture_check,
    det,
    det_brute,
    det_power,
    format_matrix,
    ghost,
    ghost_surpasses,
    is_nonsingular,
    mul,
    parse_matrix,
    pseudoinverse,
    tangible,
)
from supertrop import matrices
from supertrop.harness import DEFAULT_PROBS, random_matrix
from supertrop.rng import Xorshift64Star
from test_polynomials import fraction_matrices

A = parse_matrix("2\n3t 0t\n1t 4t\n")
TIED = parse_matrix("2\n1t 2t\n0t 1t\n")


def seeded_matrices(seed, count, n, bound=6, probs=DEFAULT_PROBS):
    rng = Xorshift64Star(seed)
    return [random_matrix(rng, n, bound, probs) for _ in range(count)]


def assert_engines_agree(M):
    """The kernel's det, batched adjoint and char_poly equal the per-minor
    brute-force results exactly, and the assignment engine's drivers do too."""
    d = det_brute(M)
    assert det(M) == d == det(M, "assignment"), M
    assert adjoint(M) == adjoint(M, engine="brute") == adjoint(M, engine="assignment"), M
    assert char_poly(M) == char_poly(M, engine="brute") == char_poly(M, engine="assignment"), M


def assert_optimal_and_tight(raw, cost, state, rows, cols):
    """Against every permutation of the minor on ``rows`` x ``cols``: the
    potentials of ``state`` are dual feasible, its matching is optimal, every
    optimal permutation is tight, and ``_minor_value`` reads the minor's
    determinant (eps, or the best value, a ghost unless one permutation
    attains it with tangible entries only)."""
    u, v, row_of, col_of = state
    rows, cols = list(rows), list(cols)
    assert sorted(col_of[i] for i in rows) == sorted(cols)
    assert all(row_of[col_of[i]] == i for i in rows)
    assert all(cost[i][j] - u[i] - v[j] >= 0 for i in rows for j in cols)
    totals = {}
    for perm in itertools.permutations(cols):
        cells = [raw[i][j] for i, j in zip(rows, perm)]
        if None not in cells:
            totals[perm] = (sum(c[0] for c in cells), min((c[1] for c in cells), default=1))
    value = matrices._minor_value(raw, cost, state, rows, cols)
    if not totals:
        assert value is None
        return
    best = max(total for total, _ in totals.values())
    optima = [perm for perm, (total, _) in totals.items() if total == best]
    assert tuple(col_of[i] for i in rows) in optima
    for perm in optima:
        assert all(cost[i][j] - u[i] - v[j] == 0 for i, j in zip(rows, perm)), perm
    assert value == (best, totals[optima[0]][1] if len(optima) == 1 else 0)


def count_augmentations(monkeypatch):
    """A list that gains the number of columns of every augmentation."""
    sizes = []
    real = matrices._augment
    monkeypatch.setattr(
        matrices, "_augment", lambda cost, u, v, row_of, col_of, cols, start:
        sizes.append(len(cols)) or real(cost, u, v, row_of, col_of, cols, start)
    )
    return sizes


def count_dijkstras(monkeypatch):
    """A list that gains the number of columns of every shortest-path
    search, each augmentation's included."""
    sizes = []
    real = matrices._dijkstra
    monkeypatch.setattr(
        matrices, "_dijkstra", lambda cost, u, v, row_of, cols, start:
        sizes.append(len(cols)) or real(cost, u, v, row_of, cols, start)
    )
    return sizes


def count_searches(monkeypatch):
    """A list that gains, for every uniqueness (cycle) search, the order of
    the minor whose tag it decides."""
    searches = []
    order = [None]
    real_value, real_search = matrices._minor_value, matrices._has_cycle

    def minor_value(raw, cost, state, rows, cols):
        order[0] = len(rows)
        return real_value(raw, cost, state, rows, cols)

    def has_cycle(succ):
        searches.append(order[0])
        return real_search(succ)

    monkeypatch.setattr(matrices, "_minor_value", minor_value)
    monkeypatch.setattr(matrices, "_has_cycle", has_cycle)
    return searches


class TestDeterminants:
    def test_examples(self):
        assert det_brute(A) == tangible(7)
        assert det(A, "assignment") == tangible(7)
        assert det_brute(TIED) == ghost(2)
        assert det(parse_matrix("2\n3g e\ne 4t\n"), "assignment") == ghost(7)
        assert det(parse_matrix("2\ne e\ne 0t\n"), "assignment") == EPS

    def test_identity(self):
        for n in range(1, 7):
            assert det_brute(Matrix.identity(n)) == tangible(0)
            assert det(Matrix.identity(n), "assignment") == tangible(0)

    def test_all_eps(self):
        for n in (1, 2, 3):
            M = Matrix([[EPS] * n for _ in range(n)])
            assert det_brute(M) == EPS
            assert det(M, "assignment") == EPS

    def test_brute_cap(self):
        M = Matrix.identity(9)
        with pytest.raises(OrderTooLarge):
            det_brute(M)
        assert det_brute(M, cap=9) == tangible(0)
        with pytest.raises(OrderTooLarge):
            det(M, engine="brute")
        with pytest.raises(OrderTooLarge):  # its cofactors are of order 8
            adjoint(M, engine="brute")
        assert det(M) == tangible(0)  # auto is not bound by the brute-force cap

    def test_brute_determinant_from_its_cofactors(self, monkeypatch):
        # The brute-force cofactor pass expands the determinant along row 0
        # of the cofactors it folded; it folds no permutation of order n.
        ghostly = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
        orders = []
        real = matrices._brute_det
        monkeypatch.setattr(matrices, "_brute_det", lambda raw, *cap: orders.append(len(raw)) or real(raw, *cap))
        outcomes = set()
        for n in range(1, 7):
            for M in seeded_matrices(9000 + n, 30 if n <= 5 else 10, n, 1, ghostly):
                d, cof = matrices._brute_cofactors(M)
                assert max(orders) == n - 1 and len(orders) == n * n, M
                orders.clear()
                assert d == real(matrices._raw(M.rows)), M
                outcomes.add("eps" if d is None else d[1])
        assert outcomes == {"eps", 0, 1}

    def test_auto_is_the_kernel_above_order_9(self, monkeypatch):
        # ``auto`` runs no shortest-path search at any order, and its det,
        # adjoint and char_poly equal the assignment engine's minor by minor.
        sizes = count_dijkstras(monkeypatch)
        solved = iter([295, 155, 299, 647])  # of 1,023 and 2,047 principal minors
        for n in (10, 11):
            for M in seeded_matrices(4000 + n, 2, n, bound=3):
                auto = (det(M), adjoint(M), char_poly(M))
                assert sizes == [], M
                engine = "assignment"
                assert auto == (det(M, engine), adjoint(M, engine), char_poly(M, engine)), M
                # One path per row for the determinant, one search per column
                # for the cofactors, and one path per principal minor that
                # the bounded walk solves.
                assert sizes[:2 * n] == [n] * n + [n - 1] * n, M
                assert len(sizes) - 2 * n == next(solved), M
                sizes.clear()

    def test_engine_equivalence_seeded(self):
        # The brute engine is the oracle for the assignment engine and for
        # the subset-DP kernel behind ``auto``.  Small bound so that
        # optimal-value ties (the ghosting cases) are common.
        for n in range(1, 8):
            for M in seeded_matrices(1000 + n, 40 if n <= 5 else 20, n, bound=3):
                assert_engines_agree(M)

    def test_engine_equivalence_eps_heavy(self):
        sparse = (Fraction(45, 100), Fraction(15, 100), Fraction(40, 100))
        for n in range(1, 8):
            for M in seeded_matrices(2000 + n, 30 if n <= 5 else 20, n, bound=2, probs=sparse):
                assert_engines_agree(M)

    def test_engine_equivalence_ghost_heavy(self):
        ghostly = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
        for n in range(1, 8):
            for M in seeded_matrices(3000 + n, 30 if n <= 5 else 20, n, bound=2, probs=ghostly):
                assert_engines_agree(M)

    def test_engine_both_agrees(self):
        assert det(A, engine="both") == tangible(7)

    def test_unknown_engine(self):
        for call in (det, is_nonsingular, adjoint, char_poly, pseudoinverse, conjecture_check,
                     lambda M, engine: cofactor(M, 1, 1, engine)):
            with pytest.raises(ValueError, match="unknown engine 'fast'"):
                call(A, engine="fast")

    def test_fractional_values(self):
        M = parse_matrix("2\n1/2t 0t\n1t 1/3t\n")
        expected = add(tangible(Fraction(5, 6)), tangible(1))
        assert det_brute(M) == expected == det(M, "assignment")


class TestAssignmentCertificate:
    """One assignment solve per determinant; uniqueness of the optimum is a
    cycle search among the tight edges of the final potentials."""

    # The diagonal and the 5-cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0 are the only
    # permutations of value 0; every other one takes a -9 entry, and no two
    # rows can swap columns at value 0.
    FIVE_CYCLE = parse_matrix(
        "5\n"
        "0t 0t -9t -9t -9t\n"
        "-9t 0t 0t -9t -9t\n"
        "-9t -9t 0t 0t -9t\n"
        "-9t -9t -9t 0t 0t\n"
        "0t -9t -9t -9t 0t\n"
    )
    # The 3-cycle 0 -> 1 -> 2 -> 0 would tie the diagonal at value 0 if its
    # eps edge (2, 0) counted; every finite rival takes a -9 entry.
    EPS_RIVAL = parse_matrix("3\n0t 0t -9t\n-9t 0t 0t\ne -9t 0t\n")

    def test_tie_heavy_against_brute_force(self):
        ghostly = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
        sparse = (Fraction(45, 100), Fraction(15, 100), Fraction(40, 100))
        outcomes = set()
        for b, bound in enumerate((1, 2)):
            for p, probs in enumerate((ghostly, sparse)):
                for n in range(1, 8):
                    seed = 5000 + 100 * b + 10 * p + n
                    for M in seeded_matrices(seed, 40 if n <= 5 else 15, n, bound, probs):
                        d = det_brute(M)
                        assert det(M, "assignment") == d, M
                        outcomes.add("eps" if d.tag is None else d.is_tangible)
        assert outcomes == {"eps", True, False}

    def test_rival_one_long_cycle_away(self):
        assert det_brute(self.FIVE_CYCLE) == ghost(0)
        assert det(self.FIVE_CYCLE, "assignment") == ghost(0)
        assert det(self.FIVE_CYCLE) == ghost(0)

    def test_rival_through_an_eps_edge_does_not_count(self):
        assert det_brute(self.EPS_RIVAL) == tangible(0)
        assert det(self.EPS_RIVAL, "assignment") == tangible(0)

    def test_every_optimum_is_tight(self):
        for n in range(1, 6):
            for M in seeded_matrices(6000 + n, 30, n, bound=1):
                raw = matrices._raw(M.rows)
                cost = matrices._assignment_grid(raw)
                state = matrices._best_assignment(cost)
                assert_optimal_and_tight(raw, cost, state, range(n), range(n))

    def test_one_solve_per_determinant(self, monkeypatch):
        # One solve is one augmenting path per row; it is kept on the
        # matrix, so a second determinant runs none.
        calls = []
        real = matrices._best_assignment
        monkeypatch.setattr(matrices, "_best_assignment", lambda cost: calls.append(1) or real(cost))
        sizes = count_augmentations(monkeypatch)
        sparse = (Fraction(45, 100), Fraction(15, 100), Fraction(40, 100))
        outcomes = set()
        for n in range(1, 7):
            for M in seeded_matrices(7000 + n, 20, n, 1, sparse):
                d = det(M, "assignment")
                assert len(calls) == 1 and sizes == [n] * n, M
                assert det(M, "assignment") == d, M
                assert len(calls) == 1 and sizes == [n] * n, M
                calls.clear()
                sizes.clear()
                outcomes.add("eps" if d.tag is None else d.is_tangible)
        assert outcomes == {"eps", True, False}


def embed_principal(F, at, filler):
    """An order ``len(at) + 1`` matrix with ``F`` on the indices ``at`` and
    ``filler`` on every entry of the one index left out."""
    n = F.n + 1
    where = {x: r for r, x in enumerate(at)}
    return Matrix([
        [F.rows[where[i]][where[j]] if i in where and j in where else filler for j in range(n)]
        for i in range(n)
    ])


def embed_cofactor(F, matched):
    """An order ``F.n + 1`` matrix whose last row and column delete to ``F``.

    With ``matched`` the whole optimum pairs the last row with the last
    column; otherwise it takes the two 9t entries, pairing the last row with
    column 0 and row 0 with the last column, so the cofactor needs an
    augmentation.
    """
    m = F.n
    far, near = tangible(9), tangible(-9)
    rows = [list(row) + [near if matched or r else far] for r, row in enumerate(F.rows)]
    rows.append([near if matched or c else far for c in range(m)] + [far if matched else near])
    return Matrix(rows)


class TestWarmStartedDrivers:
    """The assignment engine's principal-minor and cofactor drivers: one
    augmentation per principal minor from its parent's optimum, with
    subtrees cut by a dual bound, and one search per cofactor column from
    the whole optimum, checked against brute force and against every
    optimal permutation of every minor."""

    FIVE_CYCLE = TestAssignmentCertificate.FIVE_CYCLE
    EPS_RIVAL = TestAssignmentCertificate.EPS_RIVAL
    GHOSTLY = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
    SPARSE = (Fraction(45, 100), Fraction(15, 100), Fraction(40, 100))

    def test_tie_heavy_against_brute_force(self, monkeypatch):
        # The sums read every minor's value and entry tags off its optimum;
        # only an order's unique top minor with tangible entries runs the
        # cycle search, so one characteristic polynomial runs at most n.
        searches = count_searches(monkeypatch)
        total = 0
        kinds = {"cofactor": set(), "coefficient": set()}
        for b, bound in enumerate((1, 2)):
            for p, probs in enumerate((self.GHOSTLY, self.SPARSE)):
                for n in range(1, 8):
                    seed = 8000 + 100 * b + 10 * p + n
                    for M in seeded_matrices(seed, 30 if n <= 5 else 8 if n == 6 else 3, n, bound, probs):
                        adj = adjoint(M, engine="brute")
                        chi = char_poly(M, engine="brute")
                        assert adjoint(M, engine="assignment") == adj, M
                        searches.clear()
                        assert char_poly(M, engine="assignment") == chi, M
                        assert len(searches) == len(set(searches)) <= n, (M, searches)
                        total += len(searches)
                        for kind, values in (("cofactor", sum(adj.rows, ())), ("coefficient", chi.coeffs)):
                            kinds[kind].update("eps" if s.tag is None else s.is_tangible for s in values)
        assert kinds == {"cofactor": {"eps", True, False}, "coefficient": {"eps", True, False}}
        assert total

    def test_tie_heavy_above_the_brute_force_cap(self):
        # Brute force refuses orders above 8, so the kernel is the reference.
        kinds = set()
        for n in (9, 10):
            for p, probs in enumerate((self.GHOSTLY, self.SPARSE)):
                for M in seeded_matrices(9100 + 10 * p + n, 6, n, 1, probs):
                    adj = adjoint(M, engine="assignment")
                    assert adj == adjoint(M), M
                    for X in (M, adj):
                        chi = char_poly(X, engine="assignment")
                        assert chi == char_poly(X), X
                        kinds.update(s.is_tangible for s in chi.coeffs[1:])
        assert kinds == {True, False}

    @pytest.mark.parametrize("case", ["tied", "ghost entry", "long cycle"])
    def test_which_orders_search(self, case, monkeypatch):
        # Two tangible top minors tied at k = 1 give a ghost with no search;
        # a unique top minor with a ghost entry needs none either; a unique
        # top minor with tangible entries whose rival is one 5-cycle away
        # does, and is a ghost.  Below k = 5 the embedded diagonal ties.
        M, k, expected, searched = {
            "tied": (parse_matrix("2\n1t 0t\n0t 1t\n"), 1, ghost(1), [2]),
            "ghost entry": (parse_matrix("2\n3g 0t\n0t 1t\n"), 2, ghost(4), []),
            "long cycle": (embed_principal(self.FIVE_CYCLE, (0, 2, 3, 4, 5), EPS), 5, ghost(0), [5]),
        }[case]
        searches = count_searches(monkeypatch)
        chi = char_poly(M, engine="assignment")
        assert sorted(searches) == searched
        assert chi.coeffs[k] == expected
        assert chi == char_poly(M, engine="brute")

    @pytest.mark.parametrize("name, expected", [("FIVE_CYCLE", ghost(0)), ("EPS_RIVAL", tangible(0))])
    def test_rival_as_a_principal_minor(self, name, expected):
        F = getattr(self, name)
        at = (0,) + tuple(range(2, F.n + 1))
        for filler in (EPS, tangible(0), ghost(1)):
            M = embed_principal(F, at, filler)
            raw = matrices._raw(M.rows)
            cost = matrices._assignment_grid(raw)
            walk = matrices._principal_states(cost, matrices._reduction_bound(cost))
            minors = {tuple(sorted(S)): state for S, _, state in walk}
            assert matrices._minor_value(raw, cost, minors[at], at, at) == (expected.value, expected.tag)
            assert char_poly(M, engine="assignment") == char_poly(M, engine="brute"), M

    @pytest.mark.parametrize("name, expected", [("FIVE_CYCLE", ghost(0)), ("EPS_RIVAL", tangible(0))])
    @pytest.mark.parametrize("matched", [False, True], ids=["augmented", "matched"])
    def test_rival_as_a_cofactor(self, name, expected, matched, monkeypatch):
        F = getattr(self, name)
        M = embed_cofactor(F, matched)
        n = M.n
        raw, cost, state, _ = matrices._assignment_table(M)
        sizes = count_dijkstras(monkeypatch)
        minors = {(i, j): minor for i, j, minor in matrices._cofactor_states(cost, state)}
        # One search per column, whether or not the optimum pairs the last
        # row and column; only then does the cofactor keep the whole state.
        assert sizes == [n - 1] * n
        assert (minors[n - 1, n - 1][0] is state) == matched
        value = matrices._minor_value(raw, cost, *minors[n - 1, n - 1])
        assert value == (expected.value, expected.tag)
        assert cofactor(M, n, n, engine="assignment") == expected == cofactor(M, n, n, engine="brute")
        assert adjoint(M, engine="assignment") == adjoint(M, engine="brute"), M

    def test_every_minor_optimum_is_tight(self):
        # The states the drivers end with, not fresh solves: each must be
        # optimal for its minor and make every optimal permutation tight.
        for n in range(1, 6):
            for probs in (DEFAULT_PROBS, self.GHOSTLY, self.SPARSE):
                for M in seeded_matrices(8500 + n, 12, n, 1, probs):
                    raw, cost, state, _ = matrices._assignment_table(M)
                    g = [a + b for a, b in zip(*state[:2])]
                    for S, paid, minor in matrices._principal_states(cost, g):
                        assert_optimal_and_tight(raw, cost, minor, S, S)
                        assert paid == sum(cost[i][minor[3][i]] for i in S), (M, S)
                    cofactors = list(matrices._cofactor_states(cost, state))
                    assert [(i, j) for i, j, _ in cofactors] == [(i, j) for j in range(n) for i in range(n)]
                    for i, j, (minor, rows, cols) in cofactors:
                        assert (rows, cols) == ([x for x in range(n) if x != i], [x for x in range(n) if x != j])
                        assert_optimal_and_tight(raw, cost, minor, rows, cols)

    def test_augmentation_counts(self, monkeypatch):
        augmentations = count_augmentations(monkeypatch)
        sizes = count_dijkstras(monkeypatch)
        # (under the determinant's optimal dual, under the reduction dual)
        solved = iter([
            (1, 1), (1, 1), (1, 1), (1, 1), (2, 2), (2, 2), (2, 2), (2, 2),
            (5, 5), (4, 3), (4, 4), (6, 6), (10, 10), (6, 6), (7, 8), (7, 7),
            (15, 15), (9, 8), (17, 14), (6, 14), (10, 37), (31, 31), (34, 22), (24, 33),
            (15, 15), (60, 60), (12, 12), (58, 41),
        ])
        for n in range(1, 8):
            for M in seeded_matrices(8600 + n, 4, n, 1, self.SPARSE):
                cost = matrices._assignment_grid(matrices._raw(M.rows))
                # Unbounded, exactly one per non-empty principal subset, of
                # its order.
                walk = matrices._principal_states(cost, matrices._reduction_bound(cost))
                walked = [frozenset(S) for S, _, _ in walk]
                assert len(set(walked)) == len(walked) == 2 ** n - 1, M
                assert sorted(sizes) == sorted(augmentations) == sorted(map(len, walked)), M
                sizes.clear()
                # Bounded, a pinned number of them: bounded by the optimal
                # dual of the determinant's solve, which is kept on M, and
                # by the reduction dual on the raw grid alone.
                raw, cost, state, _ = matrices._assignment_table(M)
                sizes.clear()
                augmentations.clear()
                char_poly(M, engine="assignment")
                with_dual = len(sizes)
                sizes.clear()
                matrices._assignment_sums(raw)
                assert (with_dual, len(sizes)) == next(solved), M
                sizes.clear()
                augmentations.clear()
                # The cofactors: one search per column, over the other n - 1
                # columns, and no augmentation.
                adjoint(M, engine="assignment")
                assert sizes == [n - 1] * n and augmentations == [], M
                sizes.clear()

    def test_a_tie_at_the_bound_is_solved(self):
        # The reduction dual of this cost grid is zero, so the bound of {1}
        # equals the cost of {0}, already seen: only a non-strict bound
        # solves {1}, and its tie makes chi_1 a ghost.
        M = parse_matrix("2\n0t -5t\n-5t 0t\n")
        cost = matrices._assignment_grid(matrices._raw(M.rows))
        walk = matrices._principal_states(cost, matrices._reduction_bound(cost), bounded=True)
        assert [S for S, _, _ in walk] == [(0,), (0, 1), (1,)]
        assert char_poly(M, engine="assignment") == char_poly(M, engine="brute")
        assert char_poly(M, engine="assignment").coeffs[1] == ghost(0)

    def test_a_tie_at_a_tied_order_is_skipped(self):
        # Once {0} and {1} tie at order 1, and {0, 1} and {0, 2} at order 2,
        # one more minor at their cost cannot change a ghost sum: the walk
        # skips {1, 2} and {2}, whose bounds equal those costs.
        M = parse_matrix("3\n0t -5t -5t\n-5t 0t -5t\n-5t -5t 0t\n")
        cost = matrices._assignment_grid(matrices._raw(M.rows))
        walk = matrices._principal_states(cost, matrices._reduction_bound(cost), bounded=True)
        assert [S for S, _, _ in walk] == [(0,), (0, 1), (0, 1, 2), (0, 2), (1,)]
        assert char_poly(M, engine="assignment") == char_poly(M, engine="brute")
        assert char_poly(M, engine="assignment").coeffs == (tangible(0), ghost(0), ghost(0), tangible(0))

    def test_a_tangible_determinant_settles_its_matched_cofactors(self, monkeypatch):
        # A tangible determinant reads all n^2 cofactors off its n column
        # searches, with no reroute, no _minor_value and no cycle search; a
        # ghost one reads every minor, the n matched ones too, from a copy
        # of the state rerouted for each of the other n^2 - n.
        sizes = count_dijkstras(monkeypatch)
        searches = count_searches(monkeypatch)
        read = []
        value = matrices._minor_value
        monkeypatch.setattr(
            matrices, "_minor_value", lambda raw, cost, state, rows, cols:
            read.append((rows, cols)) or value(raw, cost, state, rows, cols)
        )
        reroutes = []
        reroute = matrices._reroute
        monkeypatch.setattr(matrices, "_reroute", lambda *args: reroutes.append(1) or reroute(*args))
        tags = set()
        total = 0
        for n in range(2, 7):
            for M in seeded_matrices(8900 + n, 10, n, 3, (1, 0, 0)):
                d = det(M, "assignment")
                tags.add(d.is_tangible)
                for seen in (sizes, searches, read, reroutes):
                    seen.clear()
                assert adjoint(M, "assignment") == adjoint(M), M
                assert sizes == [n - 1] * n, M
                col_of = M._assign[2][3]
                deleted = [(min(set(range(n)) - set(rows)), min(set(range(n)) - set(cols))) for rows, cols in read]
                matched = [(i, j) for i, j in deleted if col_of[i] == j]
                if d.is_tangible:
                    assert (len(read), len(reroutes), searches) == (0, 0, []), M
                else:
                    assert (len(read), len(matched), len(reroutes)) == (n * n, n, n * n - n), M
                    assert set(searches) <= {n - 1}, M
                total += len(searches)
        assert tags == {True, False}
        # The per-cofactor route ran 362 more on the tangible determinants.
        assert total == 375

    def test_column_trees_equal_the_per_cofactor_route(self):
        # The tangible route against the per-cofactor route (a state for
        # each minor, read by _minor_value) and the kernel's cofactor DP:
        # ties, ghost and eps entries off the optimum, and the conjecture
        # cap's orders.
        def per_cofactor(M):
            raw, cost, state, d = matrices._assignment_table(M)
            cof = [[None] * M.n for _ in range(M.n)]
            for i, j, minor in matrices._cofactor_states(cost, state):
                cof[i][j] = matrices._minor_value(raw, cost, *minor)
            return d, cof

        tangible_dets = []
        for f, (bound, probs) in enumerate(((1, DEFAULT_PROBS), (1, self.GHOSTLY), (2, self.SPARSE))):
            checked = 0
            for n in range(1, 10):
                for M in seeded_matrices(9300 + 10 * f + n, 60 if n <= 5 else 25, n, bound, probs):
                    d, cof = matrices._assignment_cofactors(M)
                    if d is not None and d[1]:
                        assert (d, cof) == per_cofactor(M) == matrices._cofactor_dp(M), M
                        checked += 1
            tangible_dets.append(checked)
        for n in (12, 13):
            (M,) = [M for M in seeded_matrices(9400 + n, 8, n) if is_nonsingular(M, "assignment")][:1]
            assert matrices._assignment_cofactors(M) == per_cofactor(M) == matrices._cofactor_dp(M), M
        assert tangible_dets == [130, 45, 93]

    def test_a_second_tight_predecessor_that_pops_later(self):
        # Column 2's search starts at row 1 and reaches columns 0 and 1 at
        # distance 1 each; column 0 pops first, so the relaxation from row
        # 0 (column 1's) never sees the tight edge (0, 0).  Both paths to
        # column 0 are shortest, so the minor without row 2 and column 2,
        # all 0t, is a ghost.
        M = parse_matrix("3\n0t 0t 0t\n0t 0t 1t\n1t 0t 0t\n")
        raw, cost, state, d = matrices._assignment_table(M)
        u, v, row_of, col_of = state
        assert d == (2, 1) and col_of == [1, 2, 0]
        dist, way, scanned, _ = matrices._dijkstra(cost, u, v, row_of, [0, 1], row_of[2])
        assert (dist[0], dist[1], scanned, way[0]) == (1, 1, [0, 1], 1)
        assert dist[1] + cost[0][0] - u[0] - v[0] == dist[0]
        assert cofactor(M, 3, 3, "assignment") == ghost(0) == cofactor(M, 3, 3, "brute")
        assert adjoint(M, "assignment") == adjoint(M, "brute")

    def test_one_solve_per_accepted_draw(self, monkeypatch):
        # is_nonsingular's solve is kept on the matrix, and the check's
        # cofactors start from it: no second determinant solve.
        calls = []
        real = matrices._best_assignment
        monkeypatch.setattr(matrices, "_best_assignment", lambda cost: calls.append(1) or real(cost))
        checked = 0
        for M in seeded_matrices(8700, 8, 5):
            M = Matrix(M.rows)
            if is_nonsingular(M, "assignment"):
                conjecture_check(M, "assignment")
                pseudoinverse(M, "assignment")
                assert len(calls) == 1
                checked += 1
            calls.clear()
        assert checked

    def test_equality_and_hash_ignore_the_kept_solve(self):
        for M in seeded_matrices(8800, 6, 4):
            fresh = Matrix(M.rows)
            det(M, "assignment")
            assert M._assign is not None and fresh._assign is None
            assert M == fresh and hash(M) == hash(fresh) and repr(M) == repr(fresh)
            assert {M: 1}[fresh] == 1


def minor_costs(cost):
    """The least cost of every principal minor of the cost grid ``cost``, by
    its index tuple, over all of the minor's permutations."""
    n = len(cost)
    return {
        T: min(sum(cost[i][j] for i, j in zip(T, perm)) for perm in itertools.permutations(T))
        for k in range(1, n + 1)
        for T in itertools.combinations(range(n), k)
    }


class TestWalkBounds:
    """The bound each principal-minor walk is handed: on a matrix, the
    optimal dual ``g_i = u_i + v_i`` of its determinant's solve; on the
    adjoint's grid, which has no solve, the row-then-column reduction dual.
    Either must bound every principal minor's cost from below."""

    GHOSTLY = TestWarmStartedDrivers.GHOSTLY
    SPARSE = TestWarmStartedDrivers.SPARSE

    def drawn(self, n):
        """Seeded default, ghost-heavy, eps-heavy, tie-heavy (values in
        -1..1) and Fraction-valued matrices of order ``n``."""
        count = 10 if n <= 4 else 4
        return (
            seeded_matrices(9700 + n, count, n)
            + seeded_matrices(9710 + n, count, n, 1, self.GHOSTLY)
            + seeded_matrices(9720 + n, count, n, 2, self.SPARSE)
            + seeded_matrices(9730 + n, count, n, 1)
            + fraction_matrices(9740 + n, count, n)
        )

    def test_every_minor_costs_at_least_its_bound(self, monkeypatch):
        seen = []
        real = matrices._principal_states
        monkeypatch.setattr(
            matrices, "_principal_states", lambda cost, g, bounded=False:
            seen.append((cost, g)) or real(cost, g, bounded)
        )
        kinds = set()
        for n in range(1, 7):
            for M in self.drawn(n):
                seen.clear()
                report = conjecture_check(M, "assignment", allow_singular=True)
                kinds.add("eps" if report.det.tag is None else report.det.is_tangible)
                raw, cost, (u, v, _, _), _ = M._assign
                # One walk on A's own cost grid, under its solve's dual, and
                # one on the adjoint's, under that grid's reduction dual.
                (mine,) = [g for grid, g in seen if grid is cost]
                ((adj_cost, adj_g),) = [(grid, g) for grid, g in seen if grid is not cost]
                assert mine == [a + b for a, b in zip(u, v)], M
                assert adj_g == matrices._reduction_bound(adj_cost), M
                for grid, g in seen:
                    least = minor_costs(grid)
                    for T, paid in least.items():
                        assert paid >= sum(g[i] for i in T), (M, grid is cost, T)
                # The solve's dual is tight on the whole index set.
                assert minor_costs(cost)[tuple(range(n))] == sum(mine), M
                assert char_poly(M, "assignment") == char_poly(M, "brute"), M
        assert kinds == {"eps", True, False}

    def test_solved_minors_of_the_seeded_workload(self, monkeypatch, capsys):
        # The conjecture-assign benchmark workload at seed 42: of its 12,000
        # principal minors, A's walks solve 2,183 under the optimal duals
        # (2,512 under the reduction dual) and the adjoint's walks 1,946.
        from supertrop.cli import main

        counts = {"matrix": 0, "adjoint": 0}
        walked = [None]
        entry = matrices._ENGINES["assignment"]
        real = matrices._principal_states

        def sums(raw, A=None):
            walked[0] = "adjoint" if A is None else "matrix"
            return entry.sums(raw, A)

        def walk(cost, g, bounded=False):
            for minor in real(cost, g, bounded):
                counts[walked[0]] += 1
                yield minor

        monkeypatch.setitem(matrices._ENGINES, "assignment", entry._replace(sums=sums))
        monkeypatch.setattr(matrices, "_principal_states", walk)
        argv = "--mode conjecture --n 1..6 --trials 300 --engine assignment --seed 42"
        assert main(argv.split()) == 0
        assert counts == {"matrix": 2183, "adjoint": 1946}


def off(p):
    """A raw cell other than ``p``."""
    return None if p == (999, 1) else (999, 1)


def broken(engine, quantity):
    """The table entry ``engine`` with one quantity wrong: the determinant
    (from ``det`` and from ``cofactors``), the first cofactor, or the last
    characteristic coefficient."""
    if quantity == "determinant engines":
        def cofactors(A):
            d, cof = engine.cofactors(A)
            return off(d), cof

        return engine._replace(det=lambda A: off(engine.det(A)), cofactors=cofactors)
    if quantity == "adjoints":
        def cofactors(A):
            d, cof = engine.cofactors(A)
            return d, [[off(cof[0][0])] + cof[0][1:]] + cof[1:]

        return engine._replace(cofactors=cofactors)
    return engine._replace(sums=lambda raw, A=None: engine.sums(raw, A)[:-1] + [off(engine.sums(raw, A)[-1])])


class TestBothCrossCheck:
    """``both`` runs the kernel, brute force and the assignment engine, each
    read from the engine table.  A wrong quantity from any one of them makes
    every call that computes that quantity raise :class:`InternalError`
    naming it, and the CLI exit 3; every other call is unaffected."""

    CALLS = {
        "det": lambda M: det(M, "both"),
        "adjoint": lambda M: adjoint(M, "both"),
        "char_poly": lambda M: char_poly(M, "both"),
        "conjecture_check": lambda M: conjecture_check(M, "both"),
    }
    USES = {
        "determinant engines": {"det", "adjoint", "conjecture_check"},
        "adjoints": {"adjoint", "conjecture_check"},
        "characteristic coefficients": {"char_poly", "conjecture_check"},
    }

    @pytest.mark.parametrize("quantity", sorted(USES), ids=lambda quantity: quantity.split()[0])
    @pytest.mark.parametrize("leg", ["auto", "brute", "assignment"])
    def test_a_broken_leg_is_named(self, leg, quantity, monkeypatch, capsys):
        from supertrop.cli import main

        M = parse_matrix("3\n2t 0t -1t\n1g 3t e\n0t -2t 1t\n")
        expected = {name: call(M) for name, call in self.CALLS.items()}
        monkeypatch.setitem(matrices._ENGINES, leg, broken(matrices._ENGINES[leg], quantity))
        for name, call in self.CALLS.items():
            fresh = Matrix(M.rows)
            if name in self.USES[quantity]:
                with pytest.raises(InternalError, match=f"^{quantity} disagree: kernel "):
                    call(fresh)
            else:
                assert call(fresh) == expected[name], name
        code = main(["--mode", "conjecture", "--n", "3", "--trials", "1", "--engine", "both"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"supertrop: internal error: {quantity} disagree: kernel ")


class TestInvariances:
    def permuted(self, M, perm):
        return Matrix([[M.rows[perm[i]][perm[j]] for j in range(M.n)] for i in range(M.n)])

    def test_permutation_conjugation(self):
        import itertools

        for M in seeded_matrices(31, 8, 4, bound=4):
            base_det = det_brute(M)
            base_chi = char_poly(M).coeffs
            for perm in itertools.permutations(range(4)):
                P = self.permuted(M, perm)
                assert det_brute(P) == base_det
                assert char_poly(P).coeffs == base_chi

    def test_transpose(self):
        for n in (2, 3, 4):
            for M in seeded_matrices(47 + n, 10, n, bound=4):
                assert det_brute(M.transpose()) == det_brute(M)
                assert adjoint(M.transpose()) == adjoint(M).transpose()

    def test_row_scaling(self):
        c = tangible(5)
        for M in seeded_matrices(53, 10, 3, bound=4):
            for r in range(3):
                rows = [list(row) for row in M.rows]
                rows[r] = [mul(c, s) for s in rows[r]]
                scaled = Matrix(rows)
                assert det_brute(scaled) == mul(c, det_brute(M))
                assert det(scaled, "assignment") == mul(c, det(M, "assignment"))


class TestCofactorAdjoint:
    def test_cofactor_examples(self):
        assert cofactor(A, 1, 1) == tangible(4)
        assert cofactor(A, 1, 2) == tangible(1)
        assert cofactor(Matrix([[tangible(5)]]), 1, 1) == tangible(0)

    def test_cofactor_out_of_range(self):
        with pytest.raises(IndexError):
            cofactor(A, 0, 1)
        with pytest.raises(IndexError):
            cofactor(A, 1, 3)

    def test_adjoint_examples(self):
        assert adjoint(A) == parse_matrix("2\n4t 0t\n1t 3t\n")
        assert adjoint(Matrix.identity(2)) == Matrix.identity(2)
        assert adjoint(Matrix([[tangible(5)]])) == Matrix([[tangible(0)]])


class TestCharPoly:
    def test_examples(self):
        assert char_poly(A).coeffs == (tangible(0), tangible(4), tangible(7))
        assert char_poly(Matrix.identity(3)).coeffs == (
            tangible(0),
            ghost(0),
            ghost(0),
            tangible(0),
        )
        assert char_poly(Matrix([[tangible(5)]])).coeffs == (tangible(0), tangible(5))

    def test_ends(self):
        for n in (1, 2, 3, 4):
            for M in seeded_matrices(71 + n, 10, n, bound=4):
                cp = char_poly(M)
                assert len(cp.coeffs) == n + 1
                assert cp.coeffs[0] == tangible(0)
                assert cp.coeffs[n] == det_brute(M)


class TestNonsingularPseudoinverse:
    def test_examples(self):
        assert is_nonsingular(A)
        assert not is_nonsingular(TIED)
        assert not is_nonsingular(Matrix([[EPS]]))
        assert pseudoinverse(A) == parse_matrix("2\n-3t -7t\n-6t -4t\n")
        assert pseudoinverse(Matrix.identity(4)) == Matrix.identity(4)
        with pytest.raises(Singular):
            pseudoinverse(TIED)

    def test_nonsingular_iff_invertible_det(self):
        for M in seeded_matrices(83, 40, 3, bound=3):
            assert is_nonsingular(M) == det_brute(M).is_tangible

    def test_det_power(self):
        assert det_power(EPS, 0) == tangible(0)
        assert det_power(ghost(3), 0) == tangible(0)
        assert det_power(tangible(3), 2) == tangible(6)
        assert det_power(tangible(3), -1) == tangible(-3)
        assert det_power(EPS, 2) == EPS


class TestConjecture:
    def test_worked_example(self):
        report = conjecture_check(A)
        assert report.ok and not report.singular
        by_k = {c.k: c for c in report.cases}
        assert (by_k[1].lhs, by_k[1].rhs) == (tangible(4), tangible(4))
        assert (by_k[2].lhs, by_k[2].rhs) == (tangible(7), tangible(7))
        assert (by_k[0].lhs, by_k[0].rhs) == (tangible(0), tangible(0))

    def test_k_zero_is_trivial(self):
        for M in seeded_matrices(97, 20, 3, bound=4):
            if not is_nonsingular(M):
                continue
            case = conjecture_check(M, ks=(0,)).cases[0]
            assert case.lhs == tangible(0) and case.rhs == tangible(0) and case.holds

    def test_holds_on_seeded_nonsingular_sample(self):
        # The theorem: every non-singular matrix passes every k.  Any failure
        # here is a show-stopping bug somewhere in the stack.
        checked = 0
        for n in range(1, 5):
            for M in seeded_matrices(200 + n, 60, n, bound=3):
                if not is_nonsingular(M):
                    continue
                report = conjecture_check(M)
                assert report.ok, (M, report)
                assert {c.k for c in report.cases} == set(range(n + 1))
                checked += 1
        assert checked > 100

    def test_singular_raises_without_flag(self):
        with pytest.raises(Singular):
            conjecture_check(TIED)

    def test_singular_exploratory_path(self):
        report = conjecture_check(TIED, allow_singular=True)
        assert report.singular
        assert {c.k for c in report.cases} == {1, 2}  # k = 0 needs the inverse

    @pytest.mark.parametrize(
        "engine, orders", [("auto", range(1, 8)), ("both", range(1, 5))], ids=["auto", "both"]
    )
    def test_pseudoinverse_form_is_the_adjoint_form(self, engine, orders):
        # pinv A = det^-1 adj A and scaling by a tangible unit is a bijection,
        # so chi_k(pinv A) = det^-k chi_k(adj A) exactly, ghost tags included,
        # and det * chi_k(pinv A) |= chi_{n-k}(A) decides every k the way the
        # adjoint form of conjecture_check does.
        checked = 0
        for n in orders:
            for M in seeded_matrices(900 + n, 60, n):
                d = det(M, engine)
                if not d.is_tangible:
                    continue
                chi = char_poly(M, engine).coeffs
                chi_adj = char_poly(adjoint(M, engine), engine).coeffs
                chi_pinv = char_poly(pseudoinverse(M, engine), engine).coeffs
                report = conjecture_check(M, engine)
                for k in range(n + 1):
                    assert chi_pinv[k] == mul(det_power(d, -k), chi_adj[k]), (M, k)
                    pinv_form = ghost_surpasses(mul(d, chi_pinv[k]), chi[n - k])
                    assert pinv_form == report.cases[k].holds, (M, k)
                checked += 1
        assert checked > 15 * len(orders)

    @pytest.mark.parametrize("engine", matrices.ENGINES)
    def test_adjoint_stays_raw_on_every_engine(self, engine, monkeypatch):
        # The check hands the raw cofactor grid straight to the engine's sums
        # function, so adj A is never built as a matrix of scalars.
        cases = [
            (M, conjecture_check(M, allow_singular=True))
            for n in range(1, 6)
            for M in seeded_matrices(950 + n, 4, n, bound=2)
        ]

        def refuse(raw_rows):
            raise AssertionError("adj A built as a matrix of scalars")

        monkeypatch.setattr(matrices, "_scalar_grid", refuse)
        for M, expected in cases:
            assert conjecture_check(Matrix(M.rows), engine, allow_singular=True) == expected, M

    @pytest.mark.parametrize("engine", matrices.ENGINES)
    def test_both_sides_read_the_engines_own_sums(self, engine, monkeypatch):
        # chi(A) and chi(adj A) each come from the engine's sums function
        # (under both, from every leg's), on A's raw grid and on adj A's.
        M = parse_matrix("3\n2t 0t -1t\n1g 3t e\n0t -2t 1t\n")
        grids = [matrices._raw(M.rows), matrices._raw(adjoint(M).rows)]
        seen = []
        for name in ("auto", "brute", "assignment"):
            entry = matrices._ENGINES[name]

            def sums(raw, A=None, name=name, real=entry.sums):
                seen.append((name, [list(row) for row in raw], A))
                return real(raw, A)

            monkeypatch.setitem(matrices._ENGINES, name, entry._replace(sums=sums))
        fresh = Matrix(M.rows)
        conjecture_check(fresh, engine)
        # A's pass is handed A itself; the adjoint's grid has no matrix.
        legs = ("auto", "brute", "assignment") if engine == "both" else (engine,)
        expected = [(leg, grid, X) for leg in legs for grid, X in zip(grids, (fresh, None))]
        assert len(seen) == len(expected)
        for call in expected:
            assert any(s[:2] == call[:2] and s[2] is call[2] for s in seen), call

    def test_k_filter_validation(self):
        with pytest.raises(ValueError):
            conjecture_check(A, ks=(3,))


class TestTextFormat:
    def test_round_trip(self):
        for n in (1, 2, 3, 5):
            for M in seeded_matrices(301 + n, 5, n):
                assert parse_matrix(format_matrix(M)) == M

    def test_format_example(self):
        assert format_matrix(A) == "2\n3t 0t\n1t 4t\n"

    @pytest.mark.parametrize(
        "text",
        ["", "x\n3t\n", "2\n3t 0t\n", "1\n3t 0t\n", "0\n", "2\n3t 0t\n1t 4x\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_matrix(text)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            Matrix([])
        with pytest.raises(ValueError):
            Matrix([[tangible(1), tangible(2)]])
        with pytest.raises(TypeError):
            Matrix([[1]])


class TestIndexPlans:
    """The kernel's index plans depend on the order alone: a plan built for
    one order must never serve another, and no call may change one."""

    def test_interleaved_orders_match_brute_force(self):
        # The cache starts empty, so each order's plan is built between
        # calls at other orders.
        matrices._row_plan.cache_clear()
        ghostly = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
        tags = set()
        for i, n in enumerate((6, 1, 8, 3, 6, 2)):
            for M in seeded_matrices(5400 + i, 2 if n == 8 else 6, n, 1, ghostly):
                raw = matrices._raw(M.rows)
                d, cof = matrices._brute_cofactors(M)
                assert matrices._prefix_dp(raw)[-1] == d, M
                assert matrices._cofactor_dp(Matrix(M.rows)) == (d, cof), M
                assert matrices._principal_sums(raw) == matrices._brute_sums(raw), M
                tags.add(None if d is None else d[1])
        assert tags == {None, 0, 1}


def _rmul(a, b):
    """Product of two raw cells."""
    return None if a is None or b is None else (a[0] + b[0], a[1] & b[1])


class TestIdentitiesAboveTheCap:
    """Identities that tie the kernel's passes to one another, checked above
    BRUTE_CAP, where no reference engine runs: ``chi_n(A) = det A``,
    ``chi_{n-1}(A)`` is the sum of the diagonal cofactors, ``chi`` is
    unchanged under transposition and under ``P A P^T``, Laplace's
    ``(A adj A)_ii = det A`` with every off-diagonal entry of ``A adj A`` a
    ghost or eps, and scaling by a tangible lambda multiplies ``chi_k`` by
    ``lambda^k`` and ``adj A`` by ``lambda^(n-1)``."""

    GHOSTLY = TestWarmStartedDrivers.GHOSTLY
    SPARSE = TestWarmStartedDrivers.SPARSE
    EMPTY = (Fraction(15, 100), Fraction(5, 100), Fraction(80, 100))
    DRAWS = ((1, GHOSTLY), (1, SPARSE), (1, EMPTY), (6, DEFAULT_PROBS))

    def test_trace_determinant_and_invariance(self):
        # Bound 1 makes ties, and so ghost coefficients, common; the eps-heavy
        # draws leave the top coefficients eps.
        kinds = set()
        for n in range(9, 14):
            for p, (bound, probs) in enumerate(self.DRAWS):
                rng = Xorshift64Star(9300 + 10 * p + n)
                for M in [random_matrix(rng, n, bound, probs) for _ in range(3 if n < 12 else 1)]:
                    raw = matrices._raw(M.rows)
                    chi = matrices._principal_sums(raw)
                    d, cof = matrices._cofactor_dp(M)
                    trace = None
                    for i in range(n):
                        trace = matrices._radd(trace, cof[i][i])
                    assert chi[n] == d and chi[n - 1] == trace, M
                    assert matrices._principal_sums(list(zip(*raw))) == chi, M
                    perm = list(range(n))
                    for i in range(n - 1, 0, -1):
                        j = rng.next_below(i + 1)
                        perm[i], perm[j] = perm[j], perm[i]
                    conjugated = [[raw[a][b] for b in perm] for a in perm]
                    assert matrices._principal_sums(conjugated) == chi, (M, perm)
                    # (A adj A)_il sums a_ij over the cofactors of row l: the
                    # determinant for l = i, else that of a matrix whose rows
                    # i and l are equal, where every term appears twice.
                    for i in range(n):
                        for l in range(n):
                            entry = None
                            for j in range(n):
                                entry = matrices._radd(entry, _rmul(raw[i][j], cof[l][j]))
                            if i == l:
                                assert entry == d, (M, i)
                            else:
                                assert entry is None or entry[1] == 0, (M, i, l)
                    lam = -3  # tangible
                    scaled = [[_rmul((lam, 1), e) for e in row] for row in raw]
                    assert matrices._principal_sums(scaled) == [
                        _rmul((k * lam, 1), c) for k, c in enumerate(chi)
                    ], M
                    assert matrices._cofactor_dp(matrices._scalar_grid(scaled))[1] == [
                        [_rmul(((n - 1) * lam, 1), c) for c in row] for row in cof
                    ], M
                    kinds.update(None if c is None else c[1] for c in chi[1:])
        assert kinds == {None, 0, 1}


class TestPrefixMemo:
    """The kernel keeps a matrix's prefix DP on the matrix; results must not
    depend on whether, or by which call, it was filled."""

    CALLS = {
        "det": det,
        "adjoint": adjoint,
        "char_poly": char_poly,
        "conjecture_check": lambda M, engine="auto": conjecture_check(M, engine, allow_singular=True),
    }

    def test_equality_and_hash_ignore_the_memo(self):
        for M in seeded_matrices(5100, 6, 4):
            fresh = Matrix(M.rows)
            det(M)
            assert M._prefix is not None and fresh._prefix is None
            assert M == fresh and hash(M) == hash(fresh) and repr(M) == repr(fresh)
            assert {M: 1}[fresh] == 1

    def test_any_call_order_matches_brute_force(self):
        # Two matrices are interleaved in every order of the four calls, so a
        # memo shared between matrices, or filled by one call and misread by
        # another, shows against the brute-force engine, which has no memo.
        names = sorted(self.CALLS)
        pairs = [seeded_matrices(5200 + n, 2, n, bound=2) for n in (2, 3, 4)]
        for X, Y in pairs:
            expected = {
                (M, name): self.CALLS[name](M, engine="brute") for M in (X, Y) for name in names
            }
            for order in itertools.permutations(names):
                x, y = Matrix(X.rows), Matrix(Y.rows)
                for name in order:
                    assert self.CALLS[name](x) == expected[X, name], (X, order)
                    assert self.CALLS[name](y) == expected[Y, name], (Y, order)

    def test_one_prefix_dp_per_accepted_draw(self, monkeypatch):
        # is_nonsingular's determinant is the prefix half of the cofactor
        # pass: the check adds only the suffix DP.
        calls = []
        real = matrices._prefix_dp
        monkeypatch.setattr(matrices, "_prefix_dp", lambda raw: calls.append(1) or real(raw))
        checked = 0
        for M in seeded_matrices(5300, 5, 5):
            M = Matrix(M.rows)
            if is_nonsingular(M):
                assert len(calls) == 1
                conjecture_check(M)
                assert len(calls) == 2
                checked += 1
            calls.clear()
        assert checked
