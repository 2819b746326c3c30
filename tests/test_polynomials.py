import collections
import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from supertrop import (
    EPS,
    Matrix,
    OrderTooLarge,
    Scalar,
    Singular,
    add,
    build_alpha,
    build_beta,
    build_gamma,
    char_poly,
    claim1_check,
    claim2_check,
    claim3_check,
    decomposition_checks,
    det,
    det_power,
    evaluate,
    ghost,
    mul,
    parse_matrix,
    poly_add,
    poly_mul,
    tangible,
)
from supertrop import polynomials
from supertrop.matrices import _surpassing_sides, adjoint, is_nonsingular
from supertrop.polynomials import (
    SYMBOLIC_KMAX,
    Poly,
    _claims_dag,
    _claims_reports,
    _compile,
    _compiled,
    _exists_addend,
    _exponents,
    _fold,
    _variable_cells,
    poly_det,
    unit_poly,
    variable,
    zero_poly,
)
from supertrop.harness import random_matrix
from supertrop.rng import Xorshift64Star

A = parse_matrix("2\n3t 0t\n1t 4t\n")


def pack(grid):
    """The monomial key of an exponent grid: exponent ``i`` in the nibble at
    bits ``4i .. 4i + 3``."""
    return sum(e << 4 * i for i, e in enumerate(grid))


def sorted_terms(p):
    """``(grid, tag)`` pairs in canonical order: by total degree, then
    lexicographically by exponent grid."""
    terms = [(_exponents(key, p.n), tag) for key, tag in p.terms.items()]
    return sorted(terms, key=lambda item: (sum(item[0]), item[0]))


def format_poly(p):
    """One term per line, ``0t * v11^a11 ... vnn^ann`` (``0g`` for tag 0),
    in canonical order.

    Every variable is printed with its exponent (including 0) so the lines
    are fixed-width and diff-stable for golden strings.
    """
    n = p.n
    names = [f"v{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    lines = []
    for exps, tag in sorted_terms(p):
        grid = " ".join(f"{name}^{e}" for name, e in zip(names, exps))
        lines.append(f"{'0t' if tag else '0g'} * {grid}")
    return "\n".join(lines)


def seeded_matrices(seed, count, n, bound=4):
    rng = Xorshift64Star(seed)
    return [random_matrix(rng, n, bound) for _ in range(count)]


#: Tie-heavy entries: eps, both tags, and values that collide in sums.
TIE_ALPHABET = (
    EPS, tangible(0), ghost(0), tangible(1), ghost(1), tangible(Fraction(1, 2)), ghost(Fraction(-1, 2)),
)


def alphabet_matrices(seed, count, n):
    rng = Xorshift64Star(seed)
    pick = len(TIE_ALPHABET)
    return [
        Matrix([[TIE_ALPHABET[rng.next_below(pick)] for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]


def evaluate_by_terms(p, A):
    """Reference for ``evaluate``: every term walks all n*n exponents from the
    value 0 of its coefficient and the coefficient's tag."""
    flat = [s for row in A.rows for s in row]
    best_value = None
    best_tag = None
    for key, tag in p.terms.items():
        value = 0
        alive = True
        for idx, e in enumerate(_exponents(key, p.n)):
            if not e:
                continue
            s = flat[idx]
            if s.tag is None:
                alive = False
                break
            value = value + s.value * e
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


def dag_paths(dag, n):
    """Per root of ``dag``, the ``(key, tag)`` of every path from it to a
    leaf, sorted; a path's key is the sum of its fields' keys.  Each field is
    read back through its getter from the flat indices themselves, and its
    support must be its key's; no node may be interned twice."""
    supports, reads, nodes, roots = dag
    size = n * n
    keys = []
    for support, read in zip(supports, reads):
        indices = [i for i in read(range(size + 1)) if i < size]
        keys.append(sum(1 << 4 * i for i in indices))
        assert support == sum(1 << i for i in set(indices)), dag
    assert len(set(nodes)) == len(nodes), dag
    paths = [[(0, 0)], [(0, 1)]]  # per node id, its paths: the leaves first
    for node in nodes:
        paths.append([(keys[f] + key, tag) for f, c in node for key, tag in paths[c]])
    return [[] if r is None else sorted(paths[r]) for r in roots]


def dag_terms(p):
    """The paths of the one-root DAG of ``p``, as :func:`dag_paths`."""
    (terms,) = dag_paths(_compiled(p), p.n)
    return terms


def fraction_matrices(seed, count, n):
    """Matrices of eps, ghost and tangible entries with Fraction values of
    small numerators and denominators, so that sums tie."""
    rng = Xorshift64Star(seed)
    kinds = (EPS, ghost, tangible, tangible)
    return [
        Matrix([
            [kind if kind is EPS else kind(Fraction(rng.next_below(7) - 3, 1 + rng.next_below(3)))
             for kind in (kinds[rng.next_below(4)] for _ in range(n))]
            for _ in range(n)
        ])
        for _ in range(count)
    ]


#: Entry distributions ``(tangible, ghost, eps)`` of the draws the fold is
#: checked on, beside the default one.
GHOST_HEAVY = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
EPS_HEAVY = (Fraction(50, 100), Fraction(10, 100), Fraction(40, 100))


def fold_matrices(seed, count, n):
    """``count`` matrices of each kind the order DAG is checked on: default
    draws, ghost-heavy and eps-heavy draws of values in -1..1 and -2..2, and
    Fraction-valued matrices."""
    rng = Xorshift64Star(seed)
    return (
        [random_matrix(rng, n, 4) for _ in range(count)]
        + [random_matrix(rng, n, 1, GHOST_HEAVY) for _ in range(count)]
        + [random_matrix(rng, n, 2, EPS_HEAVY) for _ in range(count)]
        + fraction_matrices(seed + 1, count, n)
    )


def claims_polys(n, ks):
    """The roots of the both-engine order DAG, in its order: gamma, alpha,
    then beta, each for every k in ``ks``."""
    return [build(n, k) for build in (build_gamma, build_alpha, build_beta) for k in ks]


def check_order_dag(n, matrices):
    """Every root of the both-engine DAG of order ``n`` over its built k,
    folded at each of ``matrices``, against the term walk and
    :func:`evaluate` of its polynomial."""
    ks = tuple(range(1, SYMBOLIC_KMAX[n] + 1))
    dag = _claims_dag(n, ks, True)
    polys = claims_polys(n, ks)
    for M in matrices:
        expected = [evaluate_by_terms(p, M) for p in polys]
        assert _fold(dag, M) == expected == [evaluate(p, M) for p in polys], M


def exps(n, *pairs):
    """The key of the monomial with exponent ``e`` at each 1-based ``(i, j, e)``."""
    grid = [0] * (n * n)
    for i, j, e in pairs:
        grid[(i - 1) * n + (j - 1)] = e
    return pack(grid)


@dataclass(frozen=True)
class MuTuple:
    """Index tuple for one raw monomial of beta: k-1 full permutations, an
    (n-k)-subset, and a permutation of that subset.

    ``sigmas[t][i]`` is the image of row i under the t-th permutation;
    ``tau[p]`` is the image of ``j_set[p]``.
    """

    sigmas: tuple
    j_set: tuple
    tau: tuple

    def exponent_key(self, n: int):
        exps = [0] * (n * n)
        for sigma in self.sigmas:
            for i in range(n):
                exps[i * n + sigma[i]] += 1
        for j, image in zip(self.j_set, self.tau):
            exps[j * n + image] += 1
        return pack(exps)


def tags_of(counts):
    """The tag of each grid from the number of index tuples that reach it:
    1 (``0t``) for a grid reached once, 0 (``0g``) for one reached more often."""
    return {key: 1 if count == 1 else 0 for key, count in counts.items()}


def beta_by_tuples(n, k):
    """Reference for ``build_beta``: ``det^(k-1) * chi_{n-k}`` of the variable
    matrix expanded directly, one unit term per index tuple."""
    counts = collections.Counter()
    all_perms = list(itertools.permutations(range(n)))
    subsets = list(itertools.combinations(range(n), n - k))
    for sigmas in itertools.product(all_perms, repeat=k - 1):
        for j_set in subsets:
            for tau in itertools.permutations(j_set):
                counts[MuTuple(sigmas, j_set, tau).exponent_key(n)] += 1
    return Poly(n, tags_of(counts))


def alpha_by_permutations(n, k):
    """Reference for ``build_alpha``: ``chi_k`` of the adjoint of the variable
    matrix expanded directly, one unit term per index tuple.

    A k-subset ``S`` and a permutation ``tau`` of ``S`` pick the adjoint
    entries ``(a, tau(a))``, each the minor without row ``tau(a)`` and column
    ``a``; every ``a`` then takes one bijection of the other rows onto the
    other columns.
    """
    counts = collections.Counter()
    for subset in itertools.combinations(range(n), k):
        for tau in itertools.permutations(subset):
            bijections = []
            for a, b in zip(subset, tau):
                rows = [r for r in range(n) if r != b]
                cols = [c for c in range(n) if c != a]
                bijections.append([tuple(zip(rows, image)) for image in itertools.permutations(cols)])
            for choice in itertools.product(*bijections):
                exps = [0] * (n * n)
                for pairs in choice:
                    for r, c in pairs:
                        exps[r * n + c] += 1
                counts[pack(exps)] += 1
    return Poly(n, tags_of(counts))


#: Term counts ``(alpha, beta, gamma)`` per order and k = 1..n.
TERM_COUNTS = {
    1: [(1, 1, 1)],
    2: [(2, 2, 2), (2, 2, 2)],
    3: [(6, 6, 6), (21, 18, 18), (21, 21, 6)],
    4: [(24, 24, 24), (348, 276, 264), (1584, 1128, 96), (2008, 2008, 24)],
    5: [(120, 120, 120), (8610, 6540, 5880), (178960, 115590, 2280)],  # k <= SYMBOLIC_KMAX[5]
}


def principal_pieces(cells, n, k):
    """``poly_det`` of each principal k-by-k subgrid of ``cells``."""
    return [
        poly_det([[cells[i][j] for j in S] for i in S], n)
        for S in itertools.combinations(range(len(cells)), k)
    ]


def termwise(alpha, beta):
    """The theorem term by term, alpha = beta + (terms of tag 0), as
    ``(missing, untagged, tagged)``: the number of beta's monomials outside
    alpha, which (i) says is 0; of alpha's tag-1 monomials without tag 1 in
    beta, which (ii) says is 0; and of alpha's tag-1 monomials."""
    missing = sum(key not in alpha.terms for key in beta.terms)
    tagged = [key for key, tag in alpha.terms.items() if tag]
    untagged = sum(not beta.terms.get(key) for key in tagged)
    return missing, untagged, len(tagged)


def line_sum_grids(n, s):
    """Every n-by-n nonnegative integer matrix with each row and column sum
    ``s``, flattened row by row."""
    compositions = [c for c in itertools.product(range(s + 1), repeat=n) if sum(c) == s]

    def rows(r, left):  # ``left``: what each column still needs from rows r..n-1
        if r == n:
            return [()] if not any(left) else []
        return [
            row + rest
            for row in compositions if all(map(int.__le__, row, left))
            for rest in rows(r + 1, tuple(map(int.__sub__, left, row)))
        ]

    return rows(0, (s,) * n)


class TestPolyArithmetic:
    def test_add_merges_to_ghost(self):
        e1 = exps(2, (1, 1, 1))
        p = Poly(2, {e1: 1})
        assert poly_add(p, p).terms == {e1: 0}
        assert poly_add(poly_add(p, p), p).terms == {e1: 0}

    def test_mul_single_terms(self):
        p = Poly(2, {exps(2, (1, 1, 1)): 1})
        q = Poly(2, {exps(2, (2, 2, 1)): 1})
        assert poly_mul(p, q).terms == {exps(2, (1, 1, 1), (2, 2, 1)): 1}
        g = Poly(2, {exps(2, (2, 2, 1)): 0})
        assert poly_mul(p, g).terms == {exps(2, (1, 1, 1), (2, 2, 1)): 0}

    def test_empty_poly_absorbs(self):
        p = Poly(2, {exps(2, (1, 1, 1)): 1})
        assert poly_mul(p, zero_poly(2)).terms == {}
        assert poly_add(p, zero_poly(2)) == p

    def test_mul_refuses_an_exponent_that_could_carry(self):
        # Keys hold 4 bits per exponent: a factor with an exponent above 7
        # could carry into the next variable, so it is refused.
        p = Poly(2, {exps(2, (1, 1, 7)): 1})
        assert poly_mul(p, p).terms == {exps(2, (1, 1, 14)): 1}
        for high in (8, 15):
            q = Poly(2, {exps(2, (2, 2, high)): 1})
            with pytest.raises(ValueError, match="exponent above 7"):
                poly_mul(p, q)
            with pytest.raises(ValueError, match="exponent above 7"):
                poly_mul(q, unit_poly(2))

    def test_det_refuses_a_grid_that_could_carry(self):
        # poly_det adds its products straight into its sums, past poly_mul's
        # guard: the rows' largest exponents may sum to 15, not above.
        eight = Poly(2, {exps(2, (1, 1, 8)): 1})
        seven = Poly(2, {exps(2, (1, 1, 7)): 0})
        zero = zero_poly(2)
        assert poly_det([[eight, zero], [zero, seven]], 2).terms == {exps(2, (1, 1, 15)): 0}
        for grid in ([[eight, zero], [zero, eight]], [[zero, eight], [eight, unit_poly(2)]]):
            with pytest.raises(ValueError, match="sum above 15"):
                poly_det(grid, 2)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            poly_add(unit_poly(2), unit_poly(3))
        with pytest.raises(ValueError):
            poly_mul(unit_poly(2), unit_poly(3))
        with pytest.raises(ValueError):
            evaluate(unit_poly(3), A)

    def test_variable_indexing(self):
        v = variable(2, 1, 2)
        assert v.terms == {exps(2, (1, 2, 1)): 1}
        with pytest.raises(IndexError):
            variable(2, 0, 1)
        with pytest.raises(IndexError):
            variable(2, 1, 3)


class TestBuilders:
    def test_alpha_examples(self):
        a21 = build_alpha(2, 1)
        assert a21.terms == {
            exps(2, (1, 1, 1)): 1,
            exps(2, (2, 2, 1)): 1,
        }
        a22 = build_alpha(2, 2)
        assert a22.terms == {
            exps(2, (1, 1, 1), (2, 2, 1)): 1,
            exps(2, (1, 2, 1), (2, 1, 1)): 1,
        }
        assert build_alpha(3, 0) == unit_poly(3)

    def test_beta_examples(self):
        assert build_beta(2, 2) == build_alpha(2, 2)
        assert build_beta(2, 1) == build_alpha(2, 1)
        assert build_gamma(2, 1) == build_beta(2, 1)

    def test_caps_and_floors(self):
        with pytest.raises(OrderTooLarge):
            build_alpha(6, 1)
        with pytest.raises(OrderTooLarge):
            build_beta(6, 1)
        for k in (4, 5):  # above SYMBOLIC_KMAX[5]
            with pytest.raises(OrderTooLarge):
                build_alpha(5, k)
            with pytest.raises(OrderTooLarge):
                claim1_check(5, k)
        with pytest.raises(ValueError):
            build_beta(3, 0)  # needs the inverse determinant: not a polynomial
        with pytest.raises(ValueError):
            build_alpha(3, 4)

    def test_degree_invariant(self):
        # No key has a nibble above n or beyond the grid's n*n nibbles, so no
        # exponent carries into the next.  Each key decodes to a grid of total
        # degree exactly k(n-1) that packs back to it; at order 5, k = 3 that
        # is checked on every 50th of its 294,550 keys (all of them take 2 s).
        for n in (2, 3, 4, 5):
            for k in range(1, SYMBOLIC_KMAX[n] + 1):
                for p in (build_alpha(n, k), build_beta(n, k)):
                    nibbles = [f"{key:0{n * n}x}" for key in p.terms]
                    assert {len(h) for h in nibbles} == {n * n}, (n, k)
                    assert max(map(max, nibbles)) <= str(n), (n, k)
                    keys = list(p.terms)[::50 if len(p) > 10_000 else 1]
                    grids = [_exponents(key, n) for key in keys]
                    assert {sum(e) for e in grids} == {k * (n - 1)}, (n, k)
                    assert list(map(pack, grids)) == keys, (n, k)

    def test_coefficient_range(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for p in (build_alpha(n, k), build_beta(n, k)):
                    assert set(p.terms.values()) <= {0, 1}
                gamma = build_gamma(n, k)
                assert set(gamma.terms.values()) == {1}
                assert set(gamma.terms) <= set(build_beta(n, k).terms)

    def test_mu_tuple_exponent_key(self):
        # One full permutation (k=2 over n=3 leaves one sigma) plus tau on J.
        mu = MuTuple(sigmas=((1, 0, 2),), j_set=(0, 2), tau=(2, 0))
        key = mu.exponent_key(3)
        assert key == exps(3, (1, 2, 1), (2, 1, 1), (3, 3, 1), (1, 3, 1), (3, 1, 1))

    def test_beta_equals_tuple_enumeration(self):
        # At order 5 the enumeration stops at k = 2: k = 3 has 288,000 tuples.
        for n in range(1, 6):
            for k in range(1, (2 if n == 5 else n) + 1):
                assert build_beta(n, k) == beta_by_tuples(n, k), (n, k)

    def test_alpha_equals_permutation_enumeration(self):
        # At order 5 the enumeration stops at k = 2: k = 3 has 829,440 tuples.
        for n in range(1, 6):
            for k in range((2 if n == 5 else n) + 1):
                assert build_alpha(n, k) == alpha_by_permutations(n, k), (n, k)

    def test_principal_pieces_are_disjoint(self):
        # chi_k is built as a sum of principal-minor determinants, one piece
        # per index set, and no two pieces of one sum share a monomial: a
        # term of alpha's piece on S has line sums k - 1 on S and k off it,
        # one of the variable chi_(n-k)'s piece on R has sums 1 on R and 0
        # off it.  So the plain dict union of the pieces is the sum, tags
        # included.  Every built (n, k), k = 0 included.
        def disjoint_union(pieces):
            union = {}
            for piece in pieces:
                assert union.keys().isdisjoint(piece.terms)
                union.update(piece.terms)
            return union

        for n, kmax in SYMBOLIC_KMAX.items():
            adj = polynomials._adjoint_cells(n)
            cells = _variable_cells(n)
            for k in range(kmax + 1):
                assert disjoint_union(principal_pieces(adj, n, k)) == build_alpha(n, k).terms, (n, k)
                chi = polynomials._principal_sum(cells, n, n - k)
                assert disjoint_union(principal_pieces(cells, n, n - k)) == chi.terms, (n, k)

    def test_termwise_theorem(self):
        # alpha = beta + G, every coefficient of G being 0g: (i) every beta
        # monomial is an alpha monomial, (ii) every tag-1 alpha monomial has
        # tag 1 in beta.  Substitution is a homomorphism, so at every matrix
        # A, singular or not, chi_k(adj A) = det(A)^(k-1) chi_(n-k)(A) + G(A)
        # with G(A) ghost or eps.  alpha's tag-1 monomials are gamma's.
        for n, counts in TERM_COUNTS.items():
            for k, (_, _, gamma_terms) in enumerate(counts, 1):
                assert termwise(build_alpha(n, k), build_beta(n, k)) == (0, 0, gamma_terms), (n, k)

    def test_alpha_at_k_equal_n_is_every_line_sum_matrix(self):
        # beta(n, n) = det^(n-1), whose support is every nonnegative integer
        # matrix with line sums n - 1 (Birkhoff-Koenig), and every alpha(n, n)
        # term has those sums: (i) at k = n says alpha's support is all of them.
        counts = []
        for n in range(1, 5):
            grids = line_sum_grids(n, n - 1)
            assert set(build_alpha(n, n).terms) == set(map(pack, grids)), n
            counts.append(len(grids))
        assert counts == [1, 2, 21, 2008]

    def test_term_counts(self):
        for n, counts in TERM_COUNTS.items():
            built = [
                (len(build_alpha(n, k)), len(build_beta(n, k)), len(build_gamma(n, k)))
                for k in range(1, SYMBOLIC_KMAX[n] + 1)
            ]
            assert built == counts, n

    def test_builders_are_cached(self):
        assert build_alpha(3, 2) is build_alpha(3, 2)

    def test_builders_make_no_scalars(self, monkeypatch):
        # Every coefficient is 0t or 0g, so a term is its tag alone.  Built
        # from cold caches, alpha, beta and gamma construct no Scalar.
        for cached in (build_alpha, build_beta, build_gamma, polynomials._variable_det,
                       polynomials._adjoint_cells):
            cached.cache_clear()
        built = []
        real = Scalar.__init__
        monkeypatch.setattr(Scalar, "__init__", lambda s, value, tag: built.append(1) or real(s, value, tag))
        polys = []
        for n in range(1, 5):
            polys += [(build_alpha(n, k), False) for k in range(n + 1)]
            polys += [(build(n, k), build is build_gamma)
                      for build in (build_beta, build_gamma) for k in range(1, n + 1)]
        assert built == []
        for p, is_gamma in polys:
            tags = list(p.terms.values())
            assert set(map(type, tags)) == {int}
            assert set(tags) == {1} if is_gamma else set(tags) <= {0, 1}


class TestEvaluate:
    def test_examples(self):
        assert evaluate(build_alpha(2, 1), A) == tangible(4)
        assert evaluate(zero_poly(2), A) == EPS
        tied = parse_matrix("2\n1t 2t\n0t 1t\n")
        assert evaluate(build_beta(2, 2), tied) == ghost(2)

    def test_eps_entry_kills_term(self):
        M = parse_matrix("2\ne 2t\n3t e\n")
        # alpha(2,1) = v11 + v22, both mapped to eps here.
        assert evaluate(build_alpha(2, 1), M) == EPS

    def test_matches_direct_computation(self):
        # evaluate(alpha) = chi_k(adjoint), evaluate(beta) = det^(k-1) chi_{n-k},
        # exactly, including ghost/eps inputs (k >= 1 needs no inverse).
        for n in (2, 3):
            for M in seeded_matrices(500 + n, 25, n):
                d = det(M)
                chi = char_poly(M)
                chi_adj = char_poly(adjoint(M))
                for k in range(1, n + 1):
                    assert evaluate(build_alpha(n, k), M) == chi_adj.coeffs[k]
                    expected = mul(det_power(d, k - 1), chi.coeffs[n - k])
                    assert evaluate(build_beta(n, k), M) == expected


    def test_compiled_equals_term_by_term(self):
        for n in range(1, 5):
            polys = [build_alpha(n, k) for k in range(n + 1)]
            polys += [build(n, k) for build in (build_beta, build_gamma) for k in range(1, n + 1)]
            for M in alphabet_matrices(700 + n, 40 if n < 4 else 15, n):
                for p in polys:
                    assert evaluate(p, M) == evaluate_by_terms(p, M), (p, M)

    def test_dag_paths_rebuild_the_terms(self):
        # Every key is exactly one root-to-leaf path, with its tag: the fold
        # counts each term once.  Every built polynomial up to order 4, and
        # alpha and beta at order 5 for k <= 2.
        polys = [build_alpha(n, k) for n in range(1, 5) for k in range(n + 1)]
        polys += [build(n, k) for n in range(1, 5) for build in (build_beta, build_gamma) for k in range(1, n + 1)]
        polys += [build(5, k) for build in (build_alpha, build_beta) for k in (1, 2)]
        for p in polys:
            assert dag_terms(p) == sorted(p.terms.items()), p

    def test_dag_shares_equal_sub_polynomials(self):
        # (distinct fields, nodes, edges) at order 5: at k = 3 alpha's
        # 178,960 terms fold through 10,882 edges, beta's 115,590 through
        # 16,607.
        sizes = {}
        for k in (2, 3):
            for build in (build_alpha, build_beta):
                supports, _, nodes, _ = _compiled(build(5, k))
                sizes[build.__name__, k] = (len(supports), len(nodes), sum(map(len, nodes)))
        assert sizes == {
            ("build_alpha", 2): (100, 478, 2843),
            ("build_beta", 2): (100, 454, 2394),
            ("build_alpha", 3): (250, 900, 10882),
            ("build_beta", 3): (250, 1574, 16607),
        }

    def test_hand_built_coefficients(self):
        # Random tags, ghost ones included, on random exponent grids with
        # exponents up to 2, which the builders never make, and the zero and
        # unit polynomials; on tie-heavy matrices and on matrices of random
        # Fraction values.
        rng = Xorshift64Star(77)
        for n in (1, 2, 3):
            matrices = alphabet_matrices(900 + n, 30, n) + fraction_matrices(950 + n, 30, n)
            polys = [zero_poly(n), unit_poly(n)]
            for _ in range(40):
                terms = {
                    pack(rng.next_below(3) for _ in range(n * n)): rng.next_below(2)
                    for _ in range(1 + rng.next_below(6))
                }
                polys.append(Poly(n, terms))
            for p in polys:
                for M in matrices:
                    assert evaluate(p, M) == evaluate_by_terms(p, M), (p.terms, M)
            for M in matrices:
                assert (evaluate(zero_poly(n), M), evaluate(unit_poly(n), M)) == (EPS, tangible(0))

    def test_compiled_form_is_per_polynomial(self):
        M = parse_matrix("2\n1t 2g\ne 0t\n")
        p = Poly(2, {exps(2, (1, 1, 2)): 1})
        q = Poly(2, {exps(2, (1, 2, 1)): 1})
        assert (evaluate(p, M), evaluate(q, M)) == (tangible(2), ghost(2))
        assert _compiled(p) is _compiled(p) and _compiled(p) != _compiled(q)
        assert p == Poly(2, dict(p.terms)) and hash(p) == hash(Poly(2, dict(p.terms)))


#: Fields and edges of the DAG of gamma(n, k) over k = 1..n: one DAG for
#: the order, and the one-root DAGs of the k summed.
GAMMA_DAG_SIZES = {2: ((5, 7), (7, 8)), 3: ((25, 50), (37, 56)), 4: ((85, 405), (121, 426))}


class TestOrderDag:
    def test_roots_equal_term_by_term(self):
        # alpha, beta and gamma at every built k, as the roots of one DAG.
        # One ghost-heavy draw at order 5; a CI step runs every kind there.
        for n in range(1, 5):
            check_order_dag(n, fold_matrices(1100 + n, 8 if n < 4 else 3, n))
        check_order_dag(5, [random_matrix(Xorshift64Star(1105), 5, 1, GHOST_HEAVY)])

    def test_paths_rebuild_each_root(self):
        # Each root's paths are exactly its polynomial's terms, tags
        # included, although nodes are shared across the roots.
        for n, ks in [(n, tuple(range(1, n + 1))) for n in range(1, 5)] + [(5, (1, 2))]:
            polys = claims_polys(n, ks)
            assert dag_paths(_claims_dag(n, ks, True), n) == [sorted(p.terms.items()) for p in polys], n

    def test_edge_case_roots(self):
        # The zero and unit polynomials, one polynomial given as two roots,
        # and two polynomials on the same monomials with different tags,
        # whose nodes must not be interned as one.
        beta = build_beta(3, 3)
        untagged = Poly(3, dict.fromkeys(beta.terms, 1))
        assert sorted(beta.terms.values()) != sorted(untagged.terms.values())
        polys = [zero_poly(3), beta, unit_poly(3), untagged, beta]
        dag = _compile(3, polys)
        roots = dag[3]
        assert roots[0] is None and roots[1] == roots[4] != roots[3]
        assert dag_paths(dag, 3) == [sorted(p.terms.items()) for p in polys]
        for M in fold_matrices(1200, 8, 3):
            assert _fold(dag, M) == [evaluate_by_terms(p, M) for p in polys], M
        assert _fold(_compile(2, [zero_poly(2)]), A) == [EPS] and _fold(_compile(2, []), A) == []

    def test_gamma_dag_sizes(self):
        # The fields and edges that one fold per matrix reads, against the
        # per-k DAGs that it replaces.
        sizes = {}
        for n in GAMMA_DAG_SIZES:
            ks = tuple(range(1, n + 1))
            supports, _, nodes, _ = _claims_dag(n, ks, False)
            per_k = [_compiled(build_gamma(n, k)) for k in ks]
            sizes[n] = (
                (len(supports), sum(map(len, nodes))),
                (sum(len(c[0]) for c in per_k), sum(len(e) for c in per_k for e in c[2])),
            )
        assert sizes == GAMMA_DAG_SIZES

    @pytest.mark.parametrize("engine", ["auto", "both"])
    def test_one_fold_per_matrix(self, engine, monkeypatch):
        # A trial folds its order's DAG once, whatever the k, and calls no
        # evaluate.
        folds = []
        fold = polynomials._fold
        monkeypatch.setattr(polynomials, "_fold", lambda dag, M: folds.append(dag) or fold(dag, M))
        monkeypatch.setattr(polynomials, "evaluate", None)
        for n in (2, 3, 4):
            M = next(M for M in seeded_matrices(1300 + n, 20, n) if is_nonsingular(M))
            ks = (1, 3, 4)[:n - 1]
            folds.clear()
            reports = _claims_reports(M, list(ks), engine)
            assert [c3.k for c3, _ in reports] == list(ks)
            assert folds == [_claims_dag(n, ks, engine == "both")]


class TestClaims:
    def test_claim1(self):
        for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
            report = claim1_check(n, k)
            assert report.ok, (n, k, report.violations)

    def test_claim2(self):
        for n, k in [(2, 1), (2, 2), (3, 2), (3, 3)]:
            assert claim2_check(n, k).ok

    def test_claim3_example(self):
        report = claim3_check(A, 1)
        assert report.ok
        assert report.beta_value == tangible(4) and report.gamma_value == tangible(4)

    def test_decomposition_example(self):
        report = decomposition_checks(A, 2)
        assert report.ok
        assert report.alpha_value == tangible(7) and report.beta_value == tangible(7)

    def test_claims_need_nonsingular(self):
        tied = parse_matrix("2\n1t 2t\n0t 1t\n")
        with pytest.raises(Singular):
            claim3_check(tied, 1)
        with pytest.raises(Singular):
            decomposition_checks(tied, 1)

    def test_claims_hold_on_seeded_sample(self):
        checked = 0
        for n in (2, 3):
            for M in seeded_matrices(700 + n, 40, n, bound=3):
                if not is_nonsingular(M):
                    continue
                for k in range(1, n + 1):
                    assert claim3_check(M, k).ok, (M, k)
                    assert decomposition_checks(M, k).ok, (M, k)
                checked += 1
        assert checked > 40

    def test_kernel_values_equal_symbolic_evaluation(self):
        # Trials read alpha(A) and beta(A) from one kernel pass; the symbolic
        # polynomials, evaluated term by term, are the reference.
        for n in (2, 3, 4):
            rng = Xorshift64Star(900 + n)
            checked = 0
            while checked < 100:
                M = random_matrix(rng, n, 4)
                if not is_nonsingular(M):
                    continue
                checked += 1
                for c3, dec in _claims_reports(M, range(1, n + 1)):
                    k = dec.k
                    assert dec.alpha_value == evaluate(build_alpha(n, k), M), (M, k)
                    assert dec.beta_value == evaluate(build_beta(n, k), M), (M, k)
                    assert c3.beta_value == dec.beta_value, (M, k)

    def test_kernel_values_equal_symbolic_evaluation_at_order_5(self):
        # alpha and beta up to k = 3, where alpha has 178,960 terms: default
        # draws through the claims reports, and ghost-heavy draws, singular
        # ones included, against the kernel's two sides.
        rng = Xorshift64Star(905)
        checked = 0
        while checked < 10:
            M = random_matrix(rng, 5, 4)
            if not is_nonsingular(M):
                continue
            checked += 1
            for c3, dec in _claims_reports(M, range(1, 4)):
                assert dec.alpha_value == evaluate(build_alpha(5, dec.k), M), (M, dec.k)
                assert dec.beta_value == evaluate(build_beta(5, dec.k), M) == c3.beta_value, (M, dec.k)
        ghostly = (Fraction(40, 100), Fraction(50, 100), Fraction(10, 100))
        for M in [random_matrix(rng, 5, 1, ghostly) for _ in range(10)]:
            _, sides = _surpassing_sides(M, "auto")
            for k in range(1, 4):
                assert sides[k] == (evaluate(build_alpha(5, k), M), evaluate(build_beta(5, k), M)), (M, k)

    def test_exists_addend_matches_search(self):
        values = [-2, -1, 0, 1, 2]
        grid = [EPS] + [tangible(v) for v in values] + [ghost(v) for v in values]
        for target in grid:
            for base in grid:
                witnessed = any(add(base, x) == target for x in grid)
                assert _exists_addend(target, base) == witnessed, (target, base)


class TestSerialization:
    def test_golden_alpha_2_1(self):
        assert format_poly(build_alpha(2, 1)) == (
            "0t * v11^0 v12^0 v21^0 v22^1\n"
            "0t * v11^1 v12^0 v21^0 v22^0"
        )

    def test_golden_beta_2_2(self):
        assert format_poly(build_beta(2, 2)) == (
            "0t * v11^0 v12^1 v21^1 v22^0\n"
            "0t * v11^1 v12^0 v21^0 v22^1"
        )

    def test_canonical_order_is_graded_lex(self):
        p = build_alpha(3, 2)
        keys = [e for e, _ in sorted_terms(p)]
        assert keys == sorted(keys, key=lambda e: (sum(e), e))
