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
    format_poly,
    ghost,
    mul,
    parse_matrix,
    poly_add,
    poly_mul,
    tangible,
)
from supertrop.matrices import adjoint, is_nonsingular
from supertrop.polynomials import (
    Poly,
    _claims_reports,
    _compiled,
    _exists_addend,
    unit_poly,
    variable,
    zero_poly,
)
from supertrop.harness import random_matrix
from supertrop.rng import Xorshift64Star

A = parse_matrix("2\n3t 0t\n1t 4t\n")


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
    """Reference for ``evaluate``: every term walks all n*n exponents."""
    flat = [s for row in A.rows for s in row]
    best_value = None
    best_tag = None
    for exps, coeff in p.terms.items():
        value = coeff.value
        tag = coeff.tag
        alive = True
        for idx, e in enumerate(exps):
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


def exps(n, *pairs):
    grid = [0] * (n * n)
    for i, j, e in pairs:
        grid[(i - 1) * n + (j - 1)] = e
    return tuple(grid)


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
        return tuple(exps)


def beta_by_tuples(n, k):
    """Reference for ``build_beta``: ``det^(k-1) * chi_{n-k}`` of the variable
    matrix expanded directly, one unit term per index tuple."""
    terms = {}
    all_perms = list(itertools.permutations(range(n)))
    subsets = list(itertools.combinations(range(n), n - k))
    for sigmas in itertools.product(all_perms, repeat=k - 1):
        for j_set in subsets:
            for tau in itertools.permutations(j_set):
                key = MuTuple(sigmas, j_set, tau).exponent_key(n)
                seen = terms.get(key)
                terms[key] = tangible(0) if seen is None else add(seen, tangible(0))
    return Poly(n, terms)


def alpha_by_permutations(n, k):
    """Reference for ``build_alpha``: ``chi_k`` of the adjoint of the variable
    matrix expanded directly, one unit term per index tuple.

    A k-subset ``S`` and a permutation ``tau`` of ``S`` pick the adjoint
    entries ``(a, tau(a))``, each the minor without row ``tau(a)`` and column
    ``a``; every ``a`` then takes one bijection of the other rows onto the
    other columns.
    """
    terms = {}
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
                key = tuple(exps)
                seen = terms.get(key)
                terms[key] = tangible(0) if seen is None else add(seen, tangible(0))
    return Poly(n, terms)


#: Term counts ``(alpha, beta, gamma)`` per order and k = 1..n.
TERM_COUNTS = {
    1: [(1, 1, 1)],
    2: [(2, 2, 2), (2, 2, 2)],
    3: [(6, 6, 6), (21, 18, 18), (21, 21, 6)],
    4: [(24, 24, 24), (348, 276, 264), (1584, 1128, 96), (2008, 2008, 24)],
}


class TestPolyArithmetic:
    def test_add_merges_to_ghost(self):
        e1 = exps(2, (1, 1, 1))
        p = Poly(2, {e1: tangible(0)})
        assert poly_add(p, p).terms == {e1: ghost(0)}

    def test_mul_single_terms(self):
        p = Poly(2, {exps(2, (1, 1, 1)): tangible(0)})
        q = Poly(2, {exps(2, (2, 2, 1)): tangible(0)})
        assert poly_mul(p, q).terms == {exps(2, (1, 1, 1), (2, 2, 1)): tangible(0)}

    def test_empty_poly_absorbs(self):
        p = Poly(2, {exps(2, (1, 1, 1)): tangible(0)})
        assert poly_mul(p, zero_poly(2)).terms == {}
        assert poly_add(p, zero_poly(2)) == p

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            poly_add(unit_poly(2), unit_poly(3))
        with pytest.raises(ValueError):
            poly_mul(unit_poly(2), unit_poly(3))
        with pytest.raises(ValueError):
            evaluate(unit_poly(3), A)

    def test_eps_coefficients_dropped(self):
        p = Poly(2, {exps(2, (1, 1, 1)): EPS})
        assert p.terms == {}

    def test_variable_indexing(self):
        v = variable(2, 1, 2)
        assert v.terms == {exps(2, (1, 2, 1)): tangible(0)}
        with pytest.raises(IndexError):
            variable(2, 0, 1)
        with pytest.raises(IndexError):
            variable(2, 1, 3)


class TestBuilders:
    def test_alpha_examples(self):
        a21 = build_alpha(2, 1)
        assert a21.terms == {
            exps(2, (1, 1, 1)): tangible(0),
            exps(2, (2, 2, 1)): tangible(0),
        }
        a22 = build_alpha(2, 2)
        assert a22.terms == {
            exps(2, (1, 1, 1), (2, 2, 1)): tangible(0),
            exps(2, (1, 2, 1), (2, 1, 1)): tangible(0),
        }
        assert build_alpha(3, 0) == unit_poly(3)

    def test_beta_examples(self):
        assert build_beta(2, 2) == build_alpha(2, 2)
        assert build_beta(2, 1) == build_alpha(2, 1)
        assert build_gamma(2, 1) == build_beta(2, 1)

    def test_caps_and_floors(self):
        with pytest.raises(OrderTooLarge):
            build_alpha(5, 1)
        with pytest.raises(OrderTooLarge):
            build_beta(5, 1)
        with pytest.raises(ValueError):
            build_beta(3, 0)  # needs the inverse determinant: not a polynomial
        with pytest.raises(ValueError):
            build_alpha(3, 4)

    def test_degree_invariant(self):
        # Every monomial of alpha and beta has total degree exactly k(n-1).
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for p in (build_alpha(n, k), build_beta(n, k)):
                    assert {sum(e) for e in p.terms} == {k * (n - 1)}, (n, k)

    def test_coefficient_range(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for p in (build_alpha(n, k), build_beta(n, k)):
                    assert all(c in (tangible(0), ghost(0)) for c in p.terms.values())
                gamma = build_gamma(n, k)
                assert all(c == tangible(0) for c in gamma.terms.values())
                assert set(gamma.terms) <= set(build_beta(n, k).terms)

    def test_mu_tuple_exponent_key(self):
        # One full permutation (k=2 over n=3 leaves one sigma) plus tau on J.
        mu = MuTuple(sigmas=((1, 0, 2),), j_set=(0, 2), tau=(2, 0))
        key = mu.exponent_key(3)
        assert key == exps(3, (1, 2, 1), (2, 1, 1), (3, 3, 1), (1, 3, 1), (3, 1, 1))

    def test_beta_equals_tuple_enumeration(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                assert build_beta(n, k) == beta_by_tuples(n, k), (n, k)

    def test_alpha_equals_permutation_enumeration(self):
        for n in range(1, 5):
            for k in range(n + 1):
                assert build_alpha(n, k) == alpha_by_permutations(n, k), (n, k)

    def test_term_counts(self):
        for n, counts in TERM_COUNTS.items():
            built = [
                (len(build_alpha(n, k)), len(build_beta(n, k)), len(build_gamma(n, k)))
                for k in range(1, n + 1)
            ]
            assert built == counts, n

    def test_builders_are_cached(self):
        assert build_alpha(3, 2) is build_alpha(3, 2)


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

    def test_hand_built_coefficients(self):
        # Ghost and non-zero coefficients, which the builders never make,
        # on random exponent grids with exponents up to 2.
        rng = Xorshift64Star(77)
        coeffs = TIE_ALPHABET[1:] + (tangible(-2), ghost(Fraction(3, 2)))
        for n in (1, 2, 3):
            matrices = alphabet_matrices(900 + n, 30, n)
            for _ in range(40):
                terms = {
                    tuple(rng.next_below(3) for _ in range(n * n)): coeffs[rng.next_below(len(coeffs))]
                    for _ in range(1 + rng.next_below(6))
                }
                p = Poly(n, terms)
                for M in matrices:
                    assert evaluate(p, M) == evaluate_by_terms(p, M), (terms, M)

    def test_compiled_form_is_per_polynomial(self):
        M = parse_matrix("2\n1t 2g\ne 0t\n")
        p = Poly(2, {exps(2, (1, 1, 2)): tangible(0)})
        q = Poly(2, {exps(2, (1, 2, 1)): tangible(0)})
        assert (evaluate(p, M), evaluate(q, M)) == (tangible(2), ghost(2))
        assert _compiled(p) is _compiled(p) and _compiled(p) != _compiled(q)
        assert p == Poly(2, dict(p.terms)) and hash(p) == hash(Poly(2, dict(p.terms)))


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
        keys = [e for e, _ in p.sorted_terms()]
        assert keys == sorted(keys, key=lambda e: (sum(e), e))
