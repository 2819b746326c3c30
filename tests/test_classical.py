import itertools
from fractions import Fraction

import pytest

from supertrop.classical import (
    as_rational_matrix,
    char_coeffs,
    jacobi_check,
    minor_sums,
    oracle_report,
    parse_rational_matrix,
    rat_adjugate,
    rat_det,
    rat_inverse,
    reciprocal_check,
)
from supertrop.errors import Singular
from supertrop.rng import Xorshift64Star

ZERO = Fraction(0)
ONE = Fraction(1)


# Reference code: an identity, a product and a characteristic polynomial by
# direct permutation expansion, independent of the Bareiss elimination under
# test.


def rat_identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def rat_mat_mul(X, Y):
    n = len(X)
    return tuple(
        tuple(sum((X[i][k] * Y[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def charpoly_expand(X):
    """Characteristic coefficients by direct permutation expansion.

    Independent of ``minor_sums`` and of the Bareiss determinant: each
    permutation contributes a signed product of linear polynomials in lambda.
    Costs n! poly products, so keep the order small; it exists to pin the
    sign convention.
    """
    n = len(X)
    total = [ZERO] * (n + 1)  # total[d] = coefficient of lambda^d
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = [Fraction(sign)]
        for i in range(n):
            entry = [-X[i][perm[i]]]
            if perm[i] == i:
                entry.append(ONE)
            prod = _poly_mul(prod, entry)
        for d, c in enumerate(prod):
            total[d] += c
    return [total[n - k] for k in range(n + 1)]


def _perm_sign(perm):
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


X = as_rational_matrix([[3, 0], [1, 4]])


def seeded_int_matrices(seed, count, n, bound=8):
    rng = Xorshift64Star(seed)
    return [
        as_rational_matrix([[rng.next_int(-bound, bound) for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]


# Explicitly rank-deficient matrices: repeated rows, zero rows, rank-1 blocks.
SINGULAR_CASES = [
    as_rational_matrix([[1, 2], [2, 4]]),
    as_rational_matrix([[0, 0], [3, 1]]),
    as_rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]]),
    as_rational_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    as_rational_matrix([[0, 0, 0, 0], [1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]),
]


class TestDetAdjugate:
    def test_examples(self):
        assert rat_det(rat_identity(3)) == 1
        assert minor_sums(rat_identity(3)) == [1, 3, 3, 1]
        assert rat_det(X) == 12
        assert rat_adjugate(X) == ((4, 0), (-1, 3))
        assert minor_sums(X) == [1, 7, 12]

    def test_det_against_permutation_expansion(self):
        # char_coeffs[n] = (-1)^n det, and charpoly_expand is an independent
        # route, so this cross-checks Bareiss against the permanent-style sum.
        for n in range(1, 5):
            for M in seeded_int_matrices(10 + n, 15, n):
                assert charpoly_expand(M)[n] == (-1) ** n * rat_det(M)

    def test_adjugate_identity(self):
        for n in range(1, 7):
            for M in seeded_int_matrices(30 + n, 6, n, bound=5):
                d = rat_det(M)
                expected = tuple(
                    tuple(d if i == j else Fraction(0) for j in range(n)) for i in range(n)
                )
                assert rat_mat_mul(rat_adjugate(M), M) == expected

    def test_adjugate_routes_agree(self):
        # Order > 5 takes the det * inverse shortcut; compare with the
        # cofactor route, which is what orders <= 5 use.
        from supertrop.classical import _adjugate_by_cofactors

        for M in seeded_int_matrices(77, 4, 6, bound=4):
            assert rat_adjugate(M) == _adjugate_by_cofactors(M)

    def test_adjugate_singular_large_order(self):
        M = [list(row) for row in seeded_int_matrices(78, 1, 6, bound=4)[0]]
        M[3] = list(M[1])  # force det = 0 at an order that would take the shortcut
        M = as_rational_matrix(M)
        assert rat_det(M) == 0
        n = len(M)
        zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        assert rat_mat_mul(rat_adjugate(M), M) == zero

    def test_inverse(self):
        for M in seeded_int_matrices(90, 10, 4, bound=6):
            if rat_det(M) == 0:
                continue
            assert rat_mat_mul(M, rat_inverse(M)) == rat_identity(4)
        with pytest.raises(Singular):
            rat_inverse(SINGULAR_CASES[0])


def seeded_fraction_matrices(seed, count, n, bound=9):
    """Entries ``p/q`` with ``q`` in 2..9, so every row needs a scale above 1."""
    rng = Xorshift64Star(seed)
    return [
        as_rational_matrix(
            [[Fraction(rng.next_int(-bound, bound), rng.next_int(2, 9)) for _ in range(n)] for _ in range(n)]
        )
        for _ in range(count)
    ]


def with_zero_corner(M):
    """M with its top-left entry zeroed: elimination must swap rows at once."""
    rows = [list(row) for row in M]
    rows[0][0] = Fraction(0)
    return as_rational_matrix(rows)


FRACTION_CASES = [
    # Zero first column: no pivot at all, det 0.
    as_rational_matrix([[0, Fraction(1, 2), 3], [0, Fraction(2, 3), Fraction(-5, 4)], [0, 1, Fraction(7, 9)]]),
    # Row 2 is 2/3 of row 1 in its first two entries: the second pivot vanishes and forces a swap.
    as_rational_matrix([[Fraction(1, 2), 1, Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3), Fraction(5, 7)], [1, 1, 1]]),
    # Singular: row 2 is 2/3 of row 1.
    as_rational_matrix([[Fraction(1, 2), 1, Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3), 1], [0, Fraction(5, 7), -2]]),
    # Singular: a rank-1 block of fractions.
    as_rational_matrix([[Fraction(i, 2) * Fraction(j, 3) for j in range(1, 5)] for i in range(1, 5)]),
    as_rational_matrix([[0, Fraction(1, 8)], [Fraction(-3, 5), 0]]),
]


class TestIntegerBareiss:
    """``rat_det`` and ``minor_sums`` scale rows to integers; check them on fractions."""

    def cases(self):
        for n in range(1, 5):
            for M in seeded_fraction_matrices(110 + n, 12, n):
                yield M
                yield with_zero_corner(M)
        yield from FRACTION_CASES

    def test_against_permutation_expansion(self):
        singular = 0
        for M in self.cases():
            n = len(M)
            chi = charpoly_expand(M)
            assert rat_det(M) == (-1) ** n * chi[n], M
            assert minor_sums(M) == [(-1) ** k * c for k, c in enumerate(chi)], M
            singular += rat_det(M) == 0
        assert singular >= 4

    def test_row_swaps(self):
        assert rat_det(as_rational_matrix([[0, 1], [1, 0]])) == -1
        assert rat_det(FRACTION_CASES[1]) == Fraction(-1, 7)

    def test_oracle_report_on_fractions(self):
        for M in self.cases():
            report = oracle_report(M)
            assert all(report.jacobi[1:]), M
            if report.det == 0:
                assert report.jacobi[0] is None and report.reciprocal is None
            else:
                assert report.jacobi[0] and all(report.reciprocal), M

    def test_per_k_checks_read_the_report(self):
        for M in FRACTION_CASES[1:3] + [X]:
            report = oracle_report(M)
            for k in range(1, len(M) + 1):
                assert jacobi_check(M, k) == report.jacobi[k]
            if report.det != 0:
                assert [reciprocal_check(M, k) for k in range(len(M) + 1)] == list(report.reciprocal)
        with pytest.raises(ValueError):
            reciprocal_check(X, 3)
        with pytest.raises(Singular):
            reciprocal_check(FRACTION_CASES[2], 0)


class TestSignConventions:
    def test_char_coeffs_match_expansion(self):
        # The cross-validation pinning chi_k = (-1)^k E_k, order <= 4.
        for n in range(1, 5):
            for M in seeded_int_matrices(40 + n, 15, n):
                assert char_coeffs(M) == charpoly_expand(M)

    def test_adjoint_coefficient_sign_relation(self):
        # phi = chi_k(adj X) and psi = det^(k-1) chi_{n-k}(X) differ by
        # exactly (-1)^n, confirmed by explicit expansion at order <= 4.
        for n in range(1, 5):
            for M in seeded_int_matrices(50 + n, 10, n):
                d = rat_det(M)
                chi = charpoly_expand(M)
                chi_adj = charpoly_expand(rat_adjugate(M))
                for k in range(1, n + 1):
                    phi = chi_adj[k]
                    psi = d ** (k - 1) * chi[n - k]
                    assert phi == (-1) ** n * psi, (n, k)


class TestJacobi:
    def test_examples(self):
        for n in range(1, 5):
            assert oracle_report(rat_identity(n)).jacobi == (True,) * (n + 1)
        assert jacobi_check(X, 1)
        assert minor_sums(rat_adjugate(X))[1] == 7

    def test_random(self):
        for n in range(2, 6):
            for M in seeded_int_matrices(60 + n, 10, n):
                report = oracle_report(M)
                assert all(report.jacobi[1:])
                if report.det != 0:
                    assert report.jacobi[0]

    def test_singular_adversarial(self):
        for M in SINGULAR_CASES:
            report = oracle_report(M)
            assert report.det == 0 and rat_det(M) == 0
            assert all(report.jacobi[1:]), M
            assert report.jacobi[0] is None and report.reciprocal is None
            with pytest.raises(Singular):
                jacobi_check(M, 0)

    def test_k_range(self):
        with pytest.raises(ValueError):
            jacobi_check(X, 3)


class TestReciprocal:
    def test_examples(self):
        for n in range(1, 5):
            assert oracle_report(rat_identity(n)).reciprocal == (True,) * (n + 1)
        assert reciprocal_check(X, 1)
        assert char_coeffs(X) == [1, -7, 12]
        assert char_coeffs(rat_inverse(X))[1] == Fraction(-7, 12)

    def test_random_invertible(self):
        for n in range(2, 6):
            count = 0
            for M in seeded_int_matrices(70 + n, 12, n):
                report = oracle_report(M)
                if report.det == 0:
                    continue
                assert all(report.reciprocal)
                count += 1
            assert count >= 8

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            reciprocal_check(SINGULAR_CASES[0], 1)


class TestParsing:
    def test_round_trip(self):
        M = parse_rational_matrix("2\n3 0\n1/2 -4\n")
        assert M == ((3, 0), (Fraction(1, 2), -4))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 2\n",
            "1\nx\n",
            "2\n1 2 3\n4 5 6\n",
            "1\n1e5\n",
            "1\n0.5\n",
            "1\n1_000\n",
            "1\n+3\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_rational_matrix(text)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            as_rational_matrix([[1, 2], [3]])
