from fractions import Fraction

import pytest
from hypothesis import given

from conftest import group_values, scalars
from supertrop import (
    EPS,
    NotInvertible,
    add,
    ghost,
    ghost_surpasses,
    mul,
    parse_scalar,
    tangible,
)
from supertrop import pow as spow

UNIT = tangible(0)

# A small value grid paired with all three tags; used wherever a check is
# exhaustive rather than sampled.
GRID_VALUES = [-2, -1, 0, 1, 2]
GRID = [EPS] + [tangible(v) for v in GRID_VALUES] + [ghost(v) for v in GRID_VALUES]


class TestExamples:
    def test_add(self):
        assert add(EPS, tangible(5)) == tangible(5)
        assert add(tangible(3), ghost(7)) == ghost(7)
        assert add(tangible(4), tangible(4)) == ghost(4)

    def test_mul(self):
        assert mul(tangible(2), tangible(3)) == tangible(5)
        assert mul(ghost(2), tangible(3)) == ghost(5)
        assert mul(EPS, ghost(9)) == EPS

    def test_pow(self):
        assert spow(tangible(2), 3) == tangible(6)
        assert spow(tangible(2), -1) == tangible(-2)
        with pytest.raises(NotInvertible):
            spow(ghost(2), -1)

    def test_pow_ghost_inverse_has_no_witness(self):
        # Independent oracle for the NotInvertible case: no grid element
        # multiplies ghost(2) to the unit (the tag product can never be 1).
        assert all(mul(ghost(2), s) != UNIT for s in GRID)
        assert all(mul(ghost(2), tangible(Fraction(-2))) != UNIT for _ in [0])

    def test_nu(self):
        # The value map nu forgets the tag; eps has no value.
        assert tangible(5).value == 5
        assert ghost(5).value == 5
        assert EPS.value is None

    def test_ghost_surpasses(self):
        assert ghost_surpasses(ghost(5), tangible(5))
        assert not ghost_surpasses(tangible(5), tangible(3))
        assert ghost_surpasses(EPS, EPS)

    def test_pow_zero(self):
        assert spow(tangible(7), 0) == UNIT
        assert spow(ghost(7), 0) == UNIT
        with pytest.raises(NotInvertible):
            spow(EPS, 0)
        assert spow(EPS, 3) == EPS


class TestSemiringLaws:
    @given(scalars, scalars)
    def test_add_commutative(self, a, b):
        assert add(a, b) == add(b, a)

    @given(scalars, scalars, scalars)
    def test_add_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(scalars, scalars)
    def test_mul_commutative(self, a, b):
        assert mul(a, b) == mul(b, a)

    @given(scalars, scalars, scalars)
    def test_mul_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(scalars, scalars, scalars)
    def test_distributive(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(scalars)
    def test_identities_and_absorber(self, a):
        assert add(EPS, a) == a
        assert add(a, EPS) == a
        assert mul(UNIT, a) == a
        assert mul(EPS, a) == EPS

    @given(scalars)
    def test_self_sum_ghosts(self, a):
        if a is EPS:
            assert add(a, a) == EPS
        else:
            assert add(a, a) == ghost(a.value)

    @given(scalars, scalars)
    def test_nu_homomorphism(self, a, b):
        if a is not EPS and b is not EPS:
            assert mul(a, b).value == a.value + b.value
            assert add(a, b).value == max(a.value, b.value)

    @given(group_values, group_values)
    def test_nu_equiv(self, v, w):
        # a and b are nu-equivalent when their values are equal, tags aside.
        assert tangible(v).value == ghost(v).value
        assert (tangible(v).value == tangible(w).value) == (v == w)
        assert tangible(v).value != EPS.value


class TestGhostSurpasses:
    def test_matches_existential_definition_on_grid(self):
        # c |= d iff c = d + g for some g in {eps} or a ghost.  On the grid a
        # witness, when one exists, can always be chosen from the grid itself.
        candidates = [EPS] + [ghost(v) for v in GRID_VALUES]
        for c in GRID:
            for d in GRID:
                witnessed = any(add(d, g) == c for g in candidates)
                assert ghost_surpasses(c, d) == witnessed, (c, d)

    @given(scalars)
    def test_reflexive(self, a):
        assert ghost_surpasses(a, a)

    @given(scalars, scalars)
    def test_tangible_pair_forces_equality(self, a, b):
        if a.is_tangible and b.is_tangible and ghost_surpasses(a, b):
            assert a == b


class TestPow:
    @given(scalars)
    def test_additivity(self, a):
        for j in range(-3, 4):
            for k in range(-3, 4):
                try:
                    left = spow(a, j + k)
                    right = mul(spow(a, j), spow(a, k))
                except NotInvertible:
                    continue
                assert left == right, (a, j, k)

    @given(scalars)
    def test_invertibility_characterization(self, a):
        # Tangibles are exactly the elements with an inverse in the grid sense.
        if a.is_tangible:
            assert mul(a, spow(a, -1)) == UNIT
        else:
            assert all(mul(a, s) != UNIT for s in GRID)

    def test_pow_type_errors(self):
        with pytest.raises(TypeError):
            spow(tangible(1), 1.5)
        with pytest.raises(TypeError):
            spow(tangible(1), True)


class TestSerialization:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("e", EPS),
            ("3t", tangible(3)),
            ("-1/2g", ghost(Fraction(-1, 2))),
            ("0t", UNIT),
            ("-7t", tangible(-7)),
            ("22/7g", ghost(Fraction(22, 7))),
        ],
    )
    def test_round_trip(self, token, value):
        assert parse_scalar(token) == value
        assert value.token == token

    @given(scalars)
    def test_round_trip_random(self, a):
        assert parse_scalar(a.token) == a

    @pytest.mark.parametrize(
        "bad", ["", "t", "3", "3x", "1/0t", "e3", "threeT", "1e5t", "0.5t", "1_000t", "+3t"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    def test_fraction_canonicalization(self):
        assert tangible(Fraction(6, 2)) == tangible(3)
        assert tangible(Fraction(6, 4)).token == "3/2t"

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            tangible(1.5)
