"""Exhaustive sweeps over small alphabets, singular matrices included.

Random draws at the default bound rarely tie, and ties are where ghost tags
decide the verdict.  Every 2x2 matrix over {e, 0t, 0g, 1t, 1g, -1t, -1g} is
checked on the ``both`` engine (kernel, brute force and assignment
cross-checked, and under claims the symbolic alpha and beta too), and every
3x3 matrix over {e, 0t, 0g} on ``auto``, where the assignment engine's
characteristic coefficients must also equal brute force's.  The counts of equal and
strictly-ghost cases are pinned, split by singular and non-singular matrix.
The singular counts go beyond the paper, which states the surpassing
relation for non-singular matrices only.
"""

import itertools

import pytest

from supertrop import EPS, ghost, tangible
from supertrop.matrices import _trusted, char_poly, conjecture_check
from supertrop.polynomials import _claims_reports


def sweep(alphabet, n, engine):
    """``{singular: [matrices, equal cases, strict-ghost cases]}`` over every
    n-by-n matrix on ``alphabet``; a failing case fails the test."""
    counts = {False: [0, 0, 0], True: [0, 0, 0]}
    for cells in itertools.product(alphabet, repeat=n * n):
        A = _trusted(tuple(cells[i * n:(i + 1) * n] for i in range(n)))
        report = conjecture_check(A, engine, allow_singular=True)
        tally = counts[report.singular]
        tally[0] += 1
        for case in report.cases:
            assert case.holds, (A, case)
            tally[1 if case.lhs == case.rhs else 2] += 1
        if not report.singular:
            claims = _claims_reports(A, range(1, n + 1), engine)
            for (c3, dec), case in zip(claims, report.cases[1:]):
                assert c3.ok and dec.ok, (A, c3, dec)
                assert (dec.alpha_value, dec.beta_value) == (case.lhs, case.rhs), (A, case)
    return counts


@pytest.mark.parametrize(
    "alphabet, n, engine, non_singular, singular",
    [
        (
            (EPS, tangible(0), ghost(0), tangible(1), ghost(1), tangible(-1), ghost(-1)),
            2, "both", [482, 1446, 0], [1919, 3838, 0],
        ),
        ((EPS, tangible(0), ghost(0)), 3, "auto", [654, 2544, 72], [19029, 56711, 376]),
    ],
    ids=["2x2-both", "3x3-auto"],
)
def test_every_small_matrix(alphabet, n, engine, non_singular, singular):
    assert sweep(alphabet, n, engine) == {False: non_singular, True: singular}


def test_every_3x3_char_poly_on_the_assignment_engine():
    # The walk of a matrix's principal minors is bounded by its determinant's
    # optimal dual; ties and eps entries are everywhere on this alphabet.
    kinds = set()
    for cells in itertools.product((EPS, tangible(0), ghost(0)), repeat=9):
        A = _trusted(tuple(cells[i * 3:(i + 1) * 3] for i in range(3)))
        chi = char_poly(A, "assignment")
        assert chi == char_poly(A, "brute"), A
        kinds.update("eps" if s.tag is None else s.is_tangible for s in chi.coeffs)
    assert kinds == {"eps", True, False}
