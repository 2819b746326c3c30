"""The acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Everything is exact arithmetic: there are no
tolerances anywhere, a single mismatch fails the criterion.  Criterion 8 is
performance reporting and is non-gating by design.
"""

import io
import json
import time
from fractions import Fraction

from supertrop import (
    EPS,
    add,
    build_alpha,
    build_beta,
    char_poly,
    claim1_check,
    claim2_check,
    det_power,
    evaluate,
    ghost,
    ghost_surpasses,
    mul,
    tangible,
)
from supertrop.classical import (
    as_rational_matrix,
    char_coeffs,
    oracle_report,
    rat_det,
)
from supertrop.harness import DEFAULT_PROBS, TrialConfig, random_matrix, run
from supertrop.matrices import adjoint, det
from supertrop.rng import Xorshift64Star, derive_trial_seed
from test_classical import charpoly_expand


def announce(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def run_capture(cfg):
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out, err)
    return code, out.getvalue(), json.loads(err.getvalue())


def test_criterion_1_main_theorem_suite():
    cfg = TrialConfig(mode="conjecture", n_values=tuple(range(1, 7)), trials=1000, seed=42)
    start = time.perf_counter()
    code, out, summary = run_capture(cfg)
    elapsed = time.perf_counter() - start
    rows = [json.loads(line) for line in out.splitlines()]
    all_hold = all(r["ok"] and all(c["holds"] for c in r["results"]) for r in rows)
    full_k = all({c["k"] for c in r["results"]} == set(range(r["n"] + 1)) for r in rows)
    ok = code == 0 and summary["failures"] == 0 and len(rows) == 1000 and all_hold and full_k
    ok = ok and elapsed < 120
    announce(
        1,
        "main theorem suite",
        ok,
        f"1000 non-singular matrices at n=1..6, every k holds, "
        f"{summary['rejections']} rejections, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_engine_equivalence():
    # 3500 trials round-robin over n = 1..7 puts exactly 500 at each order.
    cfg = TrialConfig(mode="detcross", n_values=tuple(range(1, 8)), trials=3500, seed=2024)
    code, out, summary = run_capture(cfg)
    rows = [json.loads(line) for line in out.splitlines()]
    per_n = {n: 0 for n in range(1, 8)}
    mismatches = 0
    det_kinds = set()
    entry_kinds = set()
    for r in rows:
        per_n[r["n"]] += 1
        if r["brute"] != r["assignment"]:
            mismatches += 1
        det_kinds.add("e" if r["brute"] == "e" else r["brute"][-1])
        for row_text in r["matrix"]["rows"]:
            for token in row_text.split():
                entry_kinds.add("e" if token == "e" else token[-1])
    coverage = det_kinds == {"t", "g", "e"} and entry_kinds == {"t", "g", "e"}
    ok = code == 0 and mismatches == 0 and all(v == 500 for v in per_n.values()) and coverage
    announce(
        2,
        "determinant engine equivalence",
        ok,
        f"500 matrices per n=1..7, {mismatches} mismatches, "
        f"determinant outcomes cover tangible/ghost/eps: {coverage}",
    )


def test_criterion_3_claims_suite():
    symbolic_ok = True
    enumerated = []
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            r1 = claim1_check(n, k)
            r2 = claim2_check(n, k)
            enumerated.append(((n, k), r1.ok and r2.ok))
            symbolic_ok = symbolic_ok and r1.ok and r2.ok
    cfg = TrialConfig(mode="claims", n_values=(2, 3), trials=400, seed=77)
    code, out, summary = run_capture(cfg)
    rows = [json.loads(line) for line in out.splitlines()]
    trials = [r for r in rows if r["type"] == "trial"]
    per_n = {2: 0, 3: 0}
    violations = 0
    for r in trials:
        per_n[r["n"]] += 1
        if not r["ok"]:
            violations += 1
        if {c["k"] for c in r["results"]} != set(range(1, r["n"] + 1)):
            violations += 1
    ok = (
        symbolic_ok
        and code == 0
        and violations == 0
        and per_n == {2: 200, 3: 200}
        and summary["symbolic_failures"] == 0
    )
    announce(
        3,
        "claims suite",
        ok,
        f"claims 1+2 enumerated for {len(enumerated)} (n,k) pairs at n=2..4; "
        f"claims 3 + decompositions on 200 non-singular matrices per n=2,3, "
        f"{violations} violations",
    )


def test_criterion_4_symbolic_numeric_consistency():
    mismatches = 0
    checked = 0
    for n in (2, 3):
        rng = Xorshift64Star(derive_trial_seed(4040, n))
        for _ in range(100):
            A = random_matrix(rng, n, 6)
            d = det(A)
            chi = char_poly(A)
            chi_adj = char_poly(adjoint(A))
            for k in range(1, n + 1):
                checked += 1
                if evaluate(build_alpha(n, k), A) != chi_adj.coeffs[k]:
                    mismatches += 1
                if evaluate(build_beta(n, k), A) != mul(det_power(d, k - 1), chi.coeffs[n - k]):
                    mismatches += 1
    announce(
        4,
        "symbolic/numeric consistency",
        mismatches == 0,
        f"alpha/beta evaluations match direct computation on 100 matrices "
        f"per n=2,3 for all k >= 1 ({checked} comparisons, {mismatches} mismatches)",
    )


def test_criterion_5_field_oracle():
    jacobi_failures = 0
    reciprocal_failures = 0
    sign_failures = 0
    for n in range(2, 7):
        rng = Xorshift64Star(derive_trial_seed(5050, n))
        for _ in range(200):
            X = as_rational_matrix(
                [[rng.next_int(-20, 20) for _ in range(n)] for _ in range(n)]
            )
            # One report per matrix carries the verdict for every k.
            jacobi_failures += sum(not ok for ok in oracle_report(X).jacobi[1:])
        invertible = 0
        while invertible < 200:
            X = as_rational_matrix(
                [[rng.next_int(-20, 20) for _ in range(n)] for _ in range(n)]
            )
            if rat_det(X) == 0:
                continue
            invertible += 1
            reciprocal_failures += sum(not ok for ok in oracle_report(X).reciprocal)
    # Adversarial singular matrices, k >= 1 only.
    singular_cases = [
        [[1, 2], [2, 4]],
        [[0, 0], [3, 1]],
        [[1, 2, 3], [2, 4, 6], [0, 1, 5]],
        [[1, 1, 1, 1], [2, 2, 2, 2], [0, 1, 2, 3], [5, 0, 0, 1]],
        [[0] * 5 for _ in range(5)],
    ]
    for rows in singular_cases:
        X = as_rational_matrix(rows)
        assert rat_det(X) == 0
        jacobi_failures += sum(not ok for ok in oracle_report(X).jacobi[1:])
    # Sign-convention cross-validation at n <= 4.
    for n in range(1, 5):
        rng = Xorshift64Star(derive_trial_seed(5151, n))
        for _ in range(50):
            X = as_rational_matrix(
                [[rng.next_int(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            if char_coeffs(X) != charpoly_expand(X):
                sign_failures += 1
    ok = jacobi_failures == 0 and reciprocal_failures == 0 and sign_failures == 0
    announce(
        5,
        "field oracle",
        ok,
        f"jacobi on 200 matrices per n=2..6 (all k >= 1) plus singular cases: "
        f"{jacobi_failures} failures; reciprocal on 200 invertible per n: "
        f"{reciprocal_failures} failures; sign cross-validation at n <= 4: "
        f"{sign_failures} failures",
    )


def test_criterion_6_semiring_law_suite():
    rng = Xorshift64Star(606060)
    probs = (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    def draw():  # one entry: the same draws as the matrix generator's
        return random_matrix(rng, 1, 5, probs).rows[0][0]

    unit = tangible(0)
    law_failures = 0
    for _ in range(10_000):
        a = draw()
        b = draw()
        c = draw()
        checks = [
            add(a, b) == add(b, a),
            mul(a, b) == mul(b, a),
            add(add(a, b), c) == add(a, add(b, c)),
            mul(mul(a, b), c) == mul(a, mul(b, c)),
            mul(a, add(b, c)) == add(mul(a, b), mul(a, c)),
            add(EPS, a) == a,
            mul(unit, a) == a,
            mul(EPS, a) == EPS,
            add(a, a) == (EPS if a is EPS else ghost(a.value)),
        ]
        if a is not EPS and b is not EPS:
            checks.append(mul(a, b).value == a.value + b.value)
            checks.append(add(a, b).value == max(a.value, b.value))
        if not all(checks):
            law_failures += 1
    # Exhaustive grid: closed-form surpassing against the witness search.
    values = [-2, -1, 0, 1, 2]
    grid = [EPS] + [tangible(v) for v in values] + [ghost(v) for v in values]
    witnesses = [EPS] + [ghost(v) for v in values]
    grid_failures = sum(
        1
        for x in grid
        for y in grid
        if ghost_surpasses(x, y) != any(add(y, g) == x for g in witnesses)
    )
    ok = law_failures == 0 and grid_failures == 0
    announce(
        6,
        "semiring law suite",
        ok,
        f"10000 random triples: {law_failures} law failures; exhaustive "
        f"{len(grid)}x{len(grid)} surpassing grid: {grid_failures} disagreements",
    )


def test_criterion_7_reproducibility():
    cfg = TrialConfig(mode="conjecture", n_values=tuple(range(1, 7)), trials=1000, seed=42)
    code1, out1, _ = run_capture(cfg)
    code2, out2, _ = run_capture(cfg)
    ok = code1 == 0 and code2 == 0 and out1 == out2
    announce(
        7,
        "reproducibility",
        ok,
        f"two seed-42 conjecture runs emit byte-identical JSONL "
        f"({len(out1.encode())} bytes each)",
    )


def test_criterion_8_performance_report():
    # Non-gating: the criterion asks for the crossover table to be emitted
    # and the comparison reported; a timing fluke must not fail the build.
    cfg = TrialConfig(mode="bench", n_values=tuple(range(2, 10)), trials=2, seed=42)
    code, out, _ = run_capture(cfg)
    rows = [json.loads(line) for line in out.splitlines()]
    table = {}
    for r in rows:
        table.setdefault(r["n"], {})[r["engine"]] = r["seconds_mean"]
    engines = ("brute", "assignment", "kernel")
    well_formed = code == 0 and all(
        set(v) == set(engines) for v in table.values()
    ) and set(table) == set(range(2, 10))
    print("\nACCEPTANCE 8 (performance, non-gating): crossover table")
    print(f"  {'n':>3}" + "".join(f" {e:>12}" for e in engines) + "  fastest")
    for n in sorted(table):
        times = table[n]
        print(f"  {n:>3}" + "".join(f" {times.get(e, 0):>12.6f}" for e in engines)
              + f"  {min(times, key=times.get)}")
    beats_at_8_plus = all(
        table[n]["assignment"] < table[n]["brute"] for n in (8, 9)
    )
    print(
        f"ACCEPTANCE 8 (performance, non-gating): "
        f"{'PASS' if beats_at_8_plus else 'REPORT'} - assignment engine "
        f"{'beats' if beats_at_8_plus else 'did not beat'} brute force at n >= 8 "
        f"on dense tangible matrices"
    )
    assert well_formed, "bench mode must emit a complete crossover table"
