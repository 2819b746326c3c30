import io
import json
from fractions import Fraction

import pytest

from supertrop import polynomials
from supertrop.errors import RejectionLimit
from supertrop.harness import (
    DEFAULT_PROBS,
    ORDER_CAPS,
    REJECTION_LIMIT,
    TrialConfig,
    _prob_cuts,
    generate_matrix,
    random_matrix,
    run,
)
from supertrop.matrices import ENGINES, Matrix, is_nonsingular
from supertrop.rng import Xorshift64Star, derive_trial_seed
from supertrop.scalars import EPS, ghost, tangible


def run_capture(cfg):
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out, err)
    return code, out.getvalue(), err.getvalue()


def records(out_text):
    return [json.loads(line) for line in out_text.splitlines()]


def random_scalar(rng, bound, cuts):
    """Reference entry stream: one fresh scalar per draw, built through the
    validating constructors."""
    denom, t_cut, g_cut = cuts
    u = rng.next_below(denom)
    if u >= g_cut:
        return EPS
    value = rng.next_int(-bound, bound)
    return tangible(value) if u < t_cut else ghost(value)


def reference_matrix(rng, n, bound, probs):
    cuts = _prob_cuts(probs)
    return Matrix([[random_scalar(rng, bound, cuts) for _ in range(n)] for _ in range(n)])


def reference_generate(rng, n, cfg):
    """``(matrix, rejections)`` of the non-singular draw, without the
    generator's intern table or the matrix's memo."""
    for rejections in range(REJECTION_LIMIT):
        A = reference_matrix(rng, n, cfg.bound, cfg.probs)
        if is_nonsingular(A):
            return A, rejections
    raise RejectionLimit("reference draw found no non-singular matrix")


class TestConfig:
    def test_defaults_valid(self):
        TrialConfig(mode="conjecture").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "nosuch"},
            {"mode": "conjecture", "n_values": ()},
            {"mode": "conjecture", "n_values": (0,)},
            {"mode": "conjecture", "trials": 0},
            {"mode": "conjecture", "bound": 0},
            {"mode": "conjecture", "probs": (Fraction(1), Fraction(1), Fraction(-1))},
            {"mode": "conjecture", "probs": (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))},
            {"mode": "conjecture", "engine": "quantum"},
            {"mode": "conjecture", "ks": (-1,)},
            {"mode": "conjecture", "out_format": "xml"},
            {"mode": "claims", "n_values": (5,)},
            {"mode": "bench", "input_text": "1\n0t\n"},
            {"mode": "conjecture", "bound": 2**63},
            {"mode": "oracle", "bound": 2**63},
            {"mode": "conjecture", "probs": (Fraction(1, 2**65), Fraction(0), 1 - Fraction(1, 2**65))},
            {"mode": "detcross", "n_values": (2, 10)},
            {"mode": "bench", "n_values": tuple(range(2, 11))},
            {"mode": "oracle", "n_values": (13,)},
            {"mode": "conjecture", "engine": "brute", "n_values": (8, 9)},
            {"mode": "conjecture", "engine": "both", "n_values": (9,)},
            {"mode": "detcross", "ks": (1,)},
            {"mode": "bench", "ks": (1,)},
            {"mode": "detcross", "allow_singular": True},
            {"mode": "bench", "allow_singular": True},
            {"mode": "claims", "allow_singular": True},
            {"mode": "oracle", "allow_singular": True},
            {"mode": "detcross", "engine": "brute"},
            {"mode": "detcross", "engine": "both"},
            {"mode": "bench", "engine": "both"},
            {"mode": "oracle", "engine": "assignment"},
            {"mode": "conjecture", "seed": -1},
            {"mode": "oracle", "seed": 2**64},
            {"mode": "conjecture", "probs": (Fraction(0), Fraction(1), Fraction(0))},
            {"mode": "claims", "probs": (Fraction(0), Fraction(1, 2), Fraction(1, 2))},
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs).validate()

    def test_largest_sampling_parameters_accepted(self):
        TrialConfig(
            mode="conjecture",
            bound=2**63 - 1,
            probs=(Fraction(1, 2**64), Fraction(0), 1 - Fraction(1, 2**64)),
        ).validate()

    def test_seed_range_and_degenerate_distributions(self):
        for seed in (0, 2**64 - 1):
            TrialConfig(mode="conjecture", seed=seed).validate()
        no_tangibles = (Fraction(0), Fraction(1, 2), Fraction(1, 2))
        # Only the modes that need non-singular draws refuse them.
        TrialConfig(mode="conjecture", probs=no_tangibles, allow_singular=True).validate()
        TrialConfig(mode="detcross", probs=no_tangibles).validate()
        TrialConfig(mode="claims", probs=no_tangibles, input_text="1\n0t\n").validate()
        with pytest.raises(ValueError, match="degenerate"):
            TrialConfig(mode="conjecture", n_values=(13,), probs=no_tangibles).validate()

    def test_order_caps_accepted(self):
        TrialConfig(mode="detcross", n_values=(9,)).validate()
        TrialConfig(mode="bench", n_values=tuple(range(2, 10))).validate()
        TrialConfig(mode="oracle", n_values=(12,)).validate()
        TrialConfig(mode="conjecture", n_values=(13,)).validate()
        TrialConfig(mode="conjecture", engine="both", n_values=(8,)).validate()

    @pytest.mark.parametrize("mode, token", [("detcross", "0t"), ("oracle", "1")])
    def test_input_order_cap(self, mode, token):
        n = ORDER_CAPS[mode] + 1
        cfg = TrialConfig(mode=mode, input_text=f"{n}\n" + (" ".join([token] * n) + "\n") * n)
        cfg.validate()
        with pytest.raises(ValueError, match=f"{mode} mode needs order <= {n - 1}, got {n}"):
            run_capture(cfg)

    def test_round_robin_orders(self):
        cfg = TrialConfig(mode="conjecture", n_values=(1, 2, 3))
        assert [cfg.trial_n(i) for i in range(7)] == [1, 2, 3, 1, 2, 3, 1]


class TestGeneration:
    def test_deterministic(self):
        a = random_matrix(Xorshift64Star(5), 3, 20)
        b = random_matrix(Xorshift64Star(5), 3, 20)
        assert a == b

    def test_no_eps_when_prob_zero(self):
        probs = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        M = random_matrix(Xorshift64Star(5), 4, 20, probs)
        assert all(not s.is_eps for row in M.rows for s in row)

    def test_all_tangible(self):
        probs = (Fraction(1), Fraction(0), Fraction(0))
        M = random_matrix(Xorshift64Star(5), 4, 20, probs)
        assert all(s.is_tangible for row in M.rows for s in row)

    def test_bound_respected(self):
        M = random_matrix(Xorshift64Star(5), 5, 3)
        for row in M.rows:
            for s in row:
                if not s.is_eps:
                    assert -3 <= s.value <= 3

    def test_tangible_one_by_one_never_rejects(self):
        cfg = TrialConfig(
            mode="conjecture", n_values=(1,), probs=(Fraction(1), Fraction(0), Fraction(0))
        )
        for i in range(10):
            A, rejections = generate_matrix(Xorshift64Star(i), 1, cfg, True)
            assert rejections == 0
            assert is_nonsingular(A)

    def test_rejection_counting(self):
        cfg = TrialConfig(mode="conjecture", n_values=(3,))
        rng = Xorshift64Star(123)
        A, rejections = generate_matrix(rng, 3, cfg, True)
        assert rejections >= 0
        assert is_nonsingular(A)

    # A value span of 2**63 + 1 (bound 2**62) or a common denominator of
    # 2**63 + 1 rejects about half of all 64-bit words, so those draws take
    # the rejection branch often.
    @pytest.mark.parametrize("bound", [1, 20, 2**62, 2**63 - 1])
    @pytest.mark.parametrize(
        "probs",
        [
            DEFAULT_PROBS,
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            (Fraction(2**64 - 3, 2**64), Fraction(1, 2**64), Fraction(1, 2**63)),
            (Fraction(2**63 - 1, 2**63 + 1), Fraction(1, 2**63 + 1), Fraction(1, 2**63 + 1)),
        ],
        ids=["default", "thirds", "denominator-2**64", "denominator-2**63+1"],
    )
    def test_draws_match_the_reference_stream(self, bound, probs):
        # The generator interns its entries and builds the matrix unchecked;
        # the matrices, rejection counts and RNG states must be the reference
        # stream's, with one table shared by every trial of a config.
        cfg = TrialConfig(mode="conjecture", bound=bound, probs=probs)
        for index in range(40):
            seed = derive_trial_seed(1200 + bound % 97, index)
            n = 1 + index % 4
            rng, ref = Xorshift64Star(seed), Xorshift64Star(seed)
            A, rejections = generate_matrix(rng, n, cfg, True)
            assert (A, rejections) == reference_generate(ref, n, cfg)
            assert hash(A) == hash(Matrix(A.rows)) and rng.state == ref.state
            rng, ref = Xorshift64Star(seed), Xorshift64Star(seed)
            assert random_matrix(rng, n, bound, probs) == reference_matrix(ref, n, bound, probs)
            assert rng.state == ref.state
        entries = cfg._entries
        assert len(entries) <= 2 * (2 * bound + 1)
        assert all(entries[2 * s.value + s.tag] is s for s in entries.values())

    def test_entries_are_interned(self):
        cfg = TrialConfig(mode="detcross", bound=1, probs=(Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        drawn = [
            s
            for i in range(30)
            for row in generate_matrix(Xorshift64Star(i), 3, cfg, False)[0].rows
            for s in row
        ]
        # Six distinct entries over 270 draws: each is one shared object.
        assert len(set(drawn)) == len({id(s) for s in drawn}) == len(cfg._entries) == 6

    def test_cuts_are_computed_once_per_config(self, monkeypatch):
        # The sampling cuts depend on the probabilities alone: one lcm and
        # two Fraction products per config, not per draw.
        import supertrop.harness as harness

        calls = []
        real = harness._prob_cuts
        monkeypatch.setattr(harness, "_prob_cuts", lambda probs: calls.append(probs) or real(probs))
        cfg = TrialConfig(mode="conjecture", n_values=(1, 2, 3), trials=12, seed=42)
        code, out, _ = run_capture(cfg)
        assert code == 0 and len(records(out)) == 12
        assert calls == [cfg.probs]

    def test_rejection_limit_on_all_ghost(self):
        # Every permutation product of an all-ghost matrix is ghost, so the
        # determinant is never tangible and the sampler must give up.
        cfg = TrialConfig(
            mode="conjecture", n_values=(2,), probs=(Fraction(0), Fraction(1), Fraction(0))
        )
        with pytest.raises(RejectionLimit):
            generate_matrix(Xorshift64Star(1), 2, cfg, True)


class TestRun:
    def test_conjecture_mode(self):
        cfg = TrialConfig(mode="conjecture", n_values=(1, 2, 3), trials=9, seed=42)
        code, out, err = run_capture(cfg)
        assert code == 0
        rows = records(out)
        assert len(rows) == 9
        assert [r["trial"] for r in rows] == list(range(9))
        assert [r["n"] for r in rows] == [1, 2, 3] * 3
        for r in rows:
            assert r["ok"] and all(c["holds"] for c in r["results"])
            assert {c["k"] for c in r["results"]} == set(range(r["n"] + 1))
        summary = json.loads(err)
        assert summary["trials"] == 9 and summary["failures"] == 0
        assert summary["rejections"] == sum(r["rejections"] for r in rows)

    def test_detcross_mode(self):
        cfg = TrialConfig(mode="detcross", n_values=(1, 2, 3, 4), trials=12, seed=7)
        code, out, err = run_capture(cfg)
        assert code == 0
        for r in records(out):
            assert r["brute"] == r["assignment"]

    def test_bench_times_a_fresh_kernel_determinant(self, monkeypatch):
        # The matrix keeps its prefix DP, so each timed repeat must run the
        # kernel on a fresh matrix rather than read the kept table.
        from supertrop import matrices

        calls = []
        real = matrices._prefix_dp
        monkeypatch.setattr(matrices, "_prefix_dp", lambda raw: calls.append(len(raw)) or real(raw))
        code, out, _ = run_capture(TrialConfig(mode="bench", n_values=(2, 3), trials=4))
        assert code == 0 and calls == [2] * 4 + [3] * 4

    def test_bench_times_a_fresh_assignment_solve(self, monkeypatch):
        # Likewise the matrix keeps its assignment solve.
        from supertrop import matrices

        calls = []
        real = matrices._best_assignment
        monkeypatch.setattr(matrices, "_best_assignment", lambda cost: calls.append(len(cost)) or real(cost))
        code, out, _ = run_capture(TrialConfig(mode="bench", n_values=(2, 3), trials=4))
        assert code == 0 and calls == [2] * 4 + [3] * 4

    def test_detcross_checks_dp_kernel(self, monkeypatch):
        from supertrop import matrices

        kernel = matrices._ENGINES["auto"]
        monkeypatch.setitem(matrices._ENGINES, "auto", kernel._replace(det=lambda A: (999, 1)))
        cfg = TrialConfig(mode="detcross", n_values=(2,), trials=1, seed=7)
        code, out, err = run_capture(cfg)
        assert code == 1
        (row,) = records(out)
        assert row["brute"] == row["assignment"] and not row["ok"]

    def test_claims_mode(self):
        cfg = TrialConfig(mode="claims", n_values=(2,), trials=4, seed=9)
        code, out, err = run_capture(cfg)
        assert code == 0
        rows = records(out)
        symbolic = [r for r in rows if r["type"] == "symbolic"]
        trials = [r for r in rows if r["type"] == "trial"]
        assert {(r["n"], r["k"]) for r in symbolic} == {(2, 1), (2, 2)}
        assert len(trials) == 4
        summary = json.loads(err)
        assert summary["symbolic_failures"] == 0

    def test_oracle_mode(self):
        cfg = TrialConfig(mode="oracle", n_values=(2, 3), trials=6, seed=3)
        code, out, err = run_capture(cfg)
        assert code == 0
        for r in records(out):
            assert all(j["ok"] for j in r["jacobi"])
            if r["invertible"]:
                assert all(x["ok"] for x in r["reciprocal"])

    def test_bench_mode(self):
        cfg = TrialConfig(mode="bench", n_values=(2, 3), trials=2)
        code, out, err = run_capture(cfg)
        assert code == 0
        rows = records(out)
        assert len(rows) == 6  # three engines per order
        for row in rows:
            assert row["mode"] == "bench"
            assert row["engine"] in ("brute", "assignment", "kernel")
            assert row["seconds_total"] >= 0
        # The three engines computed the same determinant for each order.
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], set()).add(row["det"])
        assert all(len(dets) == 1 for dets in by_n.values())

    def test_reproducible_byte_identical(self):
        cfg = TrialConfig(mode="conjecture", n_values=(1, 2, 3), trials=20, seed=42)
        _, out1, _ = run_capture(cfg)
        _, out2, _ = run_capture(cfg)
        assert out1 == out2

    @pytest.mark.parametrize(
        "mode, n_values, trials",
        [("conjecture", tuple(range(1, 7)), 120), ("claims", (2, 3, 4), 60)],
        ids=["conjecture", "claims"],
    )
    def test_stdout_is_the_same_on_every_engine(self, mode, n_values, trials):
        # Bound 1 makes ties, and so ghost tags, common: the engines must
        # agree on them byte for byte, not only on the verdicts.
        outs = {}
        for engine in ENGINES:
            cfg = TrialConfig(mode=mode, n_values=n_values, trials=trials, bound=1, seed=42, engine=engine)
            cfg.validate()
            code, outs[engine], _ = run_capture(cfg)
            assert code == 0, engine
        assert all(out == outs["auto"] for out in outs.values())

    def test_exit_code_one_on_failure(self, monkeypatch):
        # The theorem never fails, so fake a failing trial to pin the
        # exit-code contract.
        import supertrop.harness as harness

        def broken_record(cfg, index, A, seed, rejections):
            return {"trial": index, "rejections": 0, "ok": index != 1}

        row = harness.MODE_TABLE["conjecture"]
        monkeypatch.setitem(harness.MODE_TABLE, "conjecture", row._replace(record=broken_record))
        cfg = TrialConfig(mode="conjecture", trials=3, seed=1)
        code, out, err = run_capture(cfg)
        assert code == 1
        assert json.loads(err)["failures"] == 1

    def test_ks_filter(self):
        cfg = TrialConfig(mode="conjecture", n_values=(3,), trials=2, seed=42, ks=(0, 2))
        _, out, _ = run_capture(cfg)
        for r in records(out):
            assert [c["k"] for c in r["results"]] == [0, 2]

    def test_claims_ks_filter_on_cold_symbolic_caches(self):
        # Every alpha and beta of an order comes from one cached pass, filled
        # by whichever k asks first: a filtered run on cold caches must write
        # the unfiltered run's rows, restricted to the k it keeps.
        def claims_rows(ks):
            for cached in (polynomials.build_alpha, polynomials.build_beta, polynomials.build_gamma,
                           polynomials._variable_det, polynomials._adjoint_cells):
                cached.cache_clear()
            cfg = TrialConfig(mode="claims", n_values=(2, 3, 4), trials=30, bound=1, seed=42,
                              engine="both", ks=ks)
            cfg.validate()
            code, out, _ = run_capture(cfg)
            assert code == 0
            return records(out)

        filtered = claims_rows((1, 3))
        expected = []
        for r in claims_rows(None):
            if r["type"] == "symbolic":
                if r["k"] in (1, 3):
                    expected.append(r)
                continue
            results = [c for c in r["results"] if c["k"] in (1, 3)]
            expected.append(dict(r, results=results, ok=all(c["holds"] for c in results)))
        assert filtered == expected
        assert [(r["n"], r["k"]) for r in filtered if r["type"] == "symbolic"] == [(2, 1), (3, 1), (3, 3), (4, 1), (4, 3)]

    def test_ks_filter_intersects_with_order(self):
        # The filter is checked at every order of the run: k = 3 checks
        # nothing at order 2, so the run is refused before any record.
        cfg = TrialConfig(mode="conjecture", n_values=(2, 4), trials=4, seed=42, ks=(3,))
        with pytest.raises(ValueError, match=r"k filter 3 keeps no k in 0\.\.2 for conjecture mode"):
            cfg.validate()
        cfg = TrialConfig(mode="conjecture", n_values=(3, 4), trials=4, seed=42, ks=(3,))
        cfg.validate()
        code, out, _ = run_capture(cfg)
        assert code == 0
        assert [[c["k"] for c in r["results"]] for r in records(out)] == [[3]] * 4

    def test_allow_singular(self):
        cfg = TrialConfig(
            mode="conjecture",
            n_values=(2,),
            trials=30,
            seed=11,
            allow_singular=True,
            probs=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            bound=2,
        )
        code, out, _ = run_capture(cfg)
        rows = records(out)
        singular_rows = [r for r in rows if r["det"][-1] != "t"]
        assert singular_rows, "sample should contain singular draws"
        for r in singular_rows:
            assert {c["k"] for c in r["results"]} == {1, 2}

    def test_input_matrix_conjecture(self):
        cfg = TrialConfig(mode="conjecture", input_text="2\n3t 0t\n1t 4t\n")
        code, out, err = run_capture(cfg)
        assert code == 0
        (row,) = records(out)
        assert row["trial"] == 0 and row["seed"] is None and row["ok"]
        assert row["det"] == "7t"

    def test_input_matrix_detcross_and_claims_and_oracle(self):
        for mode, text in [
            ("detcross", "2\n3t 0t\n1t 4t\n"),
            ("claims", "2\n3t 0t\n1t 4t\n"),
            ("oracle", "2\n3 0\n1 4\n"),
        ]:
            cfg = TrialConfig(mode=mode, input_text=text)
            code, out, _ = run_capture(cfg)
            assert code == 0, mode
            (row,) = records(out)
            assert row["ok"], mode

    def test_pretty_format(self):
        cfg = TrialConfig(
            mode="conjecture", n_values=(2,), trials=2, seed=42, out_format="pretty"
        )
        code, out, err = run_capture(cfg)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("trial ") and line.endswith(" ok") for line in lines)
        assert err.startswith("summary:")
