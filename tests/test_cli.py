import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from supertrop import Scalar, matrices, mul, polynomials, tangible
from supertrop.cli import main, parse_ks, parse_n_range, parse_probs
from supertrop.harness import MODE_TABLE, MODES


class TestParsers:
    def test_n_range(self):
        assert parse_n_range("4") == (4,)
        assert parse_n_range("1..6") == (1, 2, 3, 4, 5, 6)
        assert parse_n_range(" 2..2 ") == (2,)
        with pytest.raises(ValueError):
            parse_n_range("6..1")
        with pytest.raises(ValueError):
            parse_n_range("abc")

    def test_probs(self):
        assert parse_probs("0.8,0.15,0.05") == (
            Fraction(4, 5),
            Fraction(3, 20),
            Fraction(1, 20),
        )
        assert parse_probs("1,0,0") == (Fraction(1), Fraction(0), Fraction(0))
        assert parse_probs("1/2,1/4,1/4") == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        )
        with pytest.raises(ValueError):
            parse_probs("0.5,0.5")
        for bad in ("1e-5", "1E2", ".5", "5.", "+0.5", "1_0", "0x1", "nan", "1 / 2"):
            with pytest.raises(ValueError):
                parse_probs(f"{bad},0,1")

    def test_ks(self):
        assert parse_ks("2") == (2,)
        assert parse_ks("3,0,2,2") == (0, 2, 3)


def verdicts(record):
    """The verdicts a record carries; one that carries none checks nothing."""
    if record.get("type") == "symbolic":
        return [record["claim1_ok"], record["claim2_ok"]]
    if "jacobi" in record:
        return [r["ok"] for r in record["jacobi"] + (record["reciprocal"] or [])]
    if "brute" in record:
        return [record["ok"]]
    return [r["holds"] for r in record["results"]]


class TestMain:
    def test_happy_path(self, capsys):
        code = main(["--mode", "conjecture", "--n", "1..2", "--trials", "4", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert len(rows) == 4 and all(r["ok"] for r in rows)
        assert json.loads(captured.err)["failures"] == 0

    def test_bad_flag_exits_2(self, capsys):
        assert main(["--mode", "conjecture", "--n", "oops"]) == 2
        assert main(["--mode", "wat"]) == 2
        assert main([]) == 2  # --mode is required
        assert main(["--mode", "conjecture", "--trials", "1_0"]) == 2

    def test_bad_probs_exit_2(self, capsys):
        assert main(["--mode", "conjecture", "--probs", "0.9,0.2,0.1"]) == 2

    def test_sampling_limits_exit_2(self, capsys):
        base = ["--n", "2", "--trials", "1"]
        for mode in ("conjecture", "oracle"):
            assert main(["--mode", mode, *base, "--bound", str(2**63)]) == 2
            assert main(["--mode", mode, *base, "--bound", str(2**63 - 1)]) == 0
        tiny = f"1/{2**65}"
        assert main(["--mode", "conjecture", *base, "--probs", f"{tiny},0,{2**65 - 1}/{2**65}"]) == 2
        assert main(["--mode", "conjecture", *base, "--probs", "1e-5,0,1"]) == 2

    def test_missing_input_file_exits_2(self, capsys):
        assert main(["--mode", "conjecture", "--input", "/no/such/file"]) == 2

    def test_degenerate_config_exits_2(self, capsys):
        code = main(
            ["--mode", "conjecture", "--n", "2", "--trials", "1", "--probs", "0,1,0"]
        )
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_distribution_refused_before_any_draw(self, capsys):
        # No tangible entries means no tangible determinant: at n = 13 the
        # 10,000 rejected draws would take minutes, so refuse up front.
        for argv in (["--mode", "conjecture", "--n", "13"], ["--mode", "claims", "--n", "4"]):
            start = time.perf_counter()
            assert main([*argv, "--trials", "1", "--probs", "0,1/2,1/2"]) == 2
            assert time.perf_counter() - start < 5
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("supertrop: config error: degenerate distribution")

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "18446744073709551658"])
    def test_seed_outside_64_bits_exits_2(self, seed, capsys):
        assert main(["--mode", "conjecture", "--n", "1..3", "--trials", "6", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must lie in 0..18446744073709551615" in captured.err
        assert main(["--mode", "oracle", "--n", "2", "--trials", "1", "--seed", str(2**64 - 1)]) == 0

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2\n3t 0t\n1t 4t\n")
        code = main(["--mode", "conjecture", "--input", str(path)])
        assert code == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["det"] == "7t" and row["ok"]

    def test_singular_input_in_strict_mode_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2\n1t 2t\n0t 1t\n")
        assert main(["--mode", "conjecture", "--input", str(path)]) == 2
        assert main(["--mode", "conjecture", "--allow-singular", "--input", str(path)]) == 0

    def test_claims_input_order_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("6\n" + "0t 0t 0t 0t 0t 0t\n" * 6)
        assert main(["--mode", "claims", "--input", str(path)]) == 2
        assert "claims mode needs order <= 5, got 6" in capsys.readouterr().err
        # Order 5 is built symbolically for k <= 3 only.
        path.write_text("5\n" + "".join(" ".join("5t" if i == j else "0t" for j in range(5)) + "\n"
                                         for i in range(5)))
        for ks in (None, "1,4", "5"):
            assert main(["--mode", "claims", "--input", str(path)] + ([] if ks is None else ["--k", ks])) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "claims mode checks k <= 3 at order 5, so it needs a k filter within 1..3" in captured.err
        assert main(["--mode", "claims", "--input", str(path), "--k", "1,2,3"]) == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["ok"] and [r["k"] for r in row["results"]] == [1, 2, 3]

    def test_input_above_the_cap_is_refused_before_its_rows(self, tmp_path, capsys, monkeypatch):
        # 600 rows of 600 entries, about 1 MB: the order line alone refuses it.
        path = tmp_path / "m.txt"
        path.write_text("600\n" + ("1t " * 600 + "\n") * 600)
        built = []
        real = Scalar.__init__
        monkeypatch.setattr(Scalar, "__init__", lambda s, value, tag: built.append(1) or real(s, value, tag))
        assert main(["--mode", "conjecture", "--input", str(path)]) == 2
        assert "conjecture mode needs order <= 13, got 600" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        "mode, cap, token",
        [("detcross", 9, "0t"), ("bench", 9, None), ("oracle", 12, "1"), ("conjecture", 13, "0t")],
    )
    def test_order_cap_exits_2(self, mode, cap, token, tmp_path, capsys):
        n = cap + 1
        message = f"{mode} mode needs order <= {cap}, got {n}"
        assert main(["--mode", mode, "--n", f"2..{n}", "--trials", "1"]) == 2
        assert message in capsys.readouterr().err
        if token is not None:  # bench takes no input matrix
            path = tmp_path / "m.txt"
            path.write_text(f"{n}\n" + (" ".join([token] * n) + "\n") * n)
            assert main(["--mode", mode, "--input", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_conjecture_at_the_top_order_cap(self, capsys):
        assert main(["--mode", "conjecture", "--n", "13", "--trials", "1"]) == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["n"] == 13 and row["ok"]

    def test_ks_filter_that_checks_nothing_exits_2(self, tmp_path, capsys):
        for mode, ks in (("claims", "5"), ("claims", "0"), ("conjecture", "3"), ("oracle", "3")):
            assert main(["--mode", mode, "--n", "2", "--trials", "2", "--k", ks]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"k filter {ks} keeps no k in" in captured.err
        path = tmp_path / "m.txt"
        path.write_text("2\n3t 0t\n1t 4t\n")
        assert main(["--mode", "claims", "--input", str(path), "--k", "3"]) == 2
        assert capsys.readouterr().out == ""
        # The default --n is 3, but an --input matrix of order 4 takes k = 4.
        path.write_text("4\n" + "0t 1t 2t 3t\n" * 3 + "3t 2t 1t 0t\n")
        assert main(["--mode", "conjecture", "--allow-singular", "--input", str(path), "--k", "4"]) == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_ks_filter_exits_2(self, mode, capsys):
        # An empty --k is parsed like any other, not read as no filter.
        assert main(["--mode", mode, "--n", "2", "--trials", "1", "--k", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "supertrop: config error: bad integer ''\n"

    @pytest.mark.parametrize(
        "argv, singular, invertible",
        [
            (["--mode", "conjecture", "--allow-singular"], "2\n1t 2t\n0t 1t\n", "2\n3t 0t\n1t 4t\n"),
            (["--mode", "oracle"], "2\n1 2\n2 4\n", "2\n1 2\n3 4\n"),
        ],
        ids=["conjecture", "oracle"],
    )
    def test_k0_filter_on_a_singular_input_exits_2(self, argv, singular, invertible, tmp_path, capsys):
        # k = 0 needs an invertible matrix, so on a singular one it checks nothing.
        path = tmp_path / "m.txt"
        path.write_text(singular)
        assert main(argv + ["--input", str(path), "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k filter 0 keeps only k = 0, which needs an invertible matrix" in captured.err
        assert main(argv + ["--input", str(path), "--k", "0,1"]) == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["ok"]
        path.write_text(invertible)
        assert main(argv + ["--input", str(path), "--k", "0"]) == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["ok"]
        checked = row["results"] if "results" in row else row["jacobi"] + row["reciprocal"]
        assert [r["k"] for r in checked] in ([0], [0, 0])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "conjecture", "--allow-singular", "--n", "3", "--trials", "20", "--bound", "1",
             "--probs", "40/100,50/100,10/100"],
            ["--mode", "oracle", "--n", "2", "--trials", "50", "--bound", "1"],
        ],
        ids=["conjecture", "oracle"],
    )
    def test_k0_filter_on_a_seeded_run_that_can_draw_a_singular_matrix_exits_2(self, argv, capsys):
        # At seed 42 these runs draw 19 and 24 singular matrices, on which k = 0 checks nothing.
        assert main(argv + ["--seed", "42", "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k filter 0 keeps only k = 0, which needs an invertible matrix" in captured.err
        assert main(argv + ["--seed", "42", "--k", "0,1"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == int(argv[argv.index("--trials") + 1]) and all(verdicts(r) for r in rows)

    def test_k0_filter_on_a_non_singular_seeded_run(self, capsys):
        # Without --allow-singular every conjecture matrix is invertible.
        assert main(["--mode", "conjecture", "--n", "3", "--trials", "5", "--seed", "42", "--k", "0"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [[c["k"] for c in r["results"]] for r in rows] == [[0]] * 5

    def test_no_passing_record_without_a_verdict(self, capsys):
        # Over every verification mode and a grid of --k filters, a run is
        # refused before any record or each record it passes checks something.
        # bench writes timings, not verdicts.
        modes = (["conjecture"], ["conjecture", "--allow-singular"], ["claims"], ["oracle"], ["detcross"])
        filters = (None, "0", "1", "0,1", "2", "0,2", "3", "0,3", "1,3")
        refused = singular = 0
        for mode in modes:
            for n in ("1", "2", "3", "1..3", "2..3"):
                for ks in filters:
                    argv = ["--mode", *mode, "--n", n, "--trials", "12", "--bound", "1", "--seed", "42"]
                    if MODE_TABLE[mode[0]].probs:
                        argv += ["--probs", "40/100,50/100,10/100"]
                    code = main(argv + ([] if ks is None else ["--k", ks]))
                    captured = capsys.readouterr()
                    rows = [json.loads(line) for line in captured.out.splitlines()]
                    if code == 2:
                        assert rows == [], (argv, ks)
                        refused += 1
                        continue
                    assert code == 0, (argv, ks, captured.err)
                    for r in rows:
                        assert not r["ok"] or verdicts(r), (argv, ks, r)
                        singular += r.get("invertible") is False or r.get("det", "t")[-1] != "t"
        # The grid reaches singular matrices and refused filters alike.
        assert singular > 0 and refused > 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--mode conjecture --n 2..4 --k 3 --trials 30 --seed 42", "k filter 3 keeps no k in 0..2"),
            ("--mode claims --n 2..3 --k 3 --trials 30 --seed 42", "k filter 3 keeps no k in 1..2"),
            ("--mode oracle --n 2..3 --k 0,3 --trials 30 --bound 1 --seed 42",
             "k filter 0,3 keeps only k = 0, which needs an invertible matrix"),
            ("--mode claims --n 4..5 --trials 30 --seed 42",
             "claims mode checks k <= 3 at order 5, so it needs a k filter within 1..3"),
            ("--mode claims --n 4..5 --k 3,4 --trials 30 --seed 42",
             "claims mode checks k <= 3 at order 5, so it needs a k filter within 1..3"),
        ],
        ids=["conjecture", "claims", "oracle", "claims-order-5", "claims-order-5-k4"],
    )
    def test_ks_filter_that_checks_nothing_at_one_order_exits_2(self, argv, message, capsys):
        # k = 3 is checked at the top order but not at order 2, where the
        # first three runs would write records with no verdict; claims checks
        # k <= 3 at order 5, so a run there needs a filter that keeps no more.
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"supertrop: config error: {message}")

    def test_n_beside_input_exits_2(self, tmp_path, capsys):
        # An --input run's order is its order line, so --n would be ignored.
        path = tmp_path / "m.txt"
        path.write_text("3\n0t 1t 2t\n2t 0t 1t\n1t 2t 0t\n")
        for n in ("5", "3"):
            assert main(["--mode", "claims", "--n", n, "--input", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "config error: an --input run takes its order from the file, so it takes no --n" in captured.err
        assert main(["--mode", "claims", "--input", str(path)]) == 0

    @pytest.mark.parametrize("flag, value", [("--trials", "5"), ("--seed", "7"), ("--bound", "3"),
                                             ("--probs", "1,0,0")])
    def test_draw_flag_beside_input_exits_2(self, flag, value, tmp_path, capsys):
        # An --input run draws no matrix, so these flags would be ignored.
        path = tmp_path / "m.txt"
        path.write_text("3\n0t 1t 2t\n2t 0t 1t\n1t 2t 0t\n")
        assert main(["--mode", "conjecture", "--input", str(path), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: an --input run draws no matrix, so it takes no {flag}" in captured.err

    @pytest.mark.parametrize("engine", ["brute", "both"])
    def test_input_above_the_brute_force_cap_is_refused_before_its_rows(self, engine, tmp_path, capsys,
                                                                        monkeypatch):
        # The order line goes through the seeded run's per-order check.
        path = tmp_path / "m.txt"
        path.write_text("9\n" + ("1t " * 9 + "\n") * 9)
        built = []
        real = Scalar.__init__
        monkeypatch.setattr(Scalar, "__init__", lambda s, value, tag: built.append(1) or real(s, value, tag))
        assert main(["--mode", "conjecture", "--engine", engine, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"engine {engine} needs order <= 8 (brute force), got 9" in captured.err
        assert built == []

    def test_huge_order_range_refused_before_it_is_built(self, capsys):
        start = time.perf_counter()
        assert main(["--mode", "conjecture", "--n", "1..1000000000", "--trials", "1"]) == 2
        assert time.perf_counter() - start < 1
        assert "conjecture mode needs order <= 13, got 1000000000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "4\n0 1/2 -3 2/5\n2/3 0 5/4 -1\n-7/9 1 2 1/6\n0 3/8 -1/2 4\n",
                '{"trial":0,"seed":null,"n":4,"rejections":0,"matrix":{"n":4,"rows":'
                '["0 1/2 -3 2/5","2/3 0 5/4 -1","-7/9 1 2 1/6","0 3/8 -1/2 4"]},"invertible":true,'
                '"jacobi":[{"k":0,"ok":true},{"k":1,"ok":true},{"k":2,"ok":true},{"k":3,"ok":true},'
                '{"k":4,"ok":true}],"reciprocal":[{"k":0,"ok":true},{"k":1,"ok":true},{"k":2,"ok":true},'
                '{"k":3,"ok":true},{"k":4,"ok":true}],"ok":true}\n',
            ),
            (
                "3\n1/2 1 3/2\n1/3 2/3 1\n0 5/7 -2\n",
                '{"trial":0,"seed":null,"n":3,"rejections":0,"matrix":{"n":3,"rows":'
                '["1/2 1 3/2","1/3 2/3 1","0 5/7 -2"]},"invertible":false,'
                '"jacobi":[{"k":1,"ok":true},{"k":2,"ok":true},{"k":3,"ok":true}],'
                '"reciprocal":null,"ok":true}\n',
            ),
        ],
        ids=["invertible", "singular"],
    )
    def test_rational_oracle_input_bytes(self, text, expected, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main(["--mode", "oracle", "--input", str(path)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("engine", ["auto", "both"])
    @pytest.mark.parametrize(
        "n, full, subset",
        [("2..4", None, "1,3"), ("2..4", None, "2,4"), ("5", "1,2,3", "1,3"), ("5", "1,2,3", "2")],
    )
    def test_claims_k_filter_keeps_the_unfiltered_results(self, n, full, subset, engine, capsys):
        # Each filtered trial line is the unfiltered one with only the kept
        # k in its results, byte for byte: the one fold per matrix hands
        # each k its own root.
        def lines(ks):
            argv = ["--mode", "claims", "--n", n, "--trials", "9", "--seed", "42", "--engine", engine]
            assert main(argv + ([] if ks is None else ["--k", ks])) == 0
            return capsys.readouterr().out.splitlines()

        keep = parse_ks(subset)
        expected = []
        for line in lines(full):
            record = json.loads(line)
            if record["type"] == "symbolic":
                if record["k"] in keep:
                    expected.append(line)
                continue
            record["results"] = [r for r in record["results"] if r["k"] in keep]
            record["ok"] = all(r["holds"] for r in record["results"])
            expected.append(json.dumps(record, separators=(",", ":")))
        assert lines(subset) == expected
        assert len(expected) > 9

    @pytest.mark.parametrize("side", ["kernel", "symbolic"])
    def test_claims_symbolic_disagreement_exits_3(self, side, monkeypatch, capsys):
        if side == "kernel":
            monkeypatch.setattr(matrices, "det_power", lambda d, m: tangible(999))
        else:
            fold = polynomials._fold
            monkeypatch.setattr(polynomials, "_fold", lambda dag, A: [mul(tangible(1), s) for s in fold(dag, A)])
        code = main(["--mode", "claims", "--n", "2", "--trials", "1", "--engine", "both"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("supertrop: internal error: ") and "disagrees: kernel" in err

    @pytest.mark.parametrize("engine", ["brute", "both"])
    def test_brute_force_order_cap_refused_before_any_record(self, engine, capsys):
        code = main(["--mode", "conjecture", "--engine", engine, "--n", "8..9", "--trials", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"engine {engine} needs order <= 8 (brute force), got 9" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "detcross", "--k", "5"],
            ["--mode", "bench", "--k", "5", "--allow-singular"],
            ["--mode", "bench", "--allow-singular"],
            ["--mode", "detcross", "--allow-singular"],
            ["--mode", "claims", "--allow-singular"],
            ["--mode", "oracle", "--allow-singular"],
            ["--mode", "detcross", "--engine", "brute"],
            ["--mode", "detcross", "--engine", "assignment"],
            ["--mode", "detcross", "--engine", "both"],
            ["--mode", "bench", "--engine", "assignment"],
            ["--mode", "oracle", "--engine", "brute"],
            ["--mode", "oracle", "--probs", "0,1,0"],
            ["--mode", "bench", "--probs", "1,0,0"],
        ],
    )
    def test_flag_the_mode_would_ignore_exits_2(self, argv, capsys):
        assert main([*argv, "--n", "2", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("supertrop: config error: ")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_closed_stdout_exits_2_without_a_traceback(self, failing, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["--mode", "conjecture", "--n", "1..3", "--trials", "30"]) == 2
        err = capsys.readouterr().err  # no summary: the run did not deliver its records
        assert err == "supertrop: stdout closed before the run finished\n"

    def test_pretty(self, capsys):
        code = main(["--mode", "bench", "--n", "2", "--trials", "1", "--format", "pretty"])
        assert code == 0
        assert "bench n=2" in capsys.readouterr().out


BASELINE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json").read_text()
)


class TestGoldenStdout:
    """Stdout of each benchmark workload at seed 42 equals the recorded digest."""

    @pytest.mark.parametrize("workload", sorted(BASELINE["workloads"]))
    def test_seed_42_digest(self, workload, capsys):
        prog, *argv = BASELINE["workloads"][workload]["argv"].replace("<seed>", "42").split()
        assert prog == "supertrop"
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == BASELINE["stdout_sha256"][workload]["42"]


class TestSubprocess:
    def test_module_invocation_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "supertrop.cli",
            "--mode",
            "conjecture",
            "--n",
            "1..3",
            "--trials",
            "6",
            "--seed",
            "42",
        ]
        first = subprocess.run(cmd, capture_output=True, timeout=120)
        second = subprocess.run(cmd, capture_output=True, timeout=120)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.count(b"\n") == 6

    @pytest.mark.parametrize("trials, lines_read", [(3000, 1), (5, 0)], ids=["head", "no-reader"])
    def test_reader_that_stops_early(self, trials, lines_read):
        # ``| head -1`` after far more output than a pipe holds, and a reader
        # gone before a small, fully buffered run flushes at its end.
        cmd = [sys.executable, "-m", "supertrop.cli", "--mode", "conjecture", "--n", "1..3", "--trials", str(trials)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            assert json.loads(proc.stdout.readline())["trial"] == 0
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert err == b"supertrop: stdout closed before the run finished\n"


def test_readme_mode_table_matches_the_harness():
    # README's "Mode rules" table and harness.MODE_TABLE state the same rules.
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| mode | order cap | k range | `--engine` | `--probs` | `--input` | may be singular |")
    documented = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        mode, *cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
        documented[mode] = cells
    singular = {True: "yes", False: "no", None: "with --allow-singular"}
    assert documented == {
        mode: [
            str(row.cap),
            "none" if row.first_k is None else f"{row.first_k}..n" + "".join(
                f", {row.first_k}..{k} at n = {n}" for n, k in (row.last_k or {}).items() if k < n
            ),
            "yes" if row.engine else "no",
            "yes" if row.probs else "no",
            "no" if row.parse is None else "yes",
            singular[row.singular],
        ]
        for mode, row in MODE_TABLE.items()
    }
