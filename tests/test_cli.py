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
        path.write_text("5\n" + "0t 0t 0t 0t 0t\n" * 5)
        assert main(["--mode", "claims", "--input", str(path)]) == 2
        assert "claims mode needs order <= 4, got 5" in capsys.readouterr().err

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

    @pytest.mark.parametrize("side", ["kernel", "symbolic"])
    def test_claims_symbolic_disagreement_exits_3(self, side, monkeypatch, capsys):
        if side == "kernel":
            monkeypatch.setattr(matrices, "det_power", lambda d, m: tangible(999))
        else:
            evaluate = polynomials.evaluate
            monkeypatch.setattr(polynomials, "evaluate", lambda p, A: mul(tangible(1), evaluate(p, A)))
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
