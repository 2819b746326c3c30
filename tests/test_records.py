"""The record contract of the report classes and of ``TrialConfig``, and the
import path of the CLI, which must stay clear of the decorator machinery."""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supertrop import EPS, ghost, tangible
from supertrop.harness import TrialConfig
from supertrop.matrices import CharPoly, ConjectureCase, ConjectureReport, Matrix, conjecture_check
from supertrop.polynomials import (
    Claim1Report,
    Claim2Report,
    Claim3Report,
    DecompositionReport,
    claim1_check,
    claim2_check,
    claim3_check,
    decomposition_checks,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Per report class: its field names in order, and the values of one record.
RECORDS = {
    CharPoly: ("n coeffs", (2, (tangible(0), tangible(3), ghost(5)))),
    ConjectureCase: ("k lhs rhs holds", (1, ghost(4), tangible(4), True)),
    ConjectureReport: ("n det singular cases", (2, tangible(5), False, ())),
    Claim1Report: ("n k alpha_terms beta_terms violations", (3, 2, 10, 12, ())),
    Claim2Report: ("n k gamma_terms missing", (3, 2, 6, ())),
    Claim3Report: ("n k beta_value gamma_value", (3, 2, tangible(1), tangible(1))),
    DecompositionReport: (
        "n k alpha_value beta_value u_exists tangible_case_ok surpasses",
        (3, 2, ghost(7), tangible(7), True, True, True),
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestReportRecords:
    def test_fields_in_order(self, cls):
        names, values = RECORDS[cls]
        names = names.split()
        positional = cls(*values)
        assert [getattr(positional, name) for name in names] == list(values)
        assert cls(**dict(zip(names, values))) == positional
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(positional) == f"{cls.__name__}({shown})"
        with pytest.raises(TypeError):
            cls(*values, None)

    def test_value_equality(self, cls):
        names, values = RECORDS[cls]
        assert cls(*values) == cls(*values)
        assert hash(cls(*values)) == hash(cls(*values))
        assert cls(*values) != cls(values[0] + 1, *values[1:])

    def test_immutable(self, cls):
        record = cls(*RECORDS[cls][1])
        for name in RECORDS[cls][0].split():
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_docstring(self, cls):
        assert cls.__doc__ and cls.__doc__ != cls.__bases__[0].__doc__


def test_conjecture_report_ok():
    holds = ConjectureCase(1, ghost(4), tangible(4), True)
    fails = ConjectureCase(2, tangible(3), tangible(4), False)
    assert ConjectureReport(2, tangible(5), False, ()).ok
    assert ConjectureReport(2, tangible(5), False, (holds,)).ok
    assert not ConjectureReport(2, tangible(5), False, (holds, fails)).ok


def test_claim_reports_ok():
    assert Claim1Report(3, 2, 10, 12, ()).ok
    assert not Claim1Report(3, 2, 10, 12, ((0,) * 9,)).ok
    assert Claim2Report(3, 2, 6, ()).ok
    assert not Claim2Report(3, 2, 6, ((0,) * 9,)).ok
    assert Claim3Report(3, 2, ghost(1), ghost(1)).ok
    assert not Claim3Report(3, 2, ghost(1), tangible(1)).ok
    assert not Claim3Report(3, 2, EPS, tangible(1)).ok


@pytest.mark.parametrize("failing", ["u_exists", "tangible_case_ok", "surpasses"])
def test_decomposition_report_ok(failing):
    names, values = RECORDS[DecompositionReport]
    assert DecompositionReport(*values).ok
    broken = dict(zip(names.split(), values), **{failing: False})
    assert not DecompositionReport(**broken).ok


def test_computed_reports_are_the_record_classes():
    A = Matrix([[tangible(0), tangible(2)], [tangible(1), ghost(0)]])
    report = conjecture_check(A)
    assert type(report) is ConjectureReport and report.ok
    assert all(type(case) is ConjectureCase for case in report.cases)
    assert type(claim1_check(2, 1)) is Claim1Report
    assert type(claim2_check(2, 1)) is Claim2Report
    assert type(claim3_check(A, 1)) is Claim3Report
    assert type(decomposition_checks(A, 1)) is DecompositionReport


#: ``TrialConfig``'s keyword defaults.
CONFIG_DEFAULTS = {
    "n_values": (3,),
    "trials": 100,
    "seed": 42,
    "bound": 20,
    "probs": (Fraction(8, 10), Fraction(15, 100), Fraction(5, 100)),
    "engine": "auto",
    "ks": None,
    "allow_singular": False,
    "out_format": "jsonl",
    "input_text": None,
}


class TestTrialConfig:
    def test_keyword_defaults(self):
        cfg = TrialConfig(mode="claims")
        assert cfg.mode == "claims"
        assert {name: getattr(cfg, name) for name in CONFIG_DEFAULTS} == CONFIG_DEFAULTS

    def test_positional_and_keyword_arguments(self):
        probs = CONFIG_DEFAULTS["probs"]
        values = ("oracle", (2, 3), 7, 9, 5, probs, "auto", (1,), False, "pretty", None)
        cfg = TrialConfig(*values)
        assert [getattr(cfg, name) for name in ("mode", *CONFIG_DEFAULTS)] == list(values)
        with pytest.raises(TypeError):
            TrialConfig(mode="conjecture", threads=2)
        with pytest.raises(TypeError):
            TrialConfig()

    def test_mutable(self):
        cfg = TrialConfig(mode="conjecture")
        cfg.trials = 5
        cfg.engine = "both"
        assert (cfg.trials, cfg.engine) == (5, "both")
        cfg.validate()


def test_cli_import_leaves_out_the_decorator_machinery():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import supertrop.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules))))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import\s+dataclasses\b|from\s+dataclasses\s+import\b)", re.M)
    sources = sorted((SRC / "supertrop").glob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text(encoding="utf-8"))] == []
