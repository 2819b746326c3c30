"""The benchmark's traced layers are bound in the package.

``perfbench/probe.py`` wraps every function that its ``LAYERS`` table names
and counts the words drawn through ``Xorshift64Star.next_u64``; a name that
the package no longer binds is left out of a traced run's report.  The probe
is read as text here, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def traced_layers():
    """``LAYERS`` from the probe's source: module name to function names."""
    for node in ast.parse(PROBE.read_text()).body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {PROBE}")


LAYERS = traced_layers()


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_every_traced_function_is_bound(module):
    home = importlib.import_module(f"supertrop.{module}")
    missing = [name for name in LAYERS[module] if not callable(getattr(home, name, None))]
    assert not missing, f"supertrop.{module} does not bind {missing}"


def test_drawn_words_are_countable():
    from supertrop.rng import Xorshift64Star

    assert callable(Xorshift64Star.next_u64)
