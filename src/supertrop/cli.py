"""Command-line entry point for the verification harness.

Examples::

    supertrop --mode conjecture --n 1..6 --trials 1000 --seed 42
    supertrop --mode detcross --n 1..7 --trials 3500
    supertrop --mode claims --n 2..3 --trials 400
    supertrop --mode oracle --n 2..6 --trials 200
    supertrop --mode bench --n 2..9 --trials 3
    supertrop --mode conjecture --input matrix.txt

``--trials`` is the total trial count; trial i uses the i-th order of the
``--n`` range, round-robin, so ``--n 1..7 --trials 3500`` runs 500 trials
per order.  ``--bound`` is at most ``2**63 - 1`` and the ``--probs`` values
(``-?digits(/digits)?`` or ``digits.digits``) need a common denominator of at
most ``2**64``; anything else exits 2.  So does an order above the mode's cap
in ``harness.ORDER_CAPS``, from ``--n`` or ``--input``, an ``--n`` order above
``BRUTE_CAP`` under ``--engine brute`` or ``both``, an integer flag value
(or ``--input`` order line) that is not ASCII ``-?digits``, and a ``--k``
filter that keeps no k of the mode's per-k checks (``1..n`` in ``claims``,
``0..n`` in ``conjecture`` and ``oracle``) at any order of the run, or only
k = 0 on a singular ``--input`` matrix (k = 0 needs an invertible one).  ``--k``
in ``detcross`` or ``bench`` (no per-k checks), ``--allow-singular``
outside ``conjecture`` and ``--engine`` other than ``auto`` outside
``conjecture`` and ``claims`` (``detcross`` and ``bench`` run every engine,
``oracle`` none) exit 2 as well, and so do a ``--seed`` outside
``0..2**64-1``, a tangible probability of 0 where the mode needs
non-singular draws, and a run whose stdout is closed before it ends
(``| head``), without a traceback.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .harness import DEFAULT_PROBS, MODES, ORDER_CAPS, TrialConfig, check_order, run
from .errors import InternalError, RejectionLimit
from .matrices import ENGINES
from .scalars import parse_int, parse_rational

__all__ = ["main", "build_parser"]


def _n_ends(text):
    """``(lo, hi)`` of a single order like ``4`` or an inclusive range like ``1..6``."""
    lo_text, dots, hi_text = text.strip().partition("..")
    lo = parse_int(lo_text)
    hi = parse_int(hi_text) if dots else lo
    if not 1 <= lo <= hi:
        raise ValueError(f"order range {text.strip()!r} is empty or starts below 1")
    return lo, hi


def parse_n_range(text: str):
    """The orders of ``text`` as a tuple, refused before it is built if one
    lies above the largest cap in ``harness.ORDER_CAPS``."""
    lo, hi = _n_ends(text)
    top = max(ORDER_CAPS.values())
    if hi > top:
        raise ValueError(f"no mode accepts an order above {top}, got {hi}")
    return tuple(range(lo, hi + 1))


def parse_probs(text: str):
    """Three comma-separated ``-?digits(/digits)?`` or ``digits.digits`` values."""
    parts = [p.strip() for p in text.split(",")]
    parts = [Fraction(p) if re.fullmatch(r"[0-9]+\.[0-9]+", p) else parse_rational(p) for p in parts]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated probabilities, got {text!r}")
    return tuple(parts)


def parse_ks(text: str):
    return tuple(sorted({parse_int(p.strip()) for p in text.split(",")}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertrop",
        description="Seeded verification suites for exact supertropical linear algebra.",
    )
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--n", default="3", metavar="N|A..B",
                        help="matrix order, single value or inclusive range (default 3)")
    parser.add_argument("--k", default=None, metavar="K[,K...]",
                        help="restrict per-k checks to these k values")
    parser.add_argument("--trials", type=parse_int, default=None,
                        help="total trial count (default 100; bench: repeats per engine, default 3)")
    parser.add_argument("--seed", type=parse_int, default=42,
                        help="master seed, a 64-bit word in 0..2**64-1 (default 42)")
    parser.add_argument("--bound", type=parse_int, default=20,
                        help="entry values are drawn from [-bound, bound] (default 20)")
    parser.add_argument("--probs", default=None, metavar="T,G,E",
                        help="tangible,ghost,eps probabilities; exact rationals or decimals "
                             "(default 0.8,0.15,0.05)")
    parser.add_argument("--engine", default="auto", choices=ENGINES,
                        help="conjecture and claims modes: determinant engine (auto: the subset-DP "
                             "kernel at every order; both: the kernel, brute force and assignment, "
                             "cross-checked); other modes take auto only")
    parser.add_argument("--allow-singular", action="store_true",
                        help="conjecture mode: keep singular draws and check k >= 1 only (exploratory)")
    parser.add_argument("--input", default=None, metavar="FILE",
                        help="run the suite once on this matrix file instead of random trials")
    parser.add_argument("--format", default="jsonl", choices=("jsonl", "pretty"))
    return parser


def _config_from_args(args) -> TrialConfig:
    trials = args.trials
    if trials is None:
        trials = 3 if args.mode == "bench" else 100
    input_text = None
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            input_text = handle.read()
    check_order(args.mode, _n_ends(args.n)[1])  # the mode's cap, before any tuple
    cfg = TrialConfig(
        mode=args.mode,
        n_values=parse_n_range(args.n),
        trials=trials,
        seed=args.seed,
        bound=args.bound,
        probs=parse_probs(args.probs) if args.probs else DEFAULT_PROBS,
        engine=args.engine,
        ks=parse_ks(args.k) if args.k else None,
        allow_singular=args.allow_singular,
        out_format=args.format,
        input_text=input_text,
    )
    cfg.validate()
    return cfg


def _point_at_devnull(stream):
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor behind it, so nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"supertrop: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, sys.stdout, sys.stderr)
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  What is still buffered goes
        # to devnull, so the interpreter's final flush raises nothing.
        _point_at_devnull(sys.stdout)
        print("supertrop: stdout closed before the run finished", file=sys.stderr)
        return 2
    except RejectionLimit as exc:
        print(f"supertrop: degenerate config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"supertrop: input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"supertrop: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
