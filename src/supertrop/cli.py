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
per order.  The rules of each mode (order cap, k range, the flags it takes,
whether its matrices may be singular) are the table "Mode rules" in
README.md, read from ``harness.MODE_TABLE``; a run that breaks one exits 2
before any record, as do a malformed flag value and a run whose stdout is
closed before it ends (``| head``), without a traceback.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .harness import DEFAULT_PROBS, MODE_TABLE, MODES, ORDER_CAPS, TrialConfig, check_order, run
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
    parser.add_argument("--n", default=None, metavar="N|A..B",
                        help="matrix order, single value or inclusive range (default 3); "
                             "an --input run takes the file's order")
    parser.add_argument("--k", default=None, metavar="K[,K...]",
                        help="restrict per-k checks to these k values")
    parser.add_argument("--trials", type=parse_int, default=None,
                        help="total trial count (default 100; bench: repeats per engine, default 3)")
    parser.add_argument("--seed", type=parse_int, default=None,
                        help="master seed, a 64-bit word in 0..2**64-1 (default 42)")
    parser.add_argument("--bound", type=parse_int, default=None,
                        help="entry values are drawn from [-bound, bound] (default 20)")
    parser.add_argument("--probs", default=None, metavar="T,G,E",
                        help="conjecture, claims and detcross modes: tangible,ghost,eps probabilities; "
                             "exact rationals or decimals (default 0.8,0.15,0.05)")
    parser.add_argument("--engine", default="auto", choices=ENGINES,
                        help="conjecture and claims modes: determinant engine (auto: the subset-DP "
                             "kernel at every order; both: the kernel, brute force and assignment, "
                             "cross-checked); other modes take auto only")
    parser.add_argument("--allow-singular", action="store_true",
                        help="conjecture mode: keep singular draws and check k >= 1 only (exploratory)")
    parser.add_argument("--input", default=None, metavar="FILE",
                        help="run the suite once on this matrix file instead of random trials; "
                             "takes none of --n, --trials, --seed, --bound and --probs")
    parser.add_argument("--format", default="jsonl", choices=("jsonl", "pretty"))
    return parser


def _config_from_args(args) -> TrialConfig:
    row = MODE_TABLE[args.mode]
    input_text = None
    if args.input is not None:
        if args.n is not None:
            raise ValueError("an --input run takes its order from the file, so it takes no --n")
        for flag in ("trials", "seed", "bound", "probs"):
            if getattr(args, flag) is not None:
                raise ValueError(f"an --input run draws no matrix, so it takes no --{flag}")
        with open(args.input, "r", encoding="utf-8") as handle:
            input_text = handle.read()
    if args.probs is not None and not row.probs:
        raise ValueError(f"{args.mode} mode takes no --probs, got {args.probs}")
    n_text = "3" if args.n is None else args.n
    check_order(args.mode, _n_ends(n_text)[1])  # the mode's cap, before any tuple
    cfg = TrialConfig(
        mode=args.mode,
        n_values=parse_n_range(n_text),
        trials=row.trials if args.trials is None else args.trials,
        seed=42 if args.seed is None else args.seed,
        bound=20 if args.bound is None else args.bound,
        probs=DEFAULT_PROBS if args.probs is None else parse_probs(args.probs),
        engine=args.engine,
        ks=None if args.k is None else parse_ks(args.k),
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
