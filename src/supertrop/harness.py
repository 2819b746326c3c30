"""Seeded batch verification: random generation, the five suites, JSONL reports.

A run is described by a :class:`TrialConfig`.  Trial ``i`` draws its matrix
from a generator seeded with ``derive_trial_seed(seed, i)`` and uses order
``n_values[i % len(n_values)]``, so a verification run is a pure function of
its config: two runs with the same config produce byte-identical trial
streams (bench rows carry timings and are exempt).  For that reason the
per-trial records go to ``out`` while the final summary (which carries
wall-clock time) goes to the diagnostics stream ``err``.

Each mode is one row of :data:`MODE_TABLE`: its order cap, the k it checks,
the flags it takes, whether its matrices may be singular, its draw, parse
and record functions, the rows it writes before its trials and its default
trial count.  Every per-mode rule reads the row, and the per-order rules
run once for each order of the run, an ``--input`` file's order line
included.

Exit codes: 0 all checks passed, 1 at least one verification failure,
2 configuration or input errors, 3 an internal inconsistency (decided by
the CLI wrapper).

Probabilities are exact ``Fraction`` values and sampling happens over their
common denominator, so entry draws are platform-independent integers.
"""

from __future__ import annotations

import collections
import json
import math
import time
from fractions import Fraction

from . import classical
from .errors import RejectionLimit
from .matrices import (
    BRUTE_CAP,
    ENGINES,
    Matrix,
    _trusted,
    conjecture_check,
    det,
    det_brute,
    is_nonsingular,
    parse_matrix,
)
from .polynomials import SYMBOLIC_KMAX, _claims_reports, claim1_check, claim2_check
from .rng import MASK64, Xorshift64Star, derive_trial_seed, rejection_limit
from .scalars import EPS, Scalar, grid_order

__all__ = [
    "MODE_TABLE",
    "MODES",
    "ORDER_CAPS",
    "check_order",
    "REJECTION_LIMIT",
    "DEFAULT_PROBS",
    "TrialConfig",
    "random_matrix",
    "generate_matrix",
    "random_rational_matrix",
    "run",
]

REJECTION_LIMIT = 10_000
DEFAULT_PROBS = (Fraction(8, 10), Fraction(15, 100), Fraction(5, 100))


class TrialConfig:
    """One run's settings, checked by :meth:`validate`; the CLI fills one in
    from its flags.  It also keeps the entries its runs have drawn, one
    shared :class:`Scalar` per value and tag, and the sampling cuts of its
    probabilities, computed on the first draw."""

    def __init__(
        self,
        mode: str,
        n_values: tuple = (3,),
        trials: int = 100,
        seed: int = 42,
        bound: int = 20,
        probs: tuple = DEFAULT_PROBS,
        engine: str = "auto",
        ks: tuple | None = None,
        allow_singular: bool = False,
        out_format: str = "jsonl",
        input_text: str | None = None,
    ):
        self.mode = mode
        self.n_values = n_values
        self.trials = trials
        self.seed = seed
        self.bound = bound
        self.probs = probs
        self.engine = engine
        self.ks = ks
        self.allow_singular = allow_singular
        self.out_format = out_format
        self.input_text = input_text
        self._entries = {}
        self._cuts = None

    def validate(self):
        """Refuse a config its mode's row does not allow.  The orders of a
        seeded run are checked here; an ``--input`` run's order is its order
        line, checked by :func:`run` before a row is parsed."""
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        row = MODE_TABLE[self.mode]
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError(f"orders must be positive, got {self.n_values}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed must lie in 0..{MASK64}, got {self.seed}")
        if self.bound < 1:
            raise ValueError(f"bound must be at least 1, got {self.bound}")
        # One 64-bit draw picks among at most 2**64 values or entry kinds.
        if 2 * self.bound + 1 > 2**64:
            raise ValueError(f"bound must be at most {2**63 - 1}, got {self.bound}")
        if math.lcm(*(p.denominator for p in self.probs)) > 2**64:
            raise ValueError("probabilities need a common denominator of at most 2**64")
        if len(self.probs) != 3 or any(p < 0 for p in self.probs) or sum(self.probs) != 1:
            raise ValueError(f"probabilities must be three non-negative values summing to 1, got {self.probs}")
        if self.probs[0] == 0 and self.input_text is None and not self.may_be_singular():
            # Without tangible entries every determinant is a ghost or eps.
            raise ValueError(
                f"degenerate distribution {tuple(map(str, self.probs))}: a tangible probability "
                f"of 0 cannot produce the non-singular matrices {self.mode} mode needs"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.engine != "auto" and not row.engine:
            raise ValueError(f"{self.mode} mode takes no --engine, got {self.engine}")
        if self.ks is not None and any(k < 0 for k in self.ks):
            raise ValueError(f"k filter must be non-negative, got {self.ks}")
        if self.ks is not None and row.first_k is None:
            raise ValueError(f"{self.mode} mode has no per-k checks, so it takes no k filter")
        if self.allow_singular and row.singular is not None:
            raise ValueError(f"{self.mode} mode takes no --allow-singular")
        if self.out_format not in ("jsonl", "pretty"):
            raise ValueError(f"unknown format {self.out_format!r}")
        if self.input_text is None:
            for n in sorted(set(self.n_values)):
                self.check_n(n, self.may_be_singular())
        elif row.parse is None:
            raise ValueError(f"{self.mode} mode does not take an input matrix")

    def may_be_singular(self) -> bool:
        """Whether the mode's matrices may be singular: as its row says, or
        as ``allow_singular`` says where the row leaves it open."""
        singular = MODE_TABLE[self.mode].singular
        return self.allow_singular if singular is None else singular

    def check_n(self, n: int, singular: bool):
        """The per-order rule: refuse order ``n`` above the mode's cap, above
        :data:`BRUTE_CAP` under a brute-force engine, or with a ``ks`` filter
        that keeps none of the k the mode checks there.  Those are
        ``first_k..last_k``, or ``1..last_k`` where the matrix may be
        ``singular``: k = 0 needs an invertible matrix.  Where ``last_k`` is
        below n, a run needs a ``ks`` filter that keeps no k above it."""
        check_order(self.mode, n)
        if self.engine in ("brute", "both") and n > BRUTE_CAP:
            raise ValueError(f"engine {self.engine} needs order <= {BRUTE_CAP} (brute force), got {n}")
        row = MODE_TABLE[self.mode]
        if row.first_k is None:
            return
        lo = 1 if singular else row.first_k
        hi = n if row.last_k is None else row.last_k[n]
        if hi < n and (self.ks is None or any(hi < k <= n for k in self.ks)):
            raise ValueError(f"{self.mode} mode checks k <= {hi} at order {n}, so it needs a k filter "
                             f"within {lo}..{hi}")
        if self.ks is None or any(lo <= k <= hi for k in self.ks):
            return
        ks = ",".join(map(str, self.ks))
        if 0 in self.ks and lo > row.first_k:
            why = (f"{self.mode} mode can draw a singular one" if self.input_text is None
                   else f"the {self.mode} input matrix is singular")
            raise ValueError(f"k filter {ks} keeps only k = 0, which needs an invertible matrix, but {why} (order {n})")
        raise ValueError(f"k filter {ks} keeps no k in {lo}..{hi} for {self.mode} mode")

    def trial_n(self, index: int) -> int:
        return self.n_values[index % len(self.n_values)]

    def k_values(self, lo: int, n: int) -> list:
        """The k in ``lo..n`` that the ``ks`` filter keeps."""
        return [k for k in range(lo, n + 1) if self.ks is None or k in self.ks]


def check_order(mode, n):
    """Refuse an order above the mode's cap in :data:`MODE_TABLE`."""
    cap = MODE_TABLE[mode].cap
    if n > cap:
        raise ValueError(f"{mode} mode needs order <= {cap}, got {n}")


# ---------------------------------------------------------------------------
# random generation


def _prob_cuts(probs):
    denom = math.lcm(*(p.denominator for p in probs))
    t_cut = int(probs[0] * denom)
    g_cut = t_cut + int(probs[1] * denom)
    return denom, t_cut, g_cut


def _draw(rng, n, bound, cuts, entries):
    """An n-by-n matrix drawn row by row.  Each entry takes one draw below
    the common denominator of the probabilities, which picks tangible, ghost
    or eps, and a non-eps entry then takes its value from ``[-bound, bound]``.
    Each is the draw ``rng.next_below`` would make, a 64-bit word below the
    bound's rejection limit reduced modulo the bound, with the two limits
    computed once per matrix.

    ``entries`` interns the non-eps entries under ``2 * value + tag``: it
    holds at most ``2 * (2 * bound + 1)`` scalars, and never more than the
    entries drawn into it.
    """
    denom, t_cut, g_cut = cuts
    span = 2 * bound + 1
    kind_limit = rejection_limit(denom)
    value_limit = rejection_limit(span)
    next_u64 = rng.next_u64
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = next_u64()
            while x >= kind_limit:
                x = next_u64()
            u = x % denom
            if u >= g_cut:
                row.append(EPS)
                continue
            x = next_u64()
            while x >= value_limit:
                x = next_u64()
            value = x % span - bound
            tag = 1 if u < t_cut else 0
            key = 2 * value + tag
            s = entries.get(key)
            if s is None:
                s = entries[key] = Scalar(value, tag)
            row.append(s)
        rows.append(tuple(row))
    return _trusted(tuple(rows))


def random_matrix(rng: Xorshift64Star, n: int, bound: int, probs=DEFAULT_PROBS) -> Matrix:
    """An n-by-n matrix with entries drawn from ``probs`` (tangible, ghost,
    eps) and values in ``[-bound, bound]``."""
    return _draw(rng, n, bound, _prob_cuts(probs), {})


def generate_matrix(rng: Xorshift64Star, n: int, cfg: TrialConfig, require_nonsingular: bool):
    """Draw a matrix per the config; returns ``(matrix, rejection_count)``.

    In the non-singular modes singular draws are discarded and counted; after
    :data:`REJECTION_LIMIT` consecutive singular draws the config is deemed
    degenerate and the run aborts.  :meth:`TrialConfig.validate` refuses a
    tangible probability of 0 before any draw; this limit catches one small
    enough that non-singular draws are out of reach.
    """
    cuts = cfg._cuts
    if cuts is None:
        cuts = cfg._cuts = _prob_cuts(cfg.probs)
    for rejections in range(REJECTION_LIMIT):
        A = _draw(rng, n, cfg.bound, cuts, cfg._entries)
        if not require_nonsingular or is_nonsingular(A, cfg.engine):
            return A, rejections
    raise RejectionLimit(
        f"{REJECTION_LIMIT} consecutive singular draws at n={n}; "
        f"the distribution {tuple(map(str, cfg.probs))} cannot produce non-singular matrices"
    )


def random_rational_matrix(rng: Xorshift64Star, n: int, bound: int):
    """Integer-entry rational matrix for the classical oracle suite."""
    return classical.as_rational_matrix(
        [[rng.next_int(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


# ---------------------------------------------------------------------------
# per-trial records


def _record_head(index, seed, rejections, rows, token):
    """The keys every trial record starts with; ``token`` writes one entry
    of the matrix ``rows``."""
    n = len(rows)
    matrix = {"n": n, "rows": [" ".join(map(token, row)) for row in rows]}
    return {"trial": index, "seed": seed, "n": n, "rejections": rejections, "matrix": matrix}


def _token(s: Scalar) -> str:
    return s.token


def _conjecture_record(cfg, index, A, seed, rejections):
    ks = cfg.ks if cfg.ks is None else tuple(k for k in cfg.ks if k <= A.n)
    report = conjecture_check(A, cfg.engine, ks=ks, allow_singular=cfg.allow_singular)
    return {
        **_record_head(index, seed, rejections, A.rows, _token),
        "det": report.det.token,
        "results": [
            {"k": c.k, "lhs": c.lhs.token, "rhs": c.rhs.token, "holds": c.holds}
            for c in report.cases
        ],
        "ok": report.ok,
    }


def _detcross_record(cfg, index, A, seed, rejections):
    brute = det_brute(A, cap=max(A.n, 8))
    assignment = det(A, "assignment")
    return {
        **_record_head(index, seed, rejections, A.rows, _token),
        "brute": brute.token,
        "assignment": assignment.token,
        "ok": brute == assignment == det(A),
    }


def _claims_symbolic_rows(cfg):
    rows = []
    for n in sorted(set(cfg.n_values)):
        for k in cfg.k_values(1, n):
            r1 = claim1_check(n, k)
            r2 = claim2_check(n, k)
            rows.append(
                {
                    "type": "symbolic",
                    "n": n,
                    "k": k,
                    "claim1_ok": r1.ok,
                    "claim2_ok": r2.ok,
                    "alpha_terms": r1.alpha_terms,
                    "beta_terms": r1.beta_terms,
                    "gamma_terms": r2.gamma_terms,
                    "violations": len(r1.violations) + len(r2.missing),
                    "ok": r1.ok and r2.ok,
                }
            )
    return rows


def _claims_record(cfg, index, A, seed, rejections):
    n = A.n
    results = []
    for c3, dec in _claims_reports(A, cfg.k_values(1, n), engine=cfg.engine):
        results.append(
            {
                "k": c3.k,
                "claim3": c3.ok,
                "u_exists": dec.u_exists,
                "tangible_case_ok": dec.tangible_case_ok,
                "surpasses": dec.surpasses,
                "holds": c3.ok and dec.ok,
            }
        )
    return {
        "type": "trial",
        **_record_head(index, seed, rejections, A.rows, _token),
        "results": results,
        "ok": all(r["holds"] for r in results),
    }


def _oracle_record(cfg, index, X, seed, rejections):
    n = len(X)
    report = classical.oracle_report(X)
    invertible = report.det != 0
    jacobi = [{"k": k, "ok": report.jacobi[k]} for k in cfg.k_values(0 if invertible else 1, n)]
    reciprocal = None
    if invertible:
        reciprocal = [{"k": k, "ok": report.reciprocal[k]} for k in cfg.k_values(0, n)]
    ok = all(r["ok"] for r in jacobi) and (reciprocal is None or all(r["ok"] for r in reciprocal))
    return {
        **_record_head(index, seed, rejections, X, str),
        "invertible": invertible,
        "jacobi": jacobi,
        "reciprocal": reciprocal,
        "ok": ok,
    }


def _bench_rows(cfg):
    rows = []
    for n in cfg.n_values:
        rng = Xorshift64Star(derive_trial_seed(cfg.seed, n))
        A = random_matrix(rng, n, cfg.bound, (Fraction(1), Fraction(0), Fraction(0)))
        repeats = cfg.trials
        for engine, fn in (
            ("brute", lambda: det_brute(A, cap=n)),
            # Fresh matrices: no kept assignment solve or prefix DP.
            ("assignment", lambda: det(_trusted(A.rows), "assignment")),
            ("kernel", lambda: det(_trusted(A.rows))),
        ):
            start = time.perf_counter()
            for _ in range(repeats):
                result = fn()
            total = time.perf_counter() - start
            rows.append(
                {
                    "mode": "bench",
                    "n": n,
                    "engine": engine,
                    "repeats": repeats,
                    "det": result.token,
                    "seconds_total": round(total, 6),
                    "seconds_mean": round(total / repeats, 6),
                }
            )
    return rows


def _draw_matrix(cfg, rng, n):
    return generate_matrix(rng, n, cfg, not cfg.may_be_singular())


def _draw_rational(cfg, rng, n):
    return random_rational_matrix(rng, n, cfg.bound), 0


#: One mode's rules: ``cap`` the largest order; ``first_k`` the lowest k
#: checked, ``None`` if the mode takes no ``--k``; ``last_k`` the largest k
#: checked at each order, ``None`` for n; ``engine`` whether it takes
#: ``--engine``; ``probs`` whether its draws read ``--probs``; ``singular``
#: whether its matrices may be singular, ``None`` for as ``--allow-singular``
#: (taken only there) says; ``draw``, ``parse`` (``None``: no ``--input``) and
#: ``record`` the trial functions; ``head`` the rows written before the
#: trials; ``trials`` the default ``--trials``.
Mode = collections.namedtuple(
    "Mode", "cap first_k last_k engine probs singular draw parse record head trials"
)

#: Brute force in ``detcross`` and ``bench`` grows as n!; one ``oracle`` trial
#: takes about 0.75 s at order 12 and 6 s at order 14; a ``conjecture`` trial
#: (mean of three at seed 42, six runs, a 2-vCPU CPython 3.11 host) takes
#: 0.08-0.10 s at order 12 and 0.17-0.22 s at 13, about two thirds of it in
#: the kernel's two principal-minor passes, on A and on adj A.  The symbolic
#: term counts of ``claims`` explode past the k of ``SYMBOLIC_KMAX``.
MODE_TABLE = {
    "conjecture": Mode(13, 0, None, True, True, None, _draw_matrix, parse_matrix, _conjecture_record,
                       None, 100),
    "claims": Mode(max(SYMBOLIC_KMAX), 1, SYMBOLIC_KMAX, True, True, False, _draw_matrix, parse_matrix,
                   _claims_record, _claims_symbolic_rows, 100),
    "detcross": Mode(9, None, None, False, True, True, _draw_matrix, parse_matrix, _detcross_record,
                     None, 100),
    "oracle": Mode(12, 0, None, False, False, True, _draw_rational, classical.parse_rational_matrix,
                   _oracle_record, None, 100),
    "bench": Mode(9, None, None, False, False, True, None, None, None, _bench_rows, 3),
}
MODES = tuple(MODE_TABLE)
ORDER_CAPS = {mode: row.cap for mode, row in MODE_TABLE.items()}


def _trial_records(cfg):
    """One record for ``--input``, else one per seeded trial, in trial order."""
    row = MODE_TABLE[cfg.mode]
    if cfg.input_text is not None:
        n = grid_order(cfg.input_text)
        cfg.check_n(n, False)  # before a row is parsed
        record = row.record(cfg, 0, row.parse(cfg.input_text), None, 0)
        if cfg.ks is not None and not any(isinstance(v, list) and v for v in record.values()):
            # Only k = 0 on a singular matrix goes unchecked: refused as on a
            # seeded run that can draw one.
            cfg.check_n(n, True)
        yield record
        return
    for index in range(cfg.trials):
        seed = derive_trial_seed(cfg.seed, index)
        matrix, rejections = row.draw(cfg, Xorshift64Star(seed), cfg.trial_n(index))
        yield row.record(cfg, index, matrix, str(seed), rejections)


# ---------------------------------------------------------------------------
# the runner


def _emit(cfg, stream, record):
    if cfg.out_format == "jsonl":
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        return
    stream.write(_pretty_line(record) + "\n")


def _pretty_line(record):
    if record.get("mode") == "bench":
        return (
            f"bench n={record['n']} {record['engine']}: "
            f"{record['seconds_mean']:.6f}s mean over {record['repeats']} runs (det {record['det']})"
        )
    if record.get("type") == "symbolic":
        return (
            f"claims n={record['n']} k={record['k']} "
            f"claim1={'ok' if record['claim1_ok'] else 'FAIL'} "
            f"claim2={'ok' if record['claim2_ok'] else 'FAIL'}"
        )
    bits = [f"trial {record['trial']}", f"n={record['n']}"]
    if record.get("seed") is not None:
        bits.append(f"seed={record['seed']}")
    if "brute" in record:
        bits.append(f"brute={record['brute']} assignment={record['assignment']}")
    if "det" in record:
        bits.append(f"det={record['det']}")
    bits.append("ok" if record["ok"] else "FAILED")
    if not record["ok"] and "results" in record:
        for r in record["results"]:
            if not r.get("holds", True):
                bits.append(f"[k={r['k']} failed]")
    return " ".join(bits)


def run(cfg: TrialConfig, out, err) -> int:
    """Execute the configured suite; stream records to ``out``, summary to ``err``."""
    row = MODE_TABLE[cfg.mode]
    start = time.perf_counter()
    failures = 0
    symbolic_failures = 0
    rejections = 0
    trials_run = 0

    if row.head is not None and cfg.input_text is None:
        for head_row in row.head(cfg):
            symbolic_failures += not head_row.get("ok", True)  # bench rows carry no verdict
            _emit(cfg, out, head_row)
    if row.record is not None:
        for record in _trial_records(cfg):
            trials_run += 1
            rejections += record["rejections"]
            if not record["ok"]:
                failures += 1
            _emit(cfg, out, record)
    out.flush()  # a closed ``out`` fails here, before the summary, not at exit

    elapsed = round(time.perf_counter() - start, 3)
    summary = {
        "trials": trials_run,
        "failures": failures,
        "rejections": rejections,
        "elapsed": elapsed,
    }
    # Head rows followed by trials are checks: the claims mode's symbolic rows.
    checked_head = row.head is not None and row.record is not None
    if checked_head:
        summary["symbolic_failures"] = symbolic_failures
    if cfg.out_format == "jsonl":
        err.write(json.dumps(summary, separators=(",", ":")) + "\n")
    else:
        err.write(
            f"summary: trials={trials_run} failures={failures} "
            f"rejections={rejections} elapsed={elapsed}s"
            + (f" symbolic_failures={symbolic_failures}" if checked_head else "")
            + "\n"
        )
    return 0 if failures == 0 and symbolic_failures == 0 else 1
