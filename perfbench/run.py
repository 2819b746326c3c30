"""Outside-in benchmark for the ``supertrop`` verifier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload conjecture --seed 42 --seconds 25 --trace 0

Each workload is the exact ``supertrop`` command line a user would type, with
the benchmark's ``--seed`` passed through as the CLI's ``--seed``.  Every
command runs in a fresh single-threaded interpreter (``perfbench/probe.py``,
started with ``-I -S`` and without ``PYTHON*`` or ``SUPERTROP_*`` variables),
so the ``lru_cache`` of the symbolic constructions starts empty and the peak
resident set size belongs to that command alone.  Nothing under ``src/`` is modified; all
timing is read from the stdout records as they are written.

``--trace 0`` spends ``--seconds`` seconds on repeats of the full command,
each after a few set-up-only processes, and prints the end-to-end metrics.
A trial's latency is the time between its record and the one before it (or
run start), less any time the probe held the program to time its reference
kernel.  On a shared 2-vCPU virtual machine the CPU speed was seen to swing
by up to 1.5x within seconds, for the program and for any other code alike,
so each trial's latency is scaled to a host on which the reference kernel
takes ``REFERENCE_MS``, by the median of the kernel timings taken between
the trials around it.  The timing metrics are thus
stated in milliseconds and trials per second of that reference host; the
raw figures are printed on stderr beside them.
``--trace 1`` alternates untraced and traced commands and prints the
per-layer metrics: call counts and self time of every function in
``probe.LAYERS``, work counters, per-order latency, and the tracing overhead
measured against the untraced commands; their times are scaled in the same
way and taken at their median over the commands.

Every run checks that each command exits 0, writes the expected number of
trial records and marks every record ``ok:true``; that all commands of the
run have the same stdout SHA-256; that ``conjecture-assign`` has the stdout
of ``conjecture`` for the same seed; that traced and untraced stdout agree;
and, for seeds listed in ``baseline.json``, that the digest is the recorded
one.  A digest mismatch counts every trial of the run as failed; any failure
makes the command exit 1.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; stderr gets
a table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from probe import LAYERS  # noqa: E402

BASELINE = os.path.join(HERE, "baseline.json")
# Importing the probe (rather than running it as a script) lets its bytecode be
# cached, so compiling it is not part of every set-up sample.
BOOTSTRAP = "import sys; sys.path.insert(0, sys.argv[1]); import probe; sys.exit(probe.main(sys.argv[2:]))"

#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
#: Set-up-only processes before each full command, so the set-up samples are
#: spread over the run; with the full commands' own set-up they give the
#: median ``setup_s``.
SETUP_PER_COMMAND = 3
#: Full commands per untraced run, at least: digests are compared within a
#: run, and throughput is a median over its commands.
MIN_COMMANDS = 3
#: Per-order latency is reported for these orders (0 where a workload has none).
ORDERS = range(1, 7)
#: Timing metrics are stated for a host on which ``probe.reference_kernel``
#: takes this many milliseconds (its median on a 2-vCPU CPython 3.11 host).
REFERENCE_MS = 6.0
#: A record's time is scaled by the kernel timings this many pauses either
#: side of it: the host's speed changes within seconds, and a median over
#: fewer timings would carry the kernel's own jitter.
LOCAL_PAUSES = 8


@dataclass(frozen=True)
class Workload:
    argv: tuple
    why: str
    cross: tuple | None = None  # argv whose stdout must equal this workload's

    @property
    def trials(self):
        return int(self.argv[self.argv.index("--trials") + 1])


_CONJECTURE = ("--mode", "conjecture", "--n", "1..6", "--trials", "300")

# Trial counts are multiples of the number of orders, so each order gets the
# same share.  They keep one command to a few seconds, so that a run holds
# several commands to take the median throughput over.
WORKLOADS = {
    "conjecture": Workload(
        _CONJECTURE,
        "acceptance suite on engine auto: brute-force permutation folds in det, adjoint, char_poly and pseudoinverse dominate",
    ),
    "conjecture-assign": Workload(
        _CONJECTURE + ("--engine", "assignment"),
        "same argv on the assignment engine, which does all the determinant work; its stdout must equal conjecture's",
        cross=_CONJECTURE,
    ),
    "claims": Workload(
        ("--mode", "claims", "--n", "2..4", "--trials", "300"),
        "polynomials module twice: symbolic alpha/beta/gamma build, then per-trial evaluation of those polynomials",
    ),
    "oracle": Workload(
        ("--mode", "oracle", "--n", "2..6", "--trials", "50"),
        "classical module alone: exact Bareiss, adjugate, inverse and minor sums for every k; flat under matrices changes",
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("top_p50_ms", "ms"),
    ("trial_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

COUNTERS = (
    "rng.draws",
    "polynomials.evaluate.terms",
    "polynomials.alpha_terms",
    "polynomials.beta_terms",
    "polynomials.gamma_terms",
)


def per_layer_names():
    """Per-layer metric names and units, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names.append((f"{module}.{fn}.calls", "count"))
            names.append((f"{module}.{fn}.self_s", "s"))
    names += [
        ("harness.rejection_frac", "ratio"),
        ("harness.out_bytes", "bytes"),
        ("harness.symbolic_s", "s"),
    ]
    names += [(f"harness.order{k}.p50_ms", "ms") for k in ORDERS]
    names += [(key, "count") for key in COUNTERS]
    names += [
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
    ]
    return names


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of them at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)  # ceil(p/100 * len) in exact arithmetic
    return ordered[max(rank, 1) - 1]


def record_gaps(run_start, records, pauses=()):
    """Time from the previous record, or from run start, to each record.

    ``pauses`` are the probe's ``(records_so_far, kernel_s, held_s)``; the
    time a pause held the program is taken off the gap of the next record.
    """
    held = {index: held_s for index, _kernel_s, held_s in pauses}
    gaps = []
    prev = run_start
    for index, (t, *_rest) in enumerate(records):
        gaps.append(t - prev - held.get(index, 0.0))
        prev = t
    return gaps


def split_records(run_start, records, pauses=()):
    """``(symbolic_s, [(n, gap_s), ...])`` from ``(t, symbolic, n, ok)`` records.

    ``symbolic_s`` is the time from run start to the last symbolic row, 0 if
    there is none; the list holds the order and gap of each trial record.
    """
    symbolic_ends = [t for t, symbolic, _n, _ok in records if symbolic]
    symbolic_s = symbolic_ends[-1] - run_start if symbolic_ends else 0.0
    gaps = [
        (n, gap)
        for (_t, symbolic, n, _ok), gap in zip(records, record_gaps(run_start, records, pauses))
        if not symbolic
    ]
    return symbolic_s, gaps


def latency_metrics(commands):
    """``trials_per_s``, ``top_p50_ms`` and ``trial_p90_ms`` of a run.

    ``commands`` holds one ``[(n, gap_s), ...]`` list per full command.
    Throughput is the median over commands; the percentiles are taken over
    the trials of all commands together.
    """
    pooled = [trial for gaps in commands for trial in gaps]
    top = max(n for n, _g in pooled)
    return {
        "trials_per_s": median([len(gaps) / sum(g for _n, g in gaps) for gaps in commands]),
        "top_p50_ms": 1000 * percentile([g for n, g in pooled if n == top], 50),
        "trial_p90_ms": 1000 * percentile([g for _n, g in pooled], 90),
    }


def span_self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _trial in spans]
    for _name, start, end, parent, _trial in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(names, spans, scales=None):
    """Total self time per span name.

    With ``scales``, each span's self time is multiplied by the scale of the
    record it was producing (the last one for spans after every record).
    """
    totals = {}
    for (name, _start, _end, _parent, trial), own in zip(spans, span_self_times(spans)):
        if scales is not None:
            own *= scales[min(trial, len(scales) - 1)]
        totals[names[name]] = totals.get(names[name], 0.0) + own
    return totals


def scaled_sum(gaps, scales):
    """Sum of record gaps, each multiplied by its record's scale."""
    return sum(gap * scale for gap, scale in zip(gaps, scales))


# ---------------------------------------------------------------------------
# commands


@dataclass
class Command:
    """One probe process: when it was spawned, its report, and what went wrong."""

    spawn: float
    report: dict | None
    problem: str | None = None

    @property
    def ok(self):
        return self.problem is None

    @property
    def digest(self):
        return self.report["digest"] if self.report is not None else None

    def gaps(self):
        return record_gaps(self.report["run_start"], self.report["records"], self.report["pauses"])

    def split(self):
        return split_records(self.report["run_start"], self.report["records"], self.report["pauses"])

    def reference_s(self):
        """Median time of the reference kernel between this command's trials."""
        return median([kernel_s for _index, kernel_s, _held_s in self.report["pauses"]])

    def scales(self):
        """Per record, the factor that turns its time into time on the reference host.

        It is ``REFERENCE_MS`` over the median kernel time of the
        ``LOCAL_PAUSES`` pauses before the record and as many after it, so
        that it follows the host's speed within the command.
        """
        at = [index for index, _kernel_s, _held_s in self.report["pauses"]]
        kernel_s = [k for _index, k, _held_s in self.report["pauses"]]
        scales = []
        for index in range(len(self.report["records"])):
            j = bisect_right(at, index)
            scales.append(REFERENCE_MS / 1000 / median(kernel_s[max(j - LOCAL_PAUSES, 0):j + LOCAL_PAUSES]))
        return scales

    def scaled_gaps(self):
        """``[(n, gap_s), ...]`` of the trials, scaled to the reference host."""
        records = self.report["records"]
        return [
            (n, gap * scale)
            for (_t, symbolic, n, _ok), gap, scale in zip(records, self.gaps(), self.scales())
            if not symbolic
        ]


def child_env():
    """The caller's environment without ``PYTHON*`` and ``SUPERTROP_*`` variables.

    ``SUPERTROP_THREADS`` would start a thread pool, which gains nothing on a
    CPU-bound run and would measure the scheduler.
    """
    return {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SUPERTROP_"))}


def spawn(mode, argv, timeout):
    """Run the probe once in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, "-I", "-S", "-c", BOOTSTRAP, HERE, mode, *argv]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return Command(start, None, f"timed out after {timeout:.0f} s")
    try:
        report = json.loads(done.stdout)
    except ValueError:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return Command(start, None, f"probe exited {done.returncode} without a report: {tail}")
    if report["error"] is not None:
        return Command(start, report, "exception in supertrop:\n" + report["error"])
    if report["exit"] != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-2:])
        return Command(start, report, f"supertrop exited {report['exit']}: {tail}")
    return Command(start, report)


def check_command(cmd, trials):
    """Failed trials of one full command; all of them unless it ran cleanly."""
    if not cmd.ok:
        return trials
    records = cmd.report["records"]
    if not all(ok for _t, symbolic, _n, ok in records if symbolic):
        cmd.problem = "a symbolic row is not ok"
        return trials
    trial_oks = [ok for _t, symbolic, _n, ok in records if not symbolic]
    failed = sum(1 for ok in trial_oks if not ok) + abs(trials - len(trial_oks))
    if failed:
        cmd.problem = f"{failed} of {trials} trials not ok or missing"
    elif not cmd.report["pauses"]:
        cmd.problem = "the reference kernel was never timed"
        failed = trials
    return failed


def digest_problems(commands, recorded=None, what="repetitions"):
    """Why the commands' stdout digests are not all equal, or not ``recorded``."""
    digests = {c.digest for c in commands if c.digest is not None}
    problems = []
    if len(digests) > 1:
        problems.append(f"stdout differs between {what}: {sorted(d[:12] for d in digests)}")
    if recorded is not None and digests and digests != {recorded}:
        problems.append(f"stdout digest {sorted(d[:12] for d in digests)} is not the recorded {recorded[:12]}")
    return problems


def load_recorded_digests():
    """``{workload: {seed: sha256}}`` recorded in ``baseline.json``."""
    with open(BASELINE, encoding="utf-8") as handle:
        return json.load(handle)["stdout_sha256"]


# ---------------------------------------------------------------------------
# one benchmark run


class Run:
    def __init__(self, name, seed, seconds, recorded=None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.recorded = recorded
        self.started = time.perf_counter()
        self.setups = []
        self.commands = []  # untraced full commands
        self.pairs = []  # (untraced, traced) in a traced run
        self.cross = None  # the cross-engine command, when the workload has one
        self.problems = []

    def _spawn(self, mode, argv=None):
        argv = (argv or self.workload.argv) + ("--seed", str(self.seed))
        return spawn(mode, argv, self.started + HARD_LIMIT_S - time.perf_counter())

    def _has_time_for(self, seconds):
        return time.perf_counter() + seconds <= self.started + self.seconds

    def _start(self):
        self._spawn("setup")  # fills the bytecode cache; not a sample
        if self.workload.cross is not None:
            self.cross = self._spawn("run", self.workload.cross)

    def measure(self):
        """Set-up samples and full commands, in turn, until the time is spent."""
        self._start()
        while True:
            t0 = time.perf_counter()
            for _ in range(SETUP_PER_COMMAND):
                cmd = self._spawn("setup")
                if cmd.ok:
                    self.setups.append(cmd)
                else:
                    self.problems.append(f"set-up: {cmd.problem}")
            self.commands.append(self._spawn("run"))
            if len(self.commands) >= MIN_COMMANDS and not self._has_time_for(time.perf_counter() - t0):
                break

    def measure_traced(self):
        """Pairs of one untraced and one traced command, alternating which runs first."""
        self._start()
        while True:
            t0 = time.perf_counter()
            if len(self.pairs) % 2 == 0:
                untraced = self._spawn("run")
                traced = self._spawn("trace")
            else:
                traced = self._spawn("trace")
                untraced = self._spawn("run")
            self.commands.append(untraced)
            self.pairs.append((untraced, traced))
            if not self._has_time_for(time.perf_counter() - t0):
                break

    def check(self):
        """``(attempted, failed)`` trials; every reason for a failure goes to ``problems``."""
        commands = self.commands + [traced for _u, traced in self.pairs]
        trials = self.workload.trials
        attempted = trials * len(commands)
        failed = sum(check_command(c, trials) for c in commands)
        self.problems += [c.problem for c in commands if c.problem]
        mismatches = digest_problems(commands, self.recorded)
        if self.cross is not None:
            check_command(self.cross, trials)
            if self.cross.ok:
                mismatches += digest_problems([self.cross, commands[0]], what="engines")
            else:
                mismatches.append(f"cross-engine command: {self.cross.problem}")
        if mismatches:
            self.problems += mismatches
            failed = attempted
        return attempted, failed

    def clean(self):
        return [c for c in self.commands if c.ok]

    def end_to_end(self):
        clean = self.clean()
        setups = [c.report["enter"] - c.spawn for c in self.setups + clean]
        return {
            "setup_s": percentile(setups, 50),
            **latency_metrics([c.scaled_gaps() for c in clean]),
            "peak_rss_mb": percentile([c.report["peak_rss_kb"] / 1024 for c in clean], 50),
        }

    def symbolic_s(self):
        """Median time of the symbolic phase, scaled to the reference host."""
        return median(c.split()[0] * c.scales()[0] for c in self.clean())

    def per_layer(self):
        clean = self.clean()
        pairs = [(u, t) for u, t in self.pairs if u.ok and t.ok]
        values = {}

        by_order = {}
        for n, gap in (g for c in clean for g in c.scaled_gaps()):
            by_order.setdefault(n, []).append(gap)
        for k in ORDERS:
            values[f"harness.order{k}.p50_ms"] = 1000 * percentile(by_order[k], 50) if k in by_order else 0.0
        values["harness.symbolic_s"] = self.symbolic_s()
        values["harness.out_bytes"] = clean[0].report["out_bytes"]

        traces = [t.report["trace"] for _u, t in pairs]
        first = traces[0]
        absent = set(first["absent"])
        calls = {}
        for span in first["spans"]:
            key = first["names"][span[0]]
            calls[key] = calls.get(key, 0) + 1
        # Every time below is scaled to the reference host and taken at its
        # median over the pairs.  Both commands of a pair are scaled by the
        # untraced one's kernel times, record by record (a span by the record
        # it helped produce): the tracer's heap slows the kernel in the traced
        # process too, by a few percent, which would hide that much of the
        # tracing overhead.
        scales = [u.scales() for u, _t in pairs]
        selfs = [
            self_times(trace["names"], trace["spans"], scale)
            for scale, trace in zip(scales, traces)
        ]
        for module, functions in LAYERS.items():
            for fn in functions:
                key = f"{module}.{fn}"
                if key not in absent:
                    values[key + ".calls"] = calls.get(key, 0)
                    values[key + ".self_s"] = median(s.get(key, 0.0) for s in selfs)

        counters = first["counters"]
        draws = counters.get("harness.draws", 0)
        values["harness.rejection_frac"] = counters.get("harness.rejections", 0) / draws if draws else 0.0
        for key in COUNTERS:
            if key not in absent:
                values[key] = counters.get(key, 0)

        untraced = median(scaled_sum(u.gaps(), scale) for (u, _t), scale in zip(pairs, scales))
        traced = median(scaled_sum(t.gaps(), scale) for (_u, t), scale in zip(pairs, scales))
        values["trace.untraced_run_s"] = untraced
        values["trace.overhead_s"] = traced - untraced
        values["trace.self_sum_s"] = median(sum(s.values()) for s in selfs)
        return values

    def extras(self, attempted, failed):
        """Figures printed on stderr beside the metrics."""
        clean = self.clean()
        commands = self.commands + [t for _u, t in self.pairs]
        raw = {}
        if clean:
            units = dict(END_TO_END)
            raw = {"raw_" + k: (v, units[k]) for k, v in latency_metrics([c.split()[1] for c in clean]).items()}
            raw["reference_ms"] = (1000 * median([c.reference_s() for c in clean]), "ms")
        return {
            **raw,
            "failed_frac": (failed / attempted, "ratio"),
            "symbolic_s": (self.symbolic_s() if clean else 0.0, "s"),
            "commands": (len(commands), "count"),
            "stdout_sha256": (",".join(sorted({c.digest for c in commands if c.digest})), "hex"),
        }


def print_table(title, rows, stream):
    print(title, file=stream)
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>16} {unit}", file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the probe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "supertrop", "cli.py")):
        print(f"perfbench: no supertrop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    recorded = load_recorded_digests().get(args.workload, {}).get(str(args.seed))
    run = Run(args.workload, args.seed, args.seconds, recorded)
    if args.trace:
        run.measure_traced()
    else:
        run.measure()
    attempted, failed = run.check()

    units = dict(per_layer_names() if args.trace else END_TO_END)
    values = {}
    if run.clean() and (not args.trace or any(u.ok and t.ok for u, t in run.pairs)):
        values = run.per_layer() if args.trace else run.end_to_end()
    rows = {name: (values[name], unit) for name, unit in units.items() if name in values}

    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                {**rows, **run.extras(attempted, failed)}, sys.stderr)
    if args.trace and values:
        gap = abs(values["trace.self_sum_s"] - values["trace.untraced_run_s"])
        verdict = "within" if gap <= abs(values["trace.overhead_s"]) else "OUTSIDE"
        print(f"  self-time sum is {gap:.4f} s from the untraced run time, "
              f"{verdict} the tracing overhead", file=sys.stderr)
        missing = [name for name in units if name not in values]
        if missing:
            print(f"  absent from this program: {missing}", file=sys.stderr)
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    correct = not run.problems and failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
