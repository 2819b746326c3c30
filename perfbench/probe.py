"""Run one ``supertrop`` command line in this interpreter and report on it.

The benchmark imports this module in a fresh ``python3 -I -S`` interpreter
for every command it measures, and calls :func:`main`; by hand::

    python3 -I -S perfbench/probe.py <setup|run|trace> <supertrop argv...>

It calls ``supertrop.cli.main(argv)`` with ``sys.stdout`` swapped for a
:class:`RecordStream`, which timestamps, classifies and hashes each JSONL
record as the CLI writes it.  Nothing under ``src/`` is changed: the only
hook is a wrapper around the ``run`` function that ``cli.main`` calls once
configuration parsing is done, which marks the end of set-up.

Modes:

* ``setup``: stop at that point, so the process measures set-up alone;
* ``run``: run the command untraced;
* ``trace``: also wrap the public functions in :data:`LAYERS` in every
  module namespace that binds them, and keep one span per call in memory.

When ``main`` returns, one JSON document goes to the real standard output:
the end of set-up and the start of the run (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable with the parent's clock), the
per-record tuples, the reference pauses, the stdout digest, the peak resident
set size and, when tracing, the spans and counters.

In ``run`` and ``trace`` mode the stream also times :func:`reference_kernel`,
a fixed piece of pure-Python work, after a trial record at most once per
:data:`REFERENCE_EVERY_S` of run time.  The program waits while it runs, and
the pauses are reported so that record gaps can exclude them; the kernel's
times tell the benchmark how fast the host was while the command ran.

Only ``sys``, ``os`` and ``time`` are imported before set-up ends, so the
set-up time is the interpreter's and the package's, not the probe's.
"""

import os
import sys
import time

#: Public functions traced per module.  ``scalars`` is measured only through
#: its callers: the engines inline its arithmetic, and a span per ``add`` or
#: ``mul`` would cost more than the work it measures.
LAYERS = {
    "matrices": (
        "conjecture_check",
        "det",
        "is_nonsingular",
        "adjoint",
        "cofactor",
        "char_poly",
        "pseudoinverse",
    ),
    "harness": ("generate_matrix",),
    "polynomials": (
        "poly_mul",
        "poly_det",
        "build_alpha",
        "build_beta",
        "build_gamma",
        "claim1_check",
        "claim2_check",
        "evaluate",
        "claim3_check",
        "decomposition_checks",
    ),
    "classical": (
        "rat_det",
        "rat_adjugate",
        "rat_inverse",
        "minor_sums",
        "char_coeffs",
        "jacobi_check",
        "reciprocal_check",
    ),
}

#: Cached symbolic constructions whose distinct results are counted in terms.
TERM_COUNTS = {"build_alpha": "alpha_terms", "build_beta": "beta_terms", "build_gamma": "gamma_terms"}

#: Least run time between two timings of the reference kernel.
REFERENCE_EVERY_S = 0.05

_SYMBOLIC_PREFIX = '{"type":"symbolic"'
_OK_SUFFIX = '"ok":true}'


def classify(line):
    """``(symbolic, n, ok)`` for one JSONL record, without parsing all of it.

    Every record the CLI writes is a flat-keyed object whose last key is the
    top-level ``ok`` and whose first ``"n":`` key is the matrix order; a line
    that does not end in ``"ok":true}`` counts as not ok.
    """
    symbolic = line.startswith(_SYMBOLIC_PREFIX)
    ok = line.rstrip("\n").endswith(_OK_SUFFIX)
    n = 0
    at = line.find('"n":')
    if at >= 0:
        end = at + 4
        while end < len(line) and line[end].isdigit():
            end += 1
        if end > at + 4:
            n = int(line[at + 4:end])
    return symbolic, n, ok


def reference_kernel():
    """Fixed pure-Python work of a few milliseconds, unrelated to ``supertrop``.

    Exact rational elimination on every 4x4 minor of a fixed 5x5 integer
    matrix, a product of two dict-keyed polynomials and JSON encoding: the
    kinds of work the verifier does, in code that no change to ``supertrop``
    reaches.
    """
    import json
    from fractions import Fraction

    n = 5
    rows = [[(7 * i + 13 * j) % 23 - 11 for j in range(n)] for i in range(n)]
    total = Fraction(0)
    for skip_row in range(n):
        for skip_col in range(n):
            a = [[Fraction(rows[i][j]) for j in range(n) if j != skip_col] for i in range(n) if i != skip_row]
            det = Fraction(1)
            for k in range(n - 1):
                pivot = next((i for i in range(k, n - 1) if a[i][k]), None)
                if pivot is None:
                    det = Fraction(0)
                    break
                a[k], a[pivot] = a[pivot], a[k]
                det *= a[k][k] if pivot == k else -a[k][k]
                for i in range(k + 1, n - 1):
                    factor = a[i][k] / a[k][k]
                    for j in range(k, n - 1):
                        a[i][j] -= factor * a[k][j]
            total += det
    p = {(i, j, (i * j) % 3): i - j + 1 for i in range(8) for j in range(8)}
    product = {}
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in p.items():
            key = (a1 + a2, b1 + b2, (c1 + c2) % 3)
            product[key] = product.get(key, 0) + x * y
    text = json.dumps({"det_sum": str(total), "terms": sorted(f"{k}:{v}" for k, v in product.items())})
    return len(text)


class RecordStream:
    """Text stream that stands in for ``sys.stdout`` during a run.

    Each complete line is one record; it gets a timestamp taken when the
    line is written and its classification.  Every byte written goes into a
    SHA-256 digest and a byte count, so two runs can be compared without
    keeping their output.

    With a ``reference``, the stream calls it after a trial record once at
    least ``every`` seconds have passed since the last call ended (or since
    run start), and keeps ``(records_so_far, kernel_s, held_s)`` for each
    call: the kernel's own time, and the time the program was held from the
    record's timestamp until it resumed.
    """

    def __init__(self, clock=time.perf_counter, reference=None, every=REFERENCE_EVERY_S):
        self._clock = clock
        self._hash = None
        self._pending = ""
        self._reference = reference
        self._every = every
        self._resumed = None
        self.run_start = None
        self.records = []  # (t, symbolic, n, ok)
        self.pauses = []  # (records written before the pause, kernel_s, held_s)
        self.nbytes = 0

    def start(self):
        """Mark the start of the run; the hasher is created here, not at import."""
        import hashlib

        self._hash = hashlib.sha256()
        self.run_start = self._resumed = self._clock()

    def write(self, text):
        if self._hash is None:
            self.start()
        data = text.encode("utf-8")
        self._hash.update(data)
        self.nbytes += len(data)
        if "\n" not in text:
            self._pending += text
            return len(text)
        now = self._clock()
        lines = (self._pending + text).split("\n")
        self._pending = lines.pop()
        for line in lines:
            self.records.append((now,) + classify(line))
        if self._reference is not None and lines and not self.records[-1][1] and now - self._resumed >= self._every:
            start = self._clock()
            self._reference()
            self._resumed = self._clock()
            self.pauses.append((len(self.records), self._resumed - start, self._resumed - now))
        return len(text)

    def flush(self):
        pass

    def digest(self):
        if self._hash is None:
            self.start()
        if self._pending:
            # An unterminated last line is still a record.
            self.records.append((self._clock(),) + classify(self._pending))
            self._pending = ""
        return self._hash.hexdigest()


class Tracer:
    """Spans and counters for the functions named in :data:`LAYERS`.

    A span is ``(name_index, start, end, parent_span, trial)``, where
    ``trial`` is the number of records written when the call began.  Spans
    are kept in memory and written out when the run ends.
    """

    def __init__(self, stream, clock=time.perf_counter):
        self._stream = stream
        self._clock = clock
        self._stack = []
        self.names = []
        self.spans = []
        self.counters = {}
        self.absent = []
        self._built = {}

    def wrap(self, name, fn, on_call=None, on_result=None):
        name_index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = self._clock
        records = self._stream.records

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            trial = len(records)
            if on_call is not None:
                on_call(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, trial)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self, modules):
        """Wrap each listed function wherever a ``supertrop`` module binds it.

        ``from .matrices import det`` copies the name, so the wrapper goes into
        every namespace holding the original object.  A cached construction is
        wrapped as its ``lru_cache`` object, so caching still applies.
        """
        for module_name, functions in LAYERS.items():
            home = modules.get("supertrop." + module_name)
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name, None) if home is not None else None
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original, *self._hooks(module_name, fn_name))
                for module in list(modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if mod_name != "supertrop" and not mod_name.startswith("supertrop."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        rng = modules.get("supertrop.rng")
        generator = getattr(rng, "Xorshift64Star", None)
        if generator is None or not hasattr(generator, "next_u64"):
            self.absent.append("rng.draws")
        else:
            generator.next_u64 = self._counted(generator.next_u64, "rng.draws")

    def _counted(self, fn, key):
        counters = self.counters
        counters[key] = 0

        def counted(*args):
            counters[key] += 1
            return fn(*args)

        return counted

    def _hooks(self, module_name, fn_name):
        if module_name == "polynomials" and fn_name == "evaluate":
            return (lambda args: self._add("polynomials.evaluate.terms", len(args[0].terms)), None)
        if module_name == "harness" and fn_name == "generate_matrix":
            def on_result(args, kwargs, result):
                self._add("harness.rejections", result[1])
                self._add("harness.draws", result[1] + 1)

            return (None, on_result)
        if module_name == "polynomials" and fn_name in TERM_COUNTS:
            key = TERM_COUNTS[fn_name]

            def on_result(args, kwargs, result):
                built = self._built.setdefault(key, {})
                built[(args, tuple(sorted(kwargs.items())))] = len(result)

            return (None, on_result)
        return (None, None)

    def report(self):
        counters = dict(self.counters)
        for key, built in self._built.items():
            counters["polynomials." + key] = sum(built.values())
        return {"names": self.names, "spans": self.spans, "counters": counters, "absent": self.absent}


def peak_rss_kb():
    """Peak resident set size of this process image, in KiB.

    Read from ``VmHWM`` because Linux folds the spawning parent's peak into
    the child's ``ru_maxrss`` at exec; ``ru_maxrss`` is the fallback where
    ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    mode, cli_argv = argv[0], argv[1:]
    if mode not in ("setup", "run", "trace"):
        print(f"probe: unknown mode {mode!r}", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from supertrop import cli

    stream = RecordStream(reference=reference_kernel)
    marks = {}
    real_run = cli.run

    def timed_run(cfg, out, err):
        marks["enter"] = time.perf_counter()
        if mode == "setup":
            return 0
        stream.start()
        return real_run(cfg, out, err)

    cli.run = timed_run
    tracer = None
    if mode == "trace":
        tracer = Tracer(stream)
        tracer.install(sys.modules)

    real_stdout = sys.stdout
    sys.stdout = stream
    error = None
    try:
        code = cli.main(cli_argv)
    except Exception as exc:  # the report carries it; the parent counts it as failed
        import traceback

        error = "".join(traceback.format_exception(exc))
        code = None
    finally:
        sys.stdout = real_stdout

    import json

    report = {
        "exit": code,
        "error": error,
        "enter": marks.get("enter"),
        "run_start": stream.run_start,
        "digest": stream.digest(),
        "out_bytes": stream.nbytes,
        "records": stream.records,
        "pauses": stream.pauses,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    real_stdout.write(json.dumps(report, separators=(",", ":")))
    real_stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
