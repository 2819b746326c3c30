"""Tests for the benchmark's own code; run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import sys
import types
from functools import lru_cache

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import probe  # noqa: E402
import run  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


SYMBOLIC = '{"type":"symbolic","n":2,"k":1,"claim1_ok":true,"ok":true}\n'
TRIAL_N2 = '{"type":"trial","trial":0,"seed":"7","n":2,"results":[{"k":1,"holds":true}],"ok":true}\n'
TRIAL_N3_BAD = '{"trial":1,"seed":"9","n":3,"results":[{"k":1,"ok":true}],"ok":false}\n'


def test_classify_reads_kind_order_and_top_level_ok():
    assert probe.classify(SYMBOLIC) == (True, 2, True)
    assert probe.classify(TRIAL_N2) == (False, 2, True)
    # A nested "ok":true does not make a failing record ok.
    assert probe.classify(TRIAL_N3_BAD) == (False, 3, False)
    assert probe.classify('{"trial":12,"n":11,"ok":true}') == (False, 11, True)
    assert probe.classify("garbage\n") == (False, 0, False)


def test_stream_splits_symbolic_rows_and_measures_gaps_from_run_start():
    # run start at 10.0; records written at 10.5 and 10.75 (symbolic), then trials.
    stream = probe.RecordStream(clock=fake_clock([10.0, 10.5, 10.75, 11.0, 11.5]))
    stream.start()
    stream.write(SYMBOLIC)
    stream.write(SYMBOLIC)
    stream.write(TRIAL_N2[:20])  # a record may arrive in pieces
    stream.write(TRIAL_N2[20:])
    stream.write(TRIAL_N3_BAD)
    assert [r[1:] for r in stream.records] == [(True, 2, True), (True, 2, True), (False, 2, True), (False, 3, False)]
    symbolic_s, gaps = run.split_records(stream.run_start, stream.records)
    assert symbolic_s == 0.75
    assert gaps == [(2, 0.25), (3, 0.5)]
    assert stream.nbytes == len(2 * SYMBOLIC + TRIAL_N2 + TRIAL_N3_BAD)


def test_first_trial_gap_runs_from_run_start_without_symbolic_rows():
    symbolic_s, gaps = run.split_records(5.0, [(5.25, False, 1, True), (6.0, False, 2, True)])
    assert symbolic_s == 0.0
    assert gaps == [(1, 0.25), (2, 0.75)]


def test_reference_pauses_follow_trial_records_and_come_off_the_next_gap():
    # run start 0.0; a trial at 1.0 is followed by a kernel timed 1.25-1.5;
    # the next trial (2.0) is too soon for another; a symbolic row never gets one.
    clock = fake_clock([0.0, 1.0, 1.25, 1.5, 2.0, 2.5, 2.75, 3.0, 3.5])
    stream = probe.RecordStream(clock=clock, reference=lambda: None, every=0.75)
    stream.start()
    stream.write(TRIAL_N2)
    stream.write(TRIAL_N3_BAD)
    stream.write(TRIAL_N2)
    stream.write(SYMBOLIC)
    assert stream.pauses == [(1, 0.25, 0.5), (3, 0.25, 0.5)]
    assert run.record_gaps(stream.run_start, stream.records, stream.pauses) == [1.0, 0.5, 0.5, 0.5]


def test_reference_kernel_is_deterministic():
    assert probe.reference_kernel() == probe.reference_kernel() > 0


def test_scaled_gaps_use_the_median_kernel_time_of_the_pauses_around_each_record(monkeypatch):
    records = [(1.0, False, 2, True), (3.0, False, 3, True), (4.0, False, 3, True)]
    pauses = [(1, 0.004, 0.5), (2, 0.012, 0.25), (3, 0.008, 0.0)]
    cmd = _command("x", records, pauses)
    assert cmd.reference_s() == 0.008
    ms = run.REFERENCE_MS / 1000
    # With every pause in reach, each record gets the command's median.
    assert cmd.scaled_gaps() == [(2, 1.0 * ms / 0.008), (3, 1.5 * ms / 0.008), (3, 0.75 * ms / 0.008)]
    # With one pause either side: none before record 0, pause 0 before record 1, pause 1 before record 2.
    monkeypatch.setattr(run, "LOCAL_PAUSES", 1)
    assert cmd.scales() == pytest.approx([ms / 0.004, ms / 0.008, ms / 0.010])


def test_latency_metrics_take_throughput_per_command_and_pool_percentiles():
    commands = [[(1, 0.1), (2, 0.3)], [(1, 0.1), (2, 0.5), (2, 0.4)]]
    metrics = run.latency_metrics(commands)
    assert metrics["trials_per_s"] == (2 / 0.4 + 3 / 1.0) / 2
    assert metrics["top_p50_ms"] == 1000 * 0.4
    assert metrics["trial_p90_ms"] == 1000 * 0.5


def test_self_time_on_nested_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [11, 12] is a second root.
    names = ["a", "b", "c", "d", "e"]
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (3, 2.0, 3.0, 1, 0),
        (2, 5.0, 9.0, 0, 0),
        (4, 11.0, 12.0, -1, 1),
        (1, 11.25, 11.75, 4, 1),
    ]
    assert run.self_times(names, spans) == {"a": 3.0, "b": 2.5, "c": 4.0, "d": 1.0, "e": 0.5}
    # Self times partition the root spans.
    assert sum(run.self_times(names, spans).values()) == 11.0
    # Scaled by the record each span was producing.
    assert run.self_times(names, spans, [2.0, 3.0]) == {"a": 6.0, "b": 5.5, "c": 8.0, "d": 2.0, "e": 1.5}


def test_tracer_records_parent_and_trial_index():
    stream = probe.RecordStream(clock=fake_clock([0.0, 0.5]))
    tracer = probe.Tracer(stream, clock=fake_clock([1.0, 2.0, 3.0, 4.0]))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    stream.start()
    stream.write(TRIAL_N2)
    assert outer(1) == 4
    assert tracer.spans == [(1, 1.0, 4.0, -1, 1), (0, 2.0, 3.0, 0, 1)]


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert run.percentile(values, 50) == 35
    assert run.percentile(values, 30) == 20
    assert run.percentile(values, 40) == 20
    assert run.percentile(values, 90) == 50
    assert run.percentile(values, 100) == 50
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.percentile(list(range(100, 0, -1)), 50) == 50
    assert run.percentile([3.5], 90) == 3.5
    assert run.percentile([2, 1], 50) == 1


def _command(digest, records=None, pauses=((1, 0.005, 0.005),)):
    report = {"digest": digest, "records": records or [], "run_start": 0.0, "pauses": list(pauses)}
    return run.Command(0.0, report)


def test_corrupted_digest_is_caught():
    good = "ab" * 32
    corrupted = "ab" * 31 + "ac"
    assert run.digest_problems([_command(good), _command(good)], recorded=good) == []
    assert run.digest_problems([_command(good), _command(corrupted), _command(good)])
    assert run.digest_problems([_command(corrupted)], recorded=good)
    assert run.digest_problems([_command(good), _command(corrupted)], what="engines")[0].startswith(
        "stdout differs between engines"
    )


def test_check_command_counts_failed_and_missing_trials():
    records = [(1.0, True, 2, True), (2.0, False, 2, True), (3.0, False, 3, False)]
    cmd = _command("x", records)
    assert run.check_command(cmd, 2) == 1 and not cmd.ok
    assert run.check_command(_command("x", records[:2]), 2) == 1
    assert run.check_command(_command("x", [(1.0, True, 2, False)] + records[1:2]), 1) == 1
    assert run.check_command(run.Command(0.0, None, "timed out"), 7) == 7
    unscaled = _command("x", records[:2], pauses=())
    assert run.check_command(unscaled, 1) == 1 and unscaled.problem == "the reference kernel was never timed"


def test_tracer_wraps_every_binding_and_keeps_lru_cache():
    calls = []

    @lru_cache(maxsize=None)
    def build_alpha(n, k):
        calls.append((n, k))
        return {i: i for i in range(n * k)}

    def det(a):
        return a

    matrices = types.ModuleType("supertrop.matrices")
    matrices.det = det
    polynomials = types.ModuleType("supertrop.polynomials")
    polynomials.build_alpha = build_alpha
    polynomials.det = det  # as if by ``from .matrices import det``
    other = types.ModuleType("elsewhere")
    other.det = det
    modules = {m.__name__: m for m in (matrices, polynomials, other)}

    stream = probe.RecordStream()
    tracer = probe.Tracer(stream)
    tracer.install(modules)
    assert matrices.det is not det and polynomials.det is matrices.det
    assert other.det is det
    assert polynomials.build_alpha(2, 3) == polynomials.build_alpha(2, 3)
    assert calls == [(2, 3)]
    assert build_alpha.cache_info().hits == 1
    polynomials.det(1)
    report = tracer.report()
    assert [report["names"][s[0]] for s in report["spans"]] == [
        "polynomials.build_alpha", "polynomials.build_alpha", "matrices.det",
    ]
    assert report["counters"]["polynomials.alpha_terms"] == 6
    assert "matrices.cofactor" in report["absent"] and "rng.draws" in report["absent"]


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
