"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_benchlib.py
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from benchlib import (NullTracer, Span, Tracer, at_reference_speed,  # noqa: E402
                      beyond, combined_digest, min_samples, percentile,
                      self_time_by_layer, self_times, slowdown)


@pytest.mark.parametrize("p, n", [(50, 20), (60, 25), (75, 40), (90, 100),
                                  (95, 200), (99, 1000)])
def test_min_samples_leaves_ten_beyond_the_tail(p, n):
    assert min_samples(p) == n
    assert beyond(p, n) == 10 and beyond(p, n - 1) < 10
    samples = [float(v) for v in range(n, 0, -1)]
    assert sum(s > percentile(samples, p) for s in samples) == 10


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


def test_scaling_cancels_a_slowdown_the_probe_sees():
    # The machine runs at full speed, then at half speed, then at full speed;
    # each interval is divided by the mean slowdown of the probes around it.
    slowdowns = [1.0, 1.0, 2.0, 1.0]
    assert at_reference_speed([0.2, 0.3, 0.3], slowdowns, 1.0) == \
        pytest.approx([0.2, 0.2, 0.2])
    # Work of which half slows as the probe does: 1.5x at half speed.
    assert at_reference_speed([0.2, 0.25, 0.25], slowdowns, 0.5) == \
        pytest.approx([0.2, 0.2, 0.2])
    assert at_reference_speed([0.2, 0.3], slowdowns[:3], 0.0) == [0.2, 0.3]
    with pytest.raises(ValueError):
        at_reference_speed([0.2], [1.0], 1.0)
    assert 0.0 < slowdown() < 100.0


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_children():
    tr = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    with tr.span("pipeline.run_experiment"):
        with tr.span("simulator.run"):
            pass
        with tr.span("gates.compile_masks"):
            pass
    assert [s.parent for s in tr.spans] == [-1, 0, 0]
    assert self_times(tr.spans) == [10.0 - 2.0 - 3.0, 2.0, 3.0]
    assert self_time_by_layer(tr.spans) == {"pipeline": 5.0, "simulator": 2.0,
                                            "gates": 3.0}


def test_excluded_span_adds_no_self_time_and_still_covers_its_parent():
    spans = [Span("bench.op", 0.0, 10.0, -1, 0),
             Span("pipeline.run_experiment", 1.0, 6.0, 0, 0),
             Span("simulator.run", 6.0, 8.0, 0, 0),
             Span("pipeline.sampling", 8.0, 9.0, 0, 0)]
    assert self_time_by_layer(spans, exclude={"pipeline.run_experiment"}) == {
        "bench": 2.0, "simulator": 2.0, "pipeline": 1.0}
    assert self_time_by_layer(spans)["pipeline"] == 6.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span("bench.op", 0.0, 10.0, -1, 0),
             Span("simulator.run", 1.0, 5.0, 0, 0),
             Span("simulator.run", 3.0, 6.0, 0, 0),
             Span("cli.emit_distribution", 8.0, 12.0, 0, 0)]  # clipped at 10
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_spans_record_op_id_and_survive_exceptions():
    tr = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0]))
    tr.op_id = 7
    with pytest.raises(ValueError):
        with tr.span("bench.op"):
            tr.call("simulator.run", int, "not a number")
    assert [(s.name, s.op_id, s.end) for s in tr.spans] == [
        ("bench.op", 7, 3.0), ("simulator.run", 7, 2.0)]


def test_null_tracer_passes_calls_through():
    assert NullTracer().call("x.y", pow, 2, 5) == 32


def test_digest_is_stable_on_a_tiny_seed():
    import workloads
    first = workloads.Sweep15(0, NullTracer())
    second = workloads.Sweep15(0, NullTracer())
    a = [first.run_op(i, NullTracer()) for i in (0, 2)]
    b = [second.run_op(i, NullTracer()) for i in (0, 2)]
    assert all(r.ok for r in a + b)
    assert [r.digest for r in a] == [r.digest for r in b]
    assert combined_digest([r.digest for r in a]) == combined_digest(
        [r.digest for r in b])
    other = workloads.Sweep15(1, NullTracer()).run_op(0, NullTracer())
    assert other.digest != a[0].digest


def test_cli_check_flags_bad_output():
    import workloads
    op = workloads.CliOp(15, 7, 4, 1)
    rows = ["r1,r2,p_ned,p_ed"] + [f"{r1},{r2},0.5,0.25"
                                   for r1 in range(4) for r2 in range(16)]
    good = "\n".join(rows) + "\n"
    summary = '{"factors": [3, 5], "samples": [{"verified_r": 4}, {"verified_r": null}]}'
    problems, counts = workloads.check_cli_output(op, good, summary)
    assert problems == [] and counts == {"samples": 2, "orders_found": 1}
    bad = good.replace("0.5,0.25", "0.25,0.5", 1)
    assert workloads.check_cli_output(op, bad, summary)[0]
    assert workloads.check_cli_output(op, good, '{"factors": [4]}')[0]
    assert workloads.check_cli_output(op, good.rsplit("\n", 2)[0], summary)[0]


def test_corpus_entries_reproduce():
    import make_corpus
    import workloads
    entries = workloads.load_corpus()["entries"]
    smallest = min(entries, key=lambda e: e["rows"])
    [got] = make_corpus.measure([smallest["id"]], cap_rows=0)
    assert got == {k: smallest[k] for k in ("id", "components", "rows")}


def test_alternating_visits_every_stratum_once():
    import workloads
    assert workloads.alternating(5) == [0, 4, 1, 3, 2]
    assert sorted(workloads.alternating(12)) == list(range(12))


def test_cli_cold_meets_every_n33_stratum_each_cycle(tmp_path):
    import json

    import workloads
    corpus = json.loads(workloads.CLI_CORPUS.read_text())
    stratum_of = {}
    for j, ids in enumerate(workloads.corpus_strata(corpus)):
        for e in corpus["entries"]:
            if e["id"] in ids:
                stratum_of[(e["x"], e["seed"])] = j
    wl = workloads.CliCold(5, NullTracer(), HERE.parent, tmp_path)
    n33 = [op for op in wl.ops if op.n == 33]
    k = corpus["strata"]
    for cycle in range(3):
        got = {stratum_of[(op.x, op.seed)] for op in n33[cycle * k:(cycle + 1) * k]}
        assert got == set(range(k))
    assert len(n33) == 2 * len(wl.ops) // 5
