"""shorsim benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep15 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics, with op times scaled by a speed probe (see benchlib.py);
``--trace 1`` is the separate traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(machine, per-op latencies and digests, counts) is written to
``perfbench/results/``, and the traced run also writes its spans there.
The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from benchlib import (NullTracer, Tracer, at_reference_speed, beyond, child_env,
                      combined_digest, machine_record, median, min_samples,
                      percentile, self_time_by_layer, slowdown)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
PROBE_OP = -2
NAMES = ("sweep15", "wide-noisy", "cli-cold")
LAYERS = ("arithmetic", "gates", "simulator", "pipeline", "oracles", "cli", "bench")
IMPORT_TIMER = ("import time; t = time.perf_counter(); import shorsim; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="shorsim benchmark")
    ap.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shorsim" / "__init__.py").is_file():
        print(f"error: no shorsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    import shorsim
    if ROOT / "src" not in Path(shorsim.__file__).resolve().parents:
        print(f"error: shorsim imported from {shorsim.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads
    if args.setup_probe:
        make_workload(workloads, args.workload, args.seed, NullTracer())
        return 0
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        correct, results, metrics, extra = traced_run(workloads, args)
    else:
        correct, results, metrics, extra = timed_run(workloads, args)
    return report(args, correct, results, metrics, extra)


def make_workload(workloads, name: str, seed: int, tr):
    if name == "cli-cold":
        return workloads.CliCold(seed, tr, ROOT, RESULTS)
    return workloads.WORKLOADS[name](seed, tr)


def child_run(cmd: list[str]) -> tuple[float, str]:
    """Wall time and stdout of a fresh interpreter run from the checkout root."""
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(ROOT), capture_output=True,
                          text=True, timeout=120, check=True)
    return time.perf_counter() - t0, done.stdout


def setup_times(name: str, seed: int) -> list[float]:
    """Set-up, each time in a fresh interpreter: importing shorsim for
    cli-cold, importing, building the network and making the schedules for
    the others."""
    if name == "cli-cold":
        cmd = [sys.executable, "-c", "import shorsim"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    return [child_run(cmd)[0] for _ in range(SETUP_REPEATS)]


def timed_run(workloads, args):
    guarded = workloads.guarded
    tr = NullTracer()
    setups = setup_times(args.workload, args.seed)
    wl = make_workload(workloads, args.workload, args.seed, tr)
    problems = wl.network_check(tr)
    wl.warmup(tr)
    # Op times are scaled by the speed probe run around each op, so that the
    # drift of the machine's speed cancels (see workloads' PROBE_SHARE).
    # Set-up runs in children, which the probe does not see; it is not scaled.
    results, latencies, slowdowns = [], [], [slowdown()]
    min_ops = max(min_samples(wl.TAIL_P), wl.prefix, wl.min_ops)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(results) < min_ops:
        t0 = time.perf_counter()
        results.append(guarded(wl.run_op, len(results), tr))
        latencies.append(time.perf_counter() - t0)
        slowdowns.append(slowdown())
    wall = time.perf_counter() - start
    scaled = at_reference_speed(latencies, slowdowns, wl.PROBE_SHARE)
    metrics = {"setup_s": (median(setups), "s"),
               "ops_per_s": (len(results) / sum(scaled), "1/s"),
               "op_p50_s": (percentile(scaled, 50), "s"),
               "op_tail_s": (percentile(scaled, wl.TAIL_P), "s"),
               "peak_rss_mb": (wl.peak_rss_mb(results), "MB")}
    unscaled = {"ops_per_s": len(results) / sum(latencies),
                "op_p50_s": percentile(latencies, 50),
                "op_tail_s": percentile(latencies, wl.TAIL_P)}
    extra = {"unscaled": unscaled, "setup_runs_s": setups,
             "network_check": problems, "wall_s": wall,
             "tail": {"percentile": wl.TAIL_P, "samples": len(latencies),
                      "samples_beyond": beyond(wl.TAIL_P, len(latencies))},
             "op_latencies_s": latencies, "slowdowns": slowdowns,
             "prefix_ops": wl.prefix, "counts": prefix_counts(results[:wl.prefix])}
    return not problems, results, metrics, extra


def traced_run(workloads, args):
    from shorsim.gates import compile_masks
    guarded = workloads.guarded
    tr, null = Tracer(), NullTracer()

    def timed(run_op, i):
        t0 = time.perf_counter()
        guarded(run_op, i, null)
        return time.perf_counter() - t0

    with tr.span("bench.setup"):
        wl = make_workload(workloads, args.workload, args.seed, tr)
    if args.workload == "cli-cold":
        run_op = wl.replay_op
    else:
        run_op = wl.run_op
        for _ in range(SETUP_REPEATS):  # one build is too short to time alone
            net = workloads.build_instance(15, 7, 130, tr).net
            tr.call("gates.compile_masks", compile_masks, net)
    problems = wl.network_check(tr)
    wl.warmup(null)
    results, plain, traced = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(results) < wl.prefix:
        i = len(results)
        # Prefix ops also run untraced, for the tracing overhead; which of
        # the two goes first alternates so that an order effect cancels.
        if i < wl.prefix and i % 2 == 0:
            plain.append(timed(run_op, i))
        tr.op_id = i
        t0 = time.perf_counter()
        with tr.span("bench.op"):
            results.append(guarded(run_op, i, tr))
        if i < wl.prefix:
            traced.append(time.perf_counter() - t0)
        if i < wl.prefix and i % 2 == 1:
            plain.append(timed(run_op, i))
    wall = time.perf_counter() - start
    counts = prefix_counts(results[:wl.prefix])
    sampled = results[:wl.prefix]
    replayed = []  # (op, replayed result) pairs to check against the CLI
    if args.workload == "cli-cold":
        replayed = list(zip(wl.ops[:wl.prefix], sampled))
    if wl.probe_op is not None:  # sweep15, wide-noisy never reach pipeline, oracles, cli
        tr.op_id = PROBE_OP
        with tr.span("bench.op"):
            sampled = [guarded(lambda _, t: workloads.replay_cli(wl.probe_op, t,
                                                                  RESULTS), 0, tr)]
        replayed = [(wl.probe_op, sampled[0])]
    for op, result in replayed:  # a replay must give what the CLI gives
        if workloads.run_cli(op, ROOT, RESULTS).digest != result.digest:
            result.ok = False
            result.problems.append("replayed CSV or summary differs from the CLI's")
    imports = [float(child_run([sys.executable, "-c", IMPORT_TIMER])[1])
               for _ in range(IMPORT_REPEATS)]
    spans = tr.spans
    gates_of = {i: r.counts.get("network_gates") for i, r in enumerate(results)}

    def durations(name, ops_only=False):
        return [s.duration for s in spans
                if s.name == name and (s.op_id >= 0 or not ops_only)]

    def per_op(*names):
        total: dict[int, float] = {}
        for s in spans:
            if s.name in names and s.op_id >= 0:
                total[s.op_id] = total.get(s.op_id, 0.0) + s.duration
        return list(total.values())

    ns_per_gate = [s.duration / gates_of[s.op_id] * 1e9 for s in spans
                   if s.name == "simulator.run" and s.op_id >= 0
                   and gates_of.get(s.op_id)]
    # run_experiment has no child spans, and the replay redoes its work under
    # the layers' own spans; so it adds to no layer's self time.
    self_s = self_time_by_layer(spans, exclude={"pipeline.run_experiment"})
    metrics = {
        "arithmetic.build_modexp_s": (median(durations("arithmetic.build_modexp")), "s"),
        "gates.compile_masks_s": (median(durations("gates.compile_masks")), "s"),
        "gates.network_gates": (counts["network_gates"], "count"),
        "simulator.run_s": (median(durations("simulator.run", True)), "s"),
        "simulator.ns_per_gate": (median(ns_per_gate), "ns"),
        "simulator.components_final": (counts["components_final"], "count"),
        "simulator.fourier_s": (median(durations("simulator.fourier_first_register",
                                                 True)), "s"),
        "simulator.fourier_rows": (counts["fourier_rows"], "count"),
        "simulator.tables_s": (median(per_op("simulator.distribution_ned",
                                             "simulator.distribution_ed")), "s"),
        "simulator.ed_acceptance": (counts["ed_acceptance"], "ratio"),
        "pipeline.run_experiment_s": (median(durations("pipeline.run_experiment")), "s"),
        "pipeline.sampling_s": (median(durations("pipeline.sampling")), "s"),
        "pipeline.order_found_ratio": (prefix_counts(sampled)["order_found_ratio"],
                                       "ratio"),
        "oracles.outcome_table_s": (median(durations("oracles.outcome_table_oracle")), "s"),
        "cli.import_s": (median(imports), "s"),
        "cli.emit_s": (median(durations("cli.emit_distribution")), "s"),
        **{f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS},
        "trace.overhead_frac": (median([t / p for t, p in zip(traced, plain)]) - 1.0,
                                "ratio"),
    }
    write_spans(args, spans)
    extra = {"network_check": problems, "wall_s": wall, "import_runs_s": imports,
             "prefix_ops": wl.prefix, "counts": counts,
             "overhead_pairs_s": list(zip(plain, traced)), "spans": len(spans),
             "span_cost_s": span_cost()}
    if wl.probe_op is not None:
        results += sampled
    return not problems, results, metrics, extra


def span_cost(count: int = 20000) -> float:
    """Time one span adds, from a throwaway tracer."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(count):
        with tr.span("bench.cost"):
            pass
    return (time.perf_counter() - t0) / count


def prefix_counts(results) -> dict:
    """Means over the given ops of their counts; they repeat exactly across
    runs of the same code and seed because the ops are the same."""
    out = {}
    for key in ("components_final", "fourier_rows", "ed_acceptance", "network_gates"):
        values = [r.counts[key] for r in results if key in r.counts]
        out[key] = sum(values) / len(values) if values else 0.0
    samples = sum(r.counts.get("samples", 0) for r in results)
    found = sum(r.counts.get("orders_found", 0) for r in results)
    out["order_found_ratio"] = found / samples if samples else 0.0
    return out


def write_spans(args, spans) -> None:
    path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start - t0,
                                 "end": s.end - t0, "parent": s.parent,
                                 "op_id": s.op_id}) + "\n")


def report(args, correct, results, metrics, extra) -> int:
    failed = sum(not r.ok for r in results)
    prefix = [r.digest for r in results[:extra["prefix_ops"]]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(ROOT),
              "attempted": len(results), "failed": failed,
              "failed_frac": failed / len(results),
              "digest": {"ops": len(prefix), "sha256": combined_digest(prefix)},
              "op_digests": [r.digest for r in results],
              "problems": [p for r in results for p in r.problems][:20],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(results)} "
          f"failed={failed} failed_frac={record['failed_frac']:.4g} "
          f"digest({len(prefix)} ops)={record['digest']['sha256'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if "unscaled" in extra:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}"
                                         for k, v in extra["unscaled"].items()))
    if "tail" in extra:
        t = extra["tail"]
        print(f"  op_tail_s is p{t['percentile']:g}: {t['samples_beyond']} of "
              f"{t['samples']} samples beyond it")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(correct) and failed == 0,
                      "attempted": len(results), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
