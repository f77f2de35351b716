"""The benchmark's workloads and the output check of every op.

Each workload makes all of its inputs from the workload seed during set-up
and then runs ops one at a time (a closed loop with one client).  An op
returns an ``OpResult``: whether its output passed the checks, a SHA-256
digest of the output, and the counts the traced run reports.

* ``sweep15``: one N=15, x=7, q=130 network reused by every op; each op is
  one 10-event schedule through run, DFT and both tables.  The ops cycle
  through gamma=2.5 with the watchdog on, the same schedule with it off,
  and a p1=0.5 schedule with it off, the loops behind acceptance criteria
  5 and 6.  Cost is per-gate overhead on a reused network.
* ``wide-noisy``: the same network with 20-event p1=0.5 schedules; each op
  runs one schedule with the watchdog off and then in strict mode.  Cost is per
  component: up to 4 x 10^6 DFT rows.  Schedules come from a screened
  corpus (see make_corpus.py) in cost strata, so every run draws the same
  mix of op costs and the largest input of the workload is known.
* ``cli-cold``: each op is a fresh ``shorsim run --out FILE`` process on
  its own instance, N=15/q=130, N=21/q=512 and N=33/q=1100, default noise
  flags.  Nothing is reused between ops.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import shorsim as S
from shorsim import cli as shcli
from shorsim import oracles, pipeline
from shorsim.gates import compile_masks

from benchlib import child_env, sha256_hex

NORM_TOL = 1e-10
ED_TOL = 1e-15
ORACLE_TOL = 1e-10
CORPUS = Path(__file__).with_name("wide_noisy_corpus.json")
OP_TIMEOUT_S = 150.0


@dataclass
class OpResult:
    ok: bool
    digest: str
    counts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    rss_mb: float | None = None


@dataclass(frozen=True)
class Instance:
    n: int
    x: int
    q: int
    layout: S.RegisterLayout
    net: S.Network


def guarded(run_op, i: int, tr) -> OpResult:
    try:
        return run_op(i, tr)
    except Exception:  # an op that raises is a failed op; the run goes on
        return OpResult(False, "", {}, [traceback.format_exc(limit=4)])


def build_instance(n: int, x: int, q: int, tr) -> Instance:
    params = S.ArithParams.create(n, x, q)
    layout = S.RegisterLayout.for_factoring(params.bits, q=q)
    net = tr.call("arithmetic.build_modexp", S.build_modexp, params, layout)
    return Instance(n, x, q, layout, net)


def make_schedule(entropy: list[int], n_events: int, n_qubits: int,
                  law) -> S.NoiseSchedule:
    """Sorted uniform event times in (0, 1) and uniform qubits."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    while True:
        times = np.sort(rng.random(n_events))
        if times[0] > 0.0 and len(np.unique(times)) == n_events:
            break
    qubits = rng.integers(0, n_qubits, size=n_events)
    return S.NoiseSchedule([S.DecayEvent(float(t), int(b))
                            for t, b in zip(times, qubits)], law)


def check_tables(state: S.SparseState, ned: np.ndarray,
                 ed: np.ndarray) -> list[str]:
    problems = []
    norm = state.norm_squared()
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"norm after DFT is {norm!r}")
    if not np.all(ed <= ned + ED_TOL):
        problems.append("ed exceeds ned at some cell")
    return problems


def oracle_check(inst: Instance, tr) -> list[str]:
    """Zero-event table of the network against the analytic oracle."""
    state = S.init_state(inst.q, inst.layout)
    state = tr.call("simulator.run", S.run, state, inst.net,
                    S.NoiseSchedule([], S.StaticDecay(1.0)))
    state = tr.call("simulator.fourier_first_register",
                    S.fourier_first_register, state, inst.q, inst.layout)
    table = S.distribution_ned(state, inst.layout, inst.q).table
    exact = tr.call("oracles.outcome_table_oracle", oracles.outcome_table_oracle,
                    inst.n, inst.x, inst.q)
    gap = float(np.max(np.abs(table - exact)))
    if gap > ORACLE_TOL:
        return [f"zero-event table differs from the oracle by {gap:.3e}"]
    return []


@dataclass(frozen=True)
class SimOp:
    schedule: S.NoiseSchedule
    watchdog: str


def simulate(inst: Instance, op: SimOp, tr) -> OpResult:
    """One schedule through run, DFT and both tables, with the output checks."""
    state = tr.call("simulator.init_state", S.init_state, inst.q, inst.layout)
    state = tr.call("simulator.run", S.run, state, inst.net, op.schedule,
                    op.watchdog)
    components = state.component_count
    state = tr.call("simulator.fourier_first_register",
                    S.fourier_first_register, state, inst.q, inst.layout)
    ned = tr.call("simulator.distribution_ned", S.distribution_ned, state,
                  inst.layout, inst.q)
    ed = tr.call("simulator.distribution_ed", S.distribution_ed, state,
                 inst.layout, inst.q)
    with tr.span("bench.check"):
        problems = check_tables(state, ned.table, ed.table)
        digest = sha256_hex(ned.table.tobytes(), ed.table.tobytes())
    counts = {"components_final": components,
              "fourier_rows": state.component_count,
              "ed_acceptance": ed.total(),
              "network_gates": len(inst.net.gates)}
    return OpResult(not problems, digest, counts, problems)


class SimWorkload:
    """Ops on one reused N=15, x=7, q=130 network, run in this process."""

    name = ""
    prefix = 0  # ops whose outputs form the run digest
    TAIL_P = 0.0  # op_tail_s percentile; ten samples must lie beyond it
    min_ops = 0  # ops every run completes, beside those the tail needs
    # The part of an op's time that slows as benchlib's speed probe does.
    PROBE_SHARE = 0.0

    def __init__(self, seed: int, tr):
        self.inst = build_instance(15, 7, 130, tr)
        self.ops = self.make_ops(seed)
        self.probe_op = CliOp(15, 7, 130, seed, self.PROBE_FLAGS)

    def make_ops(self, seed: int) -> list[tuple[SimOp, ...]]:
        raise NotImplementedError

    def warmup_op(self) -> SimOp:
        """Run once before timing: the workload's largest input."""
        raise NotImplementedError

    def network_check(self, tr) -> list[str]:
        return oracle_check(self.inst, tr)

    def warmup(self, tr) -> None:
        simulate(self.inst, self.warmup_op(), tr)

    def run_op(self, i: int, tr) -> OpResult:
        """One op: each of its simulations; counts are means over them."""
        parts = [simulate(self.inst, sim, tr)
                 for sim in self.ops[i % len(self.ops)]]
        counts = {k: sum(p.counts[k] for p in parts) / len(parts)
                  for k in parts[0].counts}
        return OpResult(all(p.ok for p in parts),
                        sha256_hex(*(p.digest.encode() for p in parts)), counts,
                        [msg for p in parts for msg in p.problems])

    def peak_rss_mb(self, results: list[OpResult]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Sweep15(SimWorkload):
    name = "sweep15"
    prefix = 6
    TAIL_P = 90.0
    # 102 ops: the 100 the p90 tail needs, rounded up to whole triples.  Every
    # run completes the list, so it meets every schedule of its seed.
    TRIPLES = 34
    min_ops = 3 * TRIPLES
    PROBE_SHARE = 1.0  # run() is 95% of an op; it slows as the probe does
    # The warm-up schedule: of the 10-event schedules made from entropy
    # [15, 0..999], the one with the most DFT rows (409,630; 67 MB peak), so
    # that it and not the seed's largest schedule sets the peak memory.
    PEAK_ENTROPY = [15, 781]
    PROBE_FLAGS = ("--events", "10", "--gamma", "2.5", "--watchdog", "on")

    def warmup_op(self) -> SimOp:
        return SimOp(make_schedule(self.PEAK_ENTROPY, 10, self.inst.layout.qubit_count,
                                   S.ExponentialDecay(2.5)), "off")

    def make_ops(self, seed: int) -> list[tuple[SimOp, ...]]:
        qubits = self.inst.layout.qubit_count
        ops = []
        for k in range(self.TRIPLES):
            gamma = make_schedule([seed, k, 0], 10, qubits, S.ExponentialDecay(2.5))
            static = make_schedule([seed, k, 1], 10, qubits, S.StaticDecay(0.5))
            ops += [(SimOp(gamma, "on"),), (SimOp(gamma, "off"),),
                    (SimOp(static, "off"),)]
        return ops


CORPUS_TAG = 20


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text())


def corpus_strata(corpus: dict) -> list[list[int]]:
    """Corpus ids sorted by op time and cut into equal size strata."""
    ids = [e["id"] for e in sorted(corpus["entries"],
                                   key=lambda e: (e["cost_s"], e["id"]))]
    k = corpus["strata"]
    return [ids[j * len(ids) // k:(j + 1) * len(ids) // k] for j in range(k)]


def alternating(k: int) -> list[int]:
    """Strata 0, k-1, 1, k-2, ...: small and large alternate, so a partly
    run cycle keeps the mix."""
    return [j for pair in zip(range(k), reversed(range(k))) for j in pair][:k]


def corpus_schedule(corpus_id: int, n_qubits: int) -> S.NoiseSchedule:
    return make_schedule([CORPUS_TAG, corpus_id], 20, n_qubits, S.StaticDecay(0.5))


class WideNoisy(SimWorkload):
    name = "wide-noisy"
    prefix = 8
    TAIL_P = 75.0
    CYCLES = 16
    # Measured: in a slow phase the probe slowed 1.8x and the same op 1.32x;
    # (1.32 - 1) / (1.8 - 1) = 0.4.  DFT and tables do not slow with it.
    PROBE_SHARE = 0.4
    PROBE_FLAGS = ("--events", "20", "--p1", "0.5", "--watchdog", "off")

    def make_ops(self, seed: int) -> list[tuple[SimOp, ...]]:
        corpus = load_corpus()
        strata = corpus_strata(corpus)
        qubits = self.inst.layout.qubit_count
        largest = max(corpus["entries"], key=lambda e: (e["rows"], e["id"]))
        self.largest = corpus_schedule(largest["id"], qubits)
        rng = np.random.default_rng(np.random.SeedSequence([seed, CORPUS_TAG]))
        order = alternating(len(strata))
        ops = []
        for _ in range(self.CYCLES):
            for j in order:
                sched = corpus_schedule(int(rng.choice(strata[j])), qubits)
                ops.append((SimOp(sched, "off"), SimOp(sched, "strict")))
        return ops

    def warmup_op(self) -> SimOp:
        # The largest input sets the process's peak memory before timing starts.
        return SimOp(self.largest, "off")


@dataclass(frozen=True)
class CliOp:
    n: int
    x: int
    q: int
    seed: int
    flags: tuple[str, ...] = ()

    def argv(self, out: Path) -> list[str]:
        return ["run", "--n", str(self.n), "--x", str(self.x), "--q", str(self.q),
                "--seed", str(self.seed), *self.flags, "--out", str(out)]


def check_cli_output(op: CliOp, csv_text: str, summary: str) -> tuple[list[str], dict]:
    """CSV parses with one row per (r1, r2), p_ed <= p_ned, factors divide N."""
    problems = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    width = 1 << op.n.bit_length()
    if not rows or rows[0] != ["r1", "r2", "p_ned", "p_ed"]:
        problems.append("CSV header missing")
    elif len(rows) - 1 != op.q * width:
        problems.append(f"CSV has {len(rows) - 1} rows, expected {op.q * width}")
    else:
        data = np.array(rows[1:], dtype=float)
        if not np.all(data[:, 3] <= data[:, 2]):
            problems.append("p_ed exceeds p_ned in the CSV")
    counts = {}
    try:
        report = json.loads(summary)
    except json.JSONDecodeError:
        return problems + ["stderr summary is not JSON"], counts
    for f in report.get("factors") or []:
        if op.n % f:
            problems.append(f"reported factor {f} does not divide {op.n}")
    samples = report.get("samples", [])
    counts["samples"] = len(samples)
    counts["orders_found"] = sum(s["verified_r"] is not None for s in samples)
    return problems, counts


CLI_CORPUS = Path(__file__).with_name("cli_cold_corpus.json")


def coprime_bases(n: int) -> list[int]:
    return [x for x in range(2, n) if math.gcd(x, n) == 1]


def cli_candidate(i: int) -> CliOp:
    """Candidate ``i`` of the N=33 corpus: base i mod 19, noise seed i // 19 + 1."""
    bases = coprime_bases(33)
    return CliOp(33, bases[i % len(bases)], 1100, 1 + i // len(bases))


CLI_MAIN = "import sys; from shorsim.cli import main; sys.exit(main())"


def run_cli(op: CliOp, root: Path, workdir: Path) -> OpResult:
    """One ``shorsim run`` in a fresh interpreter, with the output checks."""
    out = workdir / "cli-op.csv"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, "-c", CLI_MAIN, *op.argv(out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=child_env(root))
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss / 1024.0
    lines = err.decode().strip().splitlines()
    summary = lines[-1] if lines else ""
    if proc.returncode != 0 or not out.exists():
        return OpResult(False, "", {}, [f"exit code {proc.returncode}: {summary}"],
                        rss)
    csv_text = out.read_text()
    problems, counts = check_cli_output(op, csv_text, summary)
    digest = sha256_hex(csv_text.encode(), summary.encode())
    return OpResult(not problems, digest, counts, problems, rss)


class CliCold:
    """Every op is a fresh interpreter running ``shorsim run``."""

    name = "cli-cold"
    # One N=15, two N=21 and two N=33 runs per cycle of five.  The three
    # instances' op times do not overlap, so the median op is an N=21 one
    # (20% to 60% of the sorted ops) and the p70 tail an N=33 one (60% to
    # 100%), whatever the run length.
    PATTERN = ((15, 130), (21, 512), (21, 512), (33, 1100), (33, 1100))
    prefix = len(PATTERN)
    TAIL_P = 70.0
    min_ops = 0
    # Measured with the children on the probe's vCPU (see __init__): ops
    # slowed 1.28-1.36x while the probe slowed 1.8x; (1.32 - 1) / 0.8 = 0.4.
    PROBE_SHARE = 0.4
    COUNT = 200

    def __init__(self, seed: int, tr, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        # Each vCPU has its own speed phase.  Pinned to one, this process and
        # every child run where the speed probe runs, so the probe sees the
        # phase the ops run in; unpinned, scaling by it made the spread worse.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        rng = np.random.default_rng(np.random.SeedSequence([seed, 33]))
        # N=33 inputs come from a screened corpus, one per cost stratum in
        # turn (see make_corpus.py); N=15 and N=21 ones are drawn freely.
        corpus = json.loads(CLI_CORPUS.read_text())
        by_id = {e["id"]: e for e in corpus["entries"]}
        strata = corpus_strata(corpus)
        order = alternating(len(strata))
        self.largest = max(corpus["entries"], key=lambda e: (e["rss_mb"], e["id"]))
        self.ops = []
        drawn33 = 0
        for i in range(self.COUNT):
            n, q = self.PATTERN[i % len(self.PATTERN)]
            if n == 33:
                e = by_id[int(rng.choice(strata[order[drawn33 % len(order)]]))]
                drawn33 += 1
                self.ops.append(CliOp(n, e["x"], q, e["seed"]))
            else:
                self.ops.append(CliOp(n, int(rng.choice(coprime_bases(n))), q,
                                      int(rng.integers(1, 2**31))))
        self.probe_op = None
        self.largest_rss_mb = 0.0

    def network_check(self, tr) -> list[str]:
        """The corpus input with the highest peak, run once untimed and
        checked; its peak counts in ``peak_rss_mb`` as the largest input
        the workload can draw."""
        e = self.largest
        result = run_cli(CliOp(33, e["x"], 1100, e["seed"]), self.root, self.workdir)
        self.largest_rss_mb = result.rss_mb or 0.0
        return result.problems

    def warmup(self, tr) -> None:
        pass

    def run_op(self, i: int, tr) -> OpResult:
        return run_cli(self.ops[i % len(self.ops)], self.root, self.workdir)

    def replay_op(self, i: int, tr) -> OpResult:
        return replay_cli(self.ops[i % len(self.ops)], tr, self.workdir)

    def peak_rss_mb(self, results: list[OpResult]) -> float:
        """The largest child peak, that of the corpus's largest input."""
        return max([self.largest_rss_mb]
                   + [r.rss_mb for r in results if r.rss_mb is not None])


def replay_cli(op: CliOp, tr, workdir: Path) -> OpResult:
    """One ``shorsim run`` in this process, calling the layers in
    run_experiment's order, and checking the replay against run_experiment."""
    out = workdir / "cli-replay.csv"
    cfg, _args = tr.call("cli.parse_config", shcli.parse_config, op.argv(out))
    report = tr.call("pipeline.run_experiment", pipeline.run_experiment, cfg)
    problems = []
    inst = build_instance(cfg.n, int(cfg.x), cfg.q, tr)
    tr.call("gates.compile_masks", compile_masks, inst.net)
    rep_seeds = [int(s.generate_state(1)[0])
                 for s in np.random.SeedSequence(cfg.seed).spawn(cfg.repetitions)]
    counts = {"components_final": 0, "fourier_rows": 0, "ed_acceptance": 0.0,
              "network_gates": len(inst.net.gates), "samples": 0, "orders_found": 0}
    neds, eds = [], []
    for rep_seed, rep in zip(rep_seeds, report.repetitions):
        schedule = tr.call("simulator.sample_schedule", S.sample_schedule,
                           cfg.n_events, inst.layout.qubit_count, rep_seed, cfg.law)
        state = tr.call("simulator.init_state", S.init_state, cfg.q, inst.layout)
        state = tr.call("simulator.run", S.run, state, inst.net, schedule,
                        cfg.watchdog)
        counts["components_final"] += state.component_count
        state = tr.call("simulator.fourier_first_register",
                        S.fourier_first_register, state, cfg.q, inst.layout)
        counts["fourier_rows"] += state.component_count
        ned = tr.call("simulator.distribution_ned", S.distribution_ned, state,
                      inst.layout, cfg.q)
        ed = tr.call("simulator.distribution_ed", S.distribution_ed, state,
                     inst.layout, cfg.q)
        counts["ed_acceptance"] += ed.total()
        problems += check_tables(state, ned.table, ed.table)
        if not (np.array_equal(ned.table, rep.ned.table)
                and np.array_equal(ed.table, rep.ed.table)):
            problems.append("replayed tables differ from run_experiment's")
        neds.append(ned.table)
        eds.append(ed.table)
        with tr.span("pipeline.sampling"):
            for s in rep.samples:
                order, _ = pipeline.continued_fraction_order(s.c, cfg.q, cfg.n,
                                                             report.x)
                if order != s.verified_order:
                    problems.append(f"order for c={s.c} differs from run_experiment's")
            if rep.order is not None:
                pipeline.extract_factors(report.x, rep.order, cfg.n)
    tr.call("oracles.outcome_table_oracle", oracles.outcome_table_oracle,
            cfg.n, report.x, cfg.q)
    ned_mean = S.Distribution(np.mean(neds, axis=0), "ned")
    ed_mean = S.Distribution(np.mean(eds, axis=0), "ed")
    with open(out, "w") as fh:
        tr.call("cli.emit_distribution", shcli.emit_distribution,
                ned_mean, ed_mean, "csv", fh)
    with tr.span("bench.check"):
        csv_text = out.read_text()
        summary = report.to_json()
        more, cli_counts = check_cli_output(op, csv_text, summary)
        problems += more
        counts.update(cli_counts)
        digest = sha256_hex(csv_text.encode(), summary.encode())
    return OpResult(not problems, digest, counts, problems)


WORKLOADS = {"sweep15": Sweep15, "wide-noisy": WideNoisy, "cli-cold": CliCold}
