"""Regenerate a corpus of inputs: ``wide_noisy_corpus.json`` for
``wide-noisy`` or ``cli_cold_corpus.json`` for the N=33 ops of ``cli-cold``.

    python3 perfbench/make_corpus.py wide-noisy
    python3 perfbench/make_corpus.py cli-cold

Random inputs of both have a heavy tail.  Random 20-event p1=0.5 schedules
mostly give 10^5 to 10^6 DFT rows, a few 10^7 and more (over 1 GB
resident).  An N=33, q=1100 ``shorsim run`` with default noise flags peaks
anywhere from under 100 MB to over 800 MB, by its base and noise seed.
Drawn freely, a run's throughput and peak memory would hang on whether it
met one of the heavy inputs.

So this script screens candidates.  For ``wide-noisy`` it runs each schedule
with the watchdog off, records its final component count and DFT rows,
keeps those at or below ``CAP_ROWS`` and times one whole op (off, then
strict) on each.  For ``cli-cold`` it runs each (base, seed) pair as a
fresh ``shorsim run`` and records the child's peak memory and wall time,
keeping those at or below ``CAP_MB``.  The benchmark cuts the kept inputs
into equal strata by time and draws one per stratum per cycle from its
seed, so every run sees the same spread of op costs.  The times only order
the corpus; they need not match the machine the benchmark runs on.

Counts and peaks come from the program and the inputs are fixed by their
ids: a change to the program leaves a corpus a valid input set, at most
ordered a little differently by cost than it would be now.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

CANDIDATES = 240  # schedule ids 0..CANDIDATES-1 are screened
CAP_ROWS = 4_000_000  # most DFT rows a kept schedule may give
STRATA = 16  # cost strata; wide-noisy draws one schedule from each per cycle
CLI_CANDIDATES = 114  # six noise seeds for each of the 19 bases of 33
CLI_CAP_MB = 600.0  # highest child peak a kept N=33 input may reach
CLI_STRATA = 12  # cli-cold draws one N=33 input from each per cycle


def measure(ids: list[int], cap_rows: int) -> list[dict]:
    """Components and DFT rows with the watchdog off, and for schedules
    within the cap the time of a whole op (off, then strict)."""
    import numpy as np

    import shorsim as S
    from benchlib import NullTracer
    from workloads import SimOp, build_instance, corpus_schedule, simulate

    tr = NullTracer()
    inst = build_instance(15, 7, 130, tr)
    rest_mask = ~np.int64(inst.layout.reg1_mask())
    simulate(inst, SimOp(corpus_schedule(0, inst.layout.qubit_count), "strict"), tr)
    out = []
    for i in ids:
        schedule = corpus_schedule(i, inst.layout.qubit_count)
        state = S.run(S.init_state(inst.q, inst.layout), inst.net, schedule, "off")
        keys = np.stack([state.comp & rest_mask, state.env], axis=1)
        entry = {"id": i, "components": state.component_count,
                 "rows": len(np.unique(keys, axis=0)) * inst.q}
        if entry["rows"] <= cap_rows:
            t0 = time.perf_counter()
            for mode in ("off", "strict"):
                simulate(inst, SimOp(schedule, mode), tr)
            entry["cost_s"] = round(time.perf_counter() - t0, 3)
        out.append(entry)
    return out


def measure_cli(ids: list[int]) -> list[dict]:
    """Peak memory and wall time of one N=33 ``shorsim run`` per candidate."""
    from workloads import cli_candidate, run_cli

    workdir = HERE / "results"
    workdir.mkdir(exist_ok=True)
    out = []
    for i in ids:
        op = cli_candidate(i)
        t0 = time.perf_counter()
        result = run_cli(op, HERE.parent, workdir)
        cost = time.perf_counter() - t0
        if not result.ok:
            raise RuntimeError(f"candidate {i}: {result.problems}")
        out.append({"id": i, "x": op.x, "seed": op.seed,
                    "rss_mb": round(result.rss_mb, 1), "cost_s": round(cost, 3)})
        print(out[-1], flush=True)
    return out


def main() -> int:
    which = sys.argv[1] if len(sys.argv) == 2 else ""
    if which == "wide-noisy":
        measured = measure(list(range(CANDIDATES)), CAP_ROWS)
        kept = [e for e in measured if e["rows"] <= CAP_ROWS]
        corpus = {"n_events": 20, "p1": 0.5, "watchdog": "off",
                  "candidates": CANDIDATES, "cap_rows": CAP_ROWS,
                  "strata": STRATA, "entries": kept}
        path = HERE / "wide_noisy_corpus.json"
    elif which == "cli-cold":
        measured = measure_cli(list(range(CLI_CANDIDATES)))
        kept = [e for e in measured if e["rss_mb"] <= CLI_CAP_MB]
        corpus = {"n": 33, "q": 1100, "candidates": CLI_CANDIDATES,
                  "cap_mb": CLI_CAP_MB, "strata": CLI_STRATA, "entries": kept}
        path = HERE / "cli_cold_corpus.json"
    else:
        print("usage: make_corpus.py wide-noisy|cli-cold", file=sys.stderr)
        return 2
    path.write_text(json.dumps(corpus, indent=0) + "\n")
    print(f"kept {len(kept)} of {len(measured)} candidates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
