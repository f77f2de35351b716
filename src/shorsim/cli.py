"""Command-line front end: build networks, run experiments, emit plot data."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .arithmetic import (ArithParams, ConfigError, ResourceReport, build_modexp,
                         gate_count_formula, qubit_count_formula)
from .gates import (Network, RegisterLayout, apply_network_batch, network_to_text,
                    validate_network)
from .oracles import exhaustive_network_check, modpow, direct_outcome_table, folded_outcome_table
from .pipeline import (ExperimentConfig, ideal_distribution,
                       repetition_seeds, run_experiment)
from .simulator import (ComponentBudgetError, Distribution,
                        ExponentialDecay, NoiseSchedule, SparseState, StaticDecay,
                        distribution_ed, distribution_ned,
                        fourier_first_register, init_state, run, sample_schedule)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shorsim")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="simulate a factoring experiment")  # parse_config parses it

    buildp = sub.add_parser("build", help="emit the exponentiation network")
    buildp.add_argument("--n", type=int, default=15)
    buildp.add_argument("--x", type=int, default=7)
    buildp.add_argument("--q", type=int, default=None)
    buildp.add_argument("--out", default=None)
    buildp.add_argument("--report", action="store_true",
                        help="emit the resource report as JSON instead: "
                        "formula and built qubit and gate counts")

    sub.add_parser("verify", help="run the brute-force oracle suite")
    return parser


def _gnuplot_files(prefix: str) -> dict[str, str]:
    """A gnuplot ``--out`` prefix's ``.dat`` file per series, and its script ("gp")."""
    return {**{name: f"{Path(prefix)}_{name}.dat" for name in ("exact", "ned", "ed")},
            "gp": f"{Path(prefix)}.gp"}


def _check_out(parser: argparse.ArgumentParser, paths: list[str | None]) -> None:
    """A usage error naming ``--out`` if a file it names lies in a directory
    that does not exist or is a directory; no path, or "", means stdout."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            parser.error(f"--out: directory {str(Path(path).parent)!r} does not exist")
        if Path(path).is_dir():
            parser.error(f"--out: {path!r} is a directory")


def parse_config(argv: list[str]) -> tuple[ExperimentConfig, argparse.Namespace]:
    """Turn `run` arguments into a config.

    A value out of range is a usage error: a decay law that is not a
    probability or a finite rate >= 0, whatever ``ExperimentConfig``
    refuses, as ``--<flag>: <its message>``, an ``--r2-slice`` outside
    ``0..2**L - 1``, ``--format gnuplot`` without both ``--r2-slice`` and a
    non-empty ``--out``, an ``--out`` whose directory does not exist, and
    an ``--out`` naming a directory, or for gnuplot a prefix one of whose
    files is one.  A base sharing a factor with n passes, for the gcd
    shortcut.  ``--x random`` draws the base from ``2..n-1`` with a
    generator seeded by ``--seed``, once the config has accepted them.
    """
    argv = list(argv)
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = argparse.ArgumentParser(prog="shorsim run")
    add = parser.add_argument
    add("--n", type=int, default=15)
    add("--x", default="7")
    add("--q", type=int, default=130)
    add("--events", type=int, default=10)
    laws = parser.add_mutually_exclusive_group()
    laws.add_argument("--p1", type=float, default=None,
                     help="time-independent persistence probability")
    laws.add_argument("--gamma", type=float, default=2.5,
                     help="exponential decay rate (default 2.5)")
    add("--watchdog", choices=["on", "off", "strict"], default="on")
    add("--seed", type=int, default=1)
    add("--reps", type=int, default=1)
    add("--r2-slice", type=int, default=None)
    add("--out", default=None)
    add("--format", choices=["csv", "json", "gnuplot"], default="csv")
    args = parser.parse_args(argv)
    try:
        law = StaticDecay(args.p1) if args.p1 is not None else ExponentialDecay(args.gamma)
    except ValueError as err:
        parser.error(f"--{'p1' if args.p1 is not None else 'gamma'}: {err}")
    try:
        x = args.x if args.x == "random" else int(args.x)
    except ValueError:
        parser.error(f"--x: {args.x!r} is neither an integer nor 'random'")
    try:  # a random base stands in as 2 until n and the seed pass
        cfg = ExperimentConfig(n=args.n, x=2 if x == "random" else x, q=args.q,
                               n_events=args.events, law=law, watchdog=args.watchdog,
                               seed=args.seed, repetitions=args.reps)
    except ConfigError as err:
        flag = {"n_events": "events", "repetitions": "reps"}.get(err.field, err.field)
        parser.error(f"--{flag}: {str(err).removeprefix(err.field + ': ')}")
    if x == "random":
        cfg = dataclasses.replace(cfg, x=int(np.random.default_rng(cfg.seed).integers(2, cfg.n)))
    width = 1 << args.n.bit_length()
    if args.r2_slice is not None and not 0 <= args.r2_slice < width:
        parser.error(f"--r2-slice: {args.r2_slice} outside 0..{width - 1}")
    if args.format == "gnuplot" and (not args.out or args.r2_slice is None):
        parser.error("--format: gnuplot output needs --out and --r2-slice")
    _check_out(parser, [*_gnuplot_files(args.out).values()] if args.format == "gnuplot"
               else [args.out])
    return cfg, args


CSV_CHUNK_ROWS = 1 << 16  # CSV rows or JSON records formatted and written at a time
_TWELVE_DIGITS = "{:.12g}".format
# Each text format's head, record template, separator, tail, and the steps
# that turn a probability into its text (JSON's is the float the 12-digit
# text parses to, as json.dump writes it: 1.0 stays "1.0", 5e-324 "5e-324").
_TEXT_FORMATS = {
    "csv": ("r1,r2,p_ned,p_ed\n", "{},{},{},{}\n".format, "", "", (_TWELVE_DIGITS,)),
    "json": ("[", '{{"r1": {}, "r2": {}, "p_ned": {}, "p_ed": {}}}'.format, ", ", "]\n",
             (_TWELVE_DIGITS, float, repr)),
}


def _number_texts(values: np.ndarray, steps: tuple) -> list[str]:
    """The text of each value: ``steps`` applied in turn, once per distinct
    bit pattern (so -0.0 stays apart from 0.0)."""
    bits, which = np.unique(values.astype(np.float64, copy=False).view(np.int64),
                            return_inverse=True)
    texts = bits.view(np.float64).tolist()
    for step in steps:
        texts = list(map(step, texts))
    return [texts[i] for i in which.tolist()]


def emit_distribution(ned: Distribution, ed: Distribution, fmt: str, sink,
                      exact: np.ndarray | None = None,
                      r2_slice: int | None = None,
                      out_path: str | None = None) -> None:
    """Write the outcome tables in one of the plot-ready formats.

    csv/json go to ``sink``, formatted and written ``CSV_CHUNK_ROWS`` rows
    at a time (whole first-register rows), so memory stays bounded whatever
    q is; json is a list of records, the bytes ``json.dump`` gives.  gnuplot
    needs a non-empty ``out_path`` as a file prefix and ``r2_slice`` to pick
    the plotted column, and writes its ``_gnuplot_files``: a script plotting
    exact, traced and post-selected series stacked, and their data.  Every format
    rounds probabilities to 12 significant digits, each distinct value once.
    """
    if fmt == "gnuplot":
        if not out_path or r2_slice is None:
            raise ValueError("gnuplot output needs --out and --r2-slice")
        files = _gnuplot_files(out_path)
        series = {"ned": ned.table[:, r2_slice], "ed": ed.table[:, r2_slice]}
        if exact is not None:
            series = {"exact": exact[:, r2_slice], **series}
        for name, column in series.items():
            with open(files[name], "w") as fh:
                fh.write("".join(map("{} {}\n".format, range(len(column)),
                                     _number_texts(column, (_TWELVE_DIGITS,)))))
        with open(files["gp"], "w") as fh:
            fh.write(f"set terminal pngcairo size 800,{300 * len(series)}\n"
                     f"set output \"{Path(out_path)}.png\"\n"
                     f"set multiplot layout {len(series)},1\n"
                     f"set xlabel \"first register\"\n")
            for name in series:
                fh.write(f"set ylabel \"P\"\n"
                         f"plot \"{files[name]}\" with impulses "
                         f"title \"{name}\"\n")
            fh.write("unset multiplot\n")
        return
    if fmt not in _TEXT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    head, record, sep, tail, steps = _TEXT_FORMATS[fmt]
    q, width = ned.table.shape
    columns = [r2 for r2 in range(width) if r2_slice in (None, r2)]
    chunk = max(1, CSV_CHUNK_ROWS // max(1, len(columns)))  # first-register rows
    sink.write(head)
    for a in range(0, q if columns else 0, chunk):
        b = min(a + chunk, q)
        r1 = np.repeat(np.arange(a, b), len(columns)).tolist()
        p_ned, p_ed = (_number_texts(table[a:b, columns].ravel(), steps)
                       for table in (ned.table, ed.table))
        sink.write((sep if a else "") + sep.join(map(record, r1, columns * (b - a),
                                                      p_ned, p_ed)))
    sink.write(tail)


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    """Run the experiment and emit its tables; a run whose state would pass
    ``simulator.MAX_COMPONENTS`` exits 1 with its one-line reason."""
    try:
        report = run_experiment(cfg)
    except ComponentBudgetError as err:
        print(f"shorsim run: error: {err}", file=sys.stderr)
        return 1
    if report.repetitions:  # none after the gcd shortcut
        ned = Distribution(np.mean([r.ned.table for r in report.repetitions], axis=0), "ned")
        ed = Distribution(np.mean([r.ed.table for r in report.repetitions], axis=0), "ed")
        if args.format == "gnuplot":
            exact = ideal_distribution(cfg.n, report.x, cfg.q).table
            emit_distribution(ned, ed, "gnuplot", None, exact=exact,
                              r2_slice=args.r2_slice, out_path=args.out)
        else:
            with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
                emit_distribution(ned, ed, args.format, fh, r2_slice=args.r2_slice)
    print(report.to_json(), file=sys.stderr)
    return 0


def _cmd_build(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Emit the network, or its resource report; an instance that ``run``
    refuses is a usage error, and so is a base sharing a factor with n.
    Without ``--q``, q is n^2, and a default q out of range names ``--n``.
    An ``--out`` whose directory does not exist, or that names a
    directory, is a usage error too."""
    _check_out(parser, [args.out])
    q = args.q if args.q is not None else args.n * args.n
    try:
        params = ArithParams.create(args.n, args.x, q)
    except ConfigError as err:
        flag, message = err.field, str(err)
        if flag == "q" and args.q is None:
            flag, message = "n", f"the default q = n^2 is out of range ({message}); pass --q"
        parser.error(f"--{flag}: {message}")
    layout = RegisterLayout.for_factoring(params.bits, q=params.q)
    net = build_modexp(params, layout)
    if args.report:
        report = ResourceReport(qubit_count_formula(params.bits), len(net.gates),
                                gate_count_formula(params.bits)).as_dict()
        report["qubits_built"] = layout.qubit_count
        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        text = network_to_text(net)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify() -> int:
    """Run the oracle suite; exit 0 only if every check passes."""
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    for n, x, q in [(15, 7, 130), (15, 4, 130), (21, 2, 50)]:
        direct = direct_outcome_table(n, x, q)
        gap = float(np.max(np.abs(direct - folded_outcome_table(n, x, q))))
        check(f"probability formula self-check n={n} x={x} q={q} (gap {gap:.2e})",
              gap <= 1e-12)
        check(f"probability table normalization n={n} x={x} q={q}",
              abs(float(direct.sum()) - 1.0) <= 1e-12)
        gap = float(np.max(np.abs(ideal_distribution(n, x, q).table - direct)))
        check(f"closed-form exact table within 1e-12 of the oracle n={n} x={x} q={q} "
              f"(gap {gap:.2e})", gap <= 1e-12)

    for n, x, q in [(15, 7, 130), (33, 5, 1100)]:  # N=33: 35 qubits, 5 gather bytes
        layout = RegisterLayout.for_factoring(n.bit_length(), q=q)
        net = build_modexp(ArithParams.create(n, x, q), layout)
        instance = f"n={n} x={x} q={q}"
        check(f"exponentiation network well formed {instance}",
              not validate_network(net, layout))
        bad = exhaustive_network_check(
            net, lambda a: modpow(x, a, n), range(q), in_wires=list(layout.reg1),
            out_wires=list(layout.reg2), zero_wires=layout.work_qubits)
        check(f"exponentiation network matches modpow for all a < q, {instance}", not bad)
        rng = np.random.default_rng(q)
        values = np.concatenate([np.arange(q, dtype=np.int64) << layout.reg1.start,
                                 rng.integers(0, 1 << net.qubit_count, 1000)])
        amp = np.full(len(values), len(values) ** -0.5, dtype=np.complex128)
        state = SparseState(net.qubit_count, 0, values, np.zeros_like(values), amp)
        want = apply_network_batch(values, net)
        fresh = Network(net.gates, net.qubit_count, net.checkpoints)  # no masks compiled
        for name, which in (("plane", "from a fresh network's first run, on bit planes"),
                            ("grouped", "from its second run, through its groups")):
            out = run(state, fresh, NoiseSchedule([], StaticDecay(1.0))).comp
            check(f"{name} pass equals apply_network_batch on a < q and 1,000 random "
                  f"basis strings, {which}, {instance}", np.array_equal(out, want))
        # seed 1: each rerun below fires events at block edges (3 at N=15, 6 at N=33)
        cfg = ExperimentConfig(n=n, x=x, q=q, seed=1)
        schedule = sample_schedule(cfg.n_events, layout.qubit_count,
                                   repetition_seeds(cfg)[0], cfg.law)
        for watchdog, groups in (("off", "groups"), ("on", "groups"),
                                 ("strict", "checkpoint_groups")):
            fresh, runs = Network(net.gates, net.qubit_count, net.checkpoints), []
            for _ in range(2):
                out = run(init_state(q, layout), fresh, schedule, watchdog)
                runs.append((out.comp.tobytes(), out.env.tobytes(), out.amp.tobytes()))
            check(f"{cfg.n_events}-event run, watchdog {watchdog}: a fresh network's first "
                  f"run and its second, through its {groups}, give byte-equal states, "
                  f"{instance}", runs[0] == runs[1])
        state = fourier_first_register(run(init_state(q, layout), net, schedule,
                                           cfg.watchdog), q, layout)
        rep = run_experiment(cfg).repetitions[0]
        check("run_experiment's tables equal distribution_ned's and _ed's of the transformed "
              f"state, byte for byte, noisy run {instance} seed {cfg.seed}",
              rep.ned.table.tobytes() == distribution_ned(state, layout, q).table.tobytes()
              and rep.ed.table.tobytes() == distribution_ed(state, layout, q).table.tobytes())
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "run":
        cfg, args = parse_config(argv)
        return _cmd_run(cfg, args)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "build":
        return _cmd_build(parser, args)
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
