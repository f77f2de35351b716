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
from .gates import Network, RegisterLayout, _integer, network_to_text, validate_network
from .oracles import exhaustive_network_check, modpow, direct_outcome_table, folded_outcome_table
from .pipeline import (ExperimentConfig, ideal_distribution,
                       repetition_seeds, run_experiment)
from .simulator import (ComponentBudgetError, Distribution,
                        ExponentialDecay, NoiseSchedule, SparseState, StaticDecay,
                        distribution_ed, distribution_ned, outcome_tables,
                        fourier_first_register, init_state, run, sample_schedule)


def build_parser() -> argparse.ArgumentParser:
    """A subparser per command, set as its namespace's ``parser`` to refuse with."""
    parser = argparse.ArgumentParser(prog="shorsim")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a factoring experiment")
    add = runp.add_argument
    add("--n", type=int, default=ExperimentConfig.n)
    add("--x", default=str(ExperimentConfig.x))
    add("--q", type=int, default=ExperimentConfig.q)
    add("--events", type=int, default=ExperimentConfig.n_events)
    laws = runp.add_mutually_exclusive_group()
    laws.add_argument("--p1", type=float, default=None,
                      help="time-independent persistence probability")
    laws.add_argument("--gamma", type=float, default=ExperimentConfig.law.gamma,
                      help="exponential decay rate (default %(default)s)")
    add("--watchdog", choices=["on", "off", "strict"], default=ExperimentConfig.watchdog)
    add("--seed", type=int, default=ExperimentConfig.seed)
    add("--reps", type=int, default=ExperimentConfig.repetitions)
    add("--r2-slice", type=int, default=None)
    add("--out", default=None)
    add("--format", choices=["csv", "json", "gnuplot"], default="csv")

    buildp = sub.add_parser("build", help="emit the exponentiation network")
    buildp.add_argument("--n", type=int, default=ExperimentConfig.n)
    buildp.add_argument("--x", type=int, default=ExperimentConfig.x)
    buildp.add_argument("--q", type=int, default=None)
    buildp.add_argument("--out", default=None)
    buildp.add_argument("--report", action="store_true",
                        help="emit the resource report as JSON instead: "
                        "formula and built qubit and gate counts")

    for cmd in (runp, buildp, sub.add_parser("verify", help="run the brute-force oracle suite")):
        cmd.set_defaults(parser=cmd)
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


def _out(path: str | None):
    """The file ``--out`` names, opened for writing, or stdout if it names none."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def parse_config(argv: list[str]) -> tuple[ExperimentConfig, argparse.Namespace]:
    """Turn `run` arguments, with or without the leading ``"run"``, into a
    config, through ``build_parser``'s ``run`` command.  A value out of range
    is a usage error of that command: a decay law that is not a probability
    or a finite rate >= 0, whatever ``ExperimentConfig`` refuses (as
    ``--<flag>: <its message>``), an ``--r2-slice`` outside ``0..2**L - 1``,
    ``--format gnuplot`` without ``--r2-slice`` and a non-empty ``--out``,
    and an ``--out`` in a missing directory or naming one (for gnuplot, any
    file of its prefix).  A base sharing a factor with n passes, for the gcd
    shortcut; ``--x random`` draws the base from ``2..n-1``, seeded by
    ``--seed``, once the config has accepted them."""
    argv = list(argv)
    return _parse(argv if argv[:1] == ["run"] else ["run", *argv])


def _parse(argv: list[str]) -> tuple[ExperimentConfig | None, argparse.Namespace]:
    """The command line parsed, what its command does not take refused by that
    command's parser, and for ``run`` the config ``parse_config`` makes (else None)."""
    args, extra = build_parser().parse_known_args(argv)
    parser = args.parser
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command != "run":
        return None, args
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
# Each text format's head; the record separator; the templates of a
# record's r1 and r2 pieces, each ending with what follows its number; what
# follows the ned text and the ed text; the tail; and the steps that turn a
# probability into its text (JSON's is the float the 12-digit text parses
# to, as json.dump writes it: 1.0 stays "1.0", 5e-324 "5e-324").
_TEXT_FORMATS = {
    "csv": ("r1,r2,p_ned,p_ed\n", "", "{},", "{},", ",", "\n", "", (_TWELVE_DIGITS,)),
    "json": ("[", ", ", '{{"r1": {}, "r2": ', '{}, "p_ned": ', ', "p_ed": ', "}", "]\n",
             (_TWELVE_DIGITS, float, repr)),
}


def _bit_patterns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of some values as float64, as ascending
    int64 (so -0.0 stays apart from 0.0), and each value's index among them."""
    return np.unique(values.astype(np.float64, copy=False).view(np.int64),
                     return_inverse=True)


def _texts(bits: np.ndarray, steps: tuple) -> list[str]:
    """The text of each float64 bit pattern: ``steps`` applied in turn."""
    texts = bits.view(np.float64).tolist()
    for step in steps:
        texts = list(map(step, texts))
    return texts


def _column(ned: Distribution, r2_slice) -> int:
    """``r2_slice`` as a column of the tables; anything else is a ``ValueError``."""
    width = ned.table.shape[1]
    if not 0 <= (column := _integer(r2_slice, "r2_slice")) < width:
        raise ValueError(f"r2_slice {r2_slice} outside 0..{width - 1}")
    return column


def emit_distribution(ned: Distribution, ed: Distribution, fmt: str, sink,
                      r2_slice: int | None = None) -> None:
    """Write the outcome tables to ``sink`` as csv or json (the bytes
    ``json.dump`` gives), every column or column ``r2_slice`` only, at 12
    significant digits, ``CSV_CHUNK_ROWS`` rows at a time (whole
    first-register rows), so memory stays bounded whatever q is.  A chunk is
    one join of text pieces, with no per-record template: each
    first-register text repeated per column, the second-register texts made
    once, and the probability texts, each carrying the punctuation after it;
    a bit pattern in either table is formatted once per chunk.  An
    ``r2_slice`` not a column of the tables, and any other format, is a
    ``ValueError`` before anything is written."""
    q, width = ned.table.shape
    columns = list(range(width)) if r2_slice is None else [_column(ned, r2_slice)]
    if fmt not in _TEXT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    head, sep, r1_form, r2_form, ned_end, ed_end, tail, steps = _TEXT_FORMATS[fmt]
    chunk = max(1, CSV_CHUNK_ROWS // max(1, len(columns)))  # first-register rows
    r2_texts = np.array([r2_form.format(r2) for r2 in columns], dtype=object)
    sink.write(head)
    for a in range(0, q if columns else 0, chunk):
        b = min(a + chunk, q)
        bits, which = _bit_patterns(np.concatenate([ned.table[a:b, columns],
                                                    ed.table[a:b, columns]]).ravel())
        texts = _texts(bits, steps)
        which = which.reshape(2, b - a, len(columns))  # ned, then ed
        # each record's four pieces, each carrying the punctuation after it
        pieces = np.empty((b - a, len(columns), 4), dtype=object)
        pieces[..., 0] = np.array([sep + r1_form.format(r1) for r1 in range(a, b)],
                                  dtype=object)[:, None]
        pieces[..., 1] = r2_texts
        for k, end, cells in ((2, ned_end, which[0]), (3, ed_end, which[1])):
            pieces[..., k] = np.array([text + end for text in texts], dtype=object)[cells]
        if not a:  # no separator before the first record
            pieces[0, 0, 0] = r1_form.format(0)
        sink.write("".join(pieces.ravel().tolist()))
    sink.write(tail)


def emit_gnuplot(ned: Distribution, ed: Distribution, exact: np.ndarray, r2_slice: int,
                 prefix: str) -> None:
    """Write column ``r2_slice`` of the exact, traced and post-selected tables
    to the ``_gnuplot_files`` of ``prefix``: a ``.dat`` file per series, each
    distinct value formatted once at 12 significant digits, and a script
    plotting the three stacked.  ``emit_distribution``'s ``r2_slice`` refusal
    and an empty prefix are a ``ValueError`` before any file is written."""
    column = _column(ned, r2_slice)
    if not prefix:
        raise ValueError("gnuplot output needs a non-empty file prefix")
    files = _gnuplot_files(prefix)
    series = {"exact": exact, "ned": ned.table, "ed": ed.table}
    for name, table in series.items():
        bits, which = _bit_patterns(table[:, column])
        texts = _texts(bits, (_TWELVE_DIGITS,))  # each distinct value once
        with open(files[name], "w") as fh:
            fh.write("".join(map("{} {}\n".format, range(len(table)),
                                 map(texts.__getitem__, which.tolist()))))
    with open(files["gp"], "w") as fh:
        fh.write(f'set terminal pngcairo size 800,900\nset output "{Path(prefix)}.png"\n'
                 'set multiplot layout 3,1\nset xlabel "first register"\n'
                 + "".join(f'set ylabel "P"\nplot "{files[name]}" with impulses title "{name}"\n'
                           for name in series) + "unset multiplot\n")


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
            emit_gnuplot(ned, ed, ideal_distribution(cfg.n, report.x, cfg.q).table,
                         args.r2_slice, args.out)
        else:
            with _out(args.out) as fh:
                emit_distribution(ned, ed, args.format, fh, args.r2_slice)
    print(report.to_json(), file=sys.stderr)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    """Emit the network, or its resource report, through ``--out``'s file or
    stdout; a usage error of ``build`` is an instance that ``run`` refuses,
    a base sharing a factor with n, and an ``--out`` that ``run`` refuses.
    Without ``--q``, q is n^2, and a default q out of range names ``--n``."""
    _check_out(args.parser, [args.out])
    q = args.q if args.q is not None else args.n * args.n
    try:
        params = ArithParams.create(args.n, args.x, q)
    except ConfigError as err:
        flag, message = err.field, str(err)
        if flag == "q" and args.q is None:
            flag, message = "n", f"the default q = n^2 is out of range ({message}); pass --q"
        args.parser.error(f"--{flag}: {message}")
    layout = RegisterLayout.for_factoring(params.bits, q=params.q)
    net = build_modexp(params, layout)
    with _out(args.out) as fh:
        if args.report:
            report = ResourceReport(qubit_count_formula(params.bits), len(net.gates),
                                    gate_count_formula(params.bits)).as_dict()
            report["qubits_built"] = layout.qubit_count
            fh.write(json.dumps(report, sort_keys=True) + "\n")
        else:
            fh.write(network_to_text(net))
    return 0


def _cmd_verify() -> int:
    """Run the oracle suite; exit 0 only if every check passes."""
    failures = 0

    def fresh_copy(net: Network) -> Network:
        return Network(net.gates, net.qubit_count, net.checkpoints)  # no masks compiled

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
        want = values.copy()
        for c, t in zip(*(masks.tolist() for masks in net.masks)):
            want ^= ((want & c) == c) * t  # flip t where every control is set
        # the check above compiled net's masks, so a run on it is a rerun
        # through tables; a fresh network's first run builds none
        for name, network, which in (
                ("plane", fresh_copy(net), "from a fresh network's first run, on bit planes"),
                ("grouped", net, "from a rerun of the checked network, through its groups")):
            out = run(state, network, NoiseSchedule([], StaticDecay(1.0))).comp
            check(f"{name} pass equals the gate-by-gate reference on a < q and 1,000 random "
                  f"basis strings, {which}, {instance}", np.array_equal(out, want))
        # seed 1: each rerun below fires events at block edges (3 at N=15, 6 at N=33)
        cfg = ExperimentConfig(n=n, x=x, q=q, seed=1)
        schedule = sample_schedule(cfg.n_events, layout.qubit_count,
                                   repetition_seeds(cfg)[0], cfg.law)
        reruns = {}
        for watchdog, groups in (("off", "groups"), ("on", "groups"),
                                 ("strict", "checkpoint_groups")):
            first = run(init_state(q, layout), fresh_copy(net), schedule, watchdog)
            again = reruns[watchdog] = run(init_state(q, layout), net, schedule, watchdog)
            check(f"{cfg.n_events}-event run, watchdog {watchdog}: a fresh network's first "
                  f"run and a rerun of the checked network, through its {groups}, give "
                  f"byte-equal states, {instance}",
                  all(getattr(first, f).tobytes() == getattr(again, f).tobytes()
                      for f in ("comp", "env", "amp")))
        ned, ed = outcome_tables(reruns[cfg.watchdog], layout, q)
        state = fourier_first_register(reruns[cfg.watchdog], q, layout)
        check(f"outcome_tables of the {cfg.watchdog} rerun equal distribution_ned's and _ed's "
              f"of its transformed state, byte for byte, noisy run {instance} seed {cfg.seed}",
              ned.table.tobytes() == distribution_ned(state, layout, q).table.tobytes()
              and ed.table.tobytes() == distribution_ed(state, layout, q).table.tobytes())
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    cfg, args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.command == "run":
        return _cmd_run(cfg, args)
    if args.command == "build":
        return _cmd_build(args)
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
