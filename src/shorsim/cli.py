"""Command-line front end: build networks, run experiments, emit plot data."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .arithmetic import ArithParams, build_modexp, resource_estimate
from .gates import (RegisterLayout, apply_network_batch, network_to_text,
                    validate_network)
from .oracles import exhaustive_network_check, modpow, direct_outcome_table, folded_outcome_table
from .pipeline import ExperimentConfig, ideal_distribution, run_experiment
from .simulator import (MAX_EVENTS, Distribution, ExponentialDecay, NoiseSchedule,
                        SparseState, StaticDecay, run)


def _add_run_flags(runp: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Add the ``run`` flags to a parser; returns their actions by name."""
    add = runp.add_argument
    flags = [add("--n", type=int, default=15), add("--x", default="7"),
             add("--q", type=int, default=130), add("--events", type=int, default=10)]
    law = runp.add_mutually_exclusive_group()
    flags += [law.add_argument("--p1", type=float, default=None,
                               help="time-independent persistence probability"),
              law.add_argument("--gamma", type=float, default=None,
                               help="exponential decay rate (default 2.5)")]
    flags += [add("--watchdog", choices=["on", "off", "strict"], default="on"),
              add("--seed", type=int, default=1), add("--reps", type=int, default=1),
              add("--r2-slice", type=int, default=None), add("--out", default=None),
              add("--format", choices=["csv", "json", "gnuplot"], default="csv")]
    return {flag.dest: flag for flag in flags}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shorsim")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("run", help="simulate a factoring experiment"))

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


def _config_value(parser: argparse.ArgumentParser, flag: argparse.Action,
                  key: str, value) -> object:
    """A config-file value converted as its flag's text is on the command
    line: by the flag's type, then checked against its choices.  Only a
    JSON string or number can stand for a flag's text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        parser.error(f"config file key {key!r}: {json.dumps(value)} is not "
                     "a string or a number")
    text = str(value)
    try:
        value = text if flag.type is None else flag.type(text)
    except ValueError:
        parser.error(f"config file key {key!r}: invalid {flag.type.__name__} "
                     f"value {text!r}")
    if flag.choices is not None and value not in flag.choices:
        parser.error(f"config file key {key!r}: invalid choice {text!r} "
                     f"(choose from {', '.join(flag.choices)})")
    return value


def _check_out(parser: argparse.ArgumentParser, out: str | None) -> None:
    """A usage error naming ``--out`` unless its directory exists; for
    gnuplot, ``--out`` is a file prefix and the same holds."""
    if out is not None and not Path(out).parent.is_dir():
        parser.error(f"--out: directory {str(Path(out).parent)!r} does not exist")


def parse_config(argv: list[str],
                 config_file: str | Path | None = None,
                 ) -> tuple[ExperimentConfig, argparse.Namespace]:
    """Turn `run` arguments (plus optional JSON defaults) into a config.

    The config file, when given, provides values under the same names as the
    flags (``r2_slice`` for ``--r2-slice``), and any other key is a usage
    error.  Each value goes through its flag's type and choices as the
    flag's text would, and one that does not convert is a usage error
    naming the key.  The converted values seed the namespace argparse
    parses into, and argparse fills in defaults only where a value is
    missing, so a flag given in any form it accepts (``--ev 5``,
    ``--events=5``) wins.  A decay law given on the command line
    (``--p1`` or ``--gamma``) replaces the file's law, whichever it is; a
    file naming both laws is a usage error.  A value out of range is a
    usage error too: a
    decay law that is not a probability or a finite rate >= 0, ``--reps``
    below 1, an instance that ``ArithParams.range_problem`` refuses, an
    ``--r2-slice`` outside ``0..2**L - 1``, and ``--format gnuplot``
    without both ``--out`` and ``--r2-slice``, and an ``--out`` whose
    directory does not exist.  A base sharing a factor
    with n passes, for the gcd shortcut.  ``--x random`` draws the base
    from ``2..n-1`` with a generator seeded by ``--seed``.
    """
    argv = list(argv)
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = argparse.ArgumentParser(prog="shorsim run")
    flags = _add_run_flags(parser)
    args = parser.parse_args(argv)  # the command line alone
    if config_file is not None:
        values = {}
        for key, value in json.loads(Path(config_file).read_text()).items():
            if key not in flags:
                parser.error(f"config file key {key!r} is not a run flag")
            values[key] = _config_value(parser, flags[key], key, value)
        if "p1" in values and "gamma" in values:
            parser.error("config file keys 'p1' and 'gamma' are mutually exclusive")
        if args.p1 is not None or args.gamma is not None:
            values.pop("p1", None)
            values.pop("gamma", None)
        args = parser.parse_args(argv, namespace=argparse.Namespace(**values))
    if not 0 <= args.events <= MAX_EVENTS:
        parser.error(f"--events must lie in 0..{MAX_EVENTS}")
    if args.reps < 1:
        parser.error(f"--reps: {args.reps} repetitions, need at least 1")
    try:
        if args.p1 is not None:
            law = StaticDecay(args.p1)
        else:
            law = ExponentialDecay(args.gamma if args.gamma is not None else 2.5)
    except ValueError as err:
        parser.error(f"--{'p1' if args.p1 is not None else 'gamma'}: {err}")
    x = args.x
    if x != "random":
        try:
            x = int(x)
        except ValueError:
            parser.error(f"--x: {x!r} is neither an integer nor 'random'")
    problem = ArithParams.range_problem(args.n, None if x == "random" else x, args.q)
    if problem is not None:
        parser.error(f"--{problem[0]}: {problem[1]}")
    if x == "random":
        x = int(np.random.default_rng(args.seed).integers(2, args.n))
    width = 1 << args.n.bit_length()
    if args.r2_slice is not None and not 0 <= args.r2_slice < width:
        parser.error(f"--r2-slice: {args.r2_slice} outside 0..{width - 1}")
    if args.format == "gnuplot" and (args.out is None or args.r2_slice is None):
        parser.error("--format: gnuplot output needs --out and --r2-slice")
    _check_out(parser, args.out)
    cfg = ExperimentConfig(n=args.n, x=x, q=args.q, n_events=args.events,
                           law=law, watchdog=args.watchdog, seed=args.seed,
                           repetitions=args.reps)
    return cfg, args


CSV_CHUNK_ROWS = 1 << 16  # CSV rows or JSON records formatted and written at a time
_JSON_RECORD = '{{"r1": {}, "r2": {}, "p_ned": {}, "p_ed": {}}}'.format


def emit_distribution(ned: Distribution, ed: Distribution, fmt: str, sink,
                      exact: np.ndarray | None = None,
                      r2_slice: int | None = None,
                      out_path: str | None = None) -> None:
    """Write the outcome tables in one of the plot-ready formats.

    csv/json go to ``sink``, formatted and written ``CSV_CHUNK_ROWS`` rows
    at a time (whole first-register rows), so memory stays bounded whatever
    q is; json is a list of records, the bytes ``json.dump`` gives, with
    each probability rounded to 12 significant digits.  gnuplot needs
    ``out_path`` as a file prefix and ``r2_slice`` to pick the plotted
    column, and writes dat files plus a script showing exact, traced and
    post-selected series stacked.
    """
    q, width = ned.table.shape
    columns = [r2 for r2 in range(width) if r2_slice in (None, r2)]
    step = max(1, CSV_CHUNK_ROWS // max(1, len(columns)))

    def rows(a: int, b: int) -> tuple[list, list, np.ndarray, np.ndarray]:
        """The four columns of first-register rows a..b-1, flat, r1-major."""
        return (np.repeat(np.arange(a, b), len(columns)).tolist(), columns * (b - a),
                ned.table[a:b, columns].ravel(), ed.table[a:b, columns].ravel())

    def json_texts(values: np.ndarray) -> list[str]:
        """Each value as ``json.dump`` writes it rounded to 12 significant
        digits, formatted once per distinct bit pattern (so -0.0 stays
        apart from 0.0)."""
        bits, which = np.unique(values.astype(np.float64, copy=False).view(np.int64),
                                return_inverse=True)
        texts = [repr(float(f"{v:.12g}")) for v in bits.view(np.float64).tolist()]
        return [texts[i] for i in which.tolist()]

    if fmt == "csv":
        sink.write("r1,r2,p_ned,p_ed\n")
        for a in range(0, q, step):
            r1, r2, p_ned, p_ed = rows(a, min(a + step, q))
            sink.write("".join(map("{},{},{:.12g},{:.12g}\n".format, r1, r2,
                                   p_ned.tolist(), p_ed.tolist())))
    elif fmt == "json":
        sink.write("[")
        sep = ""
        for a in range(0, q, step):
            r1, r2, p_ned, p_ed = rows(a, min(a + step, q))
            if r1:
                sink.write(sep + ", ".join(map(_JSON_RECORD, r1, r2, json_texts(p_ned),
                                               json_texts(p_ed))))
                sep = ", "
        sink.write("]\n")
    elif fmt == "gnuplot":
        if out_path is None or r2_slice is None:
            raise ValueError("gnuplot output needs --out and --r2-slice")
        prefix = Path(out_path)
        series = {"ned": ned.table[:, r2_slice], "ed": ed.table[:, r2_slice]}
        if exact is not None:
            series = {"exact": exact[:, r2_slice], **series}
        for name, column in series.items():
            with open(f"{prefix}_{name}.dat", "w") as fh:
                for r1, p in enumerate(column):
                    fh.write(f"{r1} {p:.12g}\n")
        with open(f"{prefix}.gp", "w") as fh:
            fh.write(f"set terminal pngcairo size 800,{300 * len(series)}\n"
                     f"set output \"{prefix}.png\"\n"
                     f"set multiplot layout {len(series)},1\n"
                     f"set xlabel \"first register\"\n")
            for name in series:
                fh.write(f"set ylabel \"P\"\n"
                         f"plot \"{prefix}_{name}.dat\" with impulses "
                         f"title \"{name}\"\n")
            fh.write("unset multiplot\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = run_experiment(cfg)
    if not report.repetitions:
        print(report.to_json(), file=sys.stderr)
        return 0
    ned_mean = np.mean([rep.ned.table for rep in report.repetitions], axis=0)
    ed_mean = np.mean([rep.ed.table for rep in report.repetitions], axis=0)
    ned = Distribution(ned_mean, "ned")
    ed = Distribution(ed_mean, "ed")
    if args.format == "gnuplot":
        exact = ideal_distribution(cfg.n, report.x, cfg.q).table
        emit_distribution(ned, ed, "gnuplot", None, exact=exact,
                          r2_slice=args.r2_slice, out_path=args.out)
    elif args.out:
        with open(args.out, "w") as fh:
            emit_distribution(ned, ed, args.format, fh, r2_slice=args.r2_slice)
    else:
        emit_distribution(ned, ed, args.format, sys.stdout,
                          r2_slice=args.r2_slice)
    print(report.to_json(), file=sys.stderr)
    return 0


def _cmd_build(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Emit the network, or its resource report; an instance that ``run``
    refuses is a usage error, and so is a base sharing a factor with n.
    Without ``--q``, q is n^2, and a default q out of range names ``--n``.
    An ``--out`` whose directory does not exist is a usage error too."""
    _check_out(parser, args.out)
    q = args.q if args.q is not None else args.n * args.n
    problem = ArithParams.range_problem(args.n, args.x, q)
    if problem is not None:
        flag, message = problem
        if flag == "q" and args.q is None:
            flag, message = "n", ("the default q = n^2 is out of range "
                                  f"({message}); pass --q")
        parser.error(f"--{flag}: {message}")
    try:
        params = ArithParams.create(args.n, args.x, q)
    except ValueError as err:  # the gcd rule, the one check left
        parser.error(f"--x: {err}")
    layout = RegisterLayout.for_factoring(params.bits, q=params.q)
    net = build_modexp(params, layout)
    if args.report:
        report = resource_estimate(params.bits).as_dict()
        report["gates_exact"] = len(net.gates)
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
        total = float(direct.sum())
        check(f"probability table normalization n={n} x={x} q={q}",
              abs(total - 1.0) <= 1e-12)

    params = ArithParams.create(15, 7, 130)
    layout = RegisterLayout.for_factoring(params.bits, q=130)
    net = build_modexp(params, layout)
    check("exponentiation network well formed", not validate_network(net, layout))
    bad = exhaustive_network_check(
        net, lambda a: modpow(7, a, 15), range(130),
        in_wires=list(layout.reg1), out_wires=list(layout.reg2),
        zero_wires=layout.work_qubits)
    check("exponentiation network matches modpow for all a < 130", not bad)
    rng = np.random.default_rng(130)
    values = np.concatenate([np.arange(130, dtype=np.int64) << layout.reg1.start,
                             rng.integers(0, 1 << net.qubit_count, 1000)])
    amp = np.full(len(values), len(values) ** -0.5, dtype=np.complex128)
    state = SparseState(net.qubit_count, 0, values, np.zeros_like(values), amp)
    fused = run(state, net, NoiseSchedule([], StaticDecay(1.0))).comp
    check("fused pass equals apply_network_batch on a < 130 and 1,000 random "
          "basis strings, from the network's first run",
          np.array_equal(fused, apply_network_batch(values, net)))
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
