from __future__ import annotations

import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from shorsim import RegisterLayout, arithmetic, cli, oracles, pipeline, simulator
from shorsim.arithmetic import MAX_Q, build_modexp
from shorsim.cli import emit_distribution, emit_gnuplot, main, parse_config
from shorsim.simulator import Distribution, ExponentialDecay, StaticDecay


def make_pair(q=4, width=2, seed=0):
    rng = np.random.default_rng(seed)
    ned = rng.random((q, width))
    ned /= ned.sum()
    ed = ned * rng.random((q, width))
    return Distribution(ned, "ned"), Distribution(ed, "ed")


class TestParseConfig:
    def test_defaults_reproduce_the_standard_setup(self):
        cfg, args = parse_config(["run"])
        assert (cfg.n, cfg.x, cfg.q) == (15, 7, 130)
        assert cfg.n_events == 10
        assert cfg.law == ExponentialDecay(2.5)
        assert cfg.watchdog == "on"

    def test_flag_defaults_are_the_config_defaults(self):
        # stated once, in ExperimentConfig's fields
        assert parse_config(["run"])[0] == pipeline.ExperimentConfig()
        build = cli.build_parser().parse_args(["build"])
        assert (build.n, build.x) == (pipeline.ExperimentConfig.n, pipeline.ExperimentConfig.x)

    def test_static_law_configuration(self):
        cfg, _ = parse_config(["run", "--n", "15", "--x", "7", "--q", "130",
                               "--events", "10", "--p1", "0.5"])
        assert cfg.law == StaticDecay(0.5)

    def test_default_rate_decays_hard_by_the_end(self):
        cfg, _ = parse_config(["run", "--gamma", "2.5"])
        p2_end = 1 - math.exp(-cfg.law.gamma * 1.0)
        assert p2_end == pytest.approx(0.918, abs=1e-3)

    def test_conflicting_laws_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["run", "--p1", "0.5", "--gamma", "2.5"])

    def test_unparsable_value_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["run", "--q", "lots"])

    @pytest.mark.parametrize("events", ["64", "-1"])
    def test_event_count_outside_the_record_is_a_usage_error(self, events):
        with pytest.raises(SystemExit) as exc:
            parse_config(["run", "--events", events])
        assert exc.value.code == 2

    def test_sixty_three_events_accepted(self):
        cfg, _ = parse_config(["run", "--events", "63"])
        assert cfg.n_events == 63

    @pytest.mark.parametrize("argv, flag", [
        (["--p1", "1.5"], "--p1"), (["--p1", "-0.1"], "--p1"),
        (["--gamma", "-1"], "--gamma"), (["--gamma", "nan"], "--gamma"),
        (["--n", "1"], "--n"), (["--q", "1"], "--q"), (["--x", "1"], "--x"),
        (["--x", "abc"], "--x"), (["--r2-slice", "99"], "--r2-slice"),
        (["--n", "21", "--r2-slice", "32"], "--r2-slice"),
        (["--r2-slice", "-1"], "--r2-slice"), (["--reps", "0"], "--reps"),
        (["--reps", "-1"], "--reps"), (["--q", str(MAX_Q + 1)], "--q"),
        (["--n", "65537"], "--n"), (["--format", "gnuplot", "--out", "f"], "--format"),
        (["--format", "gnuplot", "--r2-slice", "1"], "--format"),
        (["--seed", "-1"], "--seed"), (["--x", "random", "--seed", "-1"], "--seed"),
        (["--format", "gnuplot", "--r2-slice", "7", "--out", ""], "--format")])
    def test_out_of_range_value_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["run", *argv])
        assert exc.value.code == 2
        assert f"error: {flag}: " in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv, line", [
        (["--events", "64"], "--events: n_events must lie in 0..63, got 64"),
        (["--reps", "0"], "--reps: repetitions must be at least 1, got 0"),
        (["--seed", "-1"], "--seed: seed must be at least 0, got -1"),
        (["--x", "random", "--seed", "-1"], "--seed: seed must be at least 0, got -1"),
        (["--x", "1"], "--x: base 1 must lie strictly between 1 and 15"),
        (["--x", "random", "--n", "2"], "--n: cannot factor 2"),
        (["--q", "1"], "--q: q must lie in 2..65536, got 1")])
    def test_config_refusal_carries_the_configs_text_after_the_flag(self, argv, line,
                                                                    capsys):
        # the config's own message, its field named by the flag; the n, x
        # and q messages as they were, with no second field name
        with pytest.raises(SystemExit) as exc:
            parse_config(["run", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"shorsim run: error: {line}"

    @pytest.mark.parametrize("argv, want", [
        (["--q", str(MAX_Q)], (15, MAX_Q)), (["--n", "65535"], (65535, 130))])
    def test_largest_instances_accepted(self, argv, want):
        # n=65535 at q=130 is a 62-qubit layout, n=65537 a 65-qubit one
        cfg, _ = parse_config(["run", *argv])
        assert (cfg.n, cfg.q) == want

    @pytest.mark.parametrize("command", ["run", "build"])
    @pytest.mark.parametrize("argv, flag", [
        (["--q", "100000000"], "--q"), (["--n", "65537", "--q", "130"], "--n")],
        ids=["q-1e8", "n-65-qubits"])
    def test_oversized_instance_exits_at_the_boundary(self, command, argv, flag,
                                                      capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--x", "7"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert f"error: {flag}: " in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["run", "--out", "{missing}/t.csv"],
        ["run", "--format", "json", "--out", "{missing}/t.json"],
        ["run", "--format", "gnuplot", "--r2-slice", "1", "--out", "{missing}/fig"],
        ["build", "--out", "{missing}/net.txt"],
        ["build", "--report", "--out", "{missing}/report.json"],
        ["run", "--out", "{existing}"],
        ["run", "--format", "json", "--out", "{existing}"],
        ["build", "--out", "{existing}"],
        ["build", "--report", "--out", "{existing}"],
        ["run", "--format", "gnuplot", "--r2-slice", "1", "--out", "{existing}/fig"]],
        ids=["csv", "json", "gnuplot", "build", "build-report", "csv-to-a-directory",
             "json-to-a-directory", "build-to-a-directory",
             "build-report-to-a-directory", "gnuplot-script-to-a-directory"])
    def test_out_in_a_missing_directory_is_a_usage_error(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        # and so is an --out naming a directory, or a gnuplot prefix naming
        # one: the directory fig.gp is the script the prefix fig would write
        def refuse(*args):
            raise AssertionError("work done before --out was checked")
        monkeypatch.setattr(cli, "run_experiment", refuse)
        monkeypatch.setattr(cli, "build_modexp", refuse)
        missing = tmp_path / "missing_dir"
        (tmp_path / "fig.gp").mkdir()
        with pytest.raises(SystemExit) as exc:
            main([arg.format(missing=missing, existing=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert "error: --out: " in capsys.readouterr().err.splitlines()[-1]
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == [tmp_path / "fig.gp"]
        assert list((tmp_path / "fig.gp").iterdir()) == []

    def test_last_r2_slice_accepted(self):
        _, args = parse_config(["run", "--n", "21", "--r2-slice", "31"])
        assert args.r2_slice == 31

    def test_base_sharing_a_factor_takes_the_gcd_shortcut(self, capsys):
        assert main(["run", "--n", "15", "--x", "5"]) == 0
        report = json.loads(capsys.readouterr().err)
        assert report["factors"] == [3, 5]
        assert report["stats"]["shortcut"] == "gcd(5, 15) = 5"

    def test_random_base_resolves_to_the_seeds_draw(self):
        # pinned draws: each seed's first integer from 2..n-1
        draws = [parse_config(["run", "--x", "random", "--seed", str(seed)])[0].x
                 for seed in (1, 2, 3)]
        assert draws == [8, 12, 12]

    def test_random_base_output_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["run", "--x", "random", "--seed", "1", "--events", "2",
                     "--q", "64", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "42e03c990255518c95a1b58d510bdf506fec5fca1bcf56168c8284f9c45aa0d4")
        capsys.readouterr()
        assert main(["run", "--x", "random", "--seed", "2"]) == 0
        report = json.loads(capsys.readouterr().err)
        assert report["stats"]["shortcut"] == "gcd(12, 15) = 3"

    @pytest.mark.parametrize("argv, digest", [
        (["--watchdog", "off"],
         "6817e48cc1e8c8f5477c9d0acf0f01c0d3f776e04d5a5bb7ea1ce6ad923f8c51"),
        (["--watchdog", "on"],
         "432ee1ff5a141d58ce974bccbf8759a210f062bef6627392e3cc7672138d93ea"),
        (["--watchdog", "strict"],
         "221e3550fba692302adbd32abb93e1ab3126b98de495307c58d44b9a3e860fb3"),
        (["--n", "21", "--x", "2", "--q", "512", "--watchdog", "strict"],
         "979f19f5ef8166baba40429e8e8bfda7c5b060e407f721f95da685223f9fb3eb"),
        (["--n", "33", "--x", "5", "--q", "1100", "--watchdog", "on"],
         "4076e7ecd9901066ade9b7ff98fb202ff8d63875eddcb3120dc88b5b26e30fa8")],
        ids=["n15-off", "n15-on", "n15-strict", "n21-strict", "n33-on"])
    def test_run_output_is_pinned(self, argv, digest, tmp_path, capsys):
        # SHA-256 of the CSV and then the stderr report; the second
        # repetition reruns the network, so first runs, group walks and
        # events fired at block edges all reach the bytes
        out = tmp_path / "a.csv"
        assert main(["run", *argv, "--reps", "2", "--seed", "1", "--out", str(out)]) == 0
        got = out.read_bytes() + capsys.readouterr().err.encode()
        assert hashlib.sha256(got).hexdigest() == digest

    @pytest.mark.parametrize("argv, field, want", [
        (["--ev", "5"], "n_events", 5), (["--events=5"], "n_events", 5),
        (["--gam", "2"], "law", ExponentialDecay(2.0)),
        (["--p1=0.3"], "law", StaticDecay(0.3))])
    def test_flag_in_any_form_argparse_accepts(self, argv, field, want):
        # abbreviated, or joined by "="
        cfg, _ = parse_config(["run", *argv])
        assert getattr(cfg, field) == want

    def test_watchdog_outside_its_choices_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["run", "--watchdog", "always"])
        assert exc.value.code == 2
        assert "argument --watchdog: invalid choice: 'always'" in capsys.readouterr().err


class TestEmitDistribution:
    def test_csv_layout_and_round_trip(self):
        ned, ed = make_pair()
        sink = io.StringIO()
        emit_distribution(ned, ed, "csv", sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "r1,r2,p_ned,p_ed"
        assert len(lines) == 1 + 4 * 2
        # row-major: r1 outer, r2 inner
        first = lines[1].split(",")
        assert (first[0], first[1]) == ("0", "0")
        assert lines[2].split(",")[:2] == ["0", "1"]
        for line in lines[1:]:
            r1, r2, pn, pe = line.split(",")
            assert float(pn) == pytest.approx(ned.table[int(r1), int(r2)],
                                              rel=1e-11)
            assert float(pe) == pytest.approx(ed.table[int(r1), int(r2)],
                                              rel=1e-11)

    def test_twelve_significant_digits(self):
        ned = Distribution(np.array([[1 / 3]]), "ned")
        ed = Distribution(np.array([[0.0]]), "ed")
        sink = io.StringIO()
        emit_distribution(ned, ed, "csv", sink)
        assert "0.333333333333" in sink.getvalue()

    def test_empty_distribution_gives_header_only(self):
        # and, as json.dump gives it, an empty JSON list
        for shape in ((0, 0), (3, 0)):
            empty = Distribution(np.zeros(shape), "ned")
            for fmt, want in (("csv", "r1,r2,p_ned,p_ed\n"), ("json", "[]\n")):
                sink = io.StringIO()
                emit_distribution(empty, empty, fmt, sink)
                assert sink.getvalue() == want

    def test_json_records(self):
        ned, ed = make_pair()
        sink = io.StringIO()
        emit_distribution(ned, ed, "json", sink, r2_slice=1)
        records = json.loads(sink.getvalue())
        assert len(records) == 4
        assert set(records[0]) == {"r1", "r2", "p_ned", "p_ed"}
        assert all(rec["r2"] == 1 for rec in records)

    def test_json_values_are_the_rounded_floats_json_dump_writes(self):
        # 5e-324 prints as 4.94065645841e-324 at 12 digits, but json.dump
        # writes the float that text parses to; -0.0 stays apart from 0.0
        values = np.array([0.0, 1.0, 0.5, 1e-05, 5e-324, -0.0, 1 / 3, 0.5])
        ned = Distribution(values.reshape(4, 2), "ned")
        ed = Distribution(values[::-1].reshape(4, 2), "ed")
        records = [{"r1": r1, "r2": r2, "p_ned": float(f"{ned.table[r1, r2]:.12g}"),
                    "p_ed": float(f"{ed.table[r1, r2]:.12g}")}
                   for r1 in range(4) for r2 in range(2)]
        sink = io.StringIO()
        emit_distribution(ned, ed, "json", sink)
        assert sink.getvalue() == json.dumps(records) + "\n"
        assert '"p_ned": 5e-324' in sink.getvalue()
        assert '"p_ned": -0.0' in sink.getvalue()

    @pytest.mark.parametrize("q, width, chunk, r2_slice, apart", [
        (2100, 32, None, None, False), (7, 4, 10, None, False), (9, 4, 3, 2, False),
        (7, 4, 10, None, True)],
        ids=["beyond-one-chunk", "partial-last-chunk", "sliced", "tables-apart"])
    def test_chunked_csv_equals_the_one_shot_join(self, q, width, chunk, r2_slice, apart,
                                                   monkeypatch):
        # CSV and JSON alike, JSON against json.dump's bytes
        if chunk is not None:
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        ned, ed = make_pair(q, width)
        ned.table[0, 0], ed.table[0, 0] = 1.0, 0.0  # json: 1.0 and 0.0, not 1 and 0
        columns = [r2 for r2 in range(width) if r2_slice in (None, r2)]
        assert q * len(columns) > cli.CSV_CHUNK_ROWS
        cells = np.arange(q * width).reshape(q, width)[:, columns].ravel()
        boundary = cli.CSV_CHUNK_ROWS // len(columns) * len(columns)
        around = cells[boundary - 3:boundary + 3]
        if apart:
            # the tables' distinct values differ on both sides of the first
            # chunk boundary: some only in ned (-0.0 among them), some only in
            # ed (0.0 among them), 0.5 and 0.125 in both
            ned.table.flat[around] = [0.25, -0.0, 0.5, 0.125, 1 / 3, 0.5]
            ed.table.flat[around] = [0.5, 0.75, 0.0, 2 / 3, 0.125, 0.75]
            ned_bits, ed_bits = ned.table.view(np.int64), ed.table.view(np.int64)
            for part in (around[:3], around[3:]):  # as bit patterns: -0.0 is not 0.0
                in_ned, in_ed = set(ned_bits.flat[part].tolist()), set(ed_bits.flat[part].tolist())
                assert in_ned - in_ed and in_ed - in_ned and in_ned & in_ed
            negative_zero = np.float64(-0.0).view(np.int64)
            assert negative_zero in ned_bits and negative_zero not in ed_bits
            assert 0 in ed_bits and 0 not in ned_bits
        else:
            # repeated values, both zeros and the least subnormal, on both
            # sides of the first chunk boundary
            ned.table.flat[around] = [0.0, -0.0, 5e-324, -0.0, 5e-324, 0.0]
            ed.table.flat[around] = [5e-324, 5e-324, -0.0, 0.0, 0.0, -0.0]
        csv_text = "r1,r2,p_ned,p_ed\n" + "".join(
            f"{r1},{r2},{ned.table[r1, r2]:.12g},{ed.table[r1, r2]:.12g}\n"
            for r1 in range(q) for r2 in columns)
        records = [{"r1": r1, "r2": r2, "p_ned": float(f"{ned.table[r1, r2]:.12g}"),
                    "p_ed": float(f"{ed.table[r1, r2]:.12g}")}
                   for r1 in range(q) for r2 in columns]
        json_sink = io.StringIO()
        json.dump(records, json_sink)
        for fmt, want in (("csv", csv_text), ("json", json_sink.getvalue() + "\n")):
            sink = io.StringIO()
            emit_distribution(ned, ed, fmt, sink, r2_slice=r2_slice)
            assert sink.getvalue() == want, fmt

    def test_gnuplot_files_and_script(self, tmp_path):
        ned, ed = make_pair()
        ned.table[:, 0] = [0.0, -0.0, 5e-324, 0.0]  # repeated, both zeros, subnormal
        exact = np.full((4, 2), 0.125)
        prefix = tmp_path / "plot"
        emit_gnuplot(ned, ed, exact, 0, str(prefix))
        for name, table in (("exact", exact), ("ned", ned.table), ("ed", ed.table)):
            assert (tmp_path / f"plot_{name}.dat").read_text() == "".join(
                f"{r1} {p:.12g}\n" for r1, p in enumerate(table[:, 0]))
        assert (tmp_path / "plot.gp").read_text() == (
            f'set terminal pngcairo size 800,900\nset output "{prefix}.png"\n'
            'set multiplot layout 3,1\nset xlabel "first register"\n' + "".join(
                f'set ylabel "P"\nplot "{prefix}_{name}.dat" with impulses title "{name}"\n'
                for name in ("exact", "ned", "ed")) + "unset multiplot\n")

    @pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot"])
    @pytest.mark.parametrize("r2_slice, message", [
        (2, "r2_slice 2 outside 0..1"), (5, "r2_slice 5 outside 0..1"),
        (-1, "r2_slice -1 outside 0..1"), (1.0, "r2_slice=1.0 must be an integer")],
        ids=["width", "past", "negative", "float"])
    def test_r2_slice_off_the_columns_refused(self, fmt, r2_slice, message, tmp_path):
        # unchecked, csv and json wrote only their header, and gnuplot raised
        # a raw IndexError or plotted the last column
        ned, ed = make_pair()
        sink = io.StringIO()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if fmt == "gnuplot":
                emit_gnuplot(ned, ed, ned.table, r2_slice, str(tmp_path / "plot"))
            else:
                emit_distribution(ned, ed, fmt, sink, r2_slice=r2_slice)
        assert sink.getvalue() == "" and not any(tmp_path.iterdir())

    def test_gnuplot_needs_slice_and_path(self, tmp_path, monkeypatch):
        # the exact table, the slice and the prefix are emit_gnuplot's
        # parameters, and emit_distribution writes csv and json only
        ned, ed = make_pair()
        with pytest.raises(ValueError, match="^unknown format 'gnuplot'$"):
            emit_distribution(ned, ed, "gnuplot", io.StringIO())
        with pytest.raises(ValueError, match="^r2_slice=None must be an integer$"):
            emit_gnuplot(ned, ed, ned.table, None, str(tmp_path / "plot"))
        # "" is stdout for csv and json; as a gnuplot prefix it would write
        # ".gp" and "_ned.dat" into the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="^gnuplot output needs a non-empty file prefix$"):
            emit_gnuplot(ned, ed, ned.table, 0, "")
        assert not any(tmp_path.iterdir())


class TestMain:
    def run_cli(self, *argv):
        return subprocess.run([sys.executable, "-m", "shorsim.cli", *argv],
                              capture_output=True, text=True)

    def test_run_writes_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["run", "--n", "15", "--x", "7", "--q", "16", "--events", "2",
                "--p1", "0.5", "--seed", "3", "--reps", "2"]
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("r1,r2,p_ned,p_ed\n")

    @staticmethod
    def refuse_oracle_tables(monkeypatch):
        def refuse(*args):
            raise AssertionError("oracle table computed for a run")
        for route in ("outcome_table_oracle", "direct_outcome_table",
                      "folded_outcome_table"):
            monkeypatch.setattr(oracles, route, refuse)

    def test_csv_run_skips_the_oracle_table(self, tmp_path, monkeypatch):
        self.refuse_oracle_tables(monkeypatch)
        out = tmp_path / "a.csv"
        assert main(["run", "--n", "15", "--x", "7", "--q", "16", "--events",
                     "1", "--p1", "0.5", "--out", str(out)]) == 0
        assert out.read_text().startswith("r1,r2,p_ned,p_ed\n")

    def test_events_beyond_the_record_exit_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--events", "64"])
        assert exc.value.code == 2

    def test_run_past_the_component_budget_exits_with_one_line(self, tmp_path):
        # the default run with p1=0.5 and the watchdog off passes 500 components
        code = ("import sys; from shorsim import simulator; "
                "simulator.MAX_COMPONENTS = 500; "
                "from shorsim.cli import main; sys.exit(main())")
        out = tmp_path / "a.csv"
        result = subprocess.run([sys.executable, "-c", code, "run", "--p1", "0.5",
                                 "--watchdog", "off", "--out", str(out)],
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert re.fullmatch(r"shorsim run: error: decay event at t=\S+ on qubit "
                            r"\d+ would leave \d+ components, past the budget "
                            r"of 500\n", result.stderr), result.stderr
        assert result.stdout == "" and not out.exists()

    def test_run_gnuplot_end_to_end(self, tmp_path):
        prefix = tmp_path / "fig"
        code = main(["run", "--n", "15", "--x", "7", "--q", "16", "--events",
                     "1", "--p1", "0.5", "--seed", "1", "--r2-slice", "7",
                     "--format", "gnuplot", "--out", str(prefix)])
        assert code == 0
        assert (tmp_path / "fig_exact.dat").exists()
        assert (tmp_path / "fig.gp").exists()

    def test_gnuplot_exact_series_is_the_closed_form_not_the_oracle(self, tmp_path,
                                                                  monkeypatch):
        self.refuse_oracle_tables(monkeypatch)
        prefix = tmp_path / "fig"
        assert main(["run", "--n", "15", "--x", "7", "--q", "130", "--events", "0",
                     "--r2-slice", "7", "--format", "gnuplot", "--out", str(prefix)]) == 0
        column = pipeline.ideal_distribution(15, 7, 130).table[:, 7]
        assert (tmp_path / "fig_exact.dat").read_text() == "".join(
            f"{c} {p:.12g}\n" for c, p in enumerate(column.tolist()))

    def test_build_report_schema(self):
        result = self.run_cli("build", "--report")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload) == {"qubits", "qubits_built", "gates_exact",
                                "gates_formula"}
        assert payload["qubits"] == 28

    @pytest.mark.parametrize("q, built", [(None, 26), (512, 27)])
    def test_build_report_lists_the_built_qubit_count(self, q, built, capsys):
        argv = ["build", "--report"] + ([] if q is None else ["--q", str(q)])
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # the formula's 5L+8 next to the layout the command built
        assert payload["qubits"] == 28 and payload["qubits_built"] == built
        assert built == RegisterLayout.for_factoring(4, q=q or 225).qubit_count

    @pytest.mark.parametrize("argv, text", [
        ([], '{"gates_exact": 17051, "gates_formula": 23832, "qubits": 28, '
             '"qubits_built": 26}\n'),
        (["--n", "33", "--x", "5", "--q", "1100"],
         '{"gates_exact": 48514, "gates_formula": 70356, "qubits": 38, '
         '"qubits_built": 35}\n')], ids=["defaults", "n33"])
    def test_build_report_is_pinned(self, argv, text, capsys):
        assert main(["build", "--report", *argv]) == 0
        assert capsys.readouterr().out == text

    def test_build_report_builds_one_network(self, monkeypatch, capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_modexp(*args)
        monkeypatch.setattr(arithmetic, "build_modexp", counted)
        monkeypatch.setattr(cli, "build_modexp", counted)
        assert main(["build", "--report"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, text", [
        (["--n", "1"], "--n: cannot factor 1"),
        (["--n", "2"], "--n: cannot factor 2"),
        (["--x", "1"], "--x: base 1 must lie strictly between 1 and 15"),
        (["--x", "15"], "--x: base 15 must lie strictly between 1 and 15"),
        (["--x", "5"], "--x: gcd(5, 15) = 5; 5 is already a factor of 15"),
        (["--n", "21", "--x", "14", "--q", "512"],
         "--x: gcd(14, 21) = 7; 7 is already a factor of 21"),
        (["--q", "1"], "--q: q must lie in 2..65536, got 1"),
        (["--q", "65537"], "--q: q must lie in 2..65536, got 65537"),
        (["--n", "262145", "--x", "3", "--q", "4"],
         "--n: n=262145 with q=4 needs 65 qubits; at most 62 are supported"),
        (["--n", "1", "--x", "5", "--q", "1"], "--n: cannot factor 1")],
        ids=["n1", "n2", "x1", "x15", "x5-shares-a-factor", "x14-shares-a-factor",
             "q1", "q65537", "too-wide", "n-first"])
    def test_build_bad_instance_is_a_usage_error(self, argv, text, capsys):
        # ArithParams.create's refusal, under the flag of the field it names
        with pytest.raises(SystemExit) as exc:
            main(["build", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: shorsim build [-h] ")
        assert err[-1] == f"shorsim build: error: {text}"

    def test_build_default_q_out_of_range_names_n(self, capsys):
        for n, q in ((257, 66049), (262145, 68720001025)):
            with pytest.raises(SystemExit) as exc:
                main(["build", "--n", str(n), "--x", "3"])
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == (
                "shorsim build: error: --n: the default q = n^2 is out of range "
                f"(q must lie in 2..65536, got {q}); pass --q")

    def test_default_run_never_imports_numpy_ma(self, tmp_path):
        # numpy 2.x imports numpy.ma lazily, for instance from np.unique.
        code = ("import sys; from shorsim.cli import main; "
                f"code = main(['run', '--out', {str(tmp_path / 'a.csv')!r}]); "
                "print(code, 'numpy.ma' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.stdout.split() == ["0", "False"], result.stderr

    def test_import_loads_only_the_modules_it_needs(self):
        # concurrent.futures alone would cost 2.4 ms of import time
        code = ("import sys, numpy; before = set(sys.modules); import shorsim.cli; "
                "print(*sorted(set(sys.modules) - before))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True)
        loaded = {m for m in result.stdout.split() if m.split(".")[0] != "shorsim"}
        assert result.returncode == 0, result.stderr
        assert loaded <= {"__future__", "_json", "argparse", "cmath", "copy",
                          "dataclasses", "gettext", "json", "json.decoder",
                          "json.encoder", "json.scanner"}, loaded

    def test_build_emits_gate_lines(self, tmp_path):
        out = tmp_path / "net.txt"
        assert main(["build", "--n", "15", "--x", "7", "--q", "130",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("T ")
        assert any(line.startswith("CHK ") for line in lines)

    def test_verify_exits_clean(self):
        result = self.run_cli("verify")
        assert result.returncode == 0
        assert "FAIL" not in result.stdout
        plane = [line for line in result.stdout.splitlines() if "plane pass" in line]
        assert [line.startswith("PASS  plane pass equals the gate-by-gate reference")
                and "first run, on bit planes" in line for line in plane] == [True, True]
        assert plane[1].endswith("n=33 x=5 q=1100")  # 35 qubits: 5 gather bytes
        grouped = [line for line in result.stdout.splitlines() if "grouped pass" in line]
        assert [line.startswith("PASS  grouped pass") and "through its groups" in line
                for line in grouped] == [True, True]
        assert [line.split(", ")[-1] for line in grouped] == ["n=15 x=7 q=130",
                                                              "n=33 x=5 q=1100"]
        closed = [line for line in result.stdout.splitlines() if "closed-form" in line]
        assert len(closed) == 3
        again = [line for line in result.stdout.splitlines() if "10-event run" in line]
        assert [(line.split(":")[0], line.split(", ")[-1]) for line in again] == [
            (f"PASS  10-event run, watchdog {mode}", instance)
            for instance in ("n=15 x=7 q=130", "n=33 x=5 q=1100")
            for mode in ("off", "on", "strict")]
        assert ["through its checkpoint_groups" in line for line in again] == [
            False, False, True, False, False, True]
        tables = [line for line in result.stdout.splitlines() if "outcome_tables" in line]
        assert [line.startswith("PASS  outcome_tables of the on rerun equal distribution_ned's")
                for line in tables] == [True, True]

    @pytest.mark.parametrize("n, x, q", [(15, 7, 130), (33, 5, 1100)])
    def test_verify_reruns_reach_the_edge_path(self, n, x, q):
        # verify's byte-equal check of a first run and a rerun covers events
        # fired at block edges only while its seed-1 schedule puts some there;
        # its reruns go through the network its exhaustive check compiled
        layout = RegisterLayout.for_factoring(n.bit_length(), q=q)
        net = build_modexp(arithmetic.ArithParams.create(n, x, q), layout)
        cfg = pipeline.ExperimentConfig(n=n, x=x, q=q, seed=1)
        schedule = simulator.sample_schedule(cfg.n_events, layout.qubit_count,
                                             pipeline.repetition_seeds(cfg)[0], cfg.law)
        net.masks  # compiled, so each plan below is a rerun's
        for watchdog in ("off", "on", "strict"):
            steps = simulator.plan(net, simulator.event_records(net, schedule, watchdog),
                                   watchdog)
            assert [step for step in steps if step.kind == "fire" and step.a != step.b], watchdog

    def test_usage_error_on_unknown_flag(self):
        result = self.run_cli("run", "--frequency", "9")
        assert result.returncode != 0

    @pytest.mark.parametrize("command", ["run", "build", "verify"])
    def test_unknown_flag_is_refused_by_its_command(self, command, capsys):
        # under the command's usage, as its own refusals are
        with pytest.raises(SystemExit) as exc:
            main([command, "--frequency", "9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: shorsim {command} [-h]")
        assert err[-1] == f"shorsim {command}: error: unrecognized arguments: --frequency 9"
