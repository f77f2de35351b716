from __future__ import annotations

import hashlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from shorsim import RegisterLayout, cli, oracles, pipeline
from shorsim.arithmetic import MAX_Q
from shorsim.cli import emit_distribution, main, parse_config
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
        (["--format", "gnuplot", "--r2-slice", "1"], "--format")])
    def test_out_of_range_value_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["run", *argv])
        assert exc.value.code == 2
        assert f"error: {flag}: " in capsys.readouterr().err.splitlines()[-1]

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
        ["build", "--report", "--out", "{existing}"]],
        ids=["csv", "json", "gnuplot", "build", "build-report", "csv-to-a-directory",
             "json-to-a-directory", "build-to-a-directory",
             "build-report-to-a-directory"])
    def test_out_in_a_missing_directory_is_a_usage_error(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        # and so is an --out naming a directory, but for gnuplot's prefix
        def refuse(*args):
            raise AssertionError("work done before --out was checked")
        monkeypatch.setattr(cli, "run_experiment", refuse)
        monkeypatch.setattr(cli, "build_modexp", refuse)
        missing = tmp_path / "missing_dir"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(missing=missing, existing=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert "error: --out: " in capsys.readouterr().err.splitlines()[-1]
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("q, width, chunk, r2_slice", [
        (2100, 32, None, None), (7, 4, 10, None), (9, 4, 3, 2)],
        ids=["beyond-one-chunk", "partial-last-chunk", "sliced"])
    def test_chunked_csv_equals_the_one_shot_join(self, q, width, chunk, r2_slice,
                                                   monkeypatch):
        # CSV and JSON alike, JSON against json.dump's bytes
        if chunk is not None:
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        ned, ed = make_pair(q, width)
        ned.table[0, 0], ed.table[0, 0] = 1.0, 0.0  # json: 1.0 and 0.0, not 1 and 0
        columns = [r2 for r2 in range(width) if r2_slice in (None, r2)]
        assert q * len(columns) > cli.CSV_CHUNK_ROWS
        # repeated values, both zeros and the least subnormal, on both sides
        # of the first chunk boundary
        cells = np.arange(q * width).reshape(q, width)[:, columns].ravel()
        boundary = cli.CSV_CHUNK_ROWS // len(columns) * len(columns)
        around = cells[boundary - 3:boundary + 3]
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
        emit_distribution(ned, ed, "gnuplot", None, exact=exact, r2_slice=0,
                          out_path=str(prefix))
        for name, table in (("exact", exact), ("ned", ned.table), ("ed", ed.table)):
            assert (tmp_path / f"plot_{name}.dat").read_text() == "".join(
                f"{r1} {p:.12g}\n" for r1, p in enumerate(table[:, 0]))
        script = (tmp_path / "plot.gp").read_text()
        assert "plot_ned.dat" in script and "multiplot" in script

    def test_gnuplot_needs_slice_and_path(self):
        ned, ed = make_pair()
        with pytest.raises(ValueError):
            emit_distribution(ned, ed, "gnuplot", None)


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

    def test_csv_run_skips_the_oracle_table(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("oracle table computed for a CSV run")
        monkeypatch.setattr(oracles, "outcome_table_oracle", refuse)
        monkeypatch.setattr(pipeline, "outcome_table_oracle", refuse)
        out = tmp_path / "a.csv"
        assert main(["run", "--n", "15", "--x", "7", "--q", "16", "--events",
                     "1", "--p1", "0.5", "--out", str(out)]) == 0
        assert out.read_text().startswith("r1,r2,p_ned,p_ed\n")

    def test_events_beyond_the_record_exit_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--events", "64"])
        assert exc.value.code == 2

    def test_run_gnuplot_end_to_end(self, tmp_path):
        prefix = tmp_path / "fig"
        code = main(["run", "--n", "15", "--x", "7", "--q", "16", "--events",
                     "1", "--p1", "0.5", "--seed", "1", "--r2-slice", "7",
                     "--format", "gnuplot", "--out", str(prefix)])
        assert code == 0
        assert (tmp_path / "fig_exact.dat").exists()
        assert (tmp_path / "fig.gp").exists()

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

    @pytest.mark.parametrize("argv, flag", [
        (["--n", "1"], "--n"), (["--x", "1"], "--x"), (["--x", "5"], "--x"),
        (["--q", "1"], "--q")], ids=["n1", "x1", "x5-shares-a-factor", "q1"])
    def test_build_bad_instance_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", *argv])
        assert exc.value.code == 2
        assert f"error: {flag}: " in capsys.readouterr().err.splitlines()[-1]

    def test_build_default_q_out_of_range_names_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--n", "257", "--x", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "shorsim: error: --n: the default q = n^2 is out of range "
            "(q must lie in 2..65536, got 66049); pass --q")

    def test_default_run_never_imports_numpy_ma(self, tmp_path):
        # numpy 2.x imports numpy.ma lazily, for instance from np.unique.
        code = ("import sys; from shorsim.cli import main; "
                f"code = main(['run', '--out', {str(tmp_path / 'a.csv')!r}]); "
                "print(code, 'numpy.ma' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.stdout.split() == ["0", "False"], result.stderr

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
        assert "PASS  fused pass equals apply_network_batch" in result.stdout

    def test_usage_error_on_unknown_flag(self):
        result = self.run_cli("run", "--frequency", "9")
        assert result.returncode != 0
