"""Tests for the repro-paper command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gcc", "drowsy"])
        assert args.l2 == 11
        assert args.temp == 110.0
        assert args.interval == 4096
        assert not args.adaptive

    def test_figure_ops_flag(self):
        args = build_parser().parse_args(["figure", "3_4", "--ops", "500"])
        assert args.ops == 500


class TestExecFlagValidation:
    def test_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["figure", "3_4", "-j", "0"])
        assert err.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_rejects_negative_jobs(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["reproduce", "-j", "-3"])
        assert err.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_rejects_non_integer_jobs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "gcc", "drowsy", "-j", "two"])
        assert "expected an integer" in capsys.readouterr().err

    def test_rejects_zero_timeout(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["reproduce", "--timeout", "0"])
        assert err.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_rejects_negative_timeout(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["figure", "3_4", "--timeout", "-1.5"])
        assert err.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_rejects_non_numeric_timeout(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--timeout", "soon"])
        assert "expected a number" in capsys.readouterr().err

    def test_accepts_valid_flags(self):
        args = build_parser().parse_args(
            ["reproduce", "-j", "4", "--timeout", "120.5"]
        )
        assert args.jobs == 4
        assert args.timeout == 120.5

    def test_timeout_defaults_to_none(self):
        args = build_parser().parse_args(["figure", "3_4"])
        assert args.timeout is None


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "settling times" in out
        assert "80-RUU, 40-LSQ" in out

    def test_run_produces_metrics(self, capsys):
        code = main(["run", "gcc", "drowsy", "--ops", "2000", "--l2", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "net savings" in out
        assert "performance loss" in out
        assert "gcc / drowsy on l1d @ L2=5" in out

    def test_run_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "nonesuch", "drowsy"])
        assert err.value.code == 2
        assert "invalid choice: 'nonesuch'" in capsys.readouterr().err

    def test_run_unknown_technique(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "gcc", "quantum"])
        assert err.value.code == 2
        assert "invalid choice: 'quantum'" in capsys.readouterr().err

    def test_figure_unknown_name(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_small(self, capsys):
        code = main(["figure", "3_4", "--ops", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AVERAGE" in out
        assert "Figures 3/4" in out

    def test_sweep_small(self, capsys):
        code = main(["sweep", "gcc", "gated-vss", "--ops", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best interval" in out
        assert "decay-interval sweep" in out


class TestPowerFlag:
    def test_run_power_breakdown(self, capsys):
        from repro.cli import main

        code = main(["run", "gcc", "drowsy", "--ops", "2000", "--power"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamic power breakdown" in out
        assert "l1_dcache" in out
        assert "clock" in out

    def test_power_reads_the_simulated_run(self, capsys, monkeypatch):
        """The breakdown comes from the technique run figure_point just
        simulated (no third simulation)."""
        from repro.cli import main
        from repro.cpu.config import MachineConfig
        from repro.experiments import runner
        from repro.leakctl.base import drowsy_technique

        want = runner.run_once(
            "gcc", technique=drowsy_technique(), machine=MachineConfig(),
            n_ops=2000,
        ).accountant.power_report()
        real_run_once = runner.run_once
        calls = []

        def counting_run_once(*args, **kwargs):
            calls.append(kwargs["technique"])
            return real_run_once(*args, **kwargs)

        monkeypatch.setattr(runner, "run_once", counting_run_once)
        code = main(["run", "gcc", "drowsy", "--ops", "2000", "--power"])
        assert code == 0
        assert calls == [None, drowsy_technique()]  # baseline + technique
        table = capsys.readouterr().out.split("dynamic power breakdown")[1]
        rows = [line.strip("|").split("|") for line in table.splitlines()]
        got = {
            cells[0].strip(): cells[1].strip()
            for cells in rows
            if len(cells) == 2 and cells[0].strip() in want
        }
        assert got == {k: f"{v:.3f}" for k, v in want.items()}


class TestReproduceAndValidateCommands:
    def test_quick_reproduce_subset(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "res"
        code = main(
            ["reproduce", "--out", str(out), "--quick",
             "--benchmarks", "gcc,gzip"]
        )
        assert code == 0
        assert (out / "SUMMARY.txt").exists()
        assert (out / "fig03_04_l2_5.json").exists()

    def test_validate_command_on_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["validate", str(tmp_path / "nowhere")]) == 2
        assert "missing artefact" in capsys.readouterr().err


class TestTraceAndStatsCommands:
    def test_trace_and_stats_on_fresh_campaign(self, tmp_path, capsys):
        """Acceptance: reproduce writes an event log that trace/stats can
        browse, with per-run events and a per-phase time breakdown."""
        from repro.cli import main

        out = tmp_path / "res"
        assert main(
            ["reproduce", "--out", str(out), "--quick",
             "--benchmarks", "gcc"]
        ) == 0
        assert (out / "events.jsonl").exists()
        capsys.readouterr()

        assert main(["trace", str(out)]) == 0
        trace_out = capsys.readouterr().out
        assert "run_finished" in trace_out
        assert "per-phase breakdown" in trace_out
        assert "fig12_13_best_interval" in trace_out

        assert main(["stats", str(out)]) == 0
        stats_out = capsys.readouterr().out
        assert "runs executed" in stats_out
        assert "cache hits" in stats_out
        assert "timing spans" in stats_out
        assert "pipeline.runs" in stats_out

        # The campaign's terminal event landed in the log ...
        assert "campaign_finished" in trace_out
        # ... and the metrics registry snapshotted beside it.
        prom = out / "metrics.prom"
        assert prom.exists()
        assert "repro_runs_total" in prom.read_text()
        metrics_payload = json.loads((out / "metrics.json").read_text())
        assert any(
            m["name"] == "repro_runs_total"
            for m in metrics_payload["metrics"]
        )

        # One aggregation path, machine-readable tense.
        assert main(["stats", str(out), "--format", "json"]) == 0
        stats_json = json.loads(capsys.readouterr().out)
        assert stats_json["runs_finished"] >= 1
        assert stats_json["phases"]

        # A post-hoc watch frame sees the terminal event as "done".
        assert main(["watch", str(out), "--once", "--json"]) == 0
        watch_payload = json.loads(capsys.readouterr().out)
        assert watch_payload["status"] == "done"
        assert watch_payload["in_flight"] == []
        assert watch_payload["finished"]["status"] == "ok"

        # The live page renders statically once the campaign is over.
        assert main(["report", str(out), "--live", "--once"]) == 0
        capsys.readouterr()
        live = out / "live.html"
        assert live.exists()
        page = live.read_text()
        assert "campaign finished" in page
        assert "http-equiv" not in page

    def test_trace_on_missing_log(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", str(tmp_path / "nowhere")]) == 2
        assert "no event log" in capsys.readouterr().err

    def test_stats_on_missing_log(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path)]) == 2
        assert "no event log" in capsys.readouterr().err

    def test_reproduce_no_obs_skips_log(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "res"
        assert main(
            ["reproduce", "--out", str(out), "--quick",
             "--benchmarks", "gcc", "--no-obs"]
        ) == 0
        assert not (out / "events.jsonl").exists()


class TestCommandLineValidation:
    """Names and numbers typed on the command line are checked by argparse:
    a bad one exits 2 with a usage message before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "gcc", "nope"],
            ["run", "nope", "drowsy"],
            ["run", "gcc", "drowsy", "--interval", "0"],
            ["profile", "gcc", "nope"],
            ["profile", "nope", "drowsy"],
            ["profile", "gcc", "drowsy", "--interval", "7"],
            ["gen-trace", "nope", "trace.bin"],
            ["sweep", "gcc", "nope"],
            ["sweep", "nope", "drowsy"],
            ["sweep", "gcc", "drowsy", "--temps", "abc"],
            ["sweep", "gcc", "drowsy", "--temps", "60,,110"],
            ["sweep", "gcc", "drowsy", "--intervals", "0"],
            ["sweep", "gcc", "drowsy", "--intervals", "1024,x"],
        ],
    )
    def test_exits_2_with_usage_and_runs_nothing(
        self, argv, capsys, monkeypatch
    ):
        from repro.exec import Scheduler

        jobs = []
        monkeypatch.setattr(
            Scheduler, "run", lambda self, specs, *a, **k: jobs.extend(specs)
        )
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert jobs == []

    def test_interval_floor_is_the_controlled_cache_floor(self, capsys):
        from repro.leakctl.controlled import MIN_DECAY_INTERVAL

        low = str(MIN_DECAY_INTERVAL - 1)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc", "drowsy", "--interval", low])
        assert f"must be >= {MIN_DECAY_INTERVAL}" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["sweep", "gcc", "drowsy", "--intervals", f"{MIN_DECAY_INTERVAL},64",
             "--temps", "60,110.5"]
        )
        assert args.intervals == (MIN_DECAY_INTERVAL, 64)
        assert args.temps == (60.0, 110.5)

    def test_technique_choices_are_the_runspec_names(self):
        from repro.exec import RunSpec
        from repro.leakctl.base import TECHNIQUE_NAMES

        for name in TECHNIQUE_NAMES:
            args = build_parser().parse_args(["run", "gcc", name])
            assert RunSpec(benchmark=args.benchmark, technique=args.technique)
