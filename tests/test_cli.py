"""Unit tests for the command-line interface (repro.cli)."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "figure" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig_id in ("4a", "7b", "10", "11"):
            assert fig_id in out

    def test_calibration_command(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "socketvia" in out and "tcp" in out
        assert "9.51" in out  # the calibrated SocketVIA latency

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99z"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestBenchCommands:
    def test_bench_without_subcommand_shows_help(self, capsys):
        assert main(["bench"]) == 1
        assert "run" in capsys.readouterr().out

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for bench_id in ("fig02", "fig04", "fig10"):
            assert bench_id in out

    def test_bench_list_shows_the_baseline_wall_time(self, capsys,
                                                     monkeypatch):
        baselines = (Path(__file__).resolve().parent.parent
                     / "benchmarks" / "baselines")
        monkeypatch.setenv("REPRO_BENCH_BASELINES", str(baselines))
        assert main(["bench", "list"]) == 0
        lines = {line.split()[0]: line
                 for line in capsys.readouterr().out.splitlines()[1:]}
        assert lines["fig11"].endswith("(baseline, 15.5 s)")
        assert lines["fig07"].endswith("(no baseline)")

    def test_failed_claim_fails_the_run_and_keeps_the_baseline(
            self, tmp_path, capsys, monkeypatch):
        from repro.bench import runner
        from repro.bench.suites import Claim, get_suite

        failing = dataclasses.replace(
            get_suite("fig02"),
            claims=lambda tables: [Claim("forced", "never holds", False, "2")])
        monkeypatch.setattr(runner, "get_suite", lambda bench_id: failing)
        results, base = tmp_path / "results", tmp_path / "baselines"
        assert main(["bench", "run", "fig02", "--results", str(results),
                     "--update-baseline", "--baselines", str(base)]) == 1
        captured = capsys.readouterr()
        assert "CLAIM FAILED forced" in captured.out
        assert "fig02" in captured.err
        assert (results / "BENCH_fig02.json").exists()
        assert not base.exists() or not any(base.iterdir())

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "run", "fig99"]) == 2
        assert "unknown bench experiment" in capsys.readouterr().err

    def test_bench_compare_without_runs(self, tmp_path, capsys):
        assert main(["bench", "compare",
                     "--results", str(tmp_path / "r"),
                     "--baselines", str(tmp_path / "b")]) == 2
        assert "nothing to compare" in capsys.readouterr().err

    def test_run_compare_report_loop(self, tmp_path, capsys):
        """The documented workflow, end to end on the instant fig02."""
        results = str(tmp_path / "results")
        base = str(tmp_path / "baselines")
        assert main(["bench", "run", "fig02", "--results", results,
                     "--update-baseline", "--baselines", base]) == 0
        out = capsys.readouterr().out
        assert "BENCH_fig02.json" in out and "anchors" in out

        assert main(["bench", "compare", "--results", results,
                     "--baselines", base]) == 0
        assert "PASS" in capsys.readouterr().out

        generated = tmp_path / "gen.md"
        assert main(["bench", "report", "--baselines", base,
                     "--out", str(generated),
                     "--experiments-md", ""]) == 0
        text = generated.read_text()
        assert "fig02" in text and "### Anchors" in text

    def test_compare_catches_injected_regression(self, tmp_path, capsys):
        import json

        results = str(tmp_path / "results")
        base = str(tmp_path / "baselines")
        assert main(["bench", "run", "fig02", "--results", results,
                     "--update-baseline", "--baselines", base]) == 0
        path = tmp_path / "baselines" / "BENCH_fig02.json"
        payload = json.loads(path.read_text())
        for row in payload["tables"]["2"]["rows"]:
            if isinstance(row[1], float):
                row[1] *= 2.0  # corrupt the committed latencies
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["bench", "compare", "--results", results,
                     "--baselines", base]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFigureExecution:
    def test_quick_fig10_runs_and_prints(self, capsys):
        assert main(["figure", "10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "ratio_tcp_over_sv" in out

    def test_fig_prefix_accepted(self, capsys):
        assert main(["figure", "fig10", "--quick"]) == 0
        assert "fig10" in capsys.readouterr().out

    def test_save_writes_table(self, tmp_path, capsys):
        assert main(["figure", "10", "--quick", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig10.txt").exists()

    def test_every_listed_id_resolves(self, capsys):
        from repro.bench.suites import get_panel

        assert main(["list"]) == 0
        ids = [line.split()[0]
               for line in capsys.readouterr().out.splitlines()[1:]]
        assert "tlc" in ids
        for panel_id in ids:
            assert get_panel(panel_id).panel_id == panel_id
        # Only a literal leading "fig" is stripped, in any case.
        assert get_panel("fig10").panel_id == "10"
        assert get_panel("FIG10").panel_id == "10"

    def test_non_figure_panel_runs(self, capsys):
        assert main(["figure", "tlc", "--quick"]) == 0
        assert "tlc" in capsys.readouterr().out


class TestTrace:
    def test_trace_sees_every_layer(self, capsys):
        # The points must run in this process under the command's
        # tracer; a per-point tracer would leave it empty.
        assert main(["trace", "4a"]) == 0
        summary = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("trace: ")]
        assert len(summary) == 1
        match = re.match(r"trace: (\d+) records .* layers: (.*)$", summary[0])
        assert int(match.group(1)) > 0
        assert {"cluster", "sockets", "transport"} <= set(
            match.group(2).split(", "))
