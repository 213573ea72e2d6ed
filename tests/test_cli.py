"""CLI smoke tests (fast subcommands only)."""

import json
import warnings

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_have_subcommands(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name] if name not in (
                "fig4", "fig5", "fig6", "fig7", "guard", "deploy", "churn"
            ) else [name])
            assert args.command == name

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "RSBF" in capsys.readouterr().out

    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "PEEL rules" in out
        assert "saves" in out

    def test_frag(self, capsys):
        assert main(["frag"]) == 0
        assert "window" in capsys.readouterr().out

    def test_fig7_tiny(self, capsys):
        assert main(["fig7", "--failures", "4", "--num-jobs", "4",
                     "--workers", "1"]) == 0
        assert "peel" in capsys.readouterr().out

    def test_fig7_with_invariants(self, capsys):
        assert main(
            ["fig7", "--failures", "4", "--num-jobs", "2", "--workers", "1",
             "--check-invariants"]
        ) == 0
        assert "peel" in capsys.readouterr().out

    def test_fig7_parallel_workers(self, capsys):
        assert main(["fig7", "--failures", "4", "--num-jobs", "2",
                     "--workers", "2"]) == 0
        assert "peel" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        """``--workers``/``-j`` is the one spelling of the worker count."""
        assert main(["fig7", "--failures", "4", "--num-jobs", "2",
                     "--workers", "1"]) == 0
        assert "peel" in capsys.readouterr().out
        args = build_parser().parse_args(["fig7", "-j", "2"])
        assert args.workers == 2

    def test_jobs_flag_is_gone(self, capsys):
        """``--jobs`` is neither a flag nor an abbreviation of one."""
        with pytest.raises(SystemExit) as exc:
            main(["fig7", "--jobs", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err

    def test_workers_flag_never_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_parser().parse_args(["fig7", "--workers", "3"])
            build_parser().parse_args(["fig7", "-j", "3"])
        assert [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ] == []

    def test_failover_sweep(self, capsys):
        assert main(["failover", "--protection", "0", "1", "-j", "1"]) == 0
        out = capsys.readouterr().out
        assert "reactive re-peel" in out
        assert "local failover" in out
        assert "budget/switch" in out

    def test_faults_demo(self, capsys, tmp_path):
        trace = tmp_path / "golden.txt"
        assert main(
            ["faults", "--gpus", "8", "--message-mb", "1",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "re-plans" in out
        assert "OK (0 violations)" in out
        assert trace.read_text().strip()  # digest written

    def test_faults_with_schedule_file(self, capsys, tmp_path):
        from repro.faults import FaultSchedule

        path = tmp_path / "faults.json"
        FaultSchedule().drop_segments(
            "spine:0", "leaf:0", at_s=1e-4, count=1
        ).save(path)
        assert main(
            ["faults", "--gpus", "8", "--message-mb", "1",
             "--schedule", str(path)]
        ) == 0
        assert "invariants" in capsys.readouterr().out

    def test_serve_tiny(self, capsys):
        assert main(
            ["serve", "--loads", "0.5", "--num-jobs", "12", "--workers", "1",
             "--schemes", "peel"]
        ) == 0
        out = capsys.readouterr().out
        assert "hit%" in out
        assert "peel" in out

    def test_obs_writes_artifacts(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.metrics.json"
        assert main(
            ["obs", "--scenario", "headline",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        loaded = json.load(trace.open())
        cats = {e.get("cat") for e in loaded["traceEvents"]}
        assert {"collective", "transfer"} <= cats
        assert json.load(metrics.open())

    def test_obs_sample_interval_and_detail_flags(self, capsys):
        assert main(
            ["obs", "--scenario", "fault", "--sample-interval", "2e-4",
             "--detail", "transfer"]
        ) == 0
        assert "sampler ticks" in capsys.readouterr().out

    def test_replay_headline(self, capsys):
        assert main(["replay", "--scenario", "headline"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "DIVERGED" not in out

    def test_replay_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--scenario", "nope"])

    def test_soak_tiny(self, capsys, tmp_path):
        assert main(
            ["soak", "--epochs", "1", "--state-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1/1" in out
        assert (tmp_path / "soak.json").exists()

    def test_obs_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--scenario", "nope"])

    def test_serve_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--schemes", "ring"])

    def test_faults_rejects_unrecoverable_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--scheme", "ring"])


class TestArgumentBoundary:
    """A bad scheme spec or fault schedule is a one-line usage error
    (exit 2), never a traceback from inside the run."""

    def usage_error(self, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = [ln for ln in err.splitlines() if "error:" in ln]
        return line

    @pytest.mark.parametrize(
        "spec", ["elmo:bogus=1", "nosuch", "elmo:header_bytes"]
    )
    def test_frontier_bad_scheme_spec(self, capsys, spec):
        line = self.usage_error(
            ["frontier", "--sizes", "2", "--fanouts", "1", "--schemes",
             "peel", spec],
            capsys,
        )
        assert "argument --schemes" in line

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param('{"at_ms": 1', id="not-json"),
            pytest.param('{"at_ms": 1}', id="not-a-list"),
            pytest.param('[3]', id="event-not-an-object"),
            pytest.param('[{"at_ms": 1, "action": "switch_down"}]',
                         id="switch-missing"),
            pytest.param('[{"at_ms": 1, "action": "explode", '
                         '"link": ["a", "b"]}]', id="unknown-action"),
            pytest.param('[{"at_ms": [1], "action": "link_down", '
                         '"link": ["a", "b"]}]', id="time-not-a-number"),
        ],
    )
    def test_faults_bad_schedule(self, capsys, tmp_path, content):
        path = tmp_path / "faults.json"
        path.write_text(content)
        line = self.usage_error(["faults", "--schedule", str(path)], capsys)
        assert "argument --schedule" in line

    @pytest.mark.parametrize(
        "event, message",
        [
            pytest.param({"action": "link_down", "link": ["spine:99", "leaf:0"]},
                         "no such link", id="unknown-link"),
            pytest.param({"action": "switch_down", "switch": "spine:99"},
                         "unknown switch", id="unknown-switch"),
        ],
    )
    def test_faults_schedule_names_what_the_fabric_lacks(
        self, capsys, tmp_path, event, message
    ):
        """Well-formed, but only the built fabric can tell it is wrong."""
        path = tmp_path / "faults.json"
        path.write_text(json.dumps([dict(at_ms=1, **event)]))
        line = self.usage_error(["faults", "--schedule", str(path)], capsys)
        assert "argument --schedule" in line
        assert message in line

    def test_faults_missing_schedule(self, capsys, tmp_path):
        line = self.usage_error(
            ["faults", "--schedule", str(tmp_path / "missing.json")], capsys
        )
        assert "argument --schedule" in line
