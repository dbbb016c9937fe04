"""CLI parser and the fast subcommands."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_pair_args(self):
        args = build_parser().parse_args(
            ["--time-scale", "0.1", "pair", "kmeans", "gmm",
             "--manager", "dps"]
        )
        assert args.command == "pair"
        assert args.workload_a == "kmeans"
        assert args.manager == ["dps"]
        assert args.time_scale == 0.1

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig4"])
        assert args.which == "fig4"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_worker_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["worker", "h:1"])
        assert exc.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err


class TestFastCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kmeans" in out and "dps" in out

    def test_list_says_which_decision_core_runs(self, capsys):
        """One line names the compiled library, or why the fallback runs."""
        from repro.core import _native
        from tests.core.oracles import no_native

        compiled, detail = _native.status()
        assert main(["list"]) == 0
        mode = "compiled" if compiled else "python fallback"
        assert f"kernels: {mode} ({detail})" in capsys.readouterr().out
        with no_native():
            assert main(["list"]) == 0
        assert (
            "kernels: python fallback (switched off)"
            in capsys.readouterr().out
        )

    def test_figure1(self, capsys):
        assert main(["figure", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "dps" in out

    def test_pair_runs(self, capsys):
        code = main(
            ["--time-scale", "0.05", "--repeats", "1",
             "pair", "sort", "wordcount", "--manager", "constant"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness" in out

    def test_chaos_pair_reports_the_budget_held(self, capsys):
        code = main(
            ["--time-scale", "0.05", "--repeats", "1",
             "pair", "kmeans", "gmm", "--manager", "dps",
             "--chaos", "stuck=0.05,dropout=0.05,spike=0.02,kill=1@5-15"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("manager"))
        row = next(line for line in lines if line.startswith("dps")).split()
        columns = [c.strip() for c in header.split("  ") if c.strip()]
        assert columns == [
            "manager", "runs done", "truncated", "budget ok", "node fails",
            "recoveries",
        ]
        assert row == ["dps", "2", "no", "yes", "1", "1"]

    def test_checkpointed_self_pair_finishes_and_resumes(self, capsys, tmp_path):
        # Half 1 runs as linear@1, so both halves keep their own results,
        # and the session's resume places the pair the same way.
        head = ["--time-scale", "0.05", "--repeats", "1"]
        assert main(
            [*head, "pair", "linear", "linear", "--manager", "dps",
             "--checkpoint-dir", str(tmp_path)]
        ) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("dps")
        ).split()
        assert row[0:2] == ["dps", "2"] and row[3] == "cold"
        assert row[-1] == "yes"
        assert main([*head, "resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("resumed pair linear/linear")
        row = next(line for line in out.splitlines() if line.startswith("dps"))
        assert row.split()[3] == "cycle" and row.split()[-1] == "yes"

    def test_campaign_runs_and_writes(self, capsys, tmp_path):
        out_file = tmp_path / "campaign.json"
        code = main(
            ["--time-scale", "0.05", "--repeats", "1",
             "campaign", "--group", "low_utility", "--limit-pairs", "1",
             "--out", str(out_file)]
        )
        assert code == 0
        assert "campaign summary" in capsys.readouterr().out
        from repro.experiments.campaign import CampaignResult

        restored = CampaignResult.from_json(out_file.read_text())
        assert len(restored.records) == 3  # 1 pair x 3 low-utility managers.

    def test_sweep_parser(self):
        args = build_parser().parse_args(
            ["sweep", "noise", "--pair", "bayes", "sort"]
        )
        assert args.which == "noise"
        assert args.pair == ["bayes", "sort"]

    def test_report_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "c.json"
        main(
            ["--time-scale", "0.05", "--repeats", "1",
             "campaign", "--group", "low_utility", "--limit-pairs", "1",
             "--out", str(out_file)]
        )
        capsys.readouterr()
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "# Campaign report" in out
        assert "## low_utility" in out

    def test_pair_checkpointed_then_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "session"
        code = main(
            ["--time-scale", "0.05", "--repeats", "1",
             "pair", "sort", "wordcount", "--manager", "constant",
             "--checkpoint-dir", str(ckpt), "--checkpoint-every", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpointed pair sort/wordcount" in out
        assert "cold" in out and "budget ok" in out
        # The session is self-describing: meta + per-manager state on disk.
        assert (ckpt / "session.json").exists()
        assert (ckpt / "constant" / "journal.log").exists()
        assert list((ckpt / "constant").glob("ckpt-*.bin"))

        assert main(["resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "resumed pair sort/wordcount" in out
        assert "cycle" in out  # Warm restore, not a cold start.

    def test_resume_of_nonexistent_session_fails_helpfully(self, tmp_path):
        with pytest.raises(SystemExit, match="resumable"):
            main(["resume", str(tmp_path / "nope")])

    def test_checkpointed_chaos_pair_finishes_and_resumes(
        self, capsys, tmp_path
    ):
        # The session keeps the spec, so resume runs under it again.
        head = ["--time-scale", "0.05", "--repeats", "1"]
        spec = "stuck=0.05,dropout=0.05,spike=0.02,kill=1@5-15"
        assert main(
            [*head, "pair", "kmeans", "gmm", "--manager", "dps",
             "--chaos", spec, "--checkpoint-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith(f"chaos {spec}):")
        row = next(line for line in out.splitlines() if line.startswith("dps"))
        assert row.split()[3] == "cold" and row.split()[-1] == "yes"
        session = json.loads((tmp_path / "session.json").read_text())
        assert session["chaos"] == spec
        assert main([*head, "resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("resumed pair kmeans/gmm")
        assert out.splitlines()[0].endswith(f"chaos {spec}):")
        row = next(line for line in out.splitlines() if line.startswith("dps"))
        assert row.split()[3] == "cycle" and row.split()[-1] == "yes"

    def test_a_session_without_chaos_keeps_its_old_document(self, tmp_path):
        assert main(
            ["--time-scale", "0.05", "--repeats", "1",
             "pair", "sort", "wordcount", "--manager", "constant",
             "--checkpoint-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "session.json").read_text() == json.dumps(
            {
                "workload_a": "sort",
                "workload_b": "wordcount",
                "managers": ["constant"],
                "time_scale": 0.05,
                "repeats": 1,
                "seed": 42,
                "checkpoint_every": 10,
            }
        )

    def test_a_bad_chaos_spec_starts_no_session(self, tmp_path):
        with pytest.raises(ValueError, match="key=value"):
            main(
                ["pair", "sort", "wordcount", "--chaos", "flaky_nodes",
                 "--checkpoint-dir", str(tmp_path / "s")]
            )
        assert not (tmp_path / "s").exists()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "dps" in proc.stdout


class TestShardsCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["shards"])
        assert args.command == "shards"
        assert args.shards == 4
        assert args.nodes == 16
        assert args.kill is None

    def test_rejects_malformed_chaos_tokens(self):
        with pytest.raises(SystemExit, match="SHARD@CYCLE"):
            main(["shards", "--kill", "nonsense"])
        with pytest.raises(SystemExit, match="START-END"):
            main(["shards", "--partition", "1@bad"])
        with pytest.raises(SystemExit, match="SHARD@START-END"):
            main(["shards", "--partition", "4-9"])
        with pytest.raises(SystemExit, match="END > START"):
            main(["shards", "--arbiter-outage", "9-3"])

    def test_rejects_unknown_manager(self):
        with pytest.raises(SystemExit, match="unknown manager"):
            main(["shards", "--manager", "nope"])

    def test_rejects_demand_manager(self):
        with pytest.raises(SystemExit, match="demand"):
            main(["shards", "--manager", "oracle"])

    def test_clean_run_renders_summary(self, capsys):
        code = main(
            ["shards", "--shards", "2", "--nodes", "4", "--cycles", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded control plane (thread mode): 2 shards" in out
        assert "budget respected" in out
        assert "0 violation(s)" in out

    def test_thread_mode_rejects_membership_flags(self):
        with pytest.raises(SystemExit, match="process"):
            main(["shards", "--shards", "2", "--nodes", "4", "--cycles", "6",
                  "--admit-at", "2"])
        with pytest.raises(SystemExit, match="process"):
            main(["shards", "--shards", "2", "--nodes", "4", "--cycles", "6",
                  "--drain", "1@2"])

    def test_process_run_with_drain_renders_membership(self, capsys, tmp_path):
        code = main(
            ["shards", "--shards", "2", "--nodes", "4", "--cycles", "10",
             "--mode", "process", "--drain", "1@4",
             "--checkpoint-dir", str(tmp_path / "ckpt")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded control plane (process mode): 2 shards" in out
        assert "drained: shard 1 (rc=0)" in out
        assert "shard_draining" in out
        assert "shard_drained" in out
        assert "budget respected" in out
        assert "0 violation(s)" in out

    def test_chaos_run_writes_lease_timeline(self, capsys, tmp_path):
        timeline = tmp_path / "leases.json"
        code = main(
            ["shards", "--shards", "2", "--nodes", "4", "--cycles", "10",
             "--kill", "1@3", "--arbiter-outage", "4-7",
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--lease-timeline", str(timeline)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard_killed" in out
        assert "arbiter_restarted" in out
        from repro.telemetry.export import leases_from_json

        restored = leases_from_json(timeline.read_text())
        assert len(restored) > 0
        assert (tmp_path / "ckpt" / "arbiter").exists()
