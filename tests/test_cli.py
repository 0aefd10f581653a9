"""Tests for repro.cli."""

import pytest

from repro.cli import build_parser, main
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.workload.profiles import USERS_FS_PROFILE
from repro.workload.trace import save_trace


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["onoff"])
        assert args.disk == "toshiba"
        assert args.profile == "system"
        assert args.days == 6

    def test_invalid_disk_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["onoff", "--disk", "ibm"])


class TestCommands:
    def test_onoff(self, capsys):
        code = main(
            ["onoff", "--hours", "0.25", "--days", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "On/Off summary (all requests)" in out
        assert "day  0 [off]" in out
        assert "day  1 [on ]" in out

    def test_policies(self, capsys):
        code = main(
            ["policies", "--hours", "0.25", "--days", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "organ-pipe" in out
        assert "serial" in out
        assert "seek reduction vs FCFS" in out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--hours", "0.25", "--counts", "5,20", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "time reduction" in out

    def test_sweep_has_no_workers_option(self):
        """``sweep`` always chains its days through one campaign (the
        paper's Figure 8 method); independent two-day points would print
        different numbers, so no worker count may select them."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workers", "2"])

    def test_workload_and_replay_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "day.trace"
        code = main(
            [
                "workload",
                "--hours",
                "0.25",
                "--seed",
                "1",
                "--out",
                str(trace),
            ]
        )
        assert code == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "top-100 share" in out

        code = main(["replay", str(trace), "--rearrange"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean seek" in out
        assert "rearranged" in out

    def test_workload_writes_the_experiment_day(self, capsys, tmp_path):
        """``repro workload`` saves the day ``Experiment`` simulates: the
        users profile's centre home band on the Fujitsu's 80 reserved
        cylinders, not a whole-disk partition on a fixed 48."""
        trace = tmp_path / "day.trace"
        args = ["--profile", "users", "--disk", "fujitsu", "--hours", "0.05"]
        code = main(["workload", *args, "--seed", "1", "--out", str(trace)])
        assert code == 0
        config = ExperimentConfig(
            profile=USERS_FS_PROFILE.scaled(hours=0.05), disk="fujitsu", seed=1
        )
        expected = tmp_path / "expected.trace"
        save_trace(Experiment(config).generator.generate_day().jobs, expected)
        assert trace.read_text() == expected.read_text()

    def test_modern_workload_replays_with_rearrangement(self, capsys, tmp_path):
        trace = tmp_path / "modern.trace"
        args = ["--disk", "modern", "--hours", "0.02", "--out", str(trace)]
        assert main(["workload", *args]) == 0
        capsys.readouterr()
        code = main(["replay", str(trace), "--disk", "modern", "--rearrange"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rearranged" in out
        assert "mean seek" in out

    def test_replay_blocks_default_to_the_disk(self):
        assert build_parser().parse_args(["replay", "t"]).blocks is None

    def test_replay_plain(self, capsys, tmp_path):
        trace = tmp_path / "day.trace"
        main(["workload", "--hours", "0.25", "--seed", "1", "--out", str(trace)])
        capsys.readouterr()
        code = main(["replay", str(trace), "--queue", "fcfs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero seeks" in out


class TestIngestCommand:
    BLK = "tests/fixtures/sample.blkparse"
    MSR = "tests/fixtures/sample.msr.csv"

    def test_ingest_characterizes(self, capsys):
        code = main(["ingest", self.BLK])
        assert code == 0
        out = capsys.readouterr().out
        assert "working set" in out
        assert "zipf exponent" in out
        assert "compact" in out

    def test_ingest_show_profile(self, capsys):
        code = main(["ingest", self.MSR, "--show-profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matched profile" in out

    def test_ingest_missing_file_fails_cleanly(self):
        with pytest.raises(SystemExit, match="ingest failed"):
            main(["ingest", "no/such/file.trace"])

    def test_ingest_malformed_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "128166372003061629,h,0,Read,8192,4096,1\n"
            "128166372003061630,h,0,Shred,8192,4096,1\n"
        )
        with pytest.raises(SystemExit, match="line 2"):
            main(["ingest", str(bad)])

    def test_full_pipeline_without_python_api(self, capsys, tmp_path):
        """repro ingest -> repro replay completes the real-trace pipeline."""
        converted = tmp_path / "converted.trace"
        code = main(
            [
                "ingest",
                self.BLK,
                "--mapping",
                "compact",
                "--out",
                str(converted),
            ]
        )
        assert code == 0
        assert converted.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

        code = main(["replay", str(converted), "--rearrange"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rearranged" in out
        assert "mean seek" in out
        assert "zero seeks" in out

    def test_ingest_for_modern_disk(self, capsys, tmp_path):
        converted = tmp_path / "modern.trace"
        code = main(["ingest", self.BLK, "--disk", "modern", "--out", str(converted)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["replay", str(converted), "--disk", "modern"]) == 0

    def test_pipeline_closed_loop_msr(self, capsys, tmp_path):
        converted = tmp_path / "msr.trace"
        code = main(
            [
                "ingest",
                self.MSR,
                "--mapping",
                "linear",
                "--loop",
                "closed",
                "--disk",
                "fujitsu",
                "--time-scale",
                "0.5",
                "--out",
                str(converted),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["replay", str(converted), "--disk", "fujitsu"])
        assert code == 0
        assert "requests" in capsys.readouterr().out
