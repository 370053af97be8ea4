"""Tests: the legacy commit token (the simpler §6.1 implementation kept
for reference) and the command-line interface."""

import pytest

from repro.common.errors import IsaError
from repro.common.stats import Stats
from repro.htm.token import CommitToken


class TestCommitToken:
    def test_acquire_release(self):
        token = CommitToken(Stats())
        assert token.try_acquire(0)
        assert token.owner == 0
        token.release(0)
        assert token.owner is None

    def test_exclusive_between_cpus(self):
        token = CommitToken(Stats())
        assert token.try_acquire(0)
        assert not token.try_acquire(1)
        assert token.held_by_other(1)
        assert not token.held_by_other(0)
        token.release(0)
        assert token.try_acquire(1)

    def test_reentrant_per_cpu(self):
        token = CommitToken(Stats())
        assert token.try_acquire(0)
        assert token.try_acquire(0)       # re-enter (commit handlers)
        token.release(0)
        assert token.owner == 0           # still held once
        token.release(0)
        assert token.owner is None

    def test_wrong_owner_release_rejected(self):
        token = CommitToken(Stats())
        token.try_acquire(0)
        with pytest.raises(IsaError):
            token.release(1)

    def test_force_release_all(self):
        token = CommitToken(Stats())
        token.try_acquire(0)
        token.try_acquire(0)
        token.force_release_all(0)
        assert token.owner is None
        token.force_release_all(1)        # no-op for non-owner


class TestCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_overheads_command(self, capsys):
        assert self.run_cli(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "xbegin" in out and "6" in out

    def test_isa_command(self, capsys):
        assert self.run_cli(["isa"]) == 0
        out = capsys.readouterr().out
        assert "xvcurrent" in out
        assert "xrwsetclear" in out

    def test_profile_command(self, capsys):
        code = self.run_cli(
            ["profile", "swim", "--cpus", "2", "--scale", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "swim [nested]" in out and "swim [flat]" in out

    def test_io_command_small(self, capsys):
        code = self.run_cli(["io", "--max-threads", "2", "--scale", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "records" in out

    def test_condsync_command_small(self, capsys):
        code = self.run_cli(["condsync", "--max-pairs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "items" in out

    def test_figure5_small(self, capsys):
        code = self.run_cli(["figure5", "--cpus", "2", "--scale", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mp3d" in out and "SPECjbb2000-open" in out

    def test_trace_command(self, capsys):
        code = self.run_cli(
            ["trace", "swim", "--cpus", "2", "--scale", "0.25",
             "--kinds", "commit", "--limit", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "commit" in out and "events shown" in out

    def test_trace_metrics_carry_a_manifest(self, tmp_path, capsys):
        import json
        import platform

        out = tmp_path / "metrics.json"
        code = self.run_cli(
            ["trace", "litmus-sb", "--seed", "3", "--limit", "5",
             "--metrics", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["counters"]
        manifest = data["manifest"]
        assert manifest["seed"] == 3
        assert manifest["args"]["target"] == "litmus-sb"
        assert manifest["args"]["config"] == "lazy-wb-assoc"
        assert manifest["python"] == platform.python_version()
        # Same config, same digest; another config, another digest.
        other = tmp_path / "other.json"
        self.run_cli(["trace", "litmus-sb", "--seed", "3", "--limit", "5",
                      "--config", "eager-wb", "--metrics",
                      str(other)])
        assert (json.loads(other.read_text())["manifest"]["config_sha256"]
                != manifest["config_sha256"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            self.run_cli(["profile", "minesweeper"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            self.run_cli([])

    def test_all_command_small(self, capsys):
        code = self.run_cli(
            ["all", "--cpus", "2", "--scale", "0.25",
             "--max-threads", "2", "--max-pairs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "instructions per transactional event",
                       "mp3d", "records", "items"):
            assert marker in out, marker
