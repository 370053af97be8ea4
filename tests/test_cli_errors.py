"""CLI error paths: bad names, bad policies, conflicting flags.

Every checking subcommand validates its comma-separated selectors with
a loud ``SystemExit`` naming the unknown entry and the universe to pick
from — a typo must never silently run an empty (vacuously green)
campaign.  The ``conform`` subcommand additionally rejects flag
combinations that would select nothing.
"""

import pytest

from repro.cli import main


def _exit_message(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    code = excinfo.value.code
    return code if isinstance(code, str) else ""


class TestCheckErrors:
    def test_bad_program_name(self):
        message = _exit_message(["check", "--programs", "no-such-prog"])
        assert "no-such-prog" in message
        assert "counter" in message  # the universe is named

    def test_bad_config_name(self):
        message = _exit_message(["check", "--configs", "sparc-v9"])
        assert "sparc-v9" in message

    def test_bad_policy_name(self):
        message = _exit_message(["check", "--policies", "fifo"])
        assert "fifo" in message
        assert "det" in message

    def test_bad_fault_choice_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--inject-fault", "cosmic-ray"])
        assert "cosmic-ray" in capsys.readouterr().err

    def test_malformed_replay_triple(self, capsys):
        assert main(["check", "--replay", "counter:lazy-wb-assoc"]) == 2
        assert "program:config:policy:seed" in capsys.readouterr().err


class TestChaosErrors:
    def test_bad_fault_name(self):
        message = _exit_message(["chaos", "--faults", "gremlins"])
        assert "gremlins" in message

    def test_bad_program_name(self):
        message = _exit_message(["chaos", "--programs", "no-such-prog"])
        assert "no-such-prog" in message


class TestExploreErrors:
    def test_bad_program_name(self):
        message = _exit_message(["explore", "--programs", "nope"])
        assert "nope" in message

    def test_malformed_replay(self, capsys):
        assert main(["explore", "--replay", "just-one-part"]) == 2
        assert "deviations" in capsys.readouterr().err


class TestConformErrors:
    def test_bad_program_name(self):
        message = _exit_message(["conform", "--programs", "no-such-prog"])
        assert "no-such-prog" in message

    def test_bad_config_name(self):
        message = _exit_message(["conform", "--configs", "z80"])
        assert "z80" in message

    def test_conflicting_litmus_flags(self):
        message = _exit_message(
            ["conform", "--litmus-only", "--skip-litmus"])
        assert "exclude each other" in message


class TestEmptyCampaigns:
    """A campaign that would check nothing must fail loudly, not report
    "0 cases run" and exit 0."""

    @pytest.mark.parametrize("argv", [
        ["check", "--seeds", "0"],
        ["chaos", "--seeds", "0"],
        ["conform", "--seeds", "0", "--skip-litmus"],
        ["check", "--seeds", "-1"],
    ])
    def test_seeds_below_one_rejected(self, argv):
        assert "--seeds must be >= 1" in _exit_message(argv)

    @pytest.mark.parametrize("command", [
        "bench", "check", "chaos", "explore", "conform"])
    def test_jobs_below_one_rejected(self, command):
        assert "--jobs must be >= 1" in _exit_message(
            [command, "--jobs", "0"])


class TestConformSmoke:
    def test_single_cell_runs_clean(self, capsys):
        code = main(["conform", "--programs", "counter",
                     "--configs", "lazy-wb-assoc", "--skip-litmus",
                     "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counter:lazy-wb-assoc:1: ok" in out
        assert "0 failed" in out

    def test_litmus_only_drain(self, capsys):
        code = main(["conform", "--programs", "litmus-token-handoff",
                     "--litmus-only"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 litmus drains" in out
        assert "0 failed" in out
