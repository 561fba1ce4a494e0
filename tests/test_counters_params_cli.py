"""Tests for counters arithmetic, parameter helpers, and the CLI."""

import pytest

from repro.core.counters import MessageCounters
from repro.core.params import NfsParams, TestbedParams
from repro.cli import build_parser, main


# ---------------------------------------------------------------- counters

def test_counter_request_reply_accounting():
    counters = MessageCounters()
    counters.count_request("LOOKUP", 128)
    counters.count_reply("LOOKUP", 256)
    assert counters.messages == 1
    assert counters.replies == 1
    assert counters.bytes_sent == 128
    assert counters.bytes_received == 256


def test_counter_retransmission_is_also_a_request():
    counters = MessageCounters()
    counters.count_request("WRITE", 100)
    counters.count_retransmission("WRITE", 100)
    assert counters.requests == 2
    assert counters.retransmissions == 1
    assert counters.by_op["WRITE"] == 2


def test_snapshot_delta_arithmetic():
    counters = MessageCounters()
    counters.count_request("A", 10)
    snap = counters.snapshot()
    counters.count_request("A", 10)
    counters.count_request("B", 20)
    counters.count_reply("B", 5)
    delta = counters.delta(snap)
    assert delta.messages == 2
    assert delta.by_op == {"A": 1, "B": 1}
    assert delta.bytes_sent == 30
    assert delta.bytes_received == 5


def test_snapshot_is_immutable_record():
    counters = MessageCounters()
    counters.count_request("X", 1)
    snap = counters.snapshot()
    counters.count_request("X", 1)
    assert snap.requests == 1
    # Frozen dataclass: assignment raises FrozenInstanceError
    # (an AttributeError subclass).
    with pytest.raises(AttributeError):
        snap.requests = 5


def test_counter_reset():
    counters = MessageCounters()
    counters.count_request("A", 10)
    counters.reset()
    assert counters.messages == 0
    assert not counters.by_op


def test_retransmits_by_op_tracked_per_op():
    counters = MessageCounters()
    counters.count_request("WRITE", 100)
    counters.count_retransmission("WRITE", 100)
    counters.count_retransmission("WRITE", 100)
    counters.count_retransmission("READ", 50)
    snap = counters.snapshot()
    assert snap.retransmits_by_op == {"WRITE": 2, "READ": 1}
    assert snap.retransmissions == 3


def test_reply_bytes_by_op_tracked_per_op():
    counters = MessageCounters()
    counters.count_request("READ", 128)
    counters.count_reply("READ", 4096)
    counters.count_reply("READ", 4096)
    counters.count_reply("GETATTR", 224)
    snap = counters.snapshot()
    assert snap.reply_bytes_by_op == {"READ": 8192, "GETATTR": 224}
    assert snap.bytes_received == 8416


def test_delta_subtracts_new_per_op_dicts():
    counters = MessageCounters()
    counters.count_reply("READ", 100)
    counters.count_retransmission("WRITE", 10)
    snap = counters.snapshot()
    counters.count_reply("READ", 50)
    counters.count_reply("WRITE", 25)
    counters.count_retransmission("WRITE", 10)
    delta = counters.delta(snap)
    assert delta.reply_bytes_by_op == {"READ": 50, "WRITE": 25}
    assert delta.retransmits_by_op == {"WRITE": 1}
    # A second snapshot minus the first must agree with the delta.
    again = counters.snapshot() - snap
    assert again.reply_bytes_by_op == delta.reply_bytes_by_op
    assert again.retransmits_by_op == delta.retransmits_by_op


def test_delta_drops_zero_entries_in_per_op_dicts():
    counters = MessageCounters()
    counters.count_reply("READ", 100)
    counters.count_retransmission("READ", 100)
    snap = counters.snapshot()
    counters.count_reply("WRITE", 5)
    delta = counters.delta(snap)
    assert "READ" not in delta.reply_bytes_by_op
    assert "READ" not in delta.retransmits_by_op
    assert delta.reply_bytes_by_op == {"WRITE": 5}


def test_reset_clears_new_per_op_dicts():
    counters = MessageCounters()
    counters.count_reply("READ", 100)
    counters.count_retransmission("READ", 100)
    counters.reset()
    assert not counters.reply_bytes_by_op
    assert not counters.retransmits_by_op


# ---------------------------------------------------------------- params

def test_params_for_version_defaults():
    v2 = NfsParams.for_version(2)
    assert v2.transport == "udp" and not v2.async_writes
    v3 = NfsParams.for_version(3)
    assert v3.transport == "tcp" and v3.async_writes
    v4 = NfsParams.for_version(4)
    assert v4.access_check_per_component and v4.rsize == 32 * 1024
    with pytest.raises(ValueError):
        NfsParams.for_version(5)


def test_params_with_rtt_is_nondestructive():
    base = TestbedParams()
    tweaked = base.with_rtt(0.050)
    assert tweaked.network.rtt == 0.050
    assert base.network.rtt != 0.050


# ---------------------------------------------------------------- cli

def test_cli_parser_knows_all_artifacts():
    from repro.paper import ARTIFACTS

    parser = build_parser()
    commands = [command for entry in ARTIFACTS for command in entry.commands]
    assert len(commands) == 16
    for command in ["list", "all", "verify"] + commands:
        args = parser.parse_args([command])
        assert callable(args.func)


def test_cli_list_runs():
    assert main(["list"]) == 0


def test_cli_quick_runs(capsys):
    assert main(["quick"]) == 0
    out = capsys.readouterr().out
    for kind in ("nfsv2", "nfsv3", "nfsv4", "iscsi", "nfs-enhanced"):
        assert kind in out


def test_cli_fig3_runs(capsys):
    assert main(["fig3", "--op", "stat"]) == 0
    assert "msgs/op" in capsys.readouterr().out


def test_cli_sec7_runs(capsys):
    assert main(["sec7"]) == 0
    assert "reduction" in capsys.readouterr().out
