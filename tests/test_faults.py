"""repro.faults: plans, the injector, and the recovery machinery it exercises."""

import json

import pytest

from repro.core import make_stack
from repro.core.runner import Cell, ExperimentRunner
from repro.faults import (
    PRESETS,
    DiskFailure,
    DuplicateWindow,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    LossBurst,
    ServerCrash,
    SlowDisk,
    resolve_plan,
)
from repro.storage import Raid5Volume


def _file_work(c, nbytes=512 * 1024):
    """Create, write, close, and stat one file; returns its size."""

    def work():
        fd = yield from c.creat("/victim")
        yield from c.write(fd, nbytes)
        yield from c.close(fd)
        st = yield from c.stat("/victim")
        return st.size

    return work


def _run_faulted(kind, plan, nbytes=512 * 1024):
    stack = make_stack(kind, fault_plan=plan)
    size = stack.run(_file_work(stack.client, nbytes)())
    stack.quiesce()
    return stack, size


# -- plans ---------------------------------------------------------------------


def test_plan_rejects_out_of_range_probabilities():
    with pytest.raises(ValueError):
        LossBurst(start=0.0, duration=1.0, loss_rate=1.5)
    with pytest.raises(ValueError):
        DuplicateWindow(start=0.0, duration=1.0, probability=-0.1)
    with pytest.raises(ValueError):
        LinkFlap(start=-1.0, duration=1.0)
    with pytest.raises(ValueError):
        SlowDisk(start=0.0, duration=1.0, slowdown=0.0)
    with pytest.raises(ValueError):
        LinkDegrade(start=0.0, duration=1.0, bandwidth_factor=0.0)
    with pytest.raises(TypeError):
        FaultPlan(events=("not-an-event",))


def test_plan_spec_round_trip():
    plan = FaultPlan(
        events=(
            LossBurst(start=0.5, duration=2.0, loss_rate=0.1),
            ServerCrash(start=3.0, duration=1.0),
            DiskFailure(start=1.0, disk=2, rebuild_after=2.0),
        ),
        seed=7,
    )
    spec = plan.to_spec()
    assert json.loads(json.dumps(spec)) == spec      # plain JSON
    assert FaultPlan.from_spec(spec) == plan


def test_from_spec_rejects_unknown_event_type():
    with pytest.raises(ValueError):
        FaultPlan.from_spec({"events": [{"type": "gremlin", "start": 0.0}]})


def test_every_preset_resolves_to_a_nonempty_plan():
    for name in PRESETS:
        assert not resolve_plan(name).is_empty


def test_resolve_plan_rejects_unknown_name():
    with pytest.raises(ValueError):
        resolve_plan("not-a-preset-and-not-a-file")


def test_resolve_plan_seed_override():
    assert resolve_plan("loss2", seed=9).seed == 9


def test_empty_plan_attaches_nothing():
    stack = make_stack("nfsv3", fault_plan=FaultPlan())
    assert stack.fault_injector is None
    assert stack.sim.fault is None


# -- the paper's recovery contrast: UDP timers vs TCP stalls -------------------


def test_udp_loss_recovered_by_rpc_retransmission():
    plan = FaultPlan(
        events=(LossBurst(start=0.0, duration=60.0, loss_rate=0.2),), seed=1
    )
    stack, size = _run_faulted("nfsv2", plan)
    assert size == 512 * 1024                        # correct despite drops
    assert stack.fault_injector.counts.get("msg.drop", 0) > 0
    assert stack.counters.retransmissions > 0


def test_tcp_loss_stalls_below_the_rpc_layer():
    plan = FaultPlan(
        events=(LossBurst(start=0.0, duration=60.0, loss_rate=0.2),), seed=1
    )
    baseline, _ = _run_faulted("nfsv3", FaultPlan())
    stack, size = _run_faulted("nfsv3", plan)
    assert size == 512 * 1024
    assert stack.fault_injector.counts.get("msg.tcp-stall", 0) > 0
    assert stack.fault_injector.counts.get("msg.drop", 0) == 0
    assert stack.counters.retransmissions == 0       # repaired by "TCP"
    assert stack.now > baseline.now                  # but not for free


# -- crash, flap, and session recovery -----------------------------------------


def test_crash_restarts_nfs_server_and_work_completes():
    plan = FaultPlan(events=(ServerCrash(start=0.002, duration=0.05),))
    stack, size = _run_faulted("nfsv3", plan)
    assert size == 512 * 1024
    assert stack.server.restarts == 1


def test_crash_drops_and_relogs_in_iscsi_session():
    plan = FaultPlan(events=(ServerCrash(start=0.002, duration=0.05),))
    stack, size = _run_faulted("iscsi", plan)
    assert size == 512 * 1024
    assert stack.initiator.session_drops == 1
    assert stack.initiator.logins == 1
    assert stack.target.logins_served == 1


def test_flap_relogs_in_iscsi_session():
    plan = FaultPlan(events=(LinkFlap(start=0.002, duration=0.05),))
    stack, size = _run_faulted("iscsi", plan)
    assert size == 512 * 1024
    assert stack.initiator.session_drops == 1
    assert stack.initiator.logins == 1


# -- degraded storage ----------------------------------------------------------


def test_degraded_raid_reads_reconstruct(sim):
    raid = Raid5Volume(sim)

    def work():
        yield from raid.write(0, 64)
        raid.fail_disk(1)
        yield from raid.read(0, 64)

    sim.run_process(work())
    assert raid.disk_failures == 1
    assert raid.degraded_reads > 0


def test_raid_rebuild_leaves_degraded_mode(sim):
    raid = Raid5Volume(sim)

    def work():
        yield from raid.write(0, 64)
        raid.fail_disk(1)
        yield from raid.repair_disk(rebuild_blocks=64)
        before = raid.degraded_reads
        yield from raid.read(0, 64)                  # healthy again
        return before

    before = sim.run_process(work())
    assert raid.rebuild_writes > 0
    assert raid.degraded_reads == before


def test_raid_second_failure_is_rejected(sim):
    raid = Raid5Volume(sim)
    raid.fail_disk(0)
    with pytest.raises(RuntimeError):
        raid.fail_disk(1)
    with pytest.raises(ValueError):
        raid.fail_disk(99)


def test_slow_disk_and_degraded_link_cost_time():
    slow = FaultPlan(
        events=(SlowDisk(start=0.0, duration=600.0, disk=0, slowdown=8.0),)
    )
    thin = FaultPlan(
        events=(
            LinkDegrade(
                start=0.0, duration=600.0, bandwidth_factor=0.05, extra_latency=0.002
            ),
        )
    )
    baseline, _ = _run_faulted("iscsi", FaultPlan())
    slowed, _ = _run_faulted("iscsi", slow)
    thinned, _ = _run_faulted("iscsi", thin)
    assert slowed.now > baseline.now
    assert thinned.now > baseline.now


# -- determinism ---------------------------------------------------------------


def _scenario_cell():
    return Cell(
        "faults_scenario?smoke",
        "faults_scenario",
        {"kind": "nfsv2", "workload": "smoke", "plan": "loss10", "seed": 0},
    )


def test_fault_scenario_cell_is_deterministic():
    first = ExperimentRunner(jobs=None, use_cache=False).run([_scenario_cell()])
    second = ExperimentRunner(jobs=None, use_cache=False).run([_scenario_cell()])
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_fault_scenario_cell_reports_recovery_counters():
    cell = Cell(
        "faults_scenario?crash",
        "faults_scenario",
        {"kind": "nfsv3", "workload": "smoke", "plan": "crash", "seed": 0},
    )
    record = ExperimentRunner(jobs=None, use_cache=False).run([cell])[cell.id]
    assert record["recovery"]["server_restarts"] == 1
    assert record["faults"]["counts"]
