"""A fired combinator keeps nothing alive, on full stacks.

An RPC call waits on ``AnyOf([reply, retransmission timer])``, and the
timer stays pending for a second after the reply; an iSCSI command in
fault mode waits on ``AnyOf([exchange, session drop])``, and the drop
event stays pending until the session drops.  Once the combinator has
fired, neither loser may keep it (and the reply it carries) alive.  Both
checks are counts, so they read the same on every CPython.
"""

from __future__ import annotations

import gc

import repro.workloads.tpcc as tpcc
from repro.core.comparison import make_stack
from repro.core.params import CacheParams, TestbedParams
from repro.faults import resolve_plan
from repro.obs.bench import WORKLOADS
from repro.sim import AnyOf, Process, Timeout

MB = 1024 * 1024


def test_answered_calls_keep_nothing_alive(monkeypatch):
    # perfbench's oltp-nfsv3 case at the call-count gate's sizes.
    stacks = []
    make = tpcc.make_stack

    def capture(*args, **kwargs):
        stacks.append(make(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(tpcc, "make_stack", capture)
    params = TestbedParams(cache=CacheParams(client_cache_bytes=8 * MB,
                                             server_cache_bytes=12 * MB))
    tpcc.TpccWorkload("nfsv3", transactions=20, table_mb=1, ntables=2,
                      workers=10, params=params, seed=1).run()
    sim = stacks[0].sim
    timers = [record[3] for record in sim.pending()
              if isinstance(record[3], Timeout)]
    lane_timers = [timer for timer in timers if timer.delay in sim._lanes]
    # The answered calls' retransmission timers are still pending...
    assert len(lane_timers) > 500
    # ...and wake nobody.  The only waiters left on any pending timer are
    # the server's sleeping daemons (buffer flusher, journal commit).
    assert all(timer._callbacks == [] for timer in lane_timers)
    assert all(waiter.__class__ is Process
               for timer in timers for waiter in timer._callbacks)
    gc.collect()
    assert [obj for obj in gc.get_objects()
            if obj.__class__ is AnyOf and obj.sim is sim] == []


class _DropWaiters:
    """A per-record observer: the most waiters the initiator's session
    drop event held beyond its commands in flight."""

    def __init__(self, initiator):
        self.initiator = initiator
        self.most = 0
        self.excess = 0

    def note_event(self, record):
        initiator = self.initiator
        waiters = len(initiator._drop_event._callbacks)
        in_flight = initiator.commands_issued - initiator.commands_completed
        self.most = max(self.most, waiters)
        self.excess = max(self.excess, waiters - in_flight)


def test_session_drop_event_holds_only_commands_in_flight():
    stack = make_stack("iscsi", fault_plan=resolve_plan("loss2"))
    initiator = stack.initiator
    stack.sim.recorder = observer = _DropWaiters(initiator)
    stack.run(WORKLOADS["seqwrite"](stack.client), name="seqwrite")
    stack.quiesce()
    assert initiator.fault_mode and initiator.commands_issued >= 40
    assert initiator.commands_completed == initiator.commands_issued
    assert observer.most >= 2   # commands overlap on the wire
    assert observer.excess <= 0
    assert initiator._drop_event._callbacks == []
