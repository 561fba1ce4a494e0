"""repro.check: simlint rule fixtures and simsan injected-failure scenarios.

Each lint rule gets a positive fixture (flags), a negative fixture (does
not flag), and a suppression fixture.  Each sanitizer check gets an
injected scenario that makes it fire, plus the clean-run contract: a
sanitized run reports nothing and produces bit-identical results.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os

import pytest

from repro.check import simlint
from repro.check.simlint import lint_source
from repro.check.simsan import (
    Finding,
    SanitizerError,
    SimSan,
)
from repro.cli import main
from repro.core.comparison import make_stack
from repro.core.params import TestbedParams
from repro.net.message import REPLY, Message
from repro.obs import bench

from .test_sim_kernel import _Dispatched


def codes(source):
    return [v.code for v in lint_source(source)]


# ---------------------------------------------------------------- simlint: D


def test_d101_flags_wall_clock():
    assert codes("import time\nstart = time.perf_counter()\n") == ["D101"]
    assert codes("from datetime import datetime\nd = datetime.now()\n") \
        == ["D101"]


def test_d101_negative_sim_clock():
    assert codes("start = sim.now\n") == []


def test_d101_suppressed_on_line():
    src = ("import time\n"
           "t = time.time()  # simlint: disable=D101 -- host-side timing\n")
    assert codes(src) == []


def test_d102_flags_global_rng_and_unseeded_random():
    assert codes("import random\nx = random.random()\n") == ["D102"]
    assert codes("import random\nrandom.shuffle(items)\n") == ["D102"]
    assert codes("import random\nrng = random.Random()\n") == ["D102"]


def test_d102_negative_seeded_instance():
    src = ("import random\n"
           "rng = random.Random(7)\n"
           "x = rng.random()\n")
    assert codes(src) == []


def test_d102_file_wide_suppression():
    src = ("# simlint: disable-file=D102 -- test fixture wants OS entropy\n"
           "import random\n"
           "a = random.random()\n"
           "b = random.randint(0, 9)\n")
    assert codes(src) == []


def test_d103_flags_set_iteration():
    assert codes("for item in {1, 2, 3}:\n    use(item)\n") == ["D103"]
    assert codes("out = [f(x) for x in set(items)]\n") == ["D103"]
    # Order-preserving wrappers don't launder the set away.
    assert codes("for item in list(set(items)):\n    use(item)\n") \
        == ["D103"]


def test_d103_negative_sorted():
    assert codes("for item in sorted(set(items)):\n    use(item)\n") == []
    assert codes("for item in [1, 2, 3]:\n    use(item)\n") == []


def test_d103_flags_set_laundered_through_local():
    # The v1 false negative: the set hides behind an intermediate name.
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    for name in names:\n"
           "        use(name)\n")
    assert codes(src) == ["D103"]
    # ...including through an order-preserving copy of the local.
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    snapshot = list(names)\n"
           "    for name in snapshot:\n"
           "        use(name)\n")
    assert codes(src) == ["D103"]


def test_d103_flags_dict_views_on_dict_built_from_set():
    src = ("def go(items):\n"
           "    index = {name: 0 for name in set(items)}\n"
           "    for name in index.keys():\n"
           "        use(name)\n")
    assert codes(src) == ["D103", "D103"]  # the comprehension + the view
    src = ("def go(names):\n"
           "    index = dict.fromkeys(set(names))\n"
           "    for name in index:\n"
           "        use(name)\n")
    assert codes(src) == ["D103"]


def test_d103_laundering_negatives():
    # Reassignment to an ordered value clears the tracking.
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    names = sorted(names)\n"
           "    for name in names:\n"
           "        use(name)\n")
    assert codes(src) == []
    # A comprehension feeding an order-insensitive consumer is fine.
    assert codes("def go(s):\n"
                 "    findings = set(s)\n"
                 "    return sorted(list(f) for f in findings)\n") == []
    assert codes("def go(s):\n"
                 "    findings = set(s)\n"
                 "    return max(f for f in findings)\n") == []


def test_d103_laundering_suppressed():
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    for name in names:"
           "  # simlint: disable=D103 -- order-free side effect\n"
           "        use(name)\n")
    assert codes(src) == []


def test_d104_flags_float_equality_on_now():
    assert codes("if sim.now == deadline:\n    fire()\n") == ["D104"]
    assert codes("done = now != start\n") == ["D104"]


def test_d104_negative_ordering_comparisons():
    assert codes("if sim.now >= deadline:\n    fire()\n") == []
    assert codes("if count == 3:\n    fire()\n") == []


def test_d104_negative_tolerance_comparisons():
    assert codes("assert sim.now == pytest.approx(end, abs=1e-9)\n") == []
    assert codes("assert approx(end) == now\n") == []
    # Without the tolerance call the same comparisons still flag.
    assert codes("assert sim.now == deadline\n") == ["D104"]
    assert codes("assert now != start\n") == ["D104"]


# ---------------------------------------------------------------- simlint: P


def test_p201_flags_non_generator_process():
    src = ("def worker():\n"
           "    return 1\n"
           "sim.spawn(worker())\n")
    assert codes(src) == ["P201"]


def test_p201_negative_generator_and_foreign_run():
    src = ("def worker():\n"
           "    yield sim.timeout(1)\n"
           "sim.spawn(worker())\n")
    assert codes(src) == []
    # `.run` on non-simulator receivers (ExperimentRunner etc.) is fine.
    src = ("def cell():\n"
           "    return 1\n"
           "runner.run(cell())\n")
    assert codes(src) == []


def test_p202_flags_unreleased_acquire():
    src = ("def proc():\n"
           "    yield from resource.acquire()\n"
           "    yield sim.timeout(1)\n")
    assert codes(src) == ["P202"]


def test_p202_negative_try_finally():
    src = ("def proc():\n"
           "    yield from resource.acquire()\n"
           "    try:\n"
           "        yield sim.timeout(1)\n"
           "    finally:\n"
           "        resource.release()\n")
    assert codes(src) == []


def test_p203_flags_dropped_sim_result():
    src = ("def proc():\n"
           "    sim.timeout(5)\n"
           "    yield sim.timeout(1)\n")
    assert codes(src) == ["P203"]


def test_p203_negative_yielded_or_bound():
    src = ("def proc():\n"
           "    yield sim.timeout(5)\n"
           "    evt = sim.event()\n"
           "    yield evt\n")
    assert codes(src) == []


def test_p203_flags_dropped_eager_calls():
    # An eager call acts when made; dropping its result leaves the process
    # running ahead of its hold or I/O, so the message says what to do.
    src = ("def proc():\n"
           "    cpu.use(0.1)\n"
           "    lock.acquire()\n"
           "    cache.read_range(0, 4)\n"
           "    cache.write_range(0, 4)\n"
           "    yield from cpu.use(0.1)\n"
           "    yield from cache.read_range(0, 4)\n"
           "    pending = cache.write_range(0, 4)\n"
           "    yield from pending\n")
    violations = lint_source(src)
    assert [v.code for v in violations] == ["P203"] * 4
    assert [v.line for v in violations] == [2, 3, 4, 5]
    assert all("must be yielded from" in v.message for v in violations)
    assert "must be yielded from" in simlint.RULES["P203"].hint


def test_p203_flags_dropped_eager_layer_helpers():
    # The ext3 and NFS server helpers return () when nothing waits, so a
    # dropped result passes every run that never reaches their waiting
    # branch (a throttled cache, a CB_INVALIDATE callback).
    src = ("def setattr(self, inode):\n"
           "    self._dirty_inode(inode)\n"
           "    self._update_atime(inode)\n"
           "    self._invalidate(inode.ino, client)\n"
           "    yield from self._dirty_inode(inode)\n"
           "    yield from self._invalidate(inode.ino, client)\n")
    violations = lint_source(src)
    assert [(v.code, v.line) for v in violations] == [
        ("P203", 2), ("P203", 3), ("P203", 4)]


def test_p203_leaves_file_read_and_write_alone():
    src = ("def copy(src, dst):\n"
           "    dst.write(src.read(4096))\n"
           "    handle.read()\n")
    assert codes(src) == []


# ---------------------------------------------------------------- simlint: O


def test_o301_flags_unguarded_tracer_hook():
    assert codes("tracer.instant('x', cat='y')\n") == ["O301"]
    assert codes("span = self.tracer.begin_span('op')\n") == ["O301"]


def test_o301_negative_guarded_and_end_span():
    src = ("if tracer.enabled:\n"
           "    tracer.instant('x', cat='y')\n")
    assert codes(src) == []
    # end_span(None) is the documented safe no-op; never flagged.
    assert codes("tracer.end_span(span)\n") == []


def test_o302_flags_unguarded_telemetry_hook():
    assert codes("self.telem.count('net.delivered')\n") == ["O301"]
    assert codes("telem.observe('queue.depth', 4.0)\n") == ["O301"]
    assert codes("self.telemetry.count('ops', 2.0)\n") == ["O301"]


def test_o302_negative_guarded():
    src = ("telem = self.telem\n"
           "if telem is not None:\n"
           "    telem.count('net.delivered')\n")
    assert codes(src) == []
    # Plain truthiness on a telem-ish name is also an accepted guard.
    src = ("if self.telemetry:\n"
           "    self.telemetry.observe('q', 1.0)\n")
    assert codes(src) == []
    # `count`/`observe` on non-telemetry receivers are not our hooks.
    assert codes("stats.count('x')\n") == []
    assert codes("n = items.count(3)\n") == []


def test_o302_suppressed():
    src = "self.telem.count('x')  # simlint: disable=O301\n"
    assert codes(src) == []


def test_o301_negative_guarded_and_foreign_receivers_of_a_sanitizer_hook():
    # Each guarded form beside its positive control: the same hook call
    # with the guard removed is flagged.
    guarded = ("san = self.sim.san\n"
               "if san is not None:\n"
               "    san.note_send(self, msg)\n")
    assert codes(guarded) == []
    assert codes("san = self.sim.san\nsan.note_send(self, msg)\n") \
        == ["O301"]
    # Plain truthiness on a san-ish name is also an accepted guard.
    guarded = ("if self.sim.san:\n"
               "    self.sim.san.note_send(self, msg)\n")
    assert codes(guarded) == []
    assert codes("self.sim.san.note_send(self, msg)\n") == ["O301"]
    # A hook name on a receiver that is not the sanitizer, and the
    # sanitizer's own non-hook methods, are not hooks.
    assert codes("peer.note_send(self, msg)\n") == []
    assert codes("findings = san.verify()\n") == []


def test_o301_suppressed_sanitizer_hook():
    hook = "self.sim.san.note_send(self, msg)"
    assert codes(hook + "  # simlint: disable=O301\n") == []
    assert codes(hook + "\n") == ["O301"]   # without the suppression


def test_o301_covers_sanitizer_and_fault_hooks():
    assert codes("self.sim.san.note_send(self, msg)\n") == ["O301"]
    assert codes("fault.filter_message(msg, True)\n") == ["O301"]
    src = ("san = self.sim.san\n"
           "if san is not None:\n"
           "    san.note_request_served(self, msg)\n"
           "fault = self.sim.fault\n"
           "if fault is not None:\n"
           "    verdict = fault.filter_message(msg, True)\n")
    assert codes(src) == []
    # A guard on another instrument does not cover this one.
    src = ("if tracer is not None:\n"
           "    san.note_send(self, msg)\n")
    assert codes(src) == ["O301"]


# ------------------------------------------------------------ simlint: misc


def test_rule_catalog_and_hints():
    assert set(simlint.RULES) == {
        "D101", "D102", "D103", "D104", "P201", "P202", "P203", "O301",
    }
    violations = lint_source("import time\nt = time.time()\n")
    assert len(violations) == 1
    assert "sim.now" in violations[0].hint


def test_format_text_and_json():
    violations = lint_source("import time\nt = time.time()\n", path="x.py")
    text = simlint.format_text(violations)
    assert "x.py:2:" in text and "D101" in text
    assert text.endswith("simlint: 1 violation")
    assert simlint.format_text([]) == "simlint: clean"
    doc = json.loads(simlint.format_json(violations))
    assert doc["tool"] == "simlint"
    assert doc["violations"][0]["code"] == "D101"
    assert "D103" in doc["rules"]


def test_repo_tree_is_lint_clean():
    # The package; the tests and benchmarks are held to the same
    # contract in test_check_program.py.
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert simlint.lint_paths([package_dir]) == []


@pytest.fixture
def dirty_tree(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "import time\n"
        "import random\n"
        "def go(sim):\n"
        "    t = time.time()\n"
        "    rng = random.Random()\n"
        "    for x in {'b', 'a'}:\n"
        "        sim.log(x)\n")
    return tmp_path


def test_lint_paths_is_deterministic_across_reruns(dirty_tree):
    (dirty_tree / "second.py").write_text(
        "import random\n"
        "x = random.random()\n")
    first = simlint.lint_paths([str(dirty_tree)])
    second = simlint.lint_paths([str(dirty_tree)])
    assert [v.code for v in first] == ["D101", "D102", "D103", "D102"]
    assert first == second
    assert simlint.format_json(first) == simlint.format_json(second)


# ------------------------------------------------------- simlint: the CLI


def test_cli_exit_codes(dirty_tree, tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(dirty_tree / "dirty.py")]) == 1
    capsys.readouterr()


def test_cli_json_is_stable_and_sorted(dirty_tree, capsys):
    main(["lint", "--format", "json", str(dirty_tree)])
    first = capsys.readouterr().out
    main(["lint", "--format", "json", str(dirty_tree)])
    second = capsys.readouterr().out
    assert first == second
    document = json.loads(first)
    assert list(document) == sorted(document)
    assert json.dumps(document, indent=2, sort_keys=True) + "\n" == first


def test_cli_debt_exit_codes(tmp_path, capsys):
    reasoned = tmp_path / "reasoned.py"
    reasoned.write_text(
        "import time\n"
        "t = time.time()  # simlint: disable=D101 -- host timing\n")
    assert main(["lint", "--debt", str(reasoned)]) == 0
    out = capsys.readouterr().out
    assert "host timing" in out and "0 without a reason" in out
    bare = tmp_path / "bare.py"
    bare.write_text(
        "import time\n"
        "t = time.time()  # simlint: disable=D101\n")
    assert main(["lint", "--debt", str(bare)]) == 1
    assert "NO REASON" in capsys.readouterr().out


@pytest.mark.parametrize("comment, stray", [
    ("disable=D105 -- typo", "D105"),
    ("disable-file=S502,D104 -- a deleted rule's code", "S502"),
    ("disable=d101 -- lower case is not a code", "(no code)"),
], ids=["typo", "deleted-rule", "no-code"])
def test_cli_debt_fails_on_suppressions_naming_no_rule(tmp_path, capsys,
                                                       comment, stray):
    path = tmp_path / "stray.py"
    path.write_text("import time\nt = time.time()  # simlint: %s\n"
                    % comment)
    assert main(["lint", "--debt", str(path)]) == 1
    out = capsys.readouterr().out
    assert "NO SUCH RULE %s" % stray in out
    assert "0 without a reason, 1 naming no rule" in out
    # ``all`` is a wildcard, not a stray code.
    path.write_text("x = 1  # simlint: disable=all -- generated file\n")
    assert main(["lint", "--debt", str(path)]) == 0
    capsys.readouterr()


def test_debt_ignores_suppressions_inside_strings(tmp_path):
    (tmp_path / "fixture.py").write_text(
        'SRC = "x = 1  # simlint: disable=D101"\n'
        "y = 2  # simlint: disable=D104 -- real one\n")
    suppressions = simlint.collect_suppressions([str(tmp_path)])
    assert len(suppressions) == 1
    assert suppressions[0].line == 2
    assert suppressions[0].codes == ("D104",)
    assert suppressions[0].reason == "real one"


def test_debt_parses_file_wide_scope(tmp_path):
    (tmp_path / "wide.py").write_text(
        "# simlint: disable-file=O301,O302 -- fixtures drive hooks\n"
        "x = 1\n")
    suppressions = simlint.collect_suppressions([str(tmp_path)])
    assert len(suppressions) == 1
    assert suppressions[0].scope == "file"
    assert suppressions[0].codes == ("O301", "O302")
    assert suppressions[0].reason == "fixtures drive hooks"


# ------------------------------------------------------------------- simsan


ALL_KINDS = ("nfsv2", "nfsv3", "nfsv4", "iscsi", "nfs-enhanced")


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_clean_run_reports_nothing(kind):
    stack = make_stack(kind, san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    assert stack.check() == []


def _tiny_workload(client):
    fd = yield from client.creat("/f")
    yield from client.write(fd, 8192)
    yield from client.fsync(fd)
    yield from client.close(fd)


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_sanitized_run_is_bit_identical(kind):
    plain = bench.run_case("smoke", kind)
    sanitized = bench.run_case("smoke", kind, san=True)
    assert sanitized == plain


class _MiniStack:
    """The smallest object SimSan can wrap: a sim, a transport, no peers.

    Full stacks keep periodic daemons (write-back flush, server sync) on
    the calendar, so their calendar never empties and the S401 deadlock
    check — which requires a fully drained calendar — stays silent by
    design.  Deadlock scenarios therefore run on this bare harness.
    """

    kind = "mini"

    def __init__(self):
        from repro.net.link import Link
        from repro.net.transport import DuplexTransport
        from repro.sim import Simulator

        self.sim = Simulator()
        self.transport = DuplexTransport(self.sim, Link(self.sim))
        self.initiator = None
        self.sanitizer = None

    def rpc_peers(self):
        return []

    def resources(self):
        return []


def test_s401_deadlock_detected():
    stack = _MiniStack()
    sim = stack.sim
    sim.san = san = SimSan(stack)

    def waiter():
        yield sim.event()   # never triggered by anyone

    sim.spawn(waiter(), name="stuck")
    sim.run()
    findings = san.verify(strict=False)
    assert any(f.code == "S401" for f in findings)
    assert any("stuck" in f.message for f in findings)


def test_s401_names_a_process_spawned_before_the_sanitizer():
    # The sanitizer registers a process at its first dispatched record,
    # so a process spawned before the slot was filled is still checked
    # when the simulator had not run yet.
    stack = _MiniStack()
    sim = stack.sim

    def waiter():
        yield sim.event()   # never triggered by anyone

    sim.spawn(waiter(), name="early")
    sim.san = san = SimSan(stack)
    sim.run()
    findings = san.verify(strict=False)
    assert [f.code for f in findings] == ["S401"]
    assert "'early'" in findings[0].message


@pytest.mark.parametrize("call", ["acquire", "use"])
def test_s401_queued_resource_waiter_is_a_deadlock(call):
    # A contended acquirer is queued on the resource itself (no gate
    # event); the deadlock check still names it and the resource.
    from repro.sim import Resource

    stack = _MiniStack()
    sim = stack.sim
    sim.san = san = SimSan(stack)
    cpu = Resource(sim, capacity=1, name="cpu")

    def hog():
        yield from cpu.acquire()  # simlint: disable=P202 -- never released on purpose

    def waiter():
        if call == "acquire":
            yield from cpu.acquire()  # simlint: disable=P202 -- blocks forever
        else:
            yield from cpu.use(1.0)

    sim.spawn(hog(), name="hog")
    sim.spawn(waiter(), name="stuck")
    sim.run()
    findings = [f for f in san.verify(strict=False) if f.code == "S401"]
    assert len(findings) == 1
    assert "'stuck'" in findings[0].message
    assert "<Resource 'cpu': 1/1 held, 1 queued>" in findings[0].message


def test_s401_parked_store_getter_is_not_a_deadlock():
    from repro.sim import Store

    stack = _MiniStack()
    sim = stack.sim
    sim.san = san = SimSan(stack)
    store = Store(sim, name="inbox")

    def server():
        while True:
            item = yield from store.get()   # parks: an idle server
            del item

    sim.spawn(server(), name="server")
    sim.run()
    assert san.verify(strict=False) == []


def test_s402_resource_leak_detected():
    stack = make_stack("nfsv3", san=True)
    cpu = stack.client_host.cpu

    def leaker():
        yield from cpu.acquire()  # simlint: disable=P202 -- leak on purpose

    stack.sim.run_process(leaker(), name="leaker")
    findings = stack.check(strict=False)
    assert any(f.code == "S402" and "held" in f.message for f in findings)


def test_s403_event_order_violation_detected():
    stack = make_stack("nfsv3", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    assert stack.sim.now > 0
    # Corrupt the calendar: a record stamped before the current clock.
    heapq.heappush(stack.sim._calendar,
                   (0.0, -1, 1, lambda _arg: None, None))
    # Bounded run: the stack's periodic daemons never let the calendar
    # drain, so an unbounded run() would spin forever.
    stack.sim.run(until=stack.sim.now + 1.0)
    findings = stack.check(strict=False)
    assert any(f.code == "S403" for f in findings)


def _mcs_stack(connections: int = 4, **kwargs):
    """An iSCSI stack whose session runs over ``connections`` TCP links."""
    params = TestbedParams()
    params = dataclasses.replace(params, iscsi=dataclasses.replace(
        params.iscsi, connections=connections))
    return make_stack("iscsi", params=params, **kwargs)


def _assert_lost_message_detected(stack, transport):
    transport.send_from_client(Message("NULL"))
    stack.sim.run(until=stack.sim.now)   # truncate before the delivery fires
    findings = stack.check(strict=False)
    assert any(f.code == "S404" and "in flight" in f.message
               for f in findings)


def test_s404_lost_message_detected():
    stack = make_stack("nfsv3", san=True)
    _assert_lost_message_detected(stack, stack.transport)


def test_s404_lost_message_detected_on_an_mcs_connection():
    # Connection 2 of a 4-connection MC/S session: every transport on the
    # simulator reports to the sanitizer, not only the leading one.
    stack = _mcs_stack(san=True)
    _assert_lost_message_detected(stack, stack.mcs_transports[1])


@pytest.mark.parametrize("plan", ["loss10", "dup5"])
def test_s404_balances_fault_drops_and_duplicates_on_udp(plan):
    # NFS v2 rides UDP, where a fault plan's loss drops a message (the
    # only way one is lost) and its duplicates reach the inbox: S404
    # accounts for both.
    from repro.faults import resolve_plan

    stack = make_stack("nfsv2", fault_plan=resolve_plan(plan, seed=0),
                       san=True)
    stack.run(bench.WORKLOADS["postmark"](stack.client), name="postmark")
    stack.quiesce()
    assert stack.check() == []
    transport = stack.transport
    counters = stack.sanitizer.transports[transport]
    delivered = (transport.client.inbox.total_put
                 + transport.server.inbox.total_put)
    assert counters.sent == counters.fault_dropped + counters.scheduled
    assert delivered == counters.scheduled + counters.fault_duplicated
    if plan == "loss10":
        assert counters.fault_dropped > 0
    else:
        assert counters.fault_duplicated > 0


def test_s405_orphan_reply_detected():
    stack = make_stack("nfsv3", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    peer = stack.rpc_peers()[0]
    # An xid this peer never issued.
    stack.sanitizer.note_orphan_reply(peer, 10 ** 9)
    findings = stack.check(strict=False)
    assert any(f.code == "S405" and "never issued" in f.message
               for f in findings)


def test_s405_orphan_reply_detected_on_an_mcs_connection():
    # A reply nobody asked for arrives on connection 2 of a 4-connection
    # MC/S session: the initiator peer there reports it.
    stack = _mcs_stack(san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    stack.mcs_transports[1].send_from_server(
        Message("SCSI_READ", kind=REPLY, xid=10 ** 9))
    stack.sim.run(until=stack.sim.now + 0.01)
    findings = stack.check(strict=False)
    assert any(f.code == "S405" and f.message.startswith(
        "iscsi.initiator.rpc.c2 received a reply for xid %d" % 10 ** 9)
        for f in findings)


def test_s405_orphan_reply_to_issued_xid_is_legitimate():
    stack = make_stack("nfsv3", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    peer = stack.rpc_peers()[0]
    issued = next(iter(stack.sanitizer.peers[peer].xids_issued))
    # A late reply to a retransmit.
    stack.sanitizer.note_orphan_reply(peer, issued)
    assert stack.check() == []


def test_mcs_randwrite_sanitizes_every_connection():
    # Every connection's sends and both peers of every connection are
    # checked, not only the leading connection's.
    stack = _mcs_stack(san=True)
    stack.run(bench.WORKLOADS["randwrite"](stack.client), name="randwrite")
    stack.quiesce()
    assert stack.check() == []
    san = stack.sanitizer
    transports = [stack.transport] + stack.mcs_transports
    assert list(san.transports) == transports
    # Without loss or faults every send is delivered to one inbox.
    delivered = sum(t.client.inbox.total_put + t.server.inbox.total_put
                    for t in transports)
    counts = stack.snapshot()
    assert sum(t.sent for t in san.transports.values()) == delivered \
        == counts.requests + counts.replies + counts.retransmissions
    assert len(san.peers) == 2 * len(transports)


def test_s406_iscsi_task_set_detected():
    stack = make_stack("iscsi", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    stack.initiator.commands_issued += 1   # one command "vanishes"
    findings = stack.check(strict=False)
    assert any(f.code == "S406" for f in findings)


def test_strict_check_raises_sanitizer_error():
    stack = _MiniStack()
    sim = stack.sim
    sim.san = san = SimSan(stack)

    def waiter():
        yield sim.event()

    sim.spawn(waiter(), name="stuck")
    sim.run()
    with pytest.raises(SanitizerError) as excinfo:
        san.verify()
    assert any(f.code == "S401" for f in excinfo.value.findings)
    assert "S401" in str(excinfo.value)


def test_unsanitized_stack_check_is_noop():
    stack = make_stack("nfsv3")
    stack.run(_tiny_workload(stack.client), name="tiny")
    assert stack.sanitizer is None
    assert stack.check() == []


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_stack_kind_runs_sanitized(kind):
    stack = make_stack(kind, san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    assert stack.check() == []


def _pinger(sim, log, tag):
    for step in range(6):
        yield sim.timeout(0.5)
        log.append((tag, step, sim.now))
    return sim.now


# The four run entry points.  Each drives a simulator on from its
# current state with one more process, spawned or awaited.
def _run(sim, proc):
    sim.spawn(proc, name="b")
    sim.run()


def _run_until(sim, proc):
    sim.spawn(proc, name="b")
    sim.run(until=sim.now + 1.7)


def _run_process(sim, proc):
    return sim.run_process(proc, name="b")


def _run_process_until(sim, proc):
    return sim.run_process(proc, name="b", until=sim.now + 1.2)


@pytest.mark.parametrize("drive, recorded", [
    (_run, False),
    (_run_until, False),
    (_run_process, False),
    (_run_process_until, False),
    (_run_process, True),
], ids=["run", "run_until", "run_process", "run_process_until",
        "run_process_recorder"])
def test_checked_simulator_matches_plain_kernel(drive, recorded):
    """Every run entry point dispatches the same events with the ``san``
    slot filled, and the sanitizer flags a record forged in the past
    (S403) -- also with a per-record observer attached, which must see
    that record too."""
    results = []
    for sanitized in (False, True):
        stack = _MiniStack()
        sim = stack.sim
        if sanitized:
            sim.san = san = SimSan(stack)
        if recorded:
            sim.recorder = _Dispatched()
        log = []
        sim.spawn(_pinger(sim, log, "a"), name="a")
        returned = drive(sim, _pinger(sim, log, "b"))
        seen = sim.recorder.records if recorded else None
        results.append((log, returned, sim.now, sim._sequence, seen))
    assert results[0] == results[1]
    assert san.order_findings == []
    assert sim.now > 0.0
    heapq.heappush(sim._calendar, (0.0, -1, 1, lambda _arg: None, None))
    drive(sim, _pinger(sim, [], "c"))
    assert any(f.code == "S403" for f in san.order_findings)
    if recorded:
        assert (0.0, -1, 1) in sim.recorder.records


def test_finding_equality():
    assert Finding("S401", "x") == Finding("S401", "x")
    assert Finding("S401", "x") != Finding("S402", "x")
