"""Conflict detection: lazy (commit-time) vs eager (access-time),
resolution policies, strong atomicity, and the validated-set guarantee.
"""

import pytest

from repro.common.params import functional_config
from repro.runtime.core import Runtime
from repro.sim import ops as O
from repro.sim.engine import Machine

SHARED = 0x7_0000


def build(config):
    machine = Machine(config)
    runtime = Runtime(machine)
    return machine, runtime


def incrementer(runtime, addr, rounds, think=20):
    def body(t):
        value = yield t.load(addr)
        yield t.alu(think)
        yield t.store(addr, value + 1)

    def program(t):
        for _ in range(rounds):
            yield from runtime.atomic(t, body)
        return "ok"

    return program


ALL_MODES = [
    ("lazy", "write_buffer"),
    ("eager", "write_buffer"),
    ("eager", "undo_log"),
]


class TestCounterCorrectness:
    @pytest.mark.parametrize("detection,versioning", ALL_MODES)
    def test_concurrent_increments_all_land(self, detection, versioning):
        machine, runtime = build(functional_config(
            n_cpus=4, detection=detection, versioning=versioning))
        for _ in range(4):
            runtime.spawn(incrementer(runtime, SHARED, 5))
        machine.run()
        assert machine.memory.read(SHARED) == 20

    @pytest.mark.parametrize("detection,versioning", ALL_MODES)
    def test_eager_policies(self, detection, versioning):
        for policy in ["requester_wins", "requester_stalls"]:
            machine, runtime = build(functional_config(
                n_cpus=4, detection=detection, versioning=versioning,
                eager_policy=policy))
            for _ in range(4):
                runtime.spawn(incrementer(runtime, SHARED, 3))
            machine.run()
            assert machine.memory.read(SHARED) == 12


class TestLazySemantics:
    def test_committer_wins_victim_restarts(self):
        machine, runtime = build(functional_config(n_cpus=2))
        events = []

        def slow(t):
            def body(t):
                value = yield t.load(SHARED)
                yield t.alu(200)
                yield t.store(SHARED, value + 10)
            yield from runtime.atomic(t, body)
            events.append("slow-done")

        def fast(t):
            yield t.alu(20)
            def body(t):
                yield t.store(SHARED, 1)
            yield from runtime.atomic(t, body)
            events.append("fast-done")

        runtime.spawn(slow, cpu_id=0)
        runtime.spawn(fast, cpu_id=1)
        machine.run()
        assert events == ["fast-done", "slow-done"]
        assert machine.memory.read(SHARED) == 11

    def test_write_write_without_read_not_a_conflict(self):
        """TCC semantics: blind writes serialize by commit order and do
        not violate each other."""
        machine, runtime = build(functional_config(n_cpus=2))

        def writer(value):
            def body(t):
                yield t.alu(50)
                yield t.store(SHARED, value)

            def program(t):
                yield from runtime.atomic(t, body)
            return program

        runtime.spawn(writer(1), cpu_id=0)
        runtime.spawn(writer(2), cpu_id=1)
        machine.run()
        assert machine.stats.total("htm.violations_received") == 0
        assert machine.memory.read(SHARED) in (1, 2)

    def test_non_tx_store_violates_readers(self):
        """Strong atomicity: a non-transactional store violates a
        transaction that has the line in its read-set."""
        machine, runtime = build(functional_config(n_cpus=2))
        outcome = []

        def reader(t):
            def body(t):
                before = yield t.load(SHARED)
                yield t.alu(300)
                after = yield t.load(SHARED)
                return before, after
            outcome.append((yield from runtime.atomic(t, body)))

        def bare_writer(t):
            yield O.Alu(100)
            yield O.Store(SHARED, 5)   # outside any transaction

        runtime.spawn(reader, cpu_id=0)
        machine.add_thread(bare_writer, cpu_id=1)
        machine.run()
        # the transaction restarted and saw a consistent snapshot
        assert outcome == [(5, 5)]


class TestEagerSemantics:
    def test_conflict_detected_at_access_time(self):
        """The younger requester is held off *at the access*, long before
        the older writer commits — the defining eager property."""
        config = functional_config(
            n_cpus=2, detection="eager", versioning="undo_log")
        machine, runtime = build(config)
        events = []

        def victim(t):
            def body(t):
                yield t.store(SHARED, 1)
                yield t.alu(400)       # hold the line a long time
            yield from runtime.atomic(t, body)
            events.append("committed")

        def requester(t):
            yield t.alu(50)
            def body(t):
                value = yield t.load(SHARED)   # conflicts immediately
                return value
            result = yield from runtime.atomic(t, body)
            events.append(("read", result))

        runtime.spawn(victim, cpu_id=0)
        runtime.spawn(requester, cpu_id=1)
        machine.run()
        # The requester stalled at access time (conflict found eagerly)
        # and, once through, saw only the committed value — never the
        # writer's in-flight speculative data.
        assert machine.stats.get("htm.conflicts.stalls") >= 1
        assert events == ["committed", ("read", 1)]

    def test_requester_wins_policy_violates_owner(self):
        config = functional_config(
            n_cpus=2, detection="eager", versioning="undo_log",
            eager_policy="requester_wins")
        machine, runtime = build(config)

        def victim(t):
            def body(t):
                yield t.store(SHARED, 1)
                yield t.alu(400)
            yield from runtime.atomic(t, body)

        def requester(t):
            yield t.alu(50)
            def body(t):
                value = yield t.load(SHARED)
                return value
            result = yield from runtime.atomic(t, body)
            return result

        runtime.spawn(victim, cpu_id=0)
        runtime.spawn(requester, cpu_id=1)
        machine.run()
        assert machine.stats.get("cpu0.htm.violations_received") >= 1
        assert machine.memory.read(SHARED) == 1   # victim retried fine

    def test_requester_stalls_policy_older_wins(self):
        config = functional_config(
            n_cpus=2, detection="eager", versioning="undo_log",
            eager_policy="requester_stalls")
        machine, runtime = build(config)

        def older(t):
            def body(t):
                yield t.store(SHARED, 7)
                yield t.alu(100)
            yield from runtime.atomic(t, body)
            return "older-done"

        def younger(t):
            yield t.alu(30)   # begins later => younger timestamp
            def body(t):
                value = yield t.load(SHARED)
                return value
            value = yield from runtime.atomic(t, body)
            return value

        runtime.spawn(older, cpu_id=0)
        runtime.spawn(younger, cpu_id=1)
        machine.run()
        # the younger requester waited for the older writer's commit
        assert machine.results()[1] == 7
        assert machine.stats.get("htm.conflicts.stalls") >= 1

    def test_self_abort_breaks_deadlock(self):
        """Two eager transactions waiting on each other must not hang."""
        config = functional_config(
            n_cpus=2, detection="eager", versioning="undo_log",
            eager_policy="requester_stalls")
        machine, runtime = build(config)
        other = SHARED + 0x100

        def crosser(first, second):
            def body(t):
                yield t.store(first, 1)
                yield t.alu(60)
                value = yield t.load(second)
                return value

            def program(t):
                yield from runtime.atomic(t, body)
                return "done"
            return program

        runtime.spawn(crosser(SHARED, other), cpu_id=0)
        runtime.spawn(crosser(other, SHARED), cpu_id=1)
        machine.run(max_cycles=3_000_000)
        assert machine.results()[0] == "done"
        assert machine.results()[1] == "done"


class TestValidatedSet:
    def test_non_conflicting_commits_overlap(self):
        """Two validated transactions with disjoint sets commit
        concurrently (no global serialization)."""
        machine, runtime = build(functional_config(n_cpus=2))
        spots = [SHARED, SHARED + 0x1000]

        def worker(index):
            def body(t):
                yield t.store(spots[index], index + 1)
                yield from runtime.register_commit_handler(
                    t, _slow_handler)

            def program(t):
                yield from runtime.atomic(t, body)
            return program

        def _slow_handler(t):
            yield t.alu(500)

        runtime.spawn(worker(0), cpu_id=0)
        runtime.spawn(worker(1), cpu_id=1)
        cycles = machine.run()
        # overlapping 500-cycle commit handlers: far less than 2x500 serial
        assert cycles < 1000 + 400
        assert machine.memory.read(spots[0]) == 1
        assert machine.memory.read(spots[1]) == 2

    def test_conflicting_validation_stalls(self):
        machine, runtime = build(functional_config(n_cpus=2))
        order = []

        def first(t):
            def body(t):
                yield t.store(SHARED, 1)
                yield from runtime.register_commit_handler(t, _long_handler)
            yield from runtime.atomic(t, body)
            order.append("first")

        def _long_handler(t):
            yield t.alu(400)

        def second(t):
            yield t.alu(50)
            def body(t):
                value = yield t.load(SHARED)
                return value
            value = yield from runtime.atomic(t, body)
            order.append(("second", value))

        runtime.spawn(first, cpu_id=0)
        runtime.spawn(second, cpu_id=1)
        machine.run()
        assert order[0] == "first"
        assert ("second", 1) in order
