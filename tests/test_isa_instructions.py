"""ISA-level tests: every Table 2 instruction, raw (no runtime).

These drive the hardware directly with op objects and the built-in
default dispatchers, checking the architectural semantics of each
instruction in isolation.
"""

import pytest

from repro.common.errors import IsaError, TxRollback
from repro.common.params import functional_config
from repro.sim import ops as O
from repro.sim.engine import Machine

A = 0x2_0000
B = 0x2_0100
C = 0x2_0200


def run_one(program, n_cpus=1, config=None):
    machine = Machine(config or functional_config(n_cpus=n_cpus))
    machine.add_thread(program)
    machine.run()
    return machine


class TestXBeginCommit:
    def test_basic_commit_publishes(self):
        def program(t):
            yield O.XBegin()
            yield O.Store(A, 7)
            yield O.XValidate()
            yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 7

    def test_xbegin_returns_level(self):
        def program(t):
            level1 = yield O.XBegin()
            level2 = yield O.XBegin()
            yield O.XValidate()
            yield O.XCommit()
            yield O.XValidate()
            yield O.XCommit()
            return (level1, level2)

        machine = run_one(program)
        assert machine.results()[0] == (1, 2)

    def test_stores_invisible_until_commit(self):
        seen = []

        def writer(t):
            yield O.XBegin()
            yield O.Store(A, 9)
            yield O.Alu(100)
            yield O.XValidate()
            yield O.XCommit()

        def reader(t):
            yield O.Alu(50)
            seen.append((yield O.Load(A)))   # mid-transaction: old value
            yield O.Alu(100)
            seen.append((yield O.Load(A)))   # after commit: new value

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(writer, cpu_id=0)
        machine.add_thread(reader, cpu_id=1)
        machine.run()
        assert seen == [0, 9]

    def test_commit_outside_tx_is_isa_error(self):
        def program(t):
            yield O.XCommit()

        with pytest.raises(IsaError):
            run_one(program)

    def test_transaction_reads_own_writes(self):
        def program(t):
            yield O.XBegin()
            yield O.Store(A, 1)
            first = yield O.Load(A)
            yield O.Store(A, first + 1)
            second = yield O.Load(A)
            yield O.XValidate()
            yield O.XCommit()
            return (first, second)

        machine = run_one(program)
        assert machine.results()[0] == (1, 2)
        assert machine.memory.read(A) == 2


class TestTwoPhaseCommit:
    def test_code_between_validate_and_commit_runs_speculatively(self):
        observed = []

        def program(t):
            yield O.XBegin()
            yield O.Store(A, 5)
            yield O.XValidate()
            observed.append((yield O.Load(A)))  # speculative state visible
            observed.append(True)
            yield O.XCommit()

        machine = run_one(program)
        assert observed == [5, True]
        assert machine.memory.read(A) == 5

    def test_validated_transaction_never_loses(self):
        """Once validated, a transaction cannot be violated by another
        commit; the other committer stalls in xvalidate instead."""
        order = []

        def first(t):
            yield O.XBegin()
            yield O.Store(A, 1)
            yield O.XValidate()
            yield O.Alu(300)           # long commit-handler phase
            yield O.XCommit()
            order.append("first")

        def second(t):
            yield O.Alu(20)
            yield O.XBegin()
            try:
                value = yield O.Load(A)    # conflicts with first's write
                yield O.XValidate()
                yield O.XCommit()
                order.append(("second", value))
            except TxRollback:
                yield O.XValidate()
                yield O.XCommit()
                order.append("second-rolled-back")

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(first, cpu_id=0)
        machine.add_thread(second, cpu_id=1)
        machine.run()
        assert order[0] == "first"

    def test_abort_between_validate_and_commit(self):
        """Voluntary aborts remain possible after xvalidate (§4.1)."""
        def program(t):
            yield O.XBegin()
            try:
                yield O.Store(A, 42)
                yield O.XValidate()
                yield O.XAbort("changed-my-mind")
            except TxRollback as rollback:
                assert rollback.code == "changed-my-mind"
                yield O.XValidate()
                yield O.XCommit()
                return "aborted"

        machine = run_one(program)
        assert machine.results()[0] == "aborted"
        assert machine.memory.read(A) == 0


class TestClosedNesting:
    def test_child_state_merges_into_parent(self):
        def program(t):
            yield O.XBegin()
            yield O.Store(A, 1)
            yield O.XBegin()
            yield O.Store(B, 2)
            yield O.XValidate()
            yield O.XCommit()            # closed commit: nothing escapes
            mid = (yield O.Load(B))
            assert mid == 2              # parent sees child's write
            yield O.XValidate()
            yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 1
        assert machine.memory.read(B) == 2

    def test_child_write_invisible_before_outer_commit(self):
        probe = []

        def nested(t):
            yield O.XBegin()
            yield O.XBegin()
            yield O.Store(B, 5)
            yield O.XValidate()
            yield O.XCommit()
            yield O.Alu(200)
            yield O.XValidate()
            yield O.XCommit()

        def reader(t):
            yield O.Alu(100)
            probe.append((yield O.Load(B)))

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(nested, cpu_id=0)
        machine.add_thread(reader, cpu_id=1)
        machine.run()
        assert probe == [0]
        assert machine.memory.read(B) == 5

    def test_child_sees_ancestor_state(self):
        def program(t):
            yield O.XBegin()
            yield O.Store(A, 11)
            yield O.XBegin()
            value = yield O.Load(A)
            yield O.XValidate()
            yield O.XCommit()
            yield O.XValidate()
            yield O.XCommit()
            return value

        machine = run_one(program)
        assert machine.results()[0] == 11

    def test_independent_child_rollback(self):
        """A conflict hitting only the child rolls back only the child."""
        attempts = []

        def victim(t):
            yield O.XBegin()
            yield O.Store(A, 1)          # parent work
            yield O.XBegin()
            while True:
                try:
                    value = yield O.Load(C)
                    yield O.Alu(120)
                    yield O.Store(C, value + 1)
                    yield O.XValidate()
                    yield O.XCommit()
                    break
                except TxRollback as rollback:
                    attempts.append(rollback.level)
                    continue
            yield O.XValidate()
            yield O.XCommit()

        def attacker(t):
            yield O.Alu(30)
            yield O.XBegin()
            yield O.Store(C, 100)
            yield O.XValidate()
            yield O.XCommit()

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(victim, cpu_id=0)
        machine.add_thread(attacker, cpu_id=1)
        machine.run()
        assert attempts == [2]           # only the inner level restarted
        assert machine.memory.read(A) == 1
        assert machine.memory.read(C) == 101

    def test_hardware_nesting_limit(self):
        from repro.common.errors import CapacityAbort

        config = functional_config(n_cpus=1, max_nesting=2)

        def program(t):
            yield O.XBegin()
            try:
                yield O.XBegin()
                yield O.XBegin()         # exceeds the limit
            except CapacityAbort:
                # the engine rolled everything back to a fresh level 1
                yield O.XValidate()
                yield O.XCommit()
                return "overflowed"

        machine = run_one(program, config=config)
        assert machine.results()[0] == "overflowed"


class TestOpenNesting:
    def test_open_commit_immediately_visible(self):
        probe = []

        def opener(t):
            yield O.XBegin()
            yield O.XBegin(open=True)
            yield O.Store(B, 77)
            yield O.XValidate()
            yield O.XCommit()            # open commit: publishes now
            yield O.Alu(200)
            yield O.XValidate()
            yield O.XCommit()

        def reader(t):
            yield O.Alu(100)
            probe.append((yield O.Load(B)))

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(opener, cpu_id=0)
        machine.add_thread(reader, cpu_id=1)
        machine.run()
        assert probe == [77]

    def test_open_commit_survives_parent_abort(self):
        def program(t):
            yield O.XBegin()
            try:
                yield O.Store(A, 1)
                yield O.XBegin(open=True)
                yield O.Store(B, 2)
                yield O.XValidate()
                yield O.XCommit()
                yield O.XAbort()
            except TxRollback:
                yield O.XValidate()
                yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 0   # parent rolled back
        assert machine.memory.read(B) == 2   # open child survived

    def test_open_commit_updates_parent_data_keeps_sets(self):
        """Paper §4.5: an open commit updates overlapping parent data but
        does not remove addresses from the parent's read-/write-set."""
        def program(t):
            yield O.XBegin()
            yield O.Store(A, 10)         # parent speculative write
            yield O.XBegin(open=True)
            yield O.Store(A, 20)
            yield O.XValidate()
            yield O.XCommit()
            value = yield O.Load(A)      # parent must see the open value
            yield O.XValidate()
            yield O.XCommit()
            return value

        machine = run_one(program)
        assert machine.results()[0] == 20
        assert machine.memory.read(A) == 20

    def test_open_commit_does_not_violate_own_ancestors(self):
        """The parent reads A; the open child writes A and commits; the
        parent must NOT be violated by its own child (§4.5)."""
        def program(t):
            yield O.XBegin()
            before = yield O.Load(A)
            yield O.XBegin(open=True)
            yield O.Store(A, 5)
            yield O.XValidate()
            yield O.XCommit()
            yield O.Alu(10)              # a violation would fire here
            yield O.XValidate()
            yield O.XCommit()
            return before

        machine = run_one(program)
        assert machine.results()[0] == 0
        assert machine.stats.get("cpu0.htm.violations_received") == 0

    def test_open_commit_violates_other_cpus(self):
        hits = []

        def victim(t):
            yield O.XBegin()
            try:
                yield O.Load(C)
                yield O.Alu(300)
                yield O.XValidate()
                yield O.XCommit()
            except TxRollback as rollback:
                hits.append(rollback.reason)
                yield O.XValidate()
                yield O.XCommit()

        def opener(t):
            yield O.Alu(50)
            yield O.XBegin()
            yield O.XBegin(open=True)
            yield O.Store(C, 1)
            yield O.XValidate()
            yield O.XCommit()            # violates the victim immediately
            yield O.XValidate()
            yield O.XCommit()

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(victim, cpu_id=0)
        machine.add_thread(opener, cpu_id=1)
        machine.run()
        assert hits == ["violation"]


class TestImmediateAccesses:
    def test_imst_visible_immediately(self):
        def program(t):
            yield O.XBegin()
            yield O.ImStore(A, 3)
            value = yield O.ImLoad(A)
            yield O.XValidate()
            yield O.XCommit()
            return value

        machine = run_one(program)
        assert machine.results()[0] == 3

    def test_imst_undone_on_rollback(self):
        def program(t):
            yield O.XBegin()
            try:
                yield O.ImStore(A, 3)
                yield O.XAbort()
            except TxRollback:
                yield O.XValidate()
                yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 0

    def test_imstid_survives_rollback(self):
        def program(t):
            yield O.XBegin()
            try:
                yield O.ImStoreId(A, 3)
                yield O.XAbort()
            except TxRollback:
                yield O.XValidate()
                yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 3

    def test_imld_does_not_join_read_set(self):
        """An imld'd address must not attract violations."""
        def victim(t):
            yield O.XBegin()
            yield O.ImLoad(C)
            yield O.Alu(300)
            yield O.XValidate()
            yield O.XCommit()
            return "clean"

        def attacker(t):
            yield O.Alu(50)
            yield O.XBegin()
            yield O.Store(C, 9)
            yield O.XValidate()
            yield O.XCommit()

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(victim, cpu_id=0)
        machine.add_thread(attacker, cpu_id=1)
        machine.run()
        assert machine.results()[0] == "clean"
        assert machine.stats.get("cpu0.htm.violations_received") == 0

    def test_imst_undo_merges_with_closed_commit(self):
        """imst inside a committed child is undone if the parent aborts."""
        def program(t):
            yield O.XBegin()
            try:
                yield O.XBegin()
                yield O.ImStore(A, 5)
                yield O.XValidate()
                yield O.XCommit()        # closed commit
                yield O.XAbort()         # parent aborts
            except TxRollback:
                yield O.XValidate()
                yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 0

    def test_imst_permanent_after_open_commit(self):
        def program(t):
            yield O.XBegin()
            try:
                yield O.XBegin(open=True)
                yield O.ImStore(A, 5)
                yield O.XValidate()
                yield O.XCommit()        # open commit publishes
                yield O.XAbort()
            except TxRollback:
                yield O.XValidate()
                yield O.XCommit()

        machine = run_one(program)
        assert machine.memory.read(A) == 5


class TestRelease:
    def test_release_drops_read_set_entry(self):
        def victim(t):
            yield O.XBegin()
            yield O.Load(C)
            yield O.Release(C)
            yield O.Alu(300)
            yield O.XValidate()
            yield O.XCommit()
            return "unharmed"

        def attacker(t):
            yield O.Alu(50)
            yield O.XBegin()
            yield O.Store(C, 1)
            yield O.XValidate()
            yield O.XCommit()

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(victim, cpu_id=0)
        machine.add_thread(attacker, cpu_id=1)
        machine.run()
        assert machine.results()[0] == "unharmed"

    def test_release_returns_presence(self):
        def program(t):
            yield O.XBegin()
            yield O.Load(C)
            hit = yield O.Release(C)
            miss = yield O.Release(B)
            yield O.XValidate()
            yield O.XCommit()
            return (hit, miss)

        machine = run_one(program)
        assert machine.results()[0] == (True, False)

    def test_release_line_granularity_caveat(self):
        """Paper §4.7: with line-granularity tracking, releasing one word
        releases the whole line — the documented hazard."""
        line_buddy = C + 4   # same 32-byte line as C

        def victim(t):
            yield O.XBegin()
            yield O.Load(line_buddy)
            yield O.Release(C)           # releases the line, buddy too
            yield O.Alu(300)
            yield O.XValidate()
            yield O.XCommit()
            return "missed-conflict"

        def attacker(t):
            yield O.Alu(50)
            yield O.XBegin()
            yield O.Store(line_buddy, 1)
            yield O.XValidate()
            yield O.XCommit()

        machine = Machine(functional_config(n_cpus=2))
        machine.add_thread(victim, cpu_id=0)
        machine.add_thread(attacker, cpu_id=1)
        machine.run()
        assert machine.results()[0] == "missed-conflict"


class TestWordGranularity:
    def test_word_tracking_avoids_false_sharing(self):
        config = functional_config(n_cpus=2, granularity="word")
        word_a = C
        word_b = C + 4   # same line, different word

        def victim(t):
            yield O.XBegin()
            yield O.Load(word_a)
            yield O.Alu(300)
            yield O.XValidate()
            yield O.XCommit()
            return "no-conflict"

        def attacker(t):
            yield O.Alu(50)
            yield O.XBegin()
            yield O.Store(word_b, 1)
            yield O.XValidate()
            yield O.XCommit()

        machine = Machine(config)
        machine.add_thread(victim, cpu_id=0)
        machine.add_thread(attacker, cpu_id=1)
        machine.run()
        assert machine.results()[0] == "no-conflict"
        assert machine.stats.get("cpu0.htm.violations_received") == 0


class TestAluCycles:
    """Bug: ``Alu`` accepted negative or non-integer cycle counts, so
    ``yield t.alu(-5); yield t.alu(2)`` ran 3 cycles and reported
    ``instructions == -3``.  Both constructors now reject them."""

    @pytest.mark.parametrize("cycles", [-5, -1, 2.0, 2.5, True, "3", None])
    def test_bad_cycles_are_rejected_at_construction(self, cycles):
        with pytest.raises(IsaError, match="alu cycles"):
            O.Alu(cycles)
        machine = Machine(functional_config(n_cpus=1))
        with pytest.raises(IsaError, match="alu cycles"):
            machine.cpus[0].alu(cycles)

    def test_interned_entries_do_not_admit_equal_non_ints(self):
        cpu = Machine(functional_config(n_cpus=1)).cpus[0]
        assert cpu.alu(2) is cpu.alu(2)
        assert cpu.alu(1) is cpu.alu()
        with pytest.raises(IsaError):
            cpu.alu(2.0)
        with pytest.raises(IsaError):
            cpu.alu(True)

    def test_negative_alu_fails_the_program(self):
        def program(t):
            yield t.alu(-5)
            yield t.alu(2)

        machine = Machine(functional_config(n_cpus=1))
        machine.add_thread(program)
        with pytest.raises(IsaError, match="got -5"):
            machine.run()
        assert machine.cpus[0].instructions == 0

    def test_zero_and_positive_cycles_still_count(self):
        def program(t):
            yield t.alu(0)
            yield t.alu(2)
            yield O.Alu(3)

        machine = run_one(program)
        assert machine.cpus[0].instructions == 5
        assert machine.now == 1 + 2 + 3
