"""The HTM front end's repeat-access filter changes nothing observable.

``HtmSystem.load``/``store`` skip ``_add_read``/``_add_write`` and the
nesting scheme's ``note_access`` when the unit is already in the current
level's read (write) set.  The reference here is the unfiltered front
end, kept test-local: every load/store records the unit and notes the
access.  Random operation streams on two CPUs — begins (closed and
open), loads, stores, closed/open/outer commits, ``rollback_to``,
``release``, ``abandon_all`` and capacity overflows — must leave two
machines with equal results, rwsets, reverse-index tables (insertion
order included), nesting entries/masks, version state, memory, stats
and violation streams, and raise the same ``CapacityAbort``.

After a ``CapacityAbort`` both sides roll back to level 1, as the
engine does in the same step (the overflowing unit entered the set
before ``note_access`` raised; see the invariant in ``HtmSystem.load``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CapacityAbort
from repro.common.params import (
    ASSOCIATIVITY, EAGER, LAZY, LINE, MULTI_TRACKING, WORD, WORD_SIZE,
    functional_config)
from repro.common.stats import Stats
from repro.htm.conflict import PROCEED
from repro.htm.nesting import NestingSchemeBase
from repro.htm.system import HtmSystem
from repro.memsys.memory import MemoryImage

LINE_SIZE = 32
#: Two L2 sets of two ways: a handful of lines overflows a set.
L2_SIZE = LINE_SIZE * 2 * 2
#: Two words in each of six lines: units repeat often at either
#: granularity, and three lines share each L2 set.
ADDRS = st.sampled_from(
    [line * LINE_SIZE + word * WORD_SIZE
     for line in range(6) for word in (0, 1)])


def unfiltered_load(htm, cpu_id, addr):
    """``HtmSystem.load`` without the repeat-access filter."""
    state = htm.states[cpu_id]
    level = len(state.levels)
    unit = (addr - addr % htm._line_size) if htm._line_units else addr
    if htm._access_checks:
        action = htm.detector.on_load(cpu_id, unit)
        if action != PROCEED:
            return action, None
    if level >= 1:
        state._add_read(level, unit)
        state._note_access(level, addr, NestingSchemeBase.READ)
    value = state._tx_load(level, addr)
    state.n_loads += 1
    return PROCEED, value


def unfiltered_store(htm, cpu_id, addr, value):
    """``HtmSystem.store`` without the repeat-access filter."""
    state = htm.states[cpu_id]
    level = len(state.levels)
    unit = (addr - addr % htm._line_size) if htm._line_units else addr
    if htm._access_checks:
        action = htm.detector.on_store(cpu_id, unit)
        if action != PROCEED:
            return action
    if level >= 1:
        state._add_write(level, unit)
        state._note_access(level, addr, NestingSchemeBase.WRITE)
        state._tx_store(level, addr, value)
    else:
        htm.memory.write(addr, value)
        if htm.config.detection == LAZY:
            htm.detector.on_commit(cpu_id, {unit})
    state.n_stores += 1
    return PROCEED


class Side:
    """One HTM machine plus the violations its detector posted."""

    def __init__(self, config, filtered):
        self.stats = Stats()
        self.htm = HtmSystem(config, MemoryImage(), self.stats)
        self.violations = []
        self.htm.attach_violation_sink(self.violations.append)
        self.filtered = filtered
        self.clock = 0

    def apply(self, op):
        self.clock += 1
        htm = self.htm
        kind, cpu_id = op[0], op[1]
        depth = htm.depth(cpu_id)
        try:
            if kind == "begin":
                return htm.begin(cpu_id, op[2], now=self.clock)
            if kind == "load":
                if self.filtered:
                    return htm.load(cpu_id, op[2])
                return unfiltered_load(htm, cpu_id, op[2])
            if kind == "store":
                if self.filtered:
                    return htm.store(cpu_id, op[2], op[3])
                return unfiltered_store(htm, cpu_id, op[2], op[3])
            if kind == "release":
                return htm.release(cpu_id, op[2])
            if kind == "abandon":
                return htm.abandon_all(cpu_id)
            if not depth:
                return "idle"
            if kind == "commit":
                return htm.commit(cpu_id).kind
            target = 1 + op[2] % depth
            return htm.rollback_to(cpu_id, target)
        except CapacityAbort as overflow:
            # The engine's reaction, in the same step.
            if htm.depth(cpu_id) >= 1:
                htm.rollback_to(cpu_id, 1)
            return ("capacity", overflow.level, str(overflow))

    def observe(self):
        htm = self.htm

        def table(tab):
            return [(unit, list(owners.items()))
                    for unit, owners in tab.items()]

        return (
            [(state.rwsets.snapshot_state(), state.nesting.snapshot_state(),
              state.versions.snapshot_state(), state.n_loads,
              state.n_stores, state.flatten_extra,
              [(info.txid, info.open, info.status) for info in state.levels])
             for state in htm.states],
            table(htm.index.readers),
            table(htm.index.writers),
            htm.memory.snapshot(),
            self.stats.as_dict(),
            list(self.violations),
        )


#: CPU 1 only now and then, to contend with CPU 0's sets.
CPU = st.sampled_from([0, 0, 0, 1])
OPS = st.one_of(
    st.tuples(st.just("begin"), CPU, st.booleans()),
    st.tuples(st.just("begin"), CPU, st.just(False)),
    st.tuples(st.just("load"), CPU, ADDRS),
    st.tuples(st.just("load"), CPU, ADDRS),
    st.tuples(st.just("store"), CPU, ADDRS, st.integers(0, 9)),
    st.tuples(st.just("store"), CPU, ADDRS, st.integers(0, 9)),
    st.tuples(st.just("commit"), CPU),
    st.tuples(st.just("commit"), CPU),
    st.tuples(st.just("rollback"), CPU, st.integers(0, 3)),
    st.tuples(st.just("release"), CPU, ADDRS),
    st.tuples(st.just("abandon"), CPU),
)

#: A nest exercising every structure change the filter relies on: a
#: closed commit, an open commit, a partial rollback and a release,
#: each followed by re-accesses of the same units.
SCRIPT = [
    ("begin", 0, False), ("load", 0, 0), ("store", 0, 36, 1),
    ("begin", 0, False), ("load", 0, 0), ("store", 0, 36, 2),
    ("load", 0, 64), ("commit", 0),
    ("load", 0, 0), ("store", 0, 36, 3), ("load", 0, 64),
    ("begin", 0, True), ("load", 0, 0), ("store", 0, 68, 4),
    ("commit", 0), ("load", 0, 0), ("store", 0, 68, 5),
    ("begin", 0, False), ("load", 0, 96), ("rollback", 0, 1),
    ("load", 0, 96), ("store", 0, 36, 6), ("release", 0, 0),
    ("load", 0, 0), ("load", 1, 36), ("commit", 0), ("commit", 0),
]


@pytest.mark.parametrize("granularity", [LINE, WORD])
@pytest.mark.parametrize("scheme", [MULTI_TRACKING, ASSOCIATIVITY])
def test_filtered_front_end_matches_unfiltered_on_a_nest(granularity,
                                                         scheme):
    config = functional_config(
        n_cpus=2, granularity=granularity, nesting_scheme=scheme,
        max_nesting=3)
    filtered, reference = Side(config, True), Side(config, False)
    for op in SCRIPT:
        assert filtered.apply(op) == reference.apply(op), op
        assert filtered.observe() == reference.observe(), op


@settings(deadline=None, max_examples=300)
@given(
    granularity=st.sampled_from([LINE, WORD]),
    scheme=st.sampled_from([MULTI_TRACKING, ASSOCIATIVITY]),
    detection=st.sampled_from([LAZY, EAGER]),
    ops=st.lists(OPS, max_size=60),
)
def test_filtered_front_end_matches_unfiltered(granularity, scheme,
                                               detection, ops):
    config = functional_config(
        n_cpus=2, granularity=granularity, nesting_scheme=scheme,
        detection=detection, line_size=LINE_SIZE, l2_size=L2_SIZE,
        l2_assoc=2, max_nesting=3)
    filtered, reference = Side(config, True), Side(config, False)
    for op in ops:
        assert filtered.apply(op) == reference.apply(op), op
        assert filtered.observe() == reference.observe(), op


def test_repeat_accesses_skip_the_tracking_calls():
    """A re-read or re-written unit does not reach the rwsets or the
    nesting scheme again; a released one does."""
    config = functional_config(n_cpus=1)
    htm = HtmSystem(config, MemoryImage(), Stats())
    state = htm.states[0]
    calls = []
    add_read, note = state._add_read, state._note_access
    state._add_read = lambda *a: (calls.append("read"), add_read(*a))
    state._note_access = lambda *a: (calls.append("note"), note(*a))
    htm.begin(0, False, now=0)
    htm.load(0, 0x100)
    htm.load(0, 0x104)          # same line: filtered
    assert calls == ["read", "note"]
    htm.release(0, 0x100)
    htm.load(0, 0x100)          # released: slow path again
    assert calls == ["read", "note"] * 2


def test_capacity_abort_is_raised_on_the_filtered_path():
    """The overflowing access still reaches note_access and raises."""
    config = functional_config(
        n_cpus=1, line_size=LINE_SIZE, l2_size=L2_SIZE, l2_assoc=2,
        nesting_scheme=MULTI_TRACKING)
    htm = HtmSystem(config, MemoryImage(), Stats())
    htm.begin(0, False, now=0)
    stride = LINE_SIZE * 2          # every line maps to set 0
    htm.load(0, 0)
    htm.store(0, stride, 1)
    htm.load(0, 0)                  # repeats stay cheap and legal
    with pytest.raises(CapacityAbort) as overflow:
        htm.load(0, 2 * stride)     # a third line in a 2-way set
    assert overflow.value.level == 1
