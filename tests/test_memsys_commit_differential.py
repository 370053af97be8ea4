"""Inlined L1 probe, bulk commit writes and per-level index clears.

Three hot-path rewrites, each against the straightforward code it
replaced, kept test-local:

* ``HierarchicalMemory.access`` probes L1 inline and skips the eager
  remote-invalidation call for lines no other CPU holds.  The reference
  goes through ``Cache.lookup`` and always calls ``_invalidate_remote``.
  Random access streams (plus commit broadcasts) must give equal
  latencies, hit/miss/fill/eviction/invalidation counters, LRU order,
  residency registry and bus state.
* ``MemoryImage.write_words`` (the commit's bulk write) against one
  ``write`` per word: equal memory, and the same unaligned-address
  error after the same prefix of writes.
  ``WriteBufferVersioning.commit_to_memory`` against a per-word commit.
* ``ConflictIndex.retag_level`` (one call per level in
  ``RwSets.discard``/``merge_into_parent``) against the per-unit
  ``clear_*``/``set_*`` walk: equal tables, insertion order included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MemoryError_
from repro.common.params import WORD, WORD_SIZE, paper_config
from repro.common.stats import Stats
from repro.htm.rwset import ConflictIndex, RwSets
from repro.htm.versioning import WriteBufferVersioning
from repro.memsys.hierarchy import HierarchicalMemory
from repro.memsys.memory import MemoryImage

LINE_SIZE = 32


# ---------------------------------------------------------------------------
# The L1 probe
# ---------------------------------------------------------------------------

def reference_access(mem, cpu_id, addr, is_write, now):
    """``HierarchicalMemory.access`` through ``Cache.lookup``."""
    extra = 0
    if is_write and mem._eager:
        extra = mem._invalidate_remote(cpu_id, addr, now)
    l1 = mem.l1[cpu_id]
    if l1.lookup(addr):
        return mem._l1_latency + extra
    if mem.l2[cpu_id].lookup(addr):
        l1.insert(addr)
        return mem._l2_latency + extra
    done = mem.bus.line_transfer(now + mem._l2_latency)
    done += mem._mem_latency
    mem.l2[cpu_id].insert(addr)
    l1.insert(addr)
    return done - now + extra


def memsys_state(mem):
    caches = mem.l1 + mem.l2
    for cache in caches:
        cache.flush_stats()
    return (
        [cache.snapshot_state() for cache in caches],
        [(line, [(cache.owner, cache.name) for cache in holders])
         for line, holders in mem.residency.items()],
        mem.bus.snapshot_state(),
        mem._stats.as_dict(),
    )


MEM_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),                 # cpu
        st.integers(min_value=0, max_value=95).map(lambda i: i * 4),
        st.booleans(),                                         # is_write
        st.integers(min_value=0, max_value=40),                # dt
        st.integers(min_value=0, max_value=9),                 # 0 = commit
    ),
    max_size=120)


@settings(deadline=None, max_examples=150)
@given(detection=st.sampled_from(["lazy", "eager"]), ops=MEM_OPS)
def test_inlined_l1_probe_matches_cache_lookup(detection, ops):
    # Two-set, two-way L1 and a four-set L2: evictions are frequent.
    config = paper_config(
        n_cpus=3, detection=detection, line_size=LINE_SIZE,
        l1_size=LINE_SIZE * 2 * 2, l1_assoc=2,
        l2_size=LINE_SIZE * 2 * 4, l2_assoc=2)
    fast = HierarchicalMemory(config, Stats())
    slow = HierarchicalMemory(config, Stats())
    now = 0
    for cpu_id, addr, is_write, dt, kind in ops:
        now += dt
        if kind == 0:
            words = {addr, addr + LINE_SIZE}
            assert (fast.commit_broadcast(cpu_id, words, now)
                    == slow.commit_broadcast(cpu_id, words, now))
        else:
            assert (fast.access(cpu_id, addr, is_write, now)
                    == reference_access(slow, cpu_id, addr, is_write, now))
    assert memsys_state(fast) == memsys_state(slow)


# ---------------------------------------------------------------------------
# Bulk commit writes
# ---------------------------------------------------------------------------

#: Mostly aligned addresses, occasionally an unaligned one.
ANY_ADDR = st.integers(min_value=0, max_value=80)
WORDS = st.dictionaries(ANY_ADDR, st.integers(0, 99), max_size=12)
ALIGNED_WORDS = st.dictionaries(
    st.integers(0, 20).map(lambda i: i * WORD_SIZE), st.integers(0, 99),
    max_size=8)


def write_outcome(memory, write):
    try:
        write()
    except MemoryError_ as error:
        return ("raise", str(error), memory.snapshot())
    return ("ok", memory.snapshot())


@settings(deadline=None, max_examples=200)
@given(initial=ALIGNED_WORDS, words=WORDS)
def test_write_words_matches_per_word_writes(initial, words):
    bulk, single = MemoryImage(), MemoryImage()
    bulk.restore(initial)
    single.restore(initial)

    def per_word():
        for addr, value in words.items():
            single.write(addr, value)

    assert (write_outcome(bulk, lambda: bulk.write_words(words))
            == write_outcome(single, per_word))


def test_write_words_rejects_an_unaligned_address():
    memory = MemoryImage()
    with pytest.raises(MemoryError_, match="unaligned word access at 0x6"):
        memory.write_words({0: 1, 4: 2, 6: 3, 8: 4})
    assert memory.snapshot() == {0: 1, 4: 2}


def reference_commit_to_memory(vm, level):
    """``WriteBufferVersioning.commit_to_memory``, one write per word."""
    child = vm._buffers.pop(level)
    vm._relevel()
    for addr, value in child.items():
        vm._memory.write(addr, value)
    for lvl, buffer in vm._buffers.items():
        if lvl >= level:
            continue
        for addr, value in child.items():
            if addr in buffer:
                buffer[addr] = value
                vm._stats.add("wbuf.ancestor_updates")
    vm._publish_im(level)
    vm._stats.add("wbuf.committed_words", len(child))
    return set(child)


@settings(deadline=None, max_examples=150)
@given(initial=ALIGNED_WORDS,
       levels=st.lists(ALIGNED_WORDS, min_size=1, max_size=3),
       imst=st.lists(st.tuples(st.integers(1, 3), ALIGNED_WORDS),
                     max_size=3))
def test_commit_to_memory_matches_per_word_commit(initial, levels, imst):
    sides = []
    for commit in ("bulk", "reference"):
        memory, stats = MemoryImage(), Stats()
        memory.restore(initial)
        vm = WriteBufferVersioning(paper_config(), memory, stats)
        for level, buffer in enumerate(levels, start=1):
            vm.begin_level(level)
            for addr, value in buffer.items():
                vm.tx_store(level, addr, value)
        for level, words in imst:
            for addr, value in words.items():
                vm.im_store(min(level, len(levels)), addr, value)
        top = len(levels)
        written = (vm.commit_to_memory(top) if commit == "bulk"
                   else reference_commit_to_memory(vm, top))
        sides.append((written, memory.snapshot(), vm.snapshot_state(),
                      stats.as_dict()))
    assert sides[0] == sides[1]


# ---------------------------------------------------------------------------
# Per-level reverse-index clears
# ---------------------------------------------------------------------------

def index_set(table, cpu_id, unit, bit):
    """One unit's index update, as ``ConflictIndex.set_*`` does it."""
    owners = table.get(unit)
    if owners is None:
        table[unit] = {cpu_id: bit}
    else:
        owners[cpu_id] = owners.get(cpu_id, 0) | bit


def index_clear(table, cpu_id, unit, mask):
    """One unit's index clear, pruning empty owners and units."""
    owners = table.get(unit)
    if owners is None:
        return
    bits = owners.get(cpu_id, 0) & ~mask
    if bits:
        owners[cpu_id] = bits
    else:
        owners.pop(cpu_id, None)
        if not owners:
            del table[unit]


def reference_merge_into_parent(rwsets, level):
    """``RwSets.merge_into_parent`` with the per-unit index walk."""
    parent = level - 1
    child_reads = rwsets._reads.pop(level)
    child_writes = rwsets._writes.pop(level)
    index, cpu_id = rwsets._index, rwsets._cpu_id
    child_bit = 1 << (level - 1)
    for table, units in ((index.readers, child_reads),
                         (index.writers, child_writes)):
        for unit in units:
            index_clear(table, cpu_id, unit, child_bit)
            if parent >= 1:
                index_set(table, cpu_id, unit, 1 << (parent - 1))
    if parent >= 1:
        rwsets._reads[parent] |= child_reads
        rwsets._writes[parent] |= child_writes
    return len(child_reads) + len(child_writes)


def reference_discard(rwsets, level):
    """``RwSets.discard`` with the per-unit index walk."""
    reads = rwsets._reads.pop(level, None)
    writes = rwsets._writes.pop(level, None)
    bit = 1 << (level - 1)
    index = rwsets._index
    for unit in reads or ():
        index_clear(index.readers, rwsets._cpu_id, unit, bit)
    for unit in writes or ():
        index_clear(index.writers, rwsets._cpu_id, unit, bit)


UNITS = st.integers(min_value=0, max_value=15)
INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(0, 1)),
        st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 1),
                  UNITS),
        st.tuples(st.sampled_from(["merge", "discard", "discard_all"]),
                  st.integers(0, 1)),
    ),
    max_size=80)


@settings(deadline=None, max_examples=200)
@given(ops=INDEX_OPS)
def test_level_retag_matches_per_unit_walk(ops):
    config = paper_config(granularity=WORD)
    sides = []
    for walk in ("level", "unit"):
        index = ConflictIndex()
        cpus = [RwSets(config, index=index, cpu_id=cpu_id)
                for cpu_id in range(2)]
        results = []
        for kind, cpu_id, *args in ops:
            rwsets = cpus[cpu_id]
            depth = len(rwsets.active_levels())
            if kind == "open":
                rwsets.open_level(depth + 1)
            elif not depth:
                results.append("idle")
            elif kind in ("read", "write"):
                add = (rwsets.add_read_unit if kind == "read"
                       else rwsets.add_write_unit)
                add(depth, args[0])
            elif kind == "merge":
                merge = (rwsets.merge_into_parent if walk == "level"
                         else lambda lvl, r=rwsets:
                         reference_merge_into_parent(r, lvl))
                results.append(merge(depth))
            elif kind == "discard":
                if walk == "level":
                    rwsets.discard(depth)
                else:
                    reference_discard(rwsets, depth)
            elif walk == "level":
                rwsets.discard_all()
            else:
                for level in list(rwsets._reads):
                    reference_discard(rwsets, level)
                rwsets._reads.clear()
                rwsets._writes.clear()
        sides.append((
            results,
            [rwsets.snapshot_state() for rwsets in cpus],
            [(unit, list(owners.items()))
             for unit, owners in index.readers.items()],
            [(unit, list(owners.items()))
             for unit, owners in index.writers.items()],
        ))
    assert sides[0] == sides[1]
