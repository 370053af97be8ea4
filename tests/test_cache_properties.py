"""Lazily allocated cache sets behave exactly like eager ones.

:class:`~repro.memsys.cache.Cache` allocates a set on its first fill.
The reference here is the straightforward model it replaced: every set
an ``OrderedDict`` from construction.  Random operation streams over
two caches sharing one residency registry (an L1/L2 pair, as in
:class:`~repro.memsys.hierarchy.HierarchicalMemory`) must give equal
return values, counters, resident lines, snapshots and registry
contents — and a snapshot/restore round trip must resume the stream
identically.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.common.params import paper_config
from repro.common.stats import Stats
from repro.memsys.cache import Cache
from repro.sim.engine import Machine


class EagerCache:
    """Reference: all sets allocated up front, no placeholder."""

    def __init__(self, name, size_bytes, assoc, line_size, registry,
                 owner):
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size_bytes // (line_size * assoc)
        self.sets = [OrderedDict() for _ in range(self.n_sets)]
        self.registry = registry
        self.owner = owner
        self.counters = dict.fromkeys(
            ("hits", "misses", "evictions", "fills", "invalidations"), 0)

    def _locate(self, addr):
        line = addr - addr % self.line_size
        return line, self.sets[(line // self.line_size) % self.n_sets]

    def _unregister(self, line):
        holders = self.registry[line]
        del holders[self]
        if not holders:
            del self.registry[line]

    def lookup(self, addr):
        line, cache_set = self._locate(addr)
        if line in cache_set:
            cache_set.move_to_end(line)
            self.counters["hits"] += 1
            return True
        self.counters["misses"] += 1
        return False

    def insert(self, addr):
        line, cache_set = self._locate(addr)
        if line in cache_set:
            cache_set.move_to_end(line)
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim, _ = cache_set.popitem(last=False)
            self.counters["evictions"] += 1
            self._unregister(victim)
        cache_set[line] = True
        self.counters["fills"] += 1
        self.registry.setdefault(line, {})[self] = True
        return victim

    def invalidate(self, addr):
        line, cache_set = self._locate(addr)
        if line not in cache_set:
            return False
        del cache_set[line]
        self.counters["invalidations"] += 1
        self._unregister(line)
        return True

    def contains(self, addr):
        line, cache_set = self._locate(addr)
        return line in cache_set

    def resident_lines(self):
        return [line for cache_set in self.sets for line in cache_set]

    def snapshot_state(self):
        return (tuple(tuple(cache_set) for cache_set in self.sets),
                tuple(self.counters.values()))


def _counters(cache):
    return (cache.n_hits, cache.n_misses, cache.n_evictions,
            cache.n_fills, cache.n_invalidations)


def _registry_view(registry):
    """Registry contents by (owner, level) identity, in insertion
    order (snoop order depends on it)."""
    return [(line, [(cache.owner, cache.name) for cache in holders])
            for line, holders in registry.items()]


#: (level, line size, geometry): a 2-set 2-way L1 over an odd 3-set
#: 3-way L2, small enough that random streams evict and refill.
_GEOMETRY = {"l1": (2 * 2 * 16, 2), "l2": (3 * 3 * 16, 3)}
_LINE = 16

_ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert", "invalidate",
                               "contains"]),
              st.sampled_from(["l1", "l2"]),
              st.integers(0, 40).map(lambda word: word * 4)),
    max_size=80)


def _build(cls, registry, **extra):
    return {level: cls(level, size, assoc, _LINE, registry=registry,
                       owner=0, **extra)
            for level, (size, assoc) in _GEOMETRY.items()}


def _apply(caches, ops):
    return [getattr(caches[level], op)(addr) for op, level, addr in ops]


def _observe(caches, registry, counters):
    return ([(level, counters(cache), cache.resident_lines(),
              cache.snapshot_state())
             for level, cache in sorted(caches.items())],
            _registry_view(registry))


@settings(max_examples=150, deadline=None)
@given(prefix=_ops, suffix=_ops)
def test_lazy_sets_match_eager_reference(prefix, suffix):
    registry, ref_registry = {}, {}
    caches = _build(Cache, registry, stats=Stats())
    reference = _build(EagerCache, ref_registry)

    def observe():
        return _observe(caches, registry, _counters)

    def observe_reference():
        return _observe(reference, ref_registry,
                        lambda cache: tuple(cache.counters.values()))

    assert _apply(caches, prefix) == _apply(reference, prefix)
    assert observe() == observe_reference()

    saved = {level: cache.snapshot_state()
             for level, cache in caches.items()}
    saved_registry = _registry_view(registry)
    results = _apply(caches, suffix)
    assert results == _apply(reference, suffix)
    finished = observe()
    assert finished == observe_reference()

    # Restore into fresh caches (rebuilding the registry the way the
    # memory model does) and replay the suffix: same results, same end.
    restored_registry = {}
    restored = _build(Cache, restored_registry, stats=Stats())
    for level, cache in restored.items():
        cache.restore_state(saved[level])
    for line, holders in saved_registry:
        restored_registry[line] = {restored[level]: True
                                   for _owner, level in holders}
    assert _apply(restored, suffix) == results
    assert _observe(restored, restored_registry, _counters) == finished


def test_fresh_machine_allocates_no_cache_set():
    machine = Machine(paper_config(n_cpus=16))
    caches = machine.memmodel.l1 + machine.memmodel.l2
    assert len(caches) == 32
    for cache in caches:
        assert cache.n_sets > 0
        assert not any(isinstance(cache_set, OrderedDict)
                       for cache_set in cache._sets)
