"""Typed word arrays over simulated memory.

All accessors are generator functions: they yield simulated loads/stores
so array traffic participates in caching, conflict detection, and timing.
"""

from __future__ import annotations

from repro.common.errors import MemoryError_
from repro.common.params import WORD_SIZE


class WordArray:
    """A fixed-length array of words in the (shared) address space."""

    #: Bytes between consecutive elements.
    _stride = WORD_SIZE

    def __init__(self, arena, length, initial=0, line_align=True):
        self.length = length
        if isinstance(initial, (list, tuple)):
            if len(initial) != length:
                raise MemoryError_("initializer length mismatch")
            values = list(initial)
        else:
            values = [initial] * length
        self.base = arena.alloc_block(values, line_align=line_align)

    def addr(self, index):
        if not 0 <= index < self.length:
            self._out_of_range(index)
        return self.base + index * self._stride

    def _out_of_range(self, index):
        raise MemoryError_(
            f"array index {index} out of range [0, {self.length})")

    # -- transactional accessors ------------------------------------------------

    # get/set compute the address inline (same bounds check as addr):
    # they back most workload loads and stores.

    def get(self, t, index):
        if not 0 <= index < self.length:
            self._out_of_range(index)
        value = yield t.load(self.base + index * self._stride)
        return value

    def set(self, t, index, value):
        if not 0 <= index < self.length:
            self._out_of_range(index)
        yield t.store(self.base + index * self._stride, value)

    def add(self, t, index, delta):
        """Read-modify-write; returns the new value."""
        addr = self.addr(index)
        value = yield t.load(addr)
        value = value + delta
        yield t.store(addr, value)
        return value

    # -- immediate accessors (private/read-only data, §4.7) ---------------------

    def im_get(self, t, index):
        value = yield t.imld(self.addr(index))
        return value

    def im_set(self, t, index, value):
        yield t.imst(self.addr(index), value)


class LineArray(WordArray):
    """A word array placing each element on its own cache line.

    Use this for contended cells (e.g. the mp3d collision pool): with
    line-granularity conflict tracking, packing independent cells into one
    line would make logically disjoint updates conflict (false sharing),
    which changes workload semantics rather than just performance.
    """

    def __init__(self, arena, length, initial=0):
        self.length = length
        words_per_line = arena.config.line_size // WORD_SIZE
        self._stride = words_per_line * WORD_SIZE
        if isinstance(initial, (list, tuple)):
            if len(initial) != length:
                raise MemoryError_("initializer length mismatch")
            values = list(initial)
        else:
            values = [initial] * length
        self.base = arena.alloc(length * words_per_line, line_align=True)
        for i, value in enumerate(values):
            arena.memory.write(self.base + i * self._stride, value)
