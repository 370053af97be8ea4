"""Typed word arrays over simulated memory.

The accessors are plain functions returning the simulated load or store
op, so a program issues it with a single ``yield``
(``value = yield grid.load(t, i)``) and array traffic participates in
caching, conflict detection and timing.  ``add`` issues two ops and is a
generator (``yield from``).
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

    # load and store repeat addr's index check and address math inline:
    # they back most workload loads and stores.  The class test rejects
    # floats and bools, which would otherwise reach memory as
    # non-integer addresses.

    def addr(self, index):
        """The byte address of element ``index``."""
        if index.__class__ is not int or not 0 <= index < self.length:
            self._bad_index(index)
        return self.base + index * self._stride

    def _bad_index(self, index):
        if index.__class__ is not int:
            raise MemoryError_(f"array index {index!r} is not an int")
        raise MemoryError_(
            f"array index {index} out of range [0, {self.length})")

    # -- transactional accessors ------------------------------------------------

    def load(self, t, index):
        """The load op for element ``index``."""
        if index.__class__ is not int or not 0 <= index < self.length:
            self._bad_index(index)
        return t.load(self.base + index * self._stride)

    def store(self, t, index, value):
        """The store op writing ``value`` to element ``index``."""
        if index.__class__ is not int or not 0 <= index < self.length:
            self._bad_index(index)
        return t.store(self.base + index * self._stride, value)

    def add(self, t, index, delta):
        """Read-modify-write; returns the new value."""
        addr = self.addr(index)
        value = yield t.load(addr)
        value = value + delta
        yield t.store(addr, value)
        return value

    # -- immediate accessors (private/read-only data, §4.7) ---------------------

    def im_load(self, t, index):
        """The immediate-load op for element ``index``."""
        return t.imld(self.addr(index))

    def im_store(self, t, index, value):
        """The immediate-store op writing ``value`` to element ``index``."""
        return t.imst(self.addr(index), value)


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
