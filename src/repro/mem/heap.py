"""A run-time shared-memory allocator (the ``brk``/free-list substrate).

The paper's memory-allocator example (Section 5) performs allocation as an
open-nested transaction — including the ``brk`` system call — and, for
unmanaged languages, registers a violation handler that frees the memory
if the user transaction aborts.  This module provides the allocator those
semantics sit on; :mod:`repro.runtime.alloc` adds the open nesting and
compensation.

Design: a segregated-free-list-free, first-fit, singly-linked free list
with block headers in simulated memory:

    header word 0: block size in words (payload, excluding header)
    header word 1: next free block address (free blocks only)

Shared metadata (free-list head, brk pointer) is ordinary shared memory,
so concurrent allocations conflict exactly as they would on real TM.
"""

from __future__ import annotations

from repro.common.addr import fmt_addr
from repro.common.errors import HeapError
from repro.common.params import WORD_SIZE

_HDR_WORDS = 2


class SharedHeap:
    """First-fit free-list allocator over a shared-memory region."""

    def __init__(self, arena, region_words):
        self.region_words = region_words
        self.base = arena.alloc(region_words, line_align=True)
        self.limit = self.base + region_words * WORD_SIZE
        self.free_head_addr = arena.alloc_word(0, isolate=True)
        self.brk_addr = arena.alloc_word(self.base, isolate=True)

    # -- transactional operations -------------------------------------------------

    def malloc(self, t, n_words):
        """Allocate ``n_words``; returns the payload address.

        First-fit over the free list, falling back to advancing the brk
        pointer (the "system call" the paper wraps in open nesting).
        """
        if n_words < 1:
            raise HeapError("malloc of zero words")
        # Walk the free list.
        prev_addr = self.free_head_addr
        block = yield t.load(prev_addr)
        while block:
            size = yield t.load(block)
            nxt = yield t.load(block + WORD_SIZE)
            if size >= n_words:
                yield t.store(prev_addr, nxt)  # unlink (no splitting)
                return block + _HDR_WORDS * WORD_SIZE
            prev_addr = block + WORD_SIZE
            block = nxt
        # brk: extend the used region.
        brk = yield t.load(self.brk_addr)
        total = (_HDR_WORDS + n_words) * WORD_SIZE
        if brk + total > self.limit:
            raise HeapError("shared heap exhausted")
        yield t.store(self.brk_addr, brk + total)
        yield t.store(brk, n_words)
        return brk + _HDR_WORDS * WORD_SIZE

    def free(self, t, payload_addr):
        """Return a block to the free list."""
        block = payload_addr - _HDR_WORDS * WORD_SIZE
        if not self.base <= block < self.limit:
            raise HeapError(
                f"free of non-heap address {fmt_addr(payload_addr)}")
        head = yield t.load(self.free_head_addr)
        yield t.store(block + WORD_SIZE, head)
        yield t.store(self.free_head_addr, block)

    def free_list_length(self, t):
        """Diagnostic: length of the free list."""
        count = 0
        block = yield t.load(self.free_head_addr)
        while block:
            count += 1
            block = yield t.load(block + WORD_SIZE)
        return count
