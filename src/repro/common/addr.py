"""Address arithmetic for the simulated physical address space.

The address space is a flat range of byte addresses.  All data accesses
are word-aligned (:data:`~repro.common.params.WORD_SIZE` bytes); the HTM
tracks conflicts at cache-line granularity by default.

Layout convention used by the runtime (not enforced by hardware):

* ``[SHARED_BASE, PRIVATE_BASE)`` — the shared heap.
* ``[PRIVATE_BASE + cpu * PRIVATE_SPAN, ...)`` — thread-private segment of
  each CPU, holding its TCB stack, handler stacks, undo-log spill area,
  and private scratch allocations.
"""

from __future__ import annotations

from repro.common.errors import MemoryError_
from repro.common.params import WORD_SIZE

#: Base of the shared heap.
SHARED_BASE = 0x0001_0000

#: Base of the first thread-private segment.
PRIVATE_BASE = 0x4000_0000

#: Bytes reserved per thread-private segment.
PRIVATE_SPAN = 0x0100_0000


def fmt_addr(addr):
    """Format ``addr`` for an error message, non-integers included.

    Hex for an integer, else its repr, so a message about a bad address
    cannot itself fail."""
    return f"{addr:#x}" if isinstance(addr, int) else repr(addr)


def check_word_aligned(addr):
    """Raise :class:`MemoryError_` unless ``addr`` is word-aligned."""
    if addr % WORD_SIZE:
        raise MemoryError_(f"unaligned word access at {fmt_addr(addr)}")
    return addr


def line_of(addr, line_size):
    """Return the line-aligned base address containing ``addr``."""
    return addr - (addr % line_size)


def word_index_in_line(addr, line_size):
    """Return the word index of ``addr`` within its cache line."""
    return (addr % line_size) // WORD_SIZE


def words_of_line(line_addr, line_size):
    """Iterate the word addresses of the line starting at ``line_addr``."""
    return range(line_addr, line_addr + line_size, WORD_SIZE)


def private_base(cpu_id):
    """Base address of the thread-private segment of ``cpu_id``."""
    return PRIVATE_BASE + cpu_id * PRIVATE_SPAN


def is_private(addr):
    """True if ``addr`` falls in any thread-private segment."""
    return addr >= PRIVATE_BASE


def owner_of_private(addr):
    """CPU id owning a private address."""
    if not is_private(addr):
        raise MemoryError_(f"{fmt_addr(addr)} is not a private address")
    return (addr - PRIVATE_BASE) // PRIVATE_SPAN
