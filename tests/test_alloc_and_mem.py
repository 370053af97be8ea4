"""Tests: transactional allocator, shared heap, arena, arrays, queue,
hash map, and host execution."""

import pytest

from repro.common.errors import HeapError, MemoryError_, TxAborted
from repro.common.params import functional_config, paper_config
from repro.mem.array import LineArray, WordArray
from repro.mem.hashmap import HashMap
from repro.mem.heap import SharedHeap
from repro.mem.hostexec import HostContext, host, run_host
from repro.mem.layout import SharedArena
from repro.mem.queue import BoundedQueue
from repro.runtime.alloc import TxAlloc
from repro.runtime.core import Runtime
from repro.sim.engine import Machine

SHARED = 0xA_0000


def build(n_cpus=2):
    machine = Machine(functional_config(n_cpus=n_cpus))
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    return machine, runtime, arena


class TestArena:
    def test_sequential_allocation(self):
        machine, _, arena = build(1)
        a = arena.alloc(4)
        b = arena.alloc(4)
        assert b >= a + 16

    def test_isolation_pads_to_lines(self):
        machine, _, arena = build(1)
        line = machine.config.line_size
        a = arena.alloc_word(1, isolate=True)
        b = arena.alloc_word(2, isolate=True)
        assert a % line == 0 and b % line == 0
        assert b - a >= line

    def test_block_initialization(self):
        machine, _, arena = build(1)
        addr = arena.alloc_block([5, 6, 7])
        assert machine.memory.read_block(addr, 3) == [5, 6, 7]


class TestArrays:
    def test_word_array_bounds(self):
        machine, _, arena = build(1)
        array = WordArray(arena, 4)
        with pytest.raises(MemoryError_):
            array.addr(4)
        with pytest.raises(MemoryError_):
            array.addr(-1)

    def test_line_array_strides_by_line(self):
        machine, _, arena = build(1)
        array = LineArray(arena, 3, initial=[1, 2, 3])
        line = machine.config.line_size
        assert array.addr(1) - array.addr(0) == line
        assert machine.memory.read(array.addr(2)) == 3

    def test_transactional_accessors(self):
        machine, runtime, arena = build(1)
        array = WordArray(arena, 4, initial=[10, 20, 30, 40])

        def body(t):
            value = yield array.load(t, 1)
            yield array.store(t, 2, value + 1)
            total = yield from array.add(t, 3, 5)
            return total

        def program(t):
            result = yield from runtime.atomic(t, body)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == 45
        assert machine.memory.read(array.addr(2)) == 21


    def test_immediate_accessors(self):
        machine, runtime, arena = build(1)
        array = LineArray(arena, 2, initial=[4, 9])

        def program(t):
            value = yield array.im_load(t, 1)
            yield array.im_store(t, 0, value * 2)
            return value

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == 9
        assert machine.memory.read(array.addr(0)) == 18


# Each accessor with its trailing arguments after the index.
ACCESSORS = {
    "load": (),
    "store": (1,),
    "im_load": (),
    "im_store": (1,),
    "add": (1,),
}


class TestArrayIndexTypes:
    """A non-``int`` index (bools included) is a typed ``MemoryError_``
    on every accessor and on ``addr``.  Before, ``2.5`` crashed the
    alignment check's own message with a ``ValueError``, ``2.0`` reached
    the paper machine's caches as a raw ``TypeError`` escaping
    ``Machine.run``, and on the functional machine ``2.0`` ran silently
    with a float address."""

    BAD = [2.5, 2.0, True, False, "1", None]

    @pytest.mark.parametrize("index", BAD, ids=repr)
    @pytest.mark.parametrize("cls", [WordArray, LineArray])
    def test_addr_rejects(self, cls, index):
        machine, _, arena = build(1)
        with pytest.raises(MemoryError_, match="is not an int"):
            cls(arena, 4).addr(index)

    @pytest.mark.parametrize("index", BAD, ids=repr)
    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    @pytest.mark.parametrize("make_config", [functional_config, paper_config],
                             ids=["functional", "paper"])
    def test_accessors_reject_inside_a_run(self, make_config, accessor,
                                           index):
        machine = Machine(make_config(n_cpus=1))
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        array = WordArray(arena, 4, initial=[1, 2, 3, 4])
        method = getattr(array, accessor)
        extra = ACCESSORS[accessor]

        def body(t):
            if accessor == "add":
                yield from method(t, index, *extra)
            else:
                yield method(t, index, *extra)

        def program(t):
            yield from runtime.atomic(t, body)

        runtime.spawn(program)
        with pytest.raises(MemoryError_, match="is not an int"):
            machine.run()
        # Nothing reached memory: the four words are untouched.
        assert [machine.memory.read(array.addr(i))
                for i in range(4)] == [1, 2, 3, 4]

    def test_out_of_range_message_unchanged(self):
        machine, _, arena = build(1)
        with pytest.raises(MemoryError_, match=r"index 4 out of range"):
            WordArray(arena, 4).load(None, 4)


class TestAddressMessages:
    """Error messages about a bad address format non-integers with
    ``repr`` instead of failing inside the f-string."""

    def test_memory_image(self):
        from repro.memsys.memory import MemoryImage

        image = MemoryImage()
        with pytest.raises(MemoryError_, match="at 2.5"):
            image.read(2.5)
        with pytest.raises(MemoryError_, match="at 2.5"):
            image.write(2.5, 1)

    def test_address_helpers(self):
        from repro.common.addr import check_word_aligned, owner_of_private

        with pytest.raises(MemoryError_, match="at 2.5"):
            check_word_aligned(2.5)
        with pytest.raises(MemoryError_, match="0x10 is not a private"):
            owner_of_private(16)
        with pytest.raises(MemoryError_, match="2.5 is not a private"):
            owner_of_private(2.5)

    def test_write_buffer(self):
        from repro.common.stats import Stats
        from repro.htm.versioning import WriteBufferVersioning
        from repro.memsys.memory import MemoryImage

        versioning = WriteBufferVersioning(
            functional_config(), MemoryImage(), Stats())
        versioning.begin_level(1)
        with pytest.raises(MemoryError_, match="at 2.5"):
            versioning.tx_load(1, 2.5)
        with pytest.raises(MemoryError_, match="at 2.5"):
            versioning.tx_store(1, 2.5, 1)

    def test_heap_free(self):
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 64)

        def program(t):
            yield from heap.free(t, 2.5)

        runtime.spawn(program)
        with pytest.raises(HeapError, match="address 2.5"):
            machine.run()


class TestQueue:
    def test_fifo_order(self):
        machine, runtime, arena = build(1)
        queue = BoundedQueue(arena, 4, item_words=2)

        def program(t):
            def body(t):
                yield from queue.enqueue(t, [1, 2])
                yield from queue.enqueue(t, [3, 4])
                first = yield from queue.try_dequeue(t)
                second = yield from queue.try_dequeue(t)
                third = yield from queue.try_dequeue(t)
                return first, second, third
            result = yield from runtime.atomic(t, body)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == ([1, 2], [3, 4], None)

    def test_capacity_and_wraparound(self):
        machine, runtime, arena = build(1)
        queue = BoundedQueue(arena, 2, item_words=1)

        def program(t):
            def body(t):
                assert (yield from queue.try_enqueue(t, [1]))
                assert (yield from queue.try_enqueue(t, [2]))
                full = yield from queue.try_enqueue(t, [3])
                yield from queue.try_dequeue(t)
                assert (yield from queue.try_enqueue(t, [3]))
                a = yield from queue.try_dequeue(t)
                b = yield from queue.try_dequeue(t)
                return full, a, b
            result = yield from runtime.atomic(t, body)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == (False, [2], [3])

    def test_item_width_enforced(self):
        machine, runtime, arena = build(1)
        queue = BoundedQueue(arena, 2, item_words=2)

        def program(t):
            def body(t):
                yield from queue.enqueue(t, [1])
            yield from runtime.atomic(t, body)

        runtime.spawn(program)
        with pytest.raises(MemoryError_):
            machine.run()

    def test_concurrent_producers_consumer(self):
        machine, runtime, arena = build(3)
        queue = BoundedQueue(arena, 8, item_words=1)

        def producer(t, base):
            for i in range(4):
                def body(t, i=i):
                    yield from queue.enqueue(t, [base + i])
                yield from runtime.atomic(t, body)

        def consumer(t):
            got = []
            while len(got) < 8:
                def body(t):
                    item = yield from queue.try_dequeue(t)
                    return item
                item = yield from runtime.atomic(t, body)
                if item is not None:
                    got.append(item[0])
                else:
                    yield t.alu(20)
            return sorted(got)

        runtime.spawn(producer, 10, cpu_id=0)
        runtime.spawn(producer, 20, cpu_id=1)
        runtime.spawn(consumer, cpu_id=2)
        machine.run(max_cycles=10_000_000)
        assert machine.results()[2] == [10, 11, 12, 13, 20, 21, 22, 23]


class TestHashMap:
    def test_put_get_add(self):
        machine, runtime, arena = build(1)
        table = HashMap(arena, 16)

        def program(t):
            def body(t):
                yield from table.put(t, 5, 50)
                yield from table.put(t, 21, 210)   # may probe-collide
                value = yield from table.get(t, 5)
                missing = yield from table.get(t, 99)
                total = yield from table.add(t, 5, 1)
                fresh = yield from table.add(t, 7, 3, default=100)
                return value, missing, total, fresh
            result = yield from runtime.atomic(t, body)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == (50, None, 51, 103)

    def test_zero_key_rejected(self):
        machine, runtime, arena = build(1)
        table = HashMap(arena, 8)

        def program(t):
            def body(t):
                yield from table.put(t, 0, 1)
            yield from runtime.atomic(t, body)

        runtime.spawn(program)
        with pytest.raises(MemoryError_):
            machine.run()


class TestSharedHeap:
    def test_malloc_free_reuse(self):
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 1024)

        def program(t):
            def get(t):
                addr = yield from heap.malloc(t, 8)
                return addr

            def give(t, addr):
                yield from heap.free(t, addr)

            first = yield from runtime.atomic(t, get)
            yield from runtime.atomic(t, give, first)
            second = yield from runtime.atomic(t, get)
            return first, second

        runtime.spawn(program)
        machine.run()
        first, second = machine.results()[0]
        assert first == second   # first-fit reuses the freed block

    def test_exhaustion_raises(self):
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 16)

        def program(t):
            def get(t):
                addr = yield from heap.malloc(t, 64)
                return addr
            yield from runtime.atomic(t, get)

        runtime.spawn(program)
        with pytest.raises(HeapError):
            machine.run()

    def test_free_foreign_pointer_rejected(self):
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 64)

        def program(t):
            def give(t):
                yield from heap.free(t, 0x4)
            yield from runtime.atomic(t, give)

        runtime.spawn(program)
        with pytest.raises(HeapError):
            machine.run()


class TestTxAlloc:
    def test_malloc_compensated_on_abort(self):
        """An unmanaged malloc inside an aborting transaction is freed by
        the compensation handler (paper §5)."""
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 1024)
        alloc = TxAlloc(runtime, heap)

        def body(t):
            yield from alloc.malloc(t, 8)
            yield from runtime.abort(t, code="nope")

        def program(t):
            try:
                yield from runtime.atomic(t, body)
            except TxAborted:
                pass
            # after compensation, the block is on the free list again
            def count(t):
                n = yield from heap.free_list_length(t)
                return n
            n = yield from runtime.atomic(t, count)
            return n

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == 1
        assert machine.stats.total("alloc.compensated_frees") == 1

    def test_managed_malloc_not_compensated(self):
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 1024)
        alloc = TxAlloc(runtime, heap)

        def body(t):
            yield from alloc.malloc(t, 8, managed=True)
            yield from runtime.abort(t, code="nope")

        def program(t):
            try:
                yield from runtime.atomic(t, body)
            except TxAborted:
                pass
            def count(t):
                n = yield from heap.free_list_length(t)
                return n
            n = yield from runtime.atomic(t, count)
            return n

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == 0   # leaked to the (absent) GC

    def test_free_deferred_to_commit(self):
        machine, runtime, arena = build(1)
        heap = SharedHeap(arena, 1024)
        alloc = TxAlloc(runtime, heap)
        lengths = []

        def program(t):
            addr = yield from alloc.malloc(t, 8)

            def body(t):
                yield from alloc.free(t, addr)
                n = yield from heap.free_list_length(t)
                lengths.append(n)   # not freed yet inside the tx

            yield from runtime.atomic(t, body)

            def count(t):
                n = yield from heap.free_list_length(t)
                return n
            n = yield from runtime.atomic(t, count)
            return n

        runtime.spawn(program)
        machine.run()
        assert lengths == [0]
        assert machine.results()[0] == 1

    def test_concurrent_allocators_disjoint_blocks(self):
        machine, runtime, arena = build(4)
        heap = SharedHeap(arena, 8192)
        alloc = TxAlloc(runtime, heap)

        def program(t):
            blocks = []
            for _ in range(5):
                addr = yield from alloc.malloc(t, 8)
                blocks.append(addr)
            return blocks

        for cpu in range(4):
            runtime.spawn(program, cpu_id=cpu)
        machine.run(max_cycles=10_000_000)
        every = [a for result in machine.results().values() for a in result]
        assert len(set(every)) == len(every)   # no double allocation


class TestHostExec:
    def test_data_ops(self):
        from repro.memsys.memory import MemoryImage

        memory = MemoryImage()
        ctx = HostContext()

        def code(t):
            yield t.store(0x100, 5)
            value = yield t.load(0x100)
            yield t.imst(0x104, value + 1)
            yield t.alu(3)
            return (yield t.imld(0x104))

        assert run_host(code(ctx), memory) == 6

    def test_transactional_ops_rejected(self):
        from repro.memsys.memory import MemoryImage
        from repro.sim import ops as O
        from repro.common.errors import SimulationError

        def code(t):
            yield O.XBegin()

        with pytest.raises(SimulationError):
            run_host(code(HostContext()), MemoryImage())

    def test_host_helper(self):
        from repro.memsys.memory import MemoryImage

        memory = MemoryImage()

        def write_pair(t, addr, value):
            yield t.store(addr, value)
            yield t.store(addr + 4, value * 2)

        host(write_pair, memory, 0x200, 3)
        assert memory.read(0x200) == 3
        assert memory.read(0x204) == 6
