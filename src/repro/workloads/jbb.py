"""The SPECjbb2000-like warehouse workload (paper Section 7.1).

The paper parallelizes SPECjbb2000 inside one warehouse: customer tasks
(new order, payment, order status) manipulate shared B-trees holding
customer, order, and stock information, plus a global order-ID counter.
Three code versions are evaluated:

* **flat** — one outer transaction per operation, no nesting (we obtain
  it by running the nested program on a machine with
  ``config.flatten=True``, which is exactly what a conventional HTM
  does);
* **closed** (`variant="closed"`) — B-tree searches and updates run as
  closed-nested transactions, so a conflict inside a small tree
  operation no longer rolls back the whole business operation;
* **open** (`variant="open"`) — additionally, the global order-ID is
  generated in an *open-nested* transaction: the counter commits
  immediately, so parallel new-order operations stop conflicting through
  it.  No compensation is registered — order IDs must be unique, not
  sequential (paper §7.1), so an ID burned by a rolled-back operation is
  simply skipped.

Conflict sources mirror the original: the rightmost order-tree leaf
(order IDs are monotonically increasing), stock rows, customer rows, and
(until the open version) the order-ID counter itself.
"""

from __future__ import annotations

import random

from repro.common.errors import ReproError
from repro.mem.btree import BTree
from repro.workloads.base import Workload

NEW_ORDER = "new_order"
PAYMENT = "payment"
STATUS = "status"

#: Operation mix (matches SPECjbb's dominant transaction types).
_MIX = [(NEW_ORDER, 0.5), (PAYMENT, 0.3), (STATUS, 0.2)]


class JbbWorkload(Workload):
    """One warehouse, ``n_threads`` customer-task threads."""

    name = "SPECjbb2000"

    N_CUSTOMERS = 128
    N_ITEMS = 128
    ITEMS_PER_ORDER = 3
    TOTAL_OPS = 96
    BUSINESS_ALU = 1200   # per-operation non-memory business logic

    def __init__(self, n_threads, seed=1, scale=1.0, variant="closed"):
        super().__init__(n_threads, seed=seed, scale=scale)
        if variant not in ("closed", "open"):
            raise ReproError(f"unknown jbb variant {variant!r}")
        self.variant = variant
        self.name = f"SPECjbb2000-{variant}"

    # ------------------------------------------------------------------

    def setup(self, machine, runtime, arena):
        self._runtime = runtime
        total_ops = max(1, int(self.TOTAL_OPS * self.scale))

        self.customers = BTree(arena,
                               capacity_nodes=self.N_CUSTOMERS // 2 + 16)
        self.stock = BTree(arena, capacity_nodes=self.N_ITEMS // 2 + 16)
        self.orders = BTree(
            arena, capacity_nodes=16 + 2 * total_ops)
        self.order_id_addr = arena.alloc_word(1, isolate=True)

        self._prepopulate(machine)

        rng = random.Random(self.seed)
        self._plans = [[] for _ in range(self.n_threads)]
        self._expected_orders = 0
        self._expected_payment_total = 0
        for i in range(total_ops):
            op = self._draw_op(rng)
            plan = {
                "op": op,
                "customer": rng.randrange(1, self.N_CUSTOMERS + 1),
                "items": [rng.randrange(1, self.N_ITEMS + 1)
                          for _ in range(self.ITEMS_PER_ORDER)],
                "amount": rng.randrange(1, 50),
                "probe": rng.randrange(1, total_ops + 1),
            }
            if op == NEW_ORDER:
                self._expected_orders += 1
            elif op == PAYMENT:
                self._expected_payment_total += plan["amount"]
            self._plans[i % self.n_threads].append(plan)

        for tid in range(self.n_threads):
            runtime.spawn(self._program, tid, cpu_id=tid)

    def _draw_op(self, rng):
        x = rng.random()
        acc = 0.0
        for op, p in _MIX:
            acc += p
            if x < acc:
                return op
        return STATUS

    def _prepopulate(self, machine):
        """Host-side initial population (the loader, not a transaction)."""
        from repro.mem.hostexec import host

        for c in range(1, self.N_CUSTOMERS + 1):
            host(self.customers.insert, machine.memory, c, 1000)
        for i in range(1, self.N_ITEMS + 1):
            host(self.stock.insert, machine.memory, i, 10_000)

    # ------------------------------------------------------------------
    # The customer-task program
    # ------------------------------------------------------------------

    def _program(self, t, tid):
        rt = self._runtime
        for plan in self._plans[tid]:
            body = {NEW_ORDER: self._new_order,
                    PAYMENT: self._payment,
                    STATUS: self._status}[plan["op"]]
            yield from rt.atomic(t, body, plan)
        return tid

    def _bump_counter(self, t):
        oid = yield t.load(self.order_id_addr)
        yield t.store(self.order_id_addr, oid + 1)
        return oid

    def _create_order(self, t, customer):
        """The order-creation library call: generate a unique order ID
        and record the order row — one composable closed-nested module.

        In the closed variant the counter read merges into the parent
        read-set, so every parallel new-order operation still conflicts
        through the counter until the parent commits (paper: "all new
        order tasks executing in parallel will experience conflicts on
        the global order counter").  In the open variant the ID
        generation is open-nested: the counter commits immediately and
        independently, and an ID burned by a later rollback is simply
        skipped — IDs must be unique, not sequential (§7.1)."""
        if self.variant == "open":
            oid = yield from self._runtime.atomic_open(t, self._bump_counter)
        else:
            oid = yield from self._bump_counter(t)
        yield from self.orders.insert(t, oid, customer)
        return oid

    def _new_order(self, t, plan):
        # Each nested library call is a closed-nested transaction.
        rt = self._runtime
        # Customer credit check (tree search, nested library call).
        def find(t):
            value = yield from self.customers.lookup(t, plan["customer"])
            return value
        balance = yield from rt.atomic(t, find)
        if balance is None:
            raise ReproError("missing customer row")
        # Business logic (pricing, validation): long and private.
        yield t.alu(self.BUSINESS_ALU)
        # Decrement stock for all but the last line item.
        def take(t, item):
            result = yield from self.stock.update(t, item, -1)
            return result
        for item in plan["items"][:-1]:
            yield from rt.atomic(t, take, item)
        yield t.alu(self.BUSINESS_ALU // 4)
        # Create the order (ID generation + record, a nested library
        # call), then finish the remaining line item and paperwork.  The
        # closed variant keeps the merged counter read in the parent
        # read-set across this tail; the open variant does not.
        yield from rt.atomic(t, self._create_order, plan["customer"])
        yield from rt.atomic(t, take, plan["items"][-1])
        yield t.alu(self.BUSINESS_ALU // 8)

    def _payment(self, t, plan):
        rt = self._runtime
        def pay(t):
            result = yield from self.customers.update(
                t, plan["customer"], plan["amount"])
            return result
        yield t.alu(self.BUSINESS_ALU // 2)
        yield from rt.atomic(t, pay)
        yield t.alu(self.BUSINESS_ALU // 2)

    def _status(self, t, plan):
        rt = self._runtime
        def look(t):
            balance = yield from self.customers.lookup(t, plan["customer"])
            order = yield from self.orders.lookup(t, plan["probe"])
            return balance, order
        result = yield from rt.atomic(t, look)
        yield t.alu(self.BUSINESS_ALU)
        return result

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def verify(self, machine):
        memory = machine.memory
        orders = self.orders.items_host(memory)
        if len(orders) != self._expected_orders:
            raise ReproError(
                f"jbb: {len(orders)} orders recorded, expected "
                f"{self._expected_orders}")
        ids = [k for k, _ in orders]
        if len(set(ids)) != len(ids):
            raise ReproError("jbb: duplicate order ids")
        final_counter = memory.read(self.order_id_addr)
        if self.variant == "closed" and machine.config.flatten is False:
            if final_counter != self._expected_orders + 1:
                raise ReproError(
                    f"jbb-closed: counter {final_counter}, expected "
                    f"{self._expected_orders + 1}")
        if final_counter < self._expected_orders + 1:
            raise ReproError("jbb: counter ran backwards")
        stock_total = sum(v for _, v in self.stock.items_host(memory))
        expected_stock = (self.N_ITEMS * 10_000
                          - self._expected_orders * self.ITEMS_PER_ORDER)
        if stock_total != expected_stock:
            raise ReproError(
                f"jbb: stock total {stock_total} != {expected_stock}")
        balance_total = sum(v for _, v in self.customers.items_host(memory))
        expected_balance = (self.N_CUSTOMERS * 1000
                            + self._expected_payment_total)
        if balance_total != expected_balance:
            raise ReproError(
                f"jbb: balances {balance_total} != {expected_balance}")
