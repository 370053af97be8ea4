#!/usr/bin/env python
"""Quickstart: transactional bank transfers on the simulated HTM machine.

Four CPUs move money between accounts under heavy contention.  The atomic
blocks conflict, violate, roll back, and retry — and the balance sheet
still always adds up, which is the whole point of transactional memory.

Run:  python examples/quickstart.py
"""

from repro import Machine, Runtime, paper_config
from repro.mem import SharedArena, WordArray

N_ACCOUNTS = 8
N_CPUS = 4
TRANSFERS_PER_CPU = 16
INITIAL_BALANCE = 100


def main():
    machine = Machine(paper_config(n_cpus=N_CPUS))
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    accounts = WordArray(arena, N_ACCOUNTS,
                         initial=[INITIAL_BALANCE] * N_ACCOUNTS)

    import random
    rng = random.Random(42)
    plans = [
        [(rng.randrange(N_ACCOUNTS), rng.randrange(N_ACCOUNTS),
          rng.randrange(1, 20)) for _ in range(TRANSFERS_PER_CPU)]
        for _ in range(N_CPUS)
    ]

    def transfer(t, src, dst, amount):
        """One atomic transfer: the body re-executes if violated."""
        balance = yield accounts.load(t, src)
        yield t.alu(10)                      # fee calculation, say
        yield accounts.store(t, src, balance - amount)
        balance = yield accounts.load(t, dst)
        yield accounts.store(t, dst, balance + amount)

    def teller(t, plan):
        for src, dst, amount in plan:
            yield from runtime.atomic(t, transfer, src, dst, amount)
        return "done"

    for cpu, plan in enumerate(plans):
        runtime.spawn(teller, plan, cpu_id=cpu)

    cycles = machine.run()

    balances = [machine.memory.read(accounts.addr(i))
                for i in range(N_ACCOUNTS)]
    total = sum(balances)
    print(f"simulated {cycles} cycles on {N_CPUS} CPUs")
    print(f"final balances: {balances}")
    print(f"total: {total} (expected {N_ACCOUNTS * INITIAL_BALANCE})")
    print(f"commits: {machine.stats.total('htm.commits_outer')}, "
          f"violations: {machine.stats.total('htm.violations_received')}, "
          f"retries: {machine.stats.total('rt.retries')}")
    assert total == N_ACCOUNTS * INITIAL_BALANCE, "money leaked!"
    print("OK: conservation of money held under contention")


if __name__ == "__main__":
    main()
