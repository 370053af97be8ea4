"""The ``Runtime.spawn`` contract.

``spawn`` brings a thread up itself (runtime state, dispatcher code ids,
TCB pointers) and pre-parks the thread's initialization ``alu``, so the
engine resumes the program's own generator with no wrapper frame.  What
programs and the goldens rely on:

* every spawned thread's first executed op is the 1-cycle init ``alu``;
* ``t.rt`` and the handler code registers are set before the first step;
* a program that is not a generator fails at ``spawn`` with a typed
  error, not at the end of the run, and leaves the CPU as it found it.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import functional_config, paper_config
from repro.isa import tcb
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim import ops as O
from repro.sim.engine import Machine
from repro.workloads import CondSyncWorkload, JbbWorkload, Mp3dKernel


def _first_ops(machine):
    """Shadow every CPU's executor to record the first op it runs."""
    first = {}
    for cpu in machine.cpus:
        def execute(op, now, cpu=cpu, inner=cpu.execute):
            first.setdefault(cpu.cpu_id, op)
            return inner(op, now)
        cpu.execute = execute
    return first


@pytest.mark.parametrize("make_workload, config", [
    (lambda: Mp3dKernel(n_threads=4), paper_config(n_cpus=4)),
    # The scheduler is a daemon thread spawned beside the workers.
    (lambda: CondSyncWorkload(n_pairs=2), paper_config(n_cpus=5)),
    (lambda: JbbWorkload(n_threads=4, variant="open", scale=0.25),
     paper_config(n_cpus=4)),
], ids=["mp3d-x4", "condsync-x2", "jbb-open-x4"])
def test_first_op_of_every_thread_is_the_init_alu(make_workload, config):
    machine = Machine(config)
    runtime = Runtime(machine)
    workload = make_workload()
    workload.setup(machine, runtime, SharedArena(machine))
    spawned = sorted(cpu.cpu_id for cpu in machine.cpus if cpu.frames)
    first = _first_ops(machine)
    machine.run()
    workload.verify(machine)
    assert sorted(first) == spawned
    for cpu_id, op in first.items():
        assert op == O.Alu(1), (cpu_id, op)


def test_init_alu_costs_one_cycle_and_one_instruction():
    machine = Machine(functional_config(n_cpus=1))
    runtime = Runtime(machine)
    seen = []

    def program(t):
        seen.append((machine.now, t.icount))
        yield t.alu(5)
        return "done"

    runtime.spawn(program, cpu_id=0)
    cycles = machine.run()
    # The program starts one cycle in, after one instruction.
    assert seen == [(1, 1)]
    assert cycles == 1 + 5
    assert machine.cpus[0].instructions == 6
    assert machine.results()[0] == "done"


def test_runtime_state_is_set_before_the_first_step():
    machine = Machine(functional_config(n_cpus=2))
    runtime = Runtime(machine)

    def program(t):
        yield t.alu()

    cpu = runtime.spawn(program, cpu_id=1)
    # Nothing has run yet, and the engine will resume the program's own
    # generator: there is no wrapper frame.
    assert machine.now == 0 and cpu.icount == 0
    assert len(cpu.frames) == 1
    assert cpu.frames[0].gi_code is program.__code__
    assert cpu.rt is not None and cpu.rt.cpu_id == 1
    isa = cpu.isa
    assert isa.xvhcode == runtime._vh_id
    assert isa.xahcode == runtime._ah_id
    assert isa.xchcode == runtime._ch_id
    assert all(code != 0 for code in
               (isa.xvhcode, isa.xahcode, isa.xchcode))
    assert isa.xtcbptr_base == tcb.tcb_stack_base(1)
    assert isa.xtcbptr_top == isa.xtcbptr_base
    assert cpu.parked == {0: O.Alu(1)}
    machine.run()


@pytest.mark.parametrize("program", [
    lambda t: 42,
    lambda t: None,
    lambda t: [O.Alu(1)],
], ids=["int", "none", "list"])
def test_non_generator_program_fails_at_spawn(program):
    machine = Machine(functional_config(n_cpus=1))
    runtime = Runtime(machine)
    with pytest.raises(SimulationError, match="must return a generator"):
        runtime.spawn(program, cpu_id=0)
    # The CPU stays free for a real program, with no runtime state left
    # behind by the failed bring-up.
    cpu = machine.cpus[0]
    assert not cpu.frames
    assert not cpu.parked
    assert cpu.rt is None
    isa = cpu.isa
    assert (isa.xvhcode, isa.xahcode, isa.xchcode,
            isa.xtcbptr_base, isa.xtcbptr_top) == (0, 0, 0, 0, 0)

    def real(t):
        yield t.alu()
        return "ok"

    runtime.spawn(real, cpu_id=0)
    machine.run()
    assert machine.results()[0] == "ok"


def test_program_that_raises_at_spawn_leaves_no_runtime_state():
    machine = Machine(functional_config(n_cpus=1))
    runtime = Runtime(machine)

    def broken(t):
        raise KeyError("bad plan")

    with pytest.raises(KeyError):
        runtime.spawn(broken, cpu_id=0)
    cpu = machine.cpus[0]
    assert not cpu.frames
    assert cpu.rt is None and cpu.isa.xvhcode == 0


def test_rebound_cpu_starts_with_its_own_init_alu():
    """A second program on a finished CPU gets a fresh bring-up."""
    machine = Machine(functional_config(n_cpus=1))
    runtime = Runtime(machine)

    def first(t):
        yield t.alu(3)
        return "first"

    runtime.spawn(first, cpu_id=0)
    machine.run()
    before = machine.cpus[0].instructions

    def second(t):
        yield t.alu(2)
        return "second"

    ops = _first_ops(machine)
    runtime.spawn(second, cpu_id=0)
    machine.run()
    assert ops[0] == O.Alu(1)
    assert machine.cpus[0].instructions == before + 1 + 2
    assert machine.results()[0] == "second"
