"""Robustness across machine geometries: the HTM semantics must hold at
any line size, associativity, or core count the config accepts."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.programs import CounterProgram
from repro.common.errors import ConfigError
from repro.common.params import (
    ASSOCIATIVITY,
    EAGER,
    LAZY,
    LINE,
    MULTI_TRACKING,
    REQUESTER_STALLS,
    REQUESTER_WINS,
    UNDO_LOG,
    WORD,
    WRITE_BUFFER,
    SystemConfig,
    paper_config,
)
from repro.mem.layout import SharedArena
from repro.obs.profiler import CycleProfiler
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.workloads import Mp3dKernel, SwimKernel


class TestGeometryVariations:
    @pytest.mark.parametrize("line_size", [16, 32, 64])
    def test_line_sizes(self, line_size):
        workload = SwimKernel(n_threads=4, scale=0.5)
        workload.run(paper_config(n_cpus=4, line_size=line_size))

    @pytest.mark.parametrize("l1_assoc,l2_assoc", [(1, 2), (2, 4), (8, 16)])
    def test_associativities(self, l1_assoc, l2_assoc):
        workload = Mp3dKernel(n_threads=4, scale=0.5)
        workload.run(paper_config(
            n_cpus=4, l1_assoc=l1_assoc, l2_assoc=l2_assoc))

    @pytest.mark.parametrize("n", [1, 3, 5, 16])
    def test_core_counts(self, n):
        workload = SwimKernel(n_threads=n, scale=0.5)
        workload.run(paper_config(n_cpus=n))

    def test_small_caches_with_capacity_pressure(self):
        # Small caches shrink the nesting scheme's budget; the workload
        # still fits (its write-sets are tens of lines).
        workload = SwimKernel(n_threads=2, scale=0.25)
        machine = workload.run(paper_config(
            n_cpus=2, l1_size=2048, l2_size=8192))
        assert machine.stats.total("htm.capacity_aborts") == 0

    def test_max_nesting_two_suffices_for_kernels(self):
        # The paper evaluates 3 hardware levels and uses at most 2.
        workload = Mp3dKernel(n_threads=2, scale=0.25)
        workload.run(paper_config(n_cpus=2, max_nesting=2))

    @pytest.mark.parametrize("latency", [20, 300])
    def test_memory_latency_extremes(self, latency):
        workload = SwimKernel(n_threads=2, scale=0.25)
        workload.run(paper_config(n_cpus=2, mem_latency=latency))


# ---------------------------------------------------------------------------
# Any config either is rejected or runs
# ---------------------------------------------------------------------------

_CHOICES = {
    "coherence": ("simple", "msi"),
    "versioning": (WRITE_BUFFER, UNDO_LOG),
    "detection": (LAZY, EAGER),
    "nesting_scheme": (MULTI_TRACKING, ASSOCIATIVITY),
    "granularity": (LINE, WORD),
    "eager_policy": (REQUESTER_WINS, REQUESTER_STALLS),
}
_COSTS = {"l1_latency": 4, "l2_latency": 20, "mem_latency": 150,
          "bus_arbitration": 5, "merge_cycles_per_line": 4,
          "undo_cycles_per_entry": 4, "syscall_cycles": 300}
_FLAGS = ("timing", "double_buffering", "flatten")

#: A broken value for every field that has one.
_BROKEN = {
    "n_cpus": st.integers(-1, 0),
    "line_size": st.sampled_from([-32, 0, 2, 6]),
    "l1_size": st.integers(-64, 1 << 15),
    "l1_assoc": st.integers(-1, 0),
    "l2_size": st.integers(-64, 1 << 16),
    "l2_assoc": st.integers(-1, 0),
    "bus_width": st.integers(-1, 0),
    "max_nesting": st.integers(-1, 0),
    **{name: st.just("bogus") for name in _CHOICES},
    **{name: st.integers(-3, -1) for name in _COSTS},
}


@st.composite
def _config_fields(draw):
    """Every ``SystemConfig`` field drawn from a plausible range — odd
    line sizes, associativities and set counts included — then up to
    two fields replaced by broken values."""
    line_size = draw(st.sampled_from([4, 8, 12, 16, 32, 64]))
    fields = {"n_cpus": draw(st.integers(1, 4)), "line_size": line_size,
              "bus_width": draw(st.integers(1, 64)),
              "max_nesting": draw(st.integers(1, 5))}
    for level, most_sets in (("l1", 48), ("l2", 96)):
        assoc = draw(st.integers(1, 9))
        fields[f"{level}_assoc"] = assoc
        fields[f"{level}_size"] = (
            draw(st.integers(1, most_sets)) * line_size * assoc)
    for name, choices in _CHOICES.items():
        fields[name] = draw(st.sampled_from(choices))
    for name, most in _COSTS.items():
        fields[name] = draw(st.integers(0, most))
    for name in _FLAGS:
        fields[name] = draw(st.booleans())
    broken = draw(st.lists(st.sampled_from(sorted(_BROKEN)),
                           max_size=2, unique=True))
    for name in broken:
        fields[name] = draw(_BROKEN[name])
    return fields


@settings(max_examples=150, deadline=None)
@given(fields=_config_fields())
def test_any_config_is_rejected_or_runs_a_smoke_program(fields):
    """``SystemConfig`` is total: a config either raises
    ``ConfigError`` or builds a machine that runs a contended counter
    to completion with balanced cycle books."""
    assert set(fields) == {field.name
                           for field in dataclasses.fields(SystemConfig)}
    try:
        config = SystemConfig(**fields)
    except ConfigError:
        return
    program = CounterProgram(n_threads=min(2, config.n_cpus),
                             increments=3)
    machine = Machine(config)
    runtime = Runtime(machine)
    program.setup(machine, runtime, SharedArena(machine))
    profiler = CycleProfiler(machine)
    try:
        machine.run(max_cycles=program.max_cycles)
    finally:
        profiler.detach()
    program.verify(machine)
    assert profiler.account().problems() == []
