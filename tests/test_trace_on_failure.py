"""Trace-on-failure and the campaign-wide conservation property.

Every check/chaos/explore case runs with a cycle profiler attached; a
failing one is run a second time with a last-K trace ring and ships that
run's tail.  A failing case must carry its trace tail — including when
the campaign fans out across worker processes, where the ring has to
pickle back — and a passing case must carry none and build no tracer.
The tail must equal the one a single run with the tracer attached
produces, and a re-run that does not reproduce the case is itself a
violation.  On top sits the Hypothesis property: cycle conservation
holds across the whole program × config × policy × fault space, not
just the hand-picked matrix cells.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.check.explore as explore_mod
from repro.check.explore import (
    EXPLORE_WINDOW,
    explore,
    replay,
    run_node,
)
from repro.check.fuzz import (
    CONFIGS,
    POLICIES,
    TRACE_RING,
    build_config,
    run_case,
    summarize,
    sweep,
)
from repro.check.history import HistoryRecorder
from repro.check.oracles import OracleViolation
from repro.check.programs import (
    PROGRAMS,
    CounterProgram,
    LitmusStoreBufferProgram,
    make_program,
)
from repro.common.errors import ReproError
from repro.faults import FaultInjector, make_plan
from repro.mem.layout import SharedArena
from repro.obs.profiler import CycleProfiler
from repro.obs.sinks import RingSink
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import ControlledPolicy, make_policy
from repro.sim.trace import TraceEvent, Tracer

#: A reliably failing coordinate: the broken spurious-violation variant
#: loses increments on the counter program (see the oracle self-tests).
FAILING = dict(program_name="counter", config_name="lazy-wb-assoc",
               policy_name="det", seed=0, fault="spurious-violation+broken")


class TestTraceOnFailure:
    def test_failing_case_carries_trace_tail(self):
        result = run_case(**FAILING)
        assert result.failed
        assert result.trace, "failing case shipped no trace"
        assert 0 < len(result.trace) <= TRACE_RING
        assert all(isinstance(event, TraceEvent)
                   for event in result.trace)
        # The tail is the *end* of the run: its last event is near the
        # machine's final cycle, not the beginning.
        assert result.trace[-1].cycle >= result.trace[0].cycle

    def test_trace_appears_in_failure_report(self):
        result = run_case(**FAILING)
        text = str(result)
        assert "trace tail" in text
        assert f"({len(result.trace)} events)" in text

    def test_passing_case_carries_no_trace(self):
        result = run_case("counter", "lazy-wb-assoc", "det", 1)
        assert not result.failed
        assert result.trace == ()

    def test_trace_survives_parallel_campaign_workers(self):
        """The ring must pickle through ``sweep(..., jobs=2)`` and come
        back identical to the serial run's."""
        kwargs = dict(
            programs=["counter"], configs=["lazy-wb-assoc"],
            policies=["det"], seeds=1,
            fault="spurious-violation+broken")
        serial = sweep(jobs=1, **kwargs)
        parallel = sweep(jobs=2, **kwargs)
        _, _, serial_failures = summarize(serial)
        _, _, parallel_failures = summarize(parallel)
        assert serial_failures and parallel_failures
        assert [f.trace for f in parallel_failures] == \
               [f.trace for f in serial_failures]
        assert all(f.trace for f in parallel_failures)

    def test_explore_verdicts_carry_trace_on_failure(self):
        verdict = replay("counter", "lazy-wb-assoc", (),
                         fault="spurious-violation+broken", seed=0)
        assert verdict.failed
        assert verdict.trace
        assert "trace tail" in str(verdict)

    def test_explore_verdicts_clean_when_passing(self):
        verdict = replay("litmus-sb", "lazy-wb-assoc", (), seed=1)
        assert not verdict.failed
        assert verdict.trace == ()


# ----------------------------------------------------------------------
# The tails are those of a single traced run.
# ----------------------------------------------------------------------


def _single_traced_run(program_name, config_name, policy, seed, fault):
    """One run with the observers attached in the order every case used
    to attach them — recorder, profiler, tracer — returning its tail."""
    program = make_program(program_name, seed=seed)
    machine = Machine(build_config(config_name, program), policy=policy)
    injector = (FaultInjector(make_plan(fault, seed), machine)
                if fault else None)
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    recorder = HistoryRecorder(machine)
    profiler = CycleProfiler(machine)
    tracer = Tracer(machine, sink=RingSink(TRACE_RING, mode="tail"))
    try:
        program.setup(machine, runtime, arena)
        machine.run(max_cycles=program.max_cycles)
    except ReproError:
        pass
    finally:
        tracer.detach()
        profiler.detach()
        recorder.detach()
        if injector is not None:
            injector.detach()
    return tuple(tracer.events)


class PlantedFailureLitmus(LitmusStoreBufferProgram):
    """litmus-sb with an oracle that fails every schedule, so every
    explored node — checkpoint hits included — ships a trace tail."""

    name = "litmus-planted"
    spec_supported = False

    def check_final(self, machine, history):
        return [OracleViolation("invariant", "planted failure")]


class FlakyCounter(CounterProgram):
    """A counter whose increment count changes on every instantiation:
    no two runs of the "same" case commit the same history."""

    name = "flaky"
    spec_supported = False
    instances = 0

    def __init__(self, seed=1):
        FlakyCounter.instances += 1
        super().__init__(n_threads=2, seed=seed,
                         increments=1 + FlakyCounter.instances % 3)

    def check_final(self, machine, history):
        return [OracleViolation("invariant", "planted failure")]


class TestTailsMatchASingleTracedRun:
    @pytest.mark.parametrize("policy,seed", [
        ("det", 0), ("pct", 5), ("random", 1)])
    def test_fuzz_tail(self, policy, seed):
        result = run_case(**dict(FAILING, policy_name=policy, seed=seed))
        assert result.failed
        expected = _single_traced_run(
            "counter", "lazy-wb-assoc", make_policy(policy, seed=seed),
            seed, FAILING["fault"])
        assert result.trace == expected

    def test_explore_tail(self):
        report = explore("requeue", "lazy-wb-assoc", fault="drop-requeue",
                         preemption_bound=0)
        failures = report.failures
        assert failures
        for verdict in failures:
            policy = ControlledPolicy(forced=dict(verdict.deviations),
                                      window=EXPLORE_WINDOW)
            assert verdict.trace == _single_traced_run(
                "requeue", "lazy-wb-assoc", policy, 1, "drop-requeue")

    def test_checkpointed_explore_tails(self, monkeypatch):
        """Nodes forked from cached checkpoints and pruned by sleep sets
        ship the tail of their schedule run from cycle 0."""
        monkeypatch.setitem(PROGRAMS, "litmus-planted", PlantedFailureLitmus)
        explore_mod._CHECKPOINTS.clear()
        explore_mod._CONTEXTS.clear()
        try:
            report = explore("litmus-planted", "lazy-wb-assoc",
                             preemption_bound=2, checkpoint=True)
        finally:
            explore_mod._CHECKPOINTS.clear()
            explore_mod._CONTEXTS.clear()
        assert report.checkpoint_stats["hits"] > 0
        assert report.pruned > 0
        assert len(report.failures) == report.explored > 1
        for verdict in report.failures:
            assert [v.oracle for v in verdict.violations] == ["invariant"]
            policy = ControlledPolicy(forced=dict(verdict.deviations),
                                      window=EXPLORE_WINDOW)
            assert verdict.trace == _single_traced_run(
                "litmus-planted", "lazy-wb-assoc", policy, 1, None)


class TestTracerOnlyWhenFailing:
    @pytest.fixture
    def tracers(self, monkeypatch):
        built = []
        init = Tracer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, "__init__", counting_init)
        return built

    def test_passing_case_builds_no_tracer(self, tracers):
        assert not run_case("counter", "lazy-wb-assoc", "pct", 1).failed
        assert tracers == []

    def test_failing_case_builds_one_tracer(self, tracers):
        assert run_case(**FAILING).failed
        assert len(tracers) == 1

    def test_passing_explore_builds_no_tracer(self, tracers):
        report = explore("litmus-sb", "lazy-wb-assoc", preemption_bound=1)
        assert report.explored and not report.failures
        assert tracers == []

    def test_checkpoints_carry_no_trace_state(self):
        explore_mod._CHECKPOINTS.clear()
        explore_mod._CONTEXTS.clear()
        try:
            explore("litmus-sb", "lazy-wb-assoc", preemption_bound=2,
                    checkpoint=True)
            entries = list(explore_mod._CHECKPOINTS._entries.values())
            contexts = list(explore_mod._CONTEXTS.values())
        finally:
            explore_mod._CHECKPOINTS.clear()
            explore_mod._CONTEXTS.clear()
        assert entries and contexts
        for entry in entries:
            for slot in type(entry).__slots__:
                value = getattr(entry, slot)
                assert not isinstance(value, (Tracer, RingSink))
        for ctx in contexts:
            assert not any(isinstance(getattr(ctx, slot), Tracer)
                           for slot in type(ctx).__slots__)


class TestNondeterminismOracle:
    def test_deterministic_failure_has_no_nondeterminism(self):
        result = run_case(**FAILING)
        assert "nondeterminism" not in {v.oracle for v in result.violations}

    def test_planted_nondeterministic_case(self, monkeypatch):
        monkeypatch.setitem(PROGRAMS, "flaky", FlakyCounter)
        first_increments = 1 + (FlakyCounter.instances + 1) % 3
        result = run_case("flaky", "lazy-wb-assoc", "det", 1)
        oracles = [v.oracle for v in result.violations]
        assert oracles == ["invariant", "nondeterminism"]
        # The verdict keeps the first run's commit data.
        assert result.n_committed == 2 * first_increments
        assert result.trace

    def test_planted_nondeterministic_node(self, monkeypatch):
        monkeypatch.setitem(PROGRAMS, "flaky", FlakyCounter)
        node = run_node("flaky", "lazy-wb-assoc")
        oracles = [v.oracle for v in node.verdict.violations]
        assert oracles == ["invariant", "nondeterminism"]
        assert node.verdict.trace


# ----------------------------------------------------------------------
# The conservation property, across the whole case space.
# ----------------------------------------------------------------------

#: Faults whose *clean* variants the property may draw (broken variants
#: fail oracles by design; conservation must hold even then, and the
#: targeted tests above cover one).
CLEAN_FAULTS = [None, "spurious-violation", "delayed-violation",
                "token-loss", "validated-abort", "handler-reentry",
                "watch-drop", "io-fault", "alloc-pressure"]

PROGRAM_NAMES = ["counter", "requeue", "condsync", "litmus-sb",
                 "litmus-mp", "iochaos", "bank"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    program=st.sampled_from(PROGRAM_NAMES),
    config=st.sampled_from(sorted(CONFIGS)),
    policy=st.sampled_from(POLICIES),
    fault=st.sampled_from(CLEAN_FAULTS),
    seed=st.integers(min_value=0, max_value=6),
)
def test_cycle_conservation_property(program, config, policy, fault, seed):
    """Whatever the schedule, config, policy, or injected fault, every
    simulated cycle lands in exactly one bucket."""
    result = run_case(program, config, policy, seed, fault=fault)
    leaks = [v for v in result.violations
             if v.oracle == "cycle-conservation"]
    assert not leaks, "\n".join(str(v) for v in leaks)
