"""Schedule policies: determinism, reproducibility, exploration.

The contract of :mod:`repro.sim.schedule`:

* The default (:class:`DeterministicPolicy`) is bit-for-bit the engine's
  historical tie-break, so every golden number is unchanged.
* Randomized policies are pure functions of their seed: same seed, same
  schedule, same transactional history.
* Different seeds genuinely explore: distinct commit orders appear.
* The bounded window keeps every CPU schedulable (no starvation).
* The randomized picks are pinned: a Hypothesis differential against
  the original formulas, and a digest of the fuzz sweep's histories.
"""

import hashlib
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.fuzz import enumerate_sweep, run_case
from repro.check.history import HistoryRecorder
from repro.check.programs import CounterProgram
from repro.common.params import functional_config, paper_config
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import (
    ControlledPolicy,
    DeterministicPolicy,
    PriorityPolicy,
    RandomPolicy,
    make_policy,
    window_candidates,
)
from repro.workloads import (
    CondSyncWorkload,
    DetectionStressKernel,
    JbbWorkload,
    Mp3dKernel,
)


class FakeCpu:
    def __init__(self, cpu_id, resume_at):
        self.cpu_id = cpu_id
        self.resume_at = resume_at


def _counter_history(policy, seed=3):
    """Run a 2-CPU counter program under ``policy``; return its history."""
    program = CounterProgram(n_threads=2, seed=seed, increments=4)
    machine = Machine(functional_config(n_cpus=2), policy=policy)
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    with HistoryRecorder(machine) as recorder:
        program.setup(machine, runtime, arena)
        machine.run(max_cycles=2_000_000)
    program.verify(machine)
    return recorder.history


# ---------------------------------------------------------------------------
# Deterministic default
# ---------------------------------------------------------------------------

def test_default_policy_is_deterministic():
    machine = Machine(functional_config())
    assert isinstance(machine.policy, DeterministicPolicy)


def test_explicit_deterministic_matches_default_bit_for_bit():
    """Passing DeterministicPolicy() must not perturb a single cycle of
    the golden-number runs (the refactor is pure factoring)."""
    base = Mp3dKernel(n_threads=4).run(paper_config(n_cpus=4))
    explicit = Mp3dKernel(n_threads=4).run(
        paper_config(n_cpus=4), policy=DeterministicPolicy())
    assert base.stats.get("cycles") == explicit.stats.get("cycles")
    assert base.results() == explicit.results()


def test_deterministic_choice_is_earliest_then_lowest_id():
    policy = DeterministicPolicy()
    cpus = [FakeCpu(2, 10), FakeCpu(0, 20), FakeCpu(1, 10)]
    assert policy.choose(cpus).cpu_id == 1


class ScanningDeterministicPolicy(DeterministicPolicy):
    """The deterministic pick through ``choose`` on the scanned list."""

    uses_ready_heap = False


def _assert_heap_equals_scan(make_workload, config):
    heap = make_workload().run(config)
    scan = make_workload().run(config, policy=ScanningDeterministicPolicy())
    assert heap.stats.get("cycles") == scan.stats.get("cycles")
    assert heap.stats.get("engine.steps") == scan.stats.get("engine.steps")
    assert heap.results() == scan.results()
    assert ([cpu.instructions for cpu in heap.cpus]
            == [cpu.instructions for cpu in scan.cpus])


def test_heap_and_scan_schedules_are_bit_for_bit_identical():
    """The engine serves DeterministicPolicy from its (resume_at, cpu_id)
    ready heap; ``choose`` remains the executable specification.  Forcing
    the scan path (``uses_ready_heap = False``) must reproduce the exact
    same run — cycles, steps, results and per-CPU instructions."""
    _assert_heap_equals_scan(
        lambda: Mp3dKernel(n_threads=4), paper_config(n_cpus=4))


@pytest.mark.parametrize("make_workload, config", [
    # 16 CPUs with eager stalls: the run-ahead loop hands the CPU over
    # through heappushpop on most steps.
    (lambda: DetectionStressKernel(n_threads=16),
     functional_config(n_cpus=16, **DetectionStressKernel.config_overrides)),
    # Park/wake: a parked CPU leaves the heap, and ``wake`` pushes it
    # back mid-run.
    (lambda: CondSyncWorkload(n_pairs=2),
     paper_config(n_cpus=5)),
    # Open nesting, partial rollback and B-tree working sets on 8 CPUs.
    (lambda: JbbWorkload(n_threads=8, variant="open", scale=0.5),
     paper_config(n_cpus=8)),
], ids=["detstress-eager-x16", "condsync-x2", "jbb-open-x8"])
def test_heap_and_scan_agree_on_switch_heavy_runs(make_workload, config):
    _assert_heap_equals_scan(make_workload, config)


def test_heap_and_scan_agree_when_queued_cpus_are_retimed():
    """Stale heap entries: every third step, a step hook sends each
    queued CPU to sleep and wakes it again, which moves its resume_at and
    leaves its old entry in the heap.  The switch's one ``heappushpop``
    must drop such a head exactly as the pop loop does, so the heap and
    scan paths take the same (cycle, cpu) steps."""
    from repro.isa.context import RUNNABLE, WAITING
    from repro.sim import ops as O

    def program(latencies):
        def run(t):
            for i in range(60):
                yield O.Alu(latencies[i % len(latencies)])
            return latencies
        return run

    def steps(policy):
        machine = Machine(functional_config(n_cpus=3), policy=policy)
        for cpu_id, latencies in enumerate([(1, 2), (1, 1, 3), (2, 1)]):
            machine.add_thread(program(latencies), cpu_id=cpu_id)
        taken = []

        def retime(cpu):
            taken.append((machine.now, cpu.cpu_id))
            if len(taken) % 3:
                return
            for other in machine.cpus:
                if (other is not cpu and other.state == RUNNABLE
                        and other.frames):
                    other.state = WAITING
                    machine.wake(other.cpu_id)

        machine.step_hook = retime
        machine.run()
        return taken, machine.results()

    assert steps(None) == steps(ScanningDeterministicPolicy())


# ---------------------------------------------------------------------------
# The bounded window
# ---------------------------------------------------------------------------

def test_window_candidates_exclude_far_future_cpus():
    cpus = [FakeCpu(0, 0), FakeCpu(1, 100), FakeCpu(2, 400)]
    assert [c.cpu_id for c in window_candidates(cpus, 250)] == [0, 1]


def test_window_candidates_always_nonempty():
    cpus = [FakeCpu(0, 5_000)]
    assert [c.cpu_id for c in window_candidates(cpus, 250)] == [0]


def test_random_policy_only_picks_within_window():
    policy = RandomPolicy(seed=0, window=250)
    cpus = [FakeCpu(0, 0), FakeCpu(1, 1_000)]
    for _ in range(50):
        assert policy.choose(cpus).cpu_id == 0


# ---------------------------------------------------------------------------
# Reproducibility and exploration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [
    lambda seed: RandomPolicy(seed=seed),
    lambda seed: PriorityPolicy(seed=seed),
], ids=["random", "pct"])
def test_same_seed_reproduces_the_history(factory):
    first = _counter_history(factory(7)).signature()
    second = _counter_history(factory(7)).signature()
    assert first == second


def test_different_seeds_explore_distinct_commit_orders():
    orders = set()
    for seed in range(10):
        history = _counter_history(RandomPolicy(seed=seed))
        orders.add(tuple(record.cpu for record in history.committed))
    assert len(orders) >= 2, (
        "ten random seeds produced a single commit order; the policy is "
        "not exploring")


def test_every_policy_preserves_the_counter_invariant():
    for policy in (DeterministicPolicy(), RandomPolicy(seed=5),
                   PriorityPolicy(seed=5)):
        history = _counter_history(policy)   # verify() runs inside
        assert len(history) == 2 * 4


def test_pct_replays_with_explicit_change_points():
    original = PriorityPolicy(seed=11, depth=3)
    first = _counter_history(original).signature()
    points = sorted({step for step, _cpu in original.fired})
    replay = PriorityPolicy(seed=11, change_points=points)
    assert _counter_history(replay).signature() == first


def test_pct_change_points_demote_the_running_cpu():
    policy = PriorityPolicy(seed=2, change_points=[1])
    cpus = [FakeCpu(0, 0), FakeCpu(1, 0)]
    victim = policy.choose(cpus)
    assert policy.fired == [(1, victim.cpu_id)]
    # The demoted CPU now ranks below the other while both are in-window.
    assert policy.choose(cpus).cpu_id != victim.cpu_id


def test_make_policy_names():
    assert isinstance(make_policy("det"), DeterministicPolicy)
    assert isinstance(make_policy("random", seed=4), RandomPolicy)
    assert isinstance(make_policy("pct", seed=4), PriorityPolicy)
    with pytest.raises(ValueError):
        make_policy("fifo")


# ---------------------------------------------------------------------------
# The picks are pinned
# ---------------------------------------------------------------------------
#
# The policies cache per-CPU priorities and rank with C-level keys; these
# test-local copies of the original formulas (a fresh ``random.Random``
# per priority, a lambda sort, a 3-tuple ``min`` key) are what every
# pick must still equal.

def _reference_candidates(runnable, window):
    earliest = min(cpu.resume_at for cpu in runnable)
    candidates = [cpu for cpu in runnable
                  if cpu.resume_at <= earliest + window]
    candidates.sort(key=lambda cpu: (cpu.resume_at, cpu.cpu_id))
    return candidates


def _reference_random_picks(seed, window, steps):
    rng = random.Random(seed)
    return [rng.choice(_reference_candidates(runnable, window)).cpu_id
            for runnable in steps]


def _reference_controlled_picks(forced, window, steps):
    picks = []
    for step, runnable in enumerate(steps):
        candidates = _reference_candidates(runnable, window)
        chosen = candidates[0]
        for cpu in candidates:
            if cpu.cpu_id == forced.get(step):
                chosen = cpu
        picks.append(chosen.cpu_id)
    return picks


def _reference_pct_picks(seed, change_points, window, steps):
    demoted = {}
    demote_seq = next_point = 0
    picks, fired = [], []

    def rank(cpu):
        if cpu.cpu_id in demoted:
            return (1, demote_seq - demoted[cpu.cpu_id])
        return (0, random.Random(seed * 1_000_003 + cpu.cpu_id).random())

    points = sorted(change_points)
    for step, runnable in enumerate(steps, start=1):
        candidates = _reference_candidates(runnable, window)
        chosen = min(candidates,
                     key=lambda cpu: (rank(cpu), cpu.resume_at, cpu.cpu_id))
        if next_point < len(points) and step >= points[next_point]:
            next_point += 1
            demote_seq += 1
            demoted[chosen.cpu_id] = demote_seq
            fired.append((step, chosen.cpu_id))
        picks.append(chosen.cpu_id)
    return picks, fired


# Few distinct resume_ats, so ties (and window edges) are common.
_resume_ats = st.sampled_from([0, 0, 1, 10, 249, 250, 251, 400, 500])


@st.composite
def _runnable_steps(draw):
    n_cpus = draw(st.integers(1, 6))
    cpu_ids = draw(st.lists(st.integers(0, 15), min_size=n_cpus,
                            max_size=n_cpus, unique=True))
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        ids = draw(st.lists(st.sampled_from(cpu_ids), min_size=1,
                            unique=True))
        steps.append([FakeCpu(cpu_id, draw(_resume_ats)) for cpu_id in ids])
    return steps


@settings(max_examples=200, deadline=None)
@given(steps=_runnable_steps(), seed=st.integers(0, 2**32),
       window=st.sampled_from([0, 1, 100, 250, 1_000]),
       change_points=st.lists(st.integers(1, 35), max_size=5),
       forced=st.dictionaries(st.integers(0, 30), st.integers(0, 15)))
def test_randomized_picks_equal_the_original_formulas(
        steps, seed, window, change_points, forced):
    pct = PriorityPolicy(seed=seed, change_points=change_points,
                         window=window)
    expected_picks, expected_fired = _reference_pct_picks(
        seed, change_points, window, steps)
    assert [pct.choose(runnable).cpu_id
            for runnable in steps] == expected_picks
    assert pct.fired == expected_fired

    rand = RandomPolicy(seed=seed, window=window)
    assert ([rand.choose(runnable).cpu_id for runnable in steps]
            == _reference_random_picks(seed, window, steps))

    controlled = ControlledPolicy(forced=forced, window=window)
    assert ([controlled.choose(runnable).cpu_id for runnable in steps]
            == _reference_controlled_picks(forced, window, steps))


# Copies of the pick helpers as they stood before candidate lists were
# built by one sort and PCT ranks were memoized between demotions.

def _head_window_candidates(runnable, window):
    limit = min(map(attrgetter("resume_at"), runnable)) + window
    candidates = [cpu for cpu in runnable if cpu.resume_at <= limit]
    candidates.sort(key=attrgetter("resume_at", "cpu_id"))
    return candidates


class _HeadPriorityPolicy(PriorityPolicy):
    """PCT ranking every candidate through ``_rank`` on every step."""

    def choose(self, runnable):
        self._steps += 1
        candidates = _head_window_candidates(runnable, self.window)
        chosen = min(candidates, key=self._rank)
        if (self._next_point < len(self.change_points)
                and self._steps >= self.change_points[self._next_point]):
            self._next_point += 1
            self._demote_seq += 1
            self._demoted[chosen.cpu_id] = self._demote_seq
            self.fired.append((self._steps, chosen.cpu_id))
        return chosen


@st.composite
def _edge_steps(draw):
    """Runnable sets, as ``(cpu_id, resume_at)`` pairs, whose resume_ats
    sit on both sides of the window edge, with frequent ties and
    single-CPU steps."""
    window = draw(st.sampled_from([0, 1, 7, 250]))
    base = draw(st.integers(0, 1_000))
    offsets = sorted({0, max(0, window - 1), window, window + 1})
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        ids = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6,
                            unique=True))
        steps.append([(cpu_id, base + draw(st.sampled_from(offsets)))
                      for cpu_id in ids])
    return window, steps


class _CpuPool:
    """One persistent :class:`FakeCpu` per id, as the engine keeps its
    ``Cpu`` objects: a step moves their ``resume_at`` and hands the
    same objects to the policy again, so memoized ranks are reused."""

    def __init__(self):
        self.cpus = {}

    def runnable(self, step):
        out = []
        for cpu_id, resume_at in step:
            cpu = self.cpus.setdefault(cpu_id, FakeCpu(cpu_id, resume_at))
            cpu.resume_at = resume_at
            out.append(cpu)
        return out


@settings(max_examples=300, deadline=None)
@given(case=_edge_steps())
def test_window_candidates_equal_the_head_helper_at_the_edge(case):
    window, steps = case
    pool = _CpuPool()
    for step in steps:
        runnable = pool.runnable(step)
        got = window_candidates(runnable, window)
        assert got == _head_window_candidates(runnable, window)
        assert got is not runnable


@settings(max_examples=300, deadline=None)
@given(case=_edge_steps(), seed=st.integers(0, 2**32),
       change_points=st.lists(st.integers(1, 40), min_size=2, max_size=12),
       split=st.integers(0, 40))
def test_pct_memoized_ranks_survive_demotions_and_restores(
        case, seed, change_points, split):
    """Many demotions, then a snapshot/restore round trip in the middle:
    every pick and every fired change-point equals the unmemoized
    policy's, including the picks replayed after the restore."""
    window, steps = case
    split = min(split, len(steps))
    pool = _CpuPool()
    fast = PriorityPolicy(seed=seed, change_points=change_points,
                          window=window)
    head = _HeadPriorityPolicy(seed=seed, change_points=change_points,
                               window=window)

    def picks(policy, part):
        return [policy.choose(pool.runnable(step)).cpu_id for step in part]

    prefix, rest = steps[:split], steps[split:]
    assert picks(fast, prefix) == picks(head, prefix)
    saved, head_saved = fast.snapshot_state(), head.snapshot_state()
    first = picks(fast, rest)
    assert first == picks(head, rest)
    assert fast.fired == head.fired
    fast.restore_state(saved)
    head.restore_state(head_saved)
    assert picks(fast, rest) == first
    assert picks(head, rest) == first
    assert fast.fired == head.fired


#: sha256 over ``(name, n_committed, commit_cpus, fired_points)`` of
#: every random/pct case of ``enumerate_sweep(seeds=1, timing_seeds=1)``
#: (180 cases), recorded before the scheduling fast paths went in.
SWEEP_SCHEDULE_DIGEST = (
    "c07edea67aaa5ea2bb7ba2a262c7212accdec1abfa4cd49531e11e6595e3f98e")


def test_randomized_sweep_histories_are_pinned():
    digest = hashlib.sha256()
    n_cases = 0
    for spec in enumerate_sweep(seeds=1, timing_seeds=1,
                                policies=("random", "pct")):
        result = run_case(*spec.args)
        digest.update(repr((spec.name, result.n_committed,
                            result.commit_cpus,
                            result.fired_points)).encode())
        n_cases += 1
    assert n_cases == 180
    assert digest.hexdigest() == SWEEP_SCHEDULE_DIGEST
