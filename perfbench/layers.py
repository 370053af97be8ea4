"""Host-time attribution to the simulator's layers, from outside ``src/``.

Every wrapper here is installed through :class:`repro.obs.seams.SeamStack`
on a public method (per instance or on the class) or on a module-level
name its callers resolve at call time, and removed again when the traced
pass ends.  Nothing under ``src/`` changes.

Two granularities:

* **Coarse spans** (``Machine.run``, ``run_case``, ``run_campaign``,
  ``run_node``, ``collect_violations``, ``check_conformance``,
  ``Machine.snapshot``/``Machine.restore``) are recorded one by one:
  name, parent, start, duration, and the time their children covered.
* **Hot calls** (``cpu.execute``, the HTM seams, the conflict detector,
  the memory model) run hundreds of thousands of times per pass, so they
  are only aggregated: calls, summed duration and summed child time per
  key.  Every coarse span also stores the hot calls it enclosed, as
  count plus summed ns per key.

Both kinds are *frames* on one stack of child-time accumulators: a
frame's duration is charged to the frame below it, so a layer's self
time is its duration minus what its children covered, and the self
times of one op sum exactly to the op's wall time (checked per op).
"""

from __future__ import annotations

import collections
from time import perf_counter_ns

#: HtmSystem methods timed as the ``htm`` layer (the first six are
#: reported one by one; the rest only count towards ``htm.self_frac``).
HTM_METHODS = ("load", "store", "begin", "validate", "commit",
               "rollback_to", "im_load", "im_store", "im_store_id",
               "release", "devalidate", "abandon_all")
DETECTOR_METHODS = ("on_load", "on_store", "on_commit")
MEMSYS_METHODS = ("access", "commit_broadcast", "arbitrate_commit")
#: Simulated counters summed over every finished run.  A machine
#: restored from a checkpoint carries its prefix's counts, so ratios of
#: these cover whole schedules even where the host skipped the prefix.
SIM_COMMITS = ("htm.commits_outer", "htm.commits_closed",
               "htm.commits_open", "htm.commits_flattened")
SIM_BEGINS = ("htm.begins", "htm.begins_open", "htm.begins_flattened")
SIM_COUNTERS = ("l1.hits", "l1.misses") + SIM_COMMITS + SIM_BEGINS


class LayerTrace:
    """Frames, spans and simulated-side tallies of the traced passes."""

    def __init__(self):
        #: Child-time accumulator per open frame; slot 0 is the bench.
        self.stack = [0]
        #: key -> [calls, total_ns, child_ns]
        self.agg = {}
        #: Finished coarse spans: (op, parent, name, start, dur, child,
        #: {hot key: [calls, ns]}); parent indexes this list, or is -1.
        self.spans = []
        self._open = []
        self.op_index = -1
        self.problems = []
        #: Plain counts and simulated-cycle tallies (no timing).
        self.counts = collections.Counter()
        self._hot_keys = set()

    # -- frames ----------------------------------------------------------

    def hot(self, key):
        """``make`` for :meth:`SeamStack.wrap`: an aggregated frame."""
        agg = self.agg.setdefault(key, [0, 0, 0])
        stack = self.stack
        self._hot_keys.add(key)

        def make(call_next):
            def timed(*args, **kwargs):
                stack.append(0)
                start = perf_counter_ns()
                try:
                    return call_next(*args, **kwargs)
                finally:
                    duration = perf_counter_ns() - start
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += stack.pop()
                    stack[-1] += duration
            return timed
        return make

    def span(self, key, after=None):
        """``make`` for a recorded coarse span; ``after(args, result)``
        runs inside the frame once the call returned."""
        agg = self.agg.setdefault(key, [0, 0, 0])
        stack = self.stack
        spans = self.spans
        opened = self._open

        def make(call_next):
            def timed(*args, **kwargs):
                parent = opened[-1] if opened else -1
                index = len(spans)
                spans.append(None)
                opened.append(index)
                before = self._hot_snapshot()
                stack.append(0)
                start = perf_counter_ns()
                try:
                    result = call_next(*args, **kwargs)
                    if after is not None:
                        after(args, result)
                    return result
                finally:
                    duration = perf_counter_ns() - start
                    child = stack.pop()
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += child
                    stack[-1] += duration
                    opened.pop()
                    if child > duration:
                        self.problems.append(
                            f"{key}: children {child} ns exceed the "
                            f"span's {duration} ns")
                    spans[index] = (
                        self.op_index, parent, key, start, duration, child,
                        self._hot_delta(before))
            return timed
        return make

    def op(self, fn, *args, **kwargs):
        """Run ``fn`` as one root op frame and check its conservation:
        the self times of every frame inside sum to the op's wall
        time, and the frame stack is back where it started."""
        self.op_index += 1
        before = {key: (agg[1], agg[2]) for key, agg in self.agg.items()}
        depth = len(self.stack)
        root_index = len(self.spans)
        wrapped = self.span("op")(fn)
        try:
            return wrapped(*args, **kwargs)
        finally:
            if len(self.stack) != depth:
                self.problems.append(
                    f"op {self.op_index}: frame stack unbalanced "
                    f"({len(self.stack)} != {depth})")
            root = self.spans[root_index]
            self_sum = 0
            for key, agg in self.agg.items():
                total0, child0 = before.get(key, (0, 0))
                self_sum += (agg[1] - total0) - (agg[2] - child0)
            if self_sum != root[4]:
                self.problems.append(
                    f"op {self.op_index}: self times sum to {self_sum} ns, "
                    f"op wall is {root[4]} ns")

    def _hot_snapshot(self):
        return [(key, self.agg[key][0], self.agg[key][1])
                for key in self._hot_keys]

    def _hot_delta(self, before):
        agg = self.agg
        return {key: [agg[key][0] - calls, agg[key][1] - total]
                for key, calls, total in before if agg[key][0] != calls}

    # -- results ---------------------------------------------------------

    def calls(self, key):
        return self.agg.get(key, (0, 0, 0))[0]

    def total(self, key):
        return self.agg.get(key, (0, 0, 0))[1]

    def self_ns(self, key):
        _calls, total, child = self.agg.get(key, (0, 0, 0))
        return total - child

    def mean_ns(self, key):
        calls = self.calls(key)
        return self.total(key) / calls if calls else 0.0

    def check_bounds(self):
        """Every aggregate's children fit inside it."""
        for key, (_calls, total, child) in self.agg.items():
            if child > total:
                self.problems.append(
                    f"{key}: children {child} ns exceed total {total} ns")


def instrument_machine(trace, machine):
    """Hot-call frames on one machine's executor, HTM, detector and
    memory model.  The wrappers die with the machine, so their seam
    stack is not kept; they publish their cells, so instruments stacked
    above them later (profiler, tracer, recorder) still splice out
    exactly."""
    from repro.obs.seams import SeamStack

    seams = SeamStack()
    execute = trace.hot("isa.execute")
    for cpu in machine.cpus:
        seams.wrap(cpu, "execute", execute)
    htm = machine.htm
    for name in HTM_METHODS:
        if hasattr(htm, name):
            seams.wrap(htm, name, trace.hot(f"htm.{name}"))
    detector = getattr(htm, "detector", None)
    for name in DETECTOR_METHODS:
        if detector is not None and hasattr(detector, name):
            seams.wrap(detector, name, trace.hot("htm.detector"))
    for name in MEMSYS_METHODS:
        if hasattr(machine.memmodel, name):
            seams.wrap(machine.memmodel, name, trace.hot(f"memsys.{name}"))


def install(trace, seams):
    """Install every traced-pass wrapper on ``seams`` (restored by the
    caller when the pass ends)."""
    import repro.check.explore as explore_mod
    import repro.check.fuzz as fuzz_mod
    from repro.obs.profiler import CycleProfiler
    from repro.runtime.core import Runtime
    from repro.sim.engine import Machine

    def make_init(call_next):
        def __init__(self, *args, **kwargs):
            call_next(self, *args, **kwargs)
            instrument_machine(trace, self)
        return __init__

    seams.wrap(Machine, "__init__", make_init)

    def after_run(args, _result):
        stats = args[0].stats
        for name in SIM_COUNTERS:
            trace.counts[name] += stats.total(name)

    seams.wrap(Machine, "run", trace.span("sim.run", after=after_run))
    for name, key in (("snapshot", "snapshot.capture"),
                      ("restore", "snapshot.restore")):
        if hasattr(Machine, name):
            seams.wrap(Machine, name, trace.span(key))

    def make_atomic(call_next):
        def atomic(*args, **kwargs):
            trace.counts["runtime.atomic"] += 1
            return call_next(*args, **kwargs)
        return atomic

    seams.wrap(Runtime, "atomic", make_atomic)

    def make_account(call_next):
        def account(self, *args, **kwargs):
            fresh = getattr(self, "_account", None) is None
            result = call_next(self, *args, **kwargs)
            if fresh:
                add_account(trace, result)
            return result
        return account

    seams.wrap(CycleProfiler, "account", make_account)

    seams.wrap(fuzz_mod, "run_case", trace.span("check.run_case"))
    seams.wrap(fuzz_mod, "check_conformance",
               trace.span("spec.check_conformance"))
    violations = trace.span("check.collect_violations")
    seams.wrap(fuzz_mod, "collect_violations", violations)
    seams.wrap(explore_mod, "collect_violations", violations)
    seams.wrap(explore_mod, "run_campaign", trace.span("harness.campaign"))
    seams.wrap(explore_mod, "run_node", trace.span("explore.run_node"))


def add_account(trace, account):
    """Fold one finished :class:`CycleAccount` into the simulated-cycle
    tallies (wasted and handler shares of the cycle budget)."""
    totals = account.totals
    trace.counts["cycles.budget"] += account.budget
    trace.counts["cycles.wasted"] += totals["wasted"]
    trace.counts["cycles.handler"] += totals["handler"]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, wall_ns, passes, steps, explore_stats,
                  overhead):
    """The per-layer metric values (see BENCHMARK.json ``per_layer``).

    ``wall_ns`` is the summed wall time of the traced root ops,
    ``passes`` the number of traced passes (``.calls`` and
    ``sim.steps`` are per pass), ``steps`` the executed engine steps of
    those passes, ``explore_stats`` the explorer's own counters and
    ``overhead`` the traced/untraced wall ratio.
    """
    t = trace
    per_pass = 1.0 / passes if passes else 0.0
    counts = t.counts
    htm_self = sum(t.self_ns(f"htm.{name}") for name in HTM_METHODS)
    memsys_self = sum(t.self_ns(f"memsys.{name}")
                      for name in MEMSYS_METHODS)
    out = {
        "sim.steps": steps * per_pass,
        "sim.run.self_frac": _ratio(t.self_ns("sim.run"), wall_ns),
        "isa.execute.calls": t.calls("isa.execute") * per_pass,
        "isa.execute.ns": t.mean_ns("isa.execute"),
        "isa.execute.self_frac": _ratio(t.self_ns("isa.execute"), wall_ns),
    }
    for name in HTM_METHODS[:6]:
        out[f"htm.{name}.calls"] = t.calls(f"htm.{name}") * per_pass
        out[f"htm.{name}.ns"] = t.mean_ns(f"htm.{name}")
    out.update({
        "htm.self_frac": _ratio(htm_self, wall_ns),
        "htm.detector.calls": t.calls("htm.detector") * per_pass,
        "htm.detector.ns": t.mean_ns("htm.detector"),
        "htm.commit_ratio": _ratio(sum(counts[c] for c in SIM_COMMITS),
                                   sum(counts[b] for b in SIM_BEGINS)),
        "htm.wasted_cycle_frac": _ratio(counts["cycles.wasted"],
                                        counts["cycles.budget"]),
        "memsys.access.calls": t.calls("memsys.access") * per_pass,
        "memsys.access.ns": t.mean_ns("memsys.access"),
        "memsys.commit_broadcast.ns": t.mean_ns("memsys.commit_broadcast"),
        "memsys.self_frac": _ratio(memsys_self, wall_ns),
        "memsys.l1_hit_ratio": _ratio(
            counts["l1.hits"], counts["l1.hits"] + counts["l1.misses"]),
        "runtime.atomic.calls": counts["runtime.atomic"] * per_pass,
        "runtime.handler_cycle_frac": _ratio(counts["cycles.handler"],
                                             counts["cycles.budget"]),
        "check.run_case.ms": t.mean_ns("check.run_case") / 1e6,
        "check.machine_run_frac": _ratio(t.total("sim.run"), wall_ns),
        "check.oracles_frac": _ratio(t.self_ns("check.collect_violations"),
                                     wall_ns),
        "spec.check_conformance.calls":
            t.calls("spec.check_conformance") * per_pass,
        "spec.check_conformance.ms":
            t.mean_ns("spec.check_conformance") / 1e6,
        "spec.conformance_frac": _ratio(t.total("spec.check_conformance"),
                                        wall_ns),
        "explore.run_node.calls": t.calls("explore.run_node") * per_pass,
        "explore.run_node.ms": t.mean_ns("explore.run_node") / 1e6,
        "explore.pruned_frac": _ratio(
            explore_stats["pruned"],
            explore_stats["pruned"] + explore_stats["explored"]),
        "explore.checkpoint_hit_ratio": _ratio(
            explore_stats["hits"],
            explore_stats["hits"] + explore_stats["misses"]),
        "explore.checkpoint_bytes": explore_stats["bytes"],
        "snapshot.restore.calls": t.calls("snapshot.restore") * per_pass,
        "snapshot.restore.ms": t.mean_ns("snapshot.restore") / 1e6,
        "snapshot.capture.calls": t.calls("snapshot.capture") * per_pass,
        "snapshot.capture.us": t.mean_ns("snapshot.capture") / 1e3,
        "snapshot.restore_frac": _ratio(t.total("snapshot.restore"),
                                        wall_ns),
        "harness.self_frac": _ratio(t.self_ns("harness.campaign"), wall_ns),
        "obs.tracing_overhead": overhead,
    })
    return out
