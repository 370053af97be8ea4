"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 20 \\
        --trace 0

Run from the root of the repository (or of any checkout of it): the
program under test is imported from ``src/``.  ``--trace 0`` measures
the end-to-end metrics with no per-call instrumentation; ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics
and writes every recorded span to ``.perfbench_out/``.  The last line
of standard output is the result object; the exit code is non-zero when
any op failed its correctness check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Modules every workload imports; timed as a whole for ``setup_s``.
IMPORTS = ("repro.harness.bench", "repro.check.fuzz", "repro.check.explore",
           "repro.spec.outcomes", "repro.workloads")
IMPORT_REPEATS = 5

#: One calibration sample: a fixed pure-Python loop of this many turns.
CALIBRATION_TURNS = 20_000
#: What one sample takes on the reference host; host times are scaled
#: to it (see ``Calibration``).
CALIBRATION_REFERENCE_S = 0.002
#: Take a sample before an op once this much time passed since the last.
CALIBRATION_INTERVAL_S = 0.05

#: What one op is called in each workload's throughput figure.
OPS_NAMES = {"sim-paper": "cells_per_s", "check-sweep": "cases_per_s",
             "explore-litmus": "nodes_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few ops per pass, no pins")
    return parser.parse_args(argv)


def calibration_sample():
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_TURNS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf_counter() - start


def calibration_ms():
    return 1e3 * statistics.median(calibration_sample() for _ in range(9))


class Calibration:
    """An op timer that interleaves host-speed samples with the ops.

    The host is shared: the same pass can take 1.8x longer minutes
    later, and a fixed Python loop slows down with it.  Before any op
    that starts ``CALIBRATION_INTERVAL_S`` after the last sample, the
    timer takes a new one, and ``index`` names the sample before the
    op.  A host time measured after sample ``i`` is scaled by
    ``reference / mean(sample i, sample i + 1)``, the samples just
    before and after it, i.e. given in seconds of a host on which one
    sample takes ``CALIBRATION_REFERENCE_S``.  The raw times are printed
    beside.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.samples = []
        self.index = -1
        self._last = None

    def sample(self):
        self.samples.append(calibration_sample())
        self._last = perf_counter()
        self.index = len(self.samples) - 1

    def __call__(self, fn, *args, **kwargs):
        if (self._last is None
                or perf_counter() - self._last >= CALIBRATION_INTERVAL_S):
            self.sample()
        return self.inner(fn, *args, **kwargs)

    def scaled(self, seconds, index):
        """``seconds`` measured after sample ``index``, scaled; call
        :meth:`sample` once more after the last op first."""
        bracket = self.samples[index:index + 2]
        return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(bracket)


def time_imports():
    """Import the program afresh ``IMPORT_REPEATS`` times (every
    ``repro`` module dropped from ``sys.modules`` first), each after a
    calibration sample; returns ``(raw seconds, scaled seconds)``
    lists.  The first import also loads the standard library and may
    compile bytecode, so the median is the steady import cost."""
    raw, scaled = [], []
    calibration = Calibration()
    calibration.sample()
    for index in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        start = perf_counter()
        for name in IMPORTS:
            importlib.import_module(name)
        raw.append(perf_counter() - start)
        calibration.sample()
        scaled.append(calibration.scaled(raw[-1], index))
    return raw, scaled


def source_digest():
    """sha256 over every file under ``src/``: names the exact program
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_rev():
    """HEAD of the repository rooted exactly here, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if len(lines) != 2 or (os.path.realpath(lines[0])
                           != os.path.realpath(ROOT)):
        return None
    return lines[1]


def percentile(values, q):
    """The ``q``-th percentile (1..99) of ``values``, interpolated
    between the two nearest ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sim_digest(sims):
    return hashlib.sha256(repr(sims).encode()).hexdigest()[:16]


def direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Totals:
    """Sums over the passes of one kind (untraced or traced)."""

    def __init__(self):
        self.passes = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        #: Scaled seconds of every op, one list per pass.
        self.op_s = []
        self.measured_s = 0.0
        self.raw_measured_s = 0.0
        #: Scaled seconds to build each pass's inputs.
        self.setup_s = []
        self.steps = 0
        self.executed_steps = 0
        self.explore = {"explored": 0, "pruned": 0, "hits": 0,
                        "misses": 0, "bytes": 0}

    def add(self, result, setup_s, calibration):
        self.passes += 1
        self.ops += result.ops
        self.attempted += result.attempted
        self.failed += result.failed
        self.op_s.append([calibration.scaled(*op) for op in result.ops_raw])
        for seconds, index in result.regions_raw:
            self.raw_measured_s += seconds
            self.measured_s += calibration.scaled(seconds, index)
        self.setup_s.append(calibration.scaled(setup_s, 0))
        self.steps += result.steps
        self.executed_steps += result.executed_steps
        for key, value in result.explore.items():
            if key == "bytes":
                self.explore[key] = max(self.explore[key], value)
            else:
                self.explore[key] += value

    def per_op_s(self):
        """Each op's median latency over the passes (every pass runs the
        same ops in the same order); all samples when passes differ."""
        if len({len(ops) for ops in self.op_s}) == 1:
            return [statistics.median(op) for op in zip(*self.op_s)]
        return [seconds for ops in self.op_s for seconds in ops]


class Bench:
    """One run: repeated passes of one workload, then its metrics."""

    def __init__(self, args, workload, layers, trace):
        self.args = args
        self.workload = workload
        self.layers = layers
        self.trace = trace
        self.plain, self.traced = Totals(), Totals()
        self.problems = []
        #: Failed checks outside any pass's own (perturbation, trace
        #: books), each counted as one attempted and failed op.
        self.extra_failed = 0
        self.reference = None

    def run_pass(self, with_trace):
        from repro.obs.seams import SeamStack

        timer = Calibration(self.trace.op if with_trace else direct)
        seams = SeamStack()
        if with_trace:
            self.layers.install(self.trace, seams)
        try:
            timer.sample()
            start = perf_counter()
            inputs = self.workload.prepare()
            setup_s = perf_counter() - start
            result = self.workload.run_pass(inputs, timer)
        finally:
            seams.restore()
        timer.sample()
        (self.traced if with_trace else self.plain).add(
            result, setup_s, timer)
        self.check_sims(result, "traced" if with_trace else "untraced")

    def check_sims(self, result, kind):
        """Every pass must reproduce the first pass's simulated results:
        determinism, and zero perturbation by the instruments."""
        self.problems.extend(result.problems)
        if self.reference is None:
            self.reference = result.sims
        elif result.sims != self.reference:
            self.problems.append(
                f"{kind} pass simulated {sim_digest(result.sims)}, first "
                f"pass {sim_digest(self.reference)}: the run is not "
                "reproducible or the instrument perturbed it")
            self.extra_failed += 1

    def measure(self):
        start = perf_counter()
        while True:
            self.run_pass(False)
            if self.args.trace:
                self.run_pass(True)
            if perf_counter() - start >= self.args.seconds:
                break

    def end_to_end(self, import_s):
        plain = self.plain
        return {
            "setup_s": statistics.median(import_s)
            + statistics.median(plain.setup_s),
            "steps_per_s": plain.steps / plain.measured_s,
            "op_p50_ms": percentile(plain.per_op_s(), 50) * 1e3,
            "op_p90_ms": percentile(plain.per_op_s(), 90) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def unbounded(self):
        """Figures printed beside the metrics but not bounded: per-op
        throughput and the p95 move with the seed's heavy-tailed case
        costs far more than with the program (see README)."""
        plain = self.plain
        return {
            OPS_NAMES[self.args.workload]: (
                plain.ops / plain.measured_s, "1/s"),
            "op_p95_ms": (percentile(plain.per_op_s(), 95) * 1e3, "ms"),
        }

    def per_layer(self):
        trace, layers = self.trace, self.layers
        if hasattr(self.workload, "account_sink"):
            # Simulated-cycle shares come from one profiled pass of its
            # own, so the profiler's host cost stays out of the traced
            # layer times; it must reproduce the cycles too.
            self.workload.account_sink = (
                lambda account: layers.add_account(trace, account))
            result = self.workload.run_pass(
                self.workload.prepare(), Calibration(direct))
            self.extra_failed += result.failed
            self.check_sims(result, "profiled")
        trace.check_bounds()
        self.problems.extend(trace.problems)
        self.extra_failed += len(trace.problems)
        overhead = ((self.traced.measured_s / self.traced.passes)
                    / (self.plain.measured_s / self.plain.passes))
        return layers.layer_metrics(
            trace, trace.total("op"), self.traced.passes,
            self.traced.executed_steps, self.traced.explore, overhead)


def write_spans(args, manifest, trace):
    """Every recorded span as one JSON array per line after the
    manifest, ``[op, parent, name, start_ns, dur_ns, child_ns, hot]``
    with ``hot`` mapping each hot key to ``[calls, ns]``; then the
    per-key aggregates and counts."""
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
        for span in trace.spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"aggregates": trace.agg,
                             "counts": trace.counts}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              "(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import_raw, import_s = time_imports()

    import layers
    import loads
    from repro.obs.seams import SeamStack

    if args.workload not in loads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(loads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {entry["name"]: entry["unit"]
             for entry in declared["end_to_end"] + declared["per_layer"]}

    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "calibration_reference_ms": CALIBRATION_REFERENCE_S * 1e3,
        "calibration_ms_start": calibration_ms(),
    }
    meter = loads.Meter()
    base_seams = SeamStack()
    meter.install(base_seams)
    try:
        workload = loads.WORKLOADS[args.workload](
            args.seed, args.tiny, meter, pins)
        manifest["params"] = workload.params
        print("manifest " + json.dumps(manifest, sort_keys=True), flush=True)
        trace = layers.LayerTrace() if args.trace else None
        bench = Bench(args, workload, layers, trace)
        bench.measure()
        if args.trace:
            values = bench.per_layer()
            write_spans(args, manifest, trace)
        else:
            values = bench.end_to_end(import_s)
    finally:
        base_seams.restore()

    plain, traced = bench.plain, bench.traced
    failed = plain.failed + traced.failed + bench.extra_failed
    attempted = plain.attempted + traced.attempted + bench.extra_failed
    print(f"passes {plain.passes} untraced + {traced.passes} traced; "
          f"{plain.ops + traced.ops} ops; latency percentiles over "
          f"{len(plain.per_op_s())} per-op medians of {plain.passes} "
          f"untraced passes; failed_frac {failed / attempted:.6f}")
    print(f"raw host seconds: imports {import_raw}; measured "
          f"{plain.raw_measured_s:.4f} untraced, "
          f"{traced.raw_measured_s:.4f} traced")
    print(f"calibration_ms reference {CALIBRATION_REFERENCE_S * 1e3:.3f} "
          f"start {manifest['calibration_ms_start']:.3f} "
          f"end {calibration_ms():.3f}")
    print(f"sim_digest {sim_digest(bench.reference)}")
    if args.workload == "sim-paper":
        for sim in bench.reference:
            print(f"  {sim[0]:<22} cycles {sim[1][0]:>8} steps {sim[1][1]}")
    for problem in bench.problems[:50]:
        print(f"FAILURE: {problem}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, (value, unit) in bench.unbounded().items():
            print(f"  {name:<32} {value:.6g} {unit} (not bounded)")
        print(f"  {'failed_frac':<32} {failed / attempted:.6g} ratio "
              "(failed / attempted)")
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
