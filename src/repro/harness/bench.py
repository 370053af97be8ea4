"""Golden-cycle regression bench: ``python -m repro bench``.

Every cell of a fixed workload matrix (kernels × lazy/eager detection ×
2–16 CPUs) and the flagship cell — the detection-stress kernel
(:mod:`repro.workloads.detstress`) on the 16-CPU eager machine — is
simulated once and its cycle count compared for *exact* equality
against the golden values in ``bench_golden.json``.  The simulator is
deterministic, so any drift — however small — means a change altered
observable behaviour, which is a bug here, never a re-tuning.

The flagship then runs once more under the
:class:`~repro.obs.profiler.CycleProfiler`: profiling must not change
its cycles, and the cycle accounting must balance.

Results (cycles and steps per cell, plus the flagship's cycle account)
are written to ``BENCH_sim.json`` with a ``manifest`` naming what
produced them: the git revision (``null`` outside a checkout), the
Python version, the smoke flag and the sha256 of the goldens.  Host
speed is measured elsewhere, by the repository benchmark in
``perfbench/``.

``--smoke`` runs a reduced matrix (the 4-CPU column plus the flagship)
for CI; golden values are shared with the full matrix.  Regenerate the
goldens with ``--update-golden`` after an *intentional* behaviour change
(and say why in the commit).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess

from repro.common.params import functional_config, paper_config
from repro.harness.parallel import CaseSpec, run_campaign
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.workloads import DetectionStressKernel, Mp3dKernel, SwimKernel

#: Path of the golden cycle counts, next to this module.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "bench_golden.json")

#: The checkout root when running from source (``src/repro/harness/..``).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

#: The matrix axes.
KERNELS = {"swim": SwimKernel, "mp3d": Mp3dKernel}
DETECTIONS = ("lazy", "eager")
CPU_COUNTS = (2, 4, 8, 16)
SMOKE_CPU_COUNTS = (4,)

#: The flagship cell: 16-CPU eager detection, deep nesting allowed.
FLAGSHIP_ID = "detstress-eager-x16"
FLAGSHIP_CPUS = 16


def _flagship_config():
    return functional_config(
        n_cpus=FLAGSHIP_CPUS, **DetectionStressKernel.config_overrides)


def _flagship_workload():
    return DetectionStressKernel(n_threads=FLAGSHIP_CPUS)


def matrix_cells(smoke=False):
    """Yield (cell_id, workload factory, config factory) for the matrix."""
    counts = SMOKE_CPU_COUNTS if smoke else CPU_COUNTS
    for kernel_name, kernel_cls in sorted(KERNELS.items()):
        for detection in DETECTIONS:
            for n_cpus in counts:
                cell_id = f"{kernel_name}-{detection}-x{n_cpus}"
                yield (
                    cell_id,
                    lambda n=n_cpus, cls=kernel_cls: cls(n_threads=n),
                    lambda n=n_cpus, d=detection: paper_config(
                        n_cpus=n, detection=d),
                )


def _bench_cells(smoke=False):
    """The matrix cells followed by the flagship cell."""
    yield from matrix_cells(smoke=smoke)
    yield FLAGSHIP_ID, _flagship_workload, _flagship_config


def run_cell(factory, config, max_cycles=2_000_000_000):
    """Run and verify one workload under ``config``.

    Returns a dict with the simulated cycles and the engine steps.
    """
    workload = factory()
    machine = Machine(config)
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    workload.setup(machine, runtime, arena)
    machine.run(max_cycles=max_cycles)
    workload.verify(machine)
    return {
        "cycles": machine.stats.get("cycles"),
        "steps": machine.stats.get("engine.steps"),
    }


def run_cell_by_id(cell_id):
    """Run one bench cell named by its id (the parallel path's runner).

    The cell id fully determines the workload and config, so a worker
    process reconstructs the cell from the name alone.
    """
    for candidate, factory, config_factory in _bench_cells():
        if candidate == cell_id:
            return {"id": cell_id, **run_cell(factory, config_factory())}
    raise ValueError(f"unknown bench cell {cell_id!r}")


def _cell_failure(spec, message):
    return {"id": spec.name, "cycles": None, "steps": None, "error": message}


def run_flagship_accounting(expected_cycles=None):
    """Profile the flagship run and close the cycle books.

    Doubles as the zero-perturbation guard: the profiler shadows
    ``cpu.execute`` and wraps the HTM seams, and the machine it profiles
    must still produce *exactly* the unprofiled flagship cycle count —
    any drift means the instrument changed observable behaviour.
    Returns ``(CycleAccount, list of errors)``.
    """
    from repro.obs.profiler import CycleProfiler

    workload = _flagship_workload()
    machine = Machine(_flagship_config())
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    workload.setup(machine, runtime, arena)
    profiler = CycleProfiler(machine)
    try:
        machine.run(max_cycles=2_000_000_000)
        workload.verify(machine)
    finally:
        profiler.detach()
    account = profiler.account()

    errors = []
    cycles = machine.stats.get("cycles")
    if expected_cycles is not None and cycles != expected_cycles:
        errors.append(
            f"{FLAGSHIP_ID} (profiled): {cycles} cycles != unprofiled "
            f"{expected_cycles} — the profiler perturbed the run")
    errors.extend(f"{FLAGSHIP_ID} accounting: {problem}"
                  for problem in account.problems())
    return account, errors


def load_golden():
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def git_rev(root=None):
    """HEAD of the checkout rooted exactly at ``root``, else None.

    ``root`` defaults to the checkout this source tree sits in; an
    installed package is not a checkout, so it reports None."""
    root = root or REPO_ROOT
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if len(lines) != 2 or (os.path.realpath(lines[0])
                           != os.path.realpath(root)):
        return None
    return lines[1]


def bench_manifest(smoke):
    """The provenance block of ``BENCH_sim.json``.

    Names the git revision, Python version, smoke flag and goldens
    digest, so two results can be told apart."""
    golden_sha256 = None
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, "rb") as fh:
            golden_sha256 = hashlib.sha256(fh.read()).hexdigest()
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "smoke": smoke,
        "golden_sha256": golden_sha256,
    }


def run_bench(smoke=False, update_golden=False, report=print, jobs=1):
    """Run the matrix + flagship; returns (results dict, list of errors).

    ``jobs`` fans the cells out across worker processes; cycle counts
    are simulated, so parallelism cannot perturb them.
    """
    golden = {} if update_golden else load_golden()
    errors = []
    cells = []

    def finish_cell(result):
        cell_id = result["id"]
        expected = golden.get(cell_id)
        result["golden_cycles"] = expected
        cells.append(result)
        if result.get("error"):
            result["ok"] = False
            errors.append(f"{cell_id}: {result['error']}")
            report(f"  {cell_id:<22} run FAILED: {result['error']}")
            return
        result["ok"] = expected is None or result["cycles"] == expected
        if expected is None and not update_golden:
            errors.append(f"{cell_id}: no golden cycle count on record")
        elif not result["ok"]:
            errors.append(
                f"{cell_id}: {result['cycles']} cycles != golden {expected}")
        report(f"  {cell_id:<22} {result['cycles']:>9} cycles  "
               f"{result['steps']:>9} steps  "
               f"{'ok' if result['ok'] else 'MISMATCH'}")

    specs = [CaseSpec(runner="repro.harness.bench:run_cell_by_id",
                      name=cell_id, args=(cell_id,))
             for cell_id, _, _ in _bench_cells(smoke=smoke)]
    run_campaign(specs, jobs=jobs, report=finish_cell,
                 failure_result=_cell_failure)

    accounting = None
    flagship = cells[-1]
    if not flagship.get("error"):
        report(f"  {FLAGSHIP_ID}: cycle accounting (profiled re-run)...")
        account, account_errors = run_flagship_accounting(
            expected_cycles=flagship["cycles"])
        errors.extend(account_errors)
        accounting = account.as_dict()
        from repro.harness.report import format_cycle_accounting
        for line in format_cycle_accounting(
                account,
                title=f"  wasted-work breakdown ({FLAGSHIP_ID})").splitlines():
            report(f"  {line}")

    if update_golden:
        refreshed = dict(load_golden())
        for cell in cells:
            if not cell.get("error"):
                refreshed[cell["id"]] = cell["cycles"]
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(refreshed, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report(f"  wrote golden cycle counts to {GOLDEN_PATH}")
    results = {
        # After any golden update, so the digest names the file as this
        # run left it.
        "manifest": bench_manifest(smoke),
        "smoke": smoke,
        "cells": cells,
        "accounting": accounting,
        "ok": not errors,
    }
    return results, errors


def cmd_bench(args):
    """Entry point for ``python -m repro bench``."""
    print("bench: golden-cycle matrix + profiled flagship")
    results, errors = run_bench(
        smoke=args.smoke, update_golden=args.update_golden, jobs=args.jobs)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    for error in errors:
        print(f"bench FAILURE: {error}")
    return 1 if errors else 0
