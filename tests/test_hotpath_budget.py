"""Hot-path budget: Python calls per engine step on two smoke cells.

The count comes from cProfile (calls over every non-builtin code
object, generator resumes included) divided by ``engine.steps``.  It depends
only on the code path, not on host speed, so a pin catches a change
that adds calls to the per-instruction path even when timing noise
would hide it.  Each cell runs in a fresh interpreter: the op- and
outcome-interning caches are process-wide, and their warmth (or a cache
filled by earlier tests) would move the count.

The pins are the measured values plus a 5% margin.  cProfile's counts
shift between Python versions (generator resumes, dataclass internals),
so they apply to Python 3.11 only.  When a change moves the count on
purpose, re-measure with ``PYTHONPATH=src python
tests/test_hotpath_budget.py`` and update ``MEASURED``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: cell id -> measured Python calls per engine step, Python 3.11.
MEASURED = {
    "swim-lazy-x2": 10.85,
    "mp3d-eager-x4": 11.89,
}
MARGIN = 1.05
BUDGET = {cell: round(calls * MARGIN, 2) for cell, calls in MEASURED.items()}

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_MEASURE = """
import cProfile, json, sys
from repro.harness.bench import matrix_cells
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine

cell = sys.argv[1]
workload, config = next((w, c) for cid, w, c in matrix_cells() if cid == cell)
workload = workload()
machine = Machine(config())
workload.setup(machine, Runtime(machine), SharedArena(machine))
profile = cProfile.Profile()
profile.enable()
machine.run()
profile.disable()
workload.verify(machine)
# Raw profiler entries, one per code object: pstats would merge entries
# sharing a (file, line, name) key, such as every dataclass __init__
# (``<string>:2``), keeping an arbitrary one.  Builtins carry a str.
calls = sum(entry.callcount for entry in profile.getstats()
            if not isinstance(entry.code, str))
print(json.dumps({"calls": calls,
                  "steps": machine.stats.get("engine.steps")}))
"""


def calls_per_step(cell):
    """Python calls per engine step of ``cell``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, cell], env=env, check=True,
        capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    return result["calls"] / result["steps"]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="cProfile call counts are pinned on Python 3.11; other "
           "versions count generator resumes and dataclass calls "
           "differently")
@pytest.mark.parametrize("cell", sorted(BUDGET))
def test_python_calls_per_step_within_budget(cell):
    measured = calls_per_step(cell)
    assert measured <= BUDGET[cell], (
        f"{cell}: {measured:.2f} Python calls per engine step exceeds "
        f"the budget of {BUDGET[cell]} (measured {MEASURED[cell]} + 5%)")


if __name__ == "__main__":
    for name in sorted(MEASURED):
        print(f"{name}: {calls_per_step(name):.2f} calls/step")
