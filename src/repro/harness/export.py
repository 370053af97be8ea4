"""Machine-readable experiment export (JSON/CSV).

Labs script over results; every harness object here serializes to plain
dicts, and the CLI grows ``--json`` via :func:`dump_json`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import platform


def comparison_to_dict(comparison):
    """Serialize a :class:`~repro.harness.experiment.NestingComparison`."""
    return {
        "name": comparison.name,
        "seq_cycles": comparison.seq_cycles,
        "flat_cycles": comparison.flat_cycles,
        "nested_cycles": comparison.nested_cycles,
        "improvement": comparison.improvement,
        "total_speedup": comparison.total_speedup,
        "flat_speedup": comparison.flat_speedup,
    }


def scaling_to_dicts(points):
    """Serialize a list of :class:`~repro.harness.experiment
    .ScalingPoint` or :class:`~repro.harness.sweep.SpeedupPoint`."""
    out = []
    for p in points:
        entry = {"n": getattr(p, "n", getattr(p, "n_cpus", None)),
                 "cycles": p.cycles}
        if hasattr(p, "work_items"):
            entry["work_items"] = p.work_items
            entry["throughput"] = p.throughput
        if hasattr(p, "speedup"):
            entry["speedup"] = p.speedup
        out.append(entry)
    return out


def profile_to_dict(profile):
    """Serialize a :class:`~repro.harness.profile.Profile`."""
    data = dict(vars(profile))
    data["rollbacks_by_level"] = {
        str(level): count
        for level, count in profile.rollbacks_by_level.items()
    }
    return data


def run_manifest(config, seed, args):
    """The provenance block of a run's JSON artifact.

    Names the git revision, Python version, a sha256 of the machine
    configuration, the seed and the command-line arguments, so two
    results can be told apart and the run repeated."""
    from repro.harness.bench import git_rev

    config_json = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "seed": seed,
        "args": {name: value for name, value in sorted(vars(args).items())
                 if name != "fn"},
    }


def dump_json(payload, path=None):
    """Serialize ``payload`` (pre-converted dicts) to JSON; returns the
    text, writing it to ``path`` when given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return text


def rows_to_csv(headers, rows, path=None):
    """Render rows as CSV; returns the text, writing ``path`` if given."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text
