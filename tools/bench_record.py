#!/usr/bin/env python
"""Append one perf measurement to the committed trajectory file.

``BENCH_perfbench.json`` at the repository root holds one record per
performance change: which workload it claims a gain on, at which seed
and run length, the parent's and the change's medians of every
end-to-end metric, the parent's interquartile range on the claimed
metric, and how many alternating parent/change pairs the change won.

The inputs are saved perfbench outputs (the full standard output of
``python3 perfbench/run.py ... --trace 0``): the tool reads each one's
``manifest`` line and its last line, the result JSON.  Pair ``i`` is the
``i``-th ``--parent`` file against the ``i``-th ``--change`` file.  Run
from the repository root:

    python3 tools/bench_record.py --label NAME --claim steps_per_s \\
        --parent-commit <rev> --parent p1.txt p2.txt ... \\
        --change c1.txt c2.txt ...

Re-running with the same label, workload, seed and claim replaces that
record in place, so appending is idempotent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perfbench.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DESCRIPTION = (
    "One record per performance change, measured with perfbench "
    "(python3 perfbench/run.py --workload W --seed S --seconds N "
    "--trace 0) over alternating parent/change pairs. parent and change "
    "hold medians over the pairs; parent_iqr is the width of the "
    "parent's interquartile range on the claimed metric. commit is null "
    "on a record committed together with the change it measures: "
    "src_sha256 (perfbench's manifest digest of src/) names that program "
    "exactly. Records that carry a commit instead were backfilled by "
    "hand from docs/performance.md.")

#: Record fields and their types (``None`` allowed where listed).
FIELDS = {
    "label": (str,),
    "commit": (str, type(None)),
    "parent_commit": (str,),
    "workload": (str,),
    "seed": (int,),
    "seconds": (int, float),
    "claim": (str,),
    "pairs": (int,),
    "pairs_won": (int,),
    "parent": (dict,),
    "change": (dict,),
    "parent_iqr": (int, float),
}
OPTIONAL = {"src_sha256": (str,)}


class RecordError(ValueError):
    """A perfbench output or a record does not fit the trajectory."""


def end_to_end_metrics():
    """``{name: better}`` for the end-to-end metrics BENCHMARK.json
    declares (``better`` is ``"higher"`` or ``"lower"``)."""
    declared = json.loads(BENCHMARK.read_text())
    return {entry["name"]: entry["better"]
            for entry in declared["end_to_end"]}


def read_run(path):
    """``(manifest, result)`` of one saved perfbench output."""
    lines = Path(path).read_text().splitlines()
    manifests = [line[len("manifest "):] for line in lines
                 if line.startswith("manifest ")]
    if not manifests or not lines:
        raise RecordError(f"{path}: not a perfbench output")
    manifest = json.loads(manifests[0])
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RecordError(f"{path}: last line is not the result JSON")
    if not result.get("correct"):
        raise RecordError(f"{path}: run was not correct")
    if manifest.get("trace"):
        raise RecordError(f"{path}: a --trace 1 run has no end-to-end "
                          "metrics")
    return manifest, result


def _medians(results, names):
    return {name: statistics.median(
        result["metrics"][name]["value"] for result in results)
        for name in names}


def iqr_width(values):
    """Width of the interquartile range (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def build_record(label, claim, parent_runs, change_runs, parent_commit):
    """The trajectory record for ``parent_runs``/``change_runs``, each a
    list of ``(manifest, result)`` in pair order.  The change has no
    commit yet when its record is committed with it, so ``commit`` is
    null and ``src_sha256`` names the measured program."""
    if not parent_runs or len(parent_runs) != len(change_runs):
        raise RecordError(
            f"need one change run per parent run, got {len(parent_runs)} "
            f"parent and {len(change_runs)} change")
    better = end_to_end_metrics()
    if claim not in better:
        raise RecordError(f"unknown end-to-end metric {claim!r}")
    keys = {(m["workload"], m["seed"], m["seconds"])
            for m, _ in parent_runs + change_runs}
    if len(keys) != 1:
        raise RecordError(f"runs differ in workload/seed/seconds: "
                          f"{sorted(keys)}")
    workload, seed, seconds = keys.pop()
    parents = [result for _, result in parent_runs]
    changes = [result for _, result in change_runs]
    sign = 1 if better[claim] == "higher" else -1
    won = sum(
        1 for p, c in zip(parents, changes)
        if sign * (c["metrics"][claim]["value"]
                   - p["metrics"][claim]["value"]) > 0)
    names = sorted(name for name in better
                   if name in parents[0]["metrics"])
    digests = {m.get("src_sha256") for m, _ in change_runs}
    record = {
        "label": label,
        "commit": None,
        "parent_commit": parent_commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "claim": claim,
        "pairs": len(parents),
        "pairs_won": won,
        "parent": _medians(parents, names),
        "change": _medians(changes, names),
        "parent_iqr": iqr_width(
            [p["metrics"][claim]["value"] for p in parents]),
    }
    if len(digests) == 1 and None not in digests:
        record["src_sha256"] = digests.pop()
    validate_record(record)
    return record


def validate_record(record):
    """Raise :class:`RecordError` unless ``record`` fits the schema."""
    for name, types in FIELDS.items():
        if name not in record:
            raise RecordError(f"record lacks {name!r}")
        if not isinstance(record[name], types) or isinstance(
                record[name], bool):
            raise RecordError(f"record field {name!r} has type "
                              f"{type(record[name]).__name__}")
    for name, value in record.items():
        if name in FIELDS:
            continue
        if name not in OPTIONAL or not isinstance(value, OPTIONAL[name]):
            raise RecordError(f"unexpected record field {name!r}")
    if not 0 <= record["pairs_won"] <= record["pairs"]:
        raise RecordError("pairs_won outside [0, pairs]")
    for side in ("parent", "change"):
        medians = record[side]
        if record["claim"] not in medians:
            raise RecordError(f"{side} medians lack the claimed metric")
        for name, value in medians.items():
            if not isinstance(value, (int, float)) or isinstance(
                    value, bool):
                raise RecordError(f"{side}[{name!r}] is not a number")


def _key(record):
    return (record["label"], record["workload"], record["seed"],
            record["claim"])


def load(path=TRAJECTORY):
    if not Path(path).exists():
        return {"description": DESCRIPTION, "records": []}
    return json.loads(Path(path).read_text())


def append(record, path=TRAJECTORY):
    """Add ``record`` to the trajectory at ``path``, replacing a record
    with the same label, workload, seed and claim."""
    validate_record(record)
    data = load(path)
    records = data["records"]
    for index, existing in enumerate(records):
        if _key(existing) == _key(record):
            records[index] = record
            break
    else:
        records.append(record)
    Path(path).write_text(json.dumps(data, indent=2) + "\n")
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="the change's name, as CHANGES.md gives it")
    parser.add_argument("--claim", required=True,
                        help="the end-to-end metric the change claims")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        record = build_record(
            args.label, args.claim,
            [read_run(path) for path in args.parent],
            [read_run(path) for path in args.change],
            args.parent_commit)
        append(record)
    except RecordError as error:
        print(f"bench_record: {error}", file=sys.stderr)
        return 1
    ratio = record["change"][args.claim] / record["parent"][args.claim]
    print(f"{record['label']}: {record['workload']} {args.claim} "
          f"{ratio:.3f}x, won {record['pairs_won']} of {record['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
