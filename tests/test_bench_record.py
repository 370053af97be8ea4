"""The committed perf trajectory (``BENCH_perfbench.json``) and the tool
that appends to it (``tools/bench_record.py``)."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_record  # noqa: E402


def _perfbench_output(path, steps_per_s, seed=1, workload="sim-paper",
                      sha="abc", correct=True):
    """A saved perfbench stdout: manifest line, prose, result line."""
    manifest = {"workload": workload, "seed": seed, "seconds": 20,
                "trace": 0, "src_sha256": sha, "git_rev": None}
    metrics = {
        "setup_s": {"value": 0.2, "unit": "s"},
        "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": 1e7 / steps_per_s, "unit": "ms"},
        "op_p90_ms": {"value": 3e7 / steps_per_s, "unit": "ms"},
        "peak_rss_mb": {"value": 70.0, "unit": "MB"},
    }
    result = {"correct": correct, "attempted": 20, "failed": 0,
              "metrics": metrics}
    path.write_text("manifest " + json.dumps(manifest) + "\n"
                    + "sim_digest 0123\n" + json.dumps(result) + "\n")
    return str(path)


def _record(parent, change, claim="steps_per_s"):
    return bench_record.build_record(
        "engine-cuts", claim,
        [bench_record.read_run(path) for path in parent],
        [bench_record.read_run(path) for path in change],
        parent_commit="f" * 40)


def test_committed_trajectory_fits_the_schema():
    with open(os.path.join(ROOT, "BENCH_perfbench.json")) as fh:
        data = json.load(fh)
    assert data["description"]
    records = data["records"]
    for record in records:
        bench_record.validate_record(record)
    # The backfilled records plus at least one measured with the tool.
    assert len(records) >= 4
    assert len({record["label"] for record in records}) == len(records)
    assert any("src_sha256" in record for record in records)
    for record in records:
        assert record["commit"] is not None or "src_sha256" in record


def test_record_from_perfbench_outputs(tmp_path):
    parents = [_perfbench_output(tmp_path / f"p{i}.txt", value)
               for i, value in enumerate([100.0, 110.0, 90.0, 105.0])]
    changes = [_perfbench_output(tmp_path / f"c{i}.txt", value, sha="new")
               for i, value in enumerate([120.0, 100.0, 130.0, 125.0])]
    record = _record(parents, changes)
    assert record["workload"] == "sim-paper" and record["seed"] == 1
    assert record["pairs"] == 4
    # Pair 2 (110 against 100) is lost.
    assert record["pairs_won"] == 3
    assert record["parent"]["steps_per_s"] == 102.5
    assert record["change"]["steps_per_s"] == 122.5
    # Inclusive quartiles of 90, 100, 105, 110.
    assert record["parent_iqr"] == pytest.approx(106.25 - 97.5)
    assert record["src_sha256"] == "new"
    assert record["commit"] is None
    # A lower-is-better claim counts wins the other way round.
    lower = _record(parents, changes, "op_p50_ms")
    assert lower["pairs_won"] == 3


def test_append_is_idempotent(tmp_path):
    parent = _perfbench_output(tmp_path / "p.txt", 100.0)
    change = _perfbench_output(tmp_path / "c.txt", 120.0, sha="new")
    out = tmp_path / "trajectory.json"
    record = _record([parent], [change])
    bench_record.append(record, out)
    first = out.read_text()
    bench_record.append(record, out)
    assert out.read_text() == first
    data = json.loads(first)
    assert data["description"] == bench_record.DESCRIPTION
    assert len(data["records"]) == 1
    # Another seed is another record; a re-measure replaces in place.
    other = _perfbench_output(tmp_path / "p2.txt", 100.0, seed=2)
    other_change = _perfbench_output(tmp_path / "c2.txt", 90.0, seed=2)
    bench_record.append(_record([other], [other_change]), out)
    changed = _perfbench_output(tmp_path / "c.txt", 140.0, sha="new")
    bench_record.append(_record([parent], [changed]), out)
    records = json.loads(out.read_text())["records"]
    assert [(r["seed"], r["change"]["steps_per_s"]) for r in records] == [
        (1, 140.0), (2, 90.0)]


@pytest.mark.parametrize("problem", ["unpaired", "mixed", "incorrect",
                                     "claim"])
def test_bad_inputs_are_refused(tmp_path, problem):
    parent = _perfbench_output(tmp_path / "p.txt", 100.0)
    change = _perfbench_output(tmp_path / "c.txt", 120.0)
    parents, changes, claim = [parent], [change], "steps_per_s"
    if problem == "unpaired":
        changes = [change, change]
    elif problem == "mixed":
        changes = [_perfbench_output(tmp_path / "x.txt", 120.0,
                                     workload="check-sweep")]
    elif problem == "incorrect":
        changes = [_perfbench_output(tmp_path / "x.txt", 120.0,
                                     correct=False)]
    else:
        claim = "sim.steps"
    with pytest.raises(bench_record.RecordError):
        _record(parents, changes, claim)


def test_schema_rejects_malformed_records():
    good = {
        "label": "engine-cuts", "commit": None, "parent_commit": "f",
        "workload": "sim-paper", "seed": 1, "seconds": 20,
        "claim": "steps_per_s", "pairs": 3, "pairs_won": 3,
        "parent": {"steps_per_s": 1.0}, "change": {"steps_per_s": 2.0},
        "parent_iqr": 0.1,
    }
    bench_record.validate_record(good)
    for broken in (
            {k: v for k, v in good.items() if k != "pairs_won"},
            dict(good, pairs_won=4),
            dict(good, seed=True),
            dict(good, change={"setup_s": 1.0}),
            dict(good, parent={"steps_per_s": "fast"}),
            dict(good, extra=1)):
        with pytest.raises(bench_record.RecordError):
            bench_record.validate_record(broken)
