"""Tests of the benchmark itself, on its reduced-size (smoke) inputs.

    python3 -m pytest perfbench/selftest.py

Every metric BENCHMARK.json names must be printed with its unit, on every
workload, and the output gate must trip when a committed reference is
tampered with.  The file is not named test_*.py, so the repository's own
test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(root, workload, trace=0, seed=0):
    """Run a smoke-size benchmark in ``root``; returns (status, last JSON line)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None)


def copy_checkout(dest, with_source=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    names = list(SPEC["paths"]) + (["src"] if with_source else [])
    for name in names:
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    status, result = bench(ROOT, workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _tamper(root, key, field):
    path = os.path.join(root, "perfbench", "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    if field == "shape":
        ref[key]["shape"] = "0" * 64
    else:
        ref[key]["digests"]["0"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(ref, fh)


@pytest.mark.parametrize("field", ["digest", "shape"])
def test_gate_trips_on_a_tampered_reference(tmp_path, field):
    copy_checkout(tmp_path)
    assert bench(tmp_path, "pro2-law")[1]["correct"] is True
    _tamper(tmp_path, "pro2-smoke", field)
    status, result = bench(tmp_path, "pro2-law")
    assert status == 1
    assert result["correct"] is False


def test_refuses_to_run_without_the_source(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    status, result = bench(tmp_path, "pro2-law")
    assert status != 0
    assert result is None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
