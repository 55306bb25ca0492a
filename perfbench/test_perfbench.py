"""Tests of the benchmark itself: manifest limits, tiny smoke runs."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import spec
from perfbench.run import run_workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_keeps_the_declared_limits():
    manifest = spec.MANIFEST
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [w["name"] for w in manifest["workloads"]]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    seconds = 1.0 if workload == "serve-knn" else 0.2
    outcome = run_workload(
        workload, seed=3, seconds=seconds, trace=trace, profile="tiny"
    )
    result = outcome["result"]
    assert outcome["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric.name


def test_quality_repeats_exactly_under_a_seed():
    first, second = (
        run_workload("snapshot-hepph", seed=5, seconds=0.0, trace=False, profile="tiny")
        for _ in range(2)
    )
    for name in ("lp_auc", "gr_meanp10"):
        assert first["all_metrics"][name] == second["all_metrics"][name]


def test_fails_without_printing_a_result_when_the_library_is_absent(tmp_path):
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(spec.MANIFEST_PATH, tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-knn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
