"""Unit tests for the stage-pipeline machinery itself.

The golden suite (``test_pipeline_goldens.py``) pins whole-engine
behaviour; these tests pin the pipeline *contracts* — stage timing,
duplicate-name rejection, the shared-RNG rule behind bit-identity, the
one-CSR-per-step invariant, and the publish helpers shared by snapshot
and streaming modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.static import Graph
from repro.pipeline import (
    StagePipeline,
    StepContext,
    StepTrace,
    deepwalk_pipeline,
    offline_pipeline,
    online_pipeline,
    partition_cells_for,
    publish_version,
)
from repro.pipeline.stages import Stage


def _context(**overrides) -> StepContext:
    """A minimal StepContext for machinery tests (no engine involved)."""
    graph = Graph()
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    defaults = dict(
        config=None,
        rng=np.random.default_rng(0),
        model=None,
        snapshot=graph,
        time_step=0,
    )
    defaults.update(overrides)
    return StepContext(**defaults)


class _Recorder:
    """A stage that appends its name to a shared call log."""

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def run(self, context: StepContext) -> None:
        """Record the call."""
        self.log.append(self.name)


# ----------------------------------------------------------------------
# StagePipeline
# ----------------------------------------------------------------------

def test_pipeline_runs_stages_in_order_and_times_each():
    log: list[str] = []
    pipeline = StagePipeline([_Recorder(n, log) for n in ("a", "b", "c")])
    context = _context()
    returned = pipeline.run(context)
    assert returned is context
    assert log == ["a", "b", "c"]
    assert set(context.stage_seconds) == {"a", "b", "c"}
    assert all(s >= 0 for s in context.stage_seconds.values())


def test_pipeline_rejects_duplicate_stage_names():
    log: list[str] = []
    with pytest.raises(ValueError, match="duplicate stage names"):
        StagePipeline([_Recorder("walk", log), _Recorder("walk", log)])


def test_pipeline_copies_timings_onto_trace():
    log: list[str] = []

    class _Tracer(_Recorder):
        def run(self, context: StepContext) -> None:
            """Emit a trace like TrainStage does."""
            super().run(context)
            context.trace = StepTrace(
                time_step=0, num_nodes=3, num_selected=1, num_pairs=2
            )

    context = StagePipeline([_Tracer("train", log)]).run(_context())
    assert set(context.trace.stage_seconds) == {"train"}


def test_stage_seconds_excluded_from_trace_equality():
    """Timings are telemetry: equal behaviour must compare equal."""
    fast = StepTrace(time_step=1, num_nodes=5, num_selected=2, num_pairs=9)
    slow = StepTrace(time_step=1, num_nodes=5, num_selected=2, num_pairs=9)
    slow.stage_seconds = {"walk": 123.0}
    assert fast == slow


def test_concrete_stages_satisfy_the_protocol():
    for factory in (online_pipeline, offline_pipeline, deepwalk_pipeline):
        for stage in factory().stages:
            assert isinstance(stage, Stage)
            assert isinstance(stage.name, str) and stage.name


def test_engine_pipeline_shapes():
    """The three factory literals match the documented stage graphs."""
    names = lambda p: [s.name for s in p.stages]  # noqa: E731
    assert names(online_pipeline()) == [
        "changes", "partition", "select", "walk", "train", "publish",
    ]
    assert names(offline_pipeline()) == ["select", "walk", "train", "publish"]
    assert names(deepwalk_pipeline()) == ["select", "walk", "train"]


# ----------------------------------------------------------------------
# StepContext contracts
# ----------------------------------------------------------------------

def test_ensure_csr_builds_once_per_step():
    """The one-CSR-per-step invariant, at the context level."""
    context = _context()
    first = context.ensure_csr()
    assert context.ensure_csr() is first


def test_rng_for_shares_one_stream_by_default():
    """Bit-identity hinges on every stage drawing from the same stream."""
    context = _context()
    assert context.rng_for("select") is context.rng
    assert context.rng_for("walk") is context.rng
    assert context.rng_for("train") is context.rng


def test_rng_for_independent_streams_are_stable_and_distinct():
    context = _context(independent_streams=True)
    select = context.rng_for("select")
    walk = context.rng_for("walk")
    assert select is not context.rng
    assert select is not walk
    assert context.rng_for("select") is select  # cached per stage


# ----------------------------------------------------------------------
# Publish helpers (shared snapshot/streaming path)
# ----------------------------------------------------------------------

class _FakePartition:
    """Partition stand-in: just the assignment mapping."""

    def __init__(self, assignment: dict) -> None:
        self.assignment = assignment


class _FakeStore:
    """Records publish calls."""

    def __init__(self) -> None:
        self.calls: list = []

    def publish(self, payload, *, time_step, metadata) -> None:
        """Record one published version."""
        self.calls.append((payload, time_step, metadata))


def test_partition_cells_require_complete_cover():
    part = _FakePartition({0: 0, 1: 1})
    assert partition_cells_for([0, 1], part) == [0, 1]
    assert partition_cells_for([0, 1, 2], part) is None
    assert partition_cells_for([0], None) is None


def test_publish_version_attaches_cells_only_when_whole():
    store = _FakeStore()
    matrix = np.zeros((2, 4))
    publish_version(
        store, [0, 1], matrix, time_step=3, metadata={"source": "test"},
        partition=_FakePartition({0: 1, 1: 0}),
    )
    publish_version(
        store, [0, 1], matrix, time_step=4, metadata={"source": "test"},
        partition=_FakePartition({0: 1}),
    )
    (payload, step, meta), (_, _, meta_partial) = store.calls
    assert payload == ([0, 1], matrix)
    assert step == 3
    assert meta["partition_cells"] == [1, 0]
    assert "partition_cells" not in meta_partial


# ----------------------------------------------------------------------
# Telemetry plumbing downstream of the pipeline
# ----------------------------------------------------------------------

def test_run_result_aggregates_stage_seconds():
    from repro.experiments.runner import RunResult

    first = StepTrace(time_step=0, num_nodes=3, num_selected=3, num_pairs=5)
    first.stage_seconds = {"walk": 1.0, "train": 2.0}
    second = StepTrace(time_step=1, num_nodes=3, num_selected=1, num_pairs=2)
    second.stage_seconds = {"walk": 0.5, "train": 1.5, "publish": 0.25}
    result = RunResult(
        method_name="m", dataset_name="d",
        step_traces=[first, None, second],
    )
    assert result.stage_seconds == {
        "walk": 1.5, "train": 3.5, "publish": 0.25,
    }


def test_bench_schema_accepts_stage_seconds():
    from repro.bench.schema import validate_result

    doc = {
        "schema": "repro.bench/v1",
        "name": "pipeline_smoke",
        "profile": "tiny",
        "status": "ok",
        "seconds": 1.0,
        "created_unix": 1.0,
        "metrics": {"qps": 1.0},
        "config": {},
        "host": {"python": "3", "platform": "x", "cpu_count": 1,
                 "numpy": "2"},
        "git": {"sha": None, "branch": None, "dirty": None},
        "summary": "ok",
    }
    assert validate_result(doc) == []
    doc["stage_seconds"] = {"walk": 0.5, "train": 1.25}
    assert validate_result(doc) == []
    doc["stage_seconds"] = {"walk": -1.0}
    assert any("stage_seconds" in p for p in validate_result(doc))
    doc["stage_seconds"] = {"": 1.0}
    assert any("stage_seconds" in p for p in validate_result(doc))
    doc["stage_seconds"] = ["walk"]
    assert any("stage_seconds" in p for p in validate_result(doc))


def test_run_method_records_stage_seconds_end_to_end():
    """A real (tiny) GloDyNE run surfaces per-stage timings per step."""
    from repro import GloDyNE
    from repro.datasets import load_dataset
    from repro.experiments import run_method

    network = load_dataset("elec-sim", scale=0.15, seed=0, snapshots=2)
    method = GloDyNE(
        dim=8, num_walks=2, walk_length=6, window_size=2, epochs=1, seed=0,
    )
    result = run_method(method, network)
    assert result.ok
    assert len(result.step_traces) == 2
    for trace in result.step_traces:
        assert set(trace.stage_seconds) >= {"select", "walk", "train"}
    assert set(result.stage_seconds) >= {"select", "walk", "train"}


@pytest.mark.parametrize("strategy", ["s4", "s4-uniform"])
def test_step1_partition_is_built_and_timed_in_the_partition_stage(
    monkeypatch, strategy
):
    """Without the incremental partitioner, S4's partition is built once
    per online step, in the partition stage, and S4 adopts it; it is
    still not published as ``partition_cells``."""
    import time

    import repro.core.selection as selection
    from repro import GloDyNE
    from repro.datasets import load_dataset

    real_partition_graph = selection.partition_graph
    running: list[str] = []

    def slow_partition_graph(*args, **kwargs):
        running.append("call")
        time.sleep(0.05)
        return real_partition_graph(*args, **kwargs)

    monkeypatch.setattr(selection, "partition_graph", slow_partition_graph)
    network = load_dataset("elec-sim", scale=0.15, seed=0, snapshots=3)
    method = GloDyNE(
        dim=8, num_walks=2, walk_length=6, window_size=2, epochs=1, seed=0,
        strategy=strategy,
    )
    for t, snapshot in enumerate(network):
        method.update(snapshot)
        assert len(running) == t  # one build per online step
        if t:
            seconds = method.last_trace.stage_seconds
            assert seconds["partition"] >= 0.05 > seconds["select"]
            assert method.last_partition_cells is None
