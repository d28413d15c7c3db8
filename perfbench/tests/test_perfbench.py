"""Tests of the benchmark itself, on shrunken inputs and an untrained checkpoint.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The runs here check names, inputs and span structure, not figures or
correctness, so the untrained model's WERs are beside the point.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from perfbench import bench, layers, workloads
from perfbench.tracer import self_times, spans_outside_parent
from ttabench.model.reference import build_reference_model, save_checkpoint

ROOT = Path(__file__).resolve().parents[2]


def _small(name: str):
    return {
        # two workers, so the traced run must bring spans back from the pool
        "batch-episodic": lambda: workloads.BatchEpisodic(
            speaker_utterances=(2, 2, 2), chars=tuple(range(9, 16)), workers=2),
        "stream-continual": lambda: workloads.StreamContinual(speakers=2, utterances_per_speaker=5),
        "train-reference": lambda: workloads.TrainReference(examples=3, epochs=2, held_out=4),
    }[name]()


@pytest.fixture(scope="module")
def build_dir(tmp_path_factory) -> Path:
    """A build directory whose cached checkpoint is an untrained model."""
    path = tmp_path_factory.mktemp("build")
    save_checkpoint(build_reference_model(seed=0),
                    path / f"reference-{workloads._checkpoint_cache_key()}.npz")
    return path


def _run(name: str, seed: int, trace: bool, build_dir: Path, tmp_path: Path):
    run = bench.Run(_small(name), seed, 0.01, trace, tmp_path / f"{name}-{seed}-{trace}", build_dir)
    result, _ = run.execute()
    return run, result


@pytest.fixture(scope="module")
def results(build_dir, tmp_path_factory):
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            out[name, trace] = _run(name, 1, trace, build_dir, tmp_path_factory.mktemp("run"))
    return out


def test_printed_metric_names_match_benchmark_json(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for (name, trace), (_, result) in results.items():
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == (per_layer if trace else end_to_end), (name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_metric_names(name, build_dir, tmp_path):
    checkpoint = build_dir / f"reference-{workloads._checkpoint_cache_key()}.npz"
    inputs = []
    for seed in (1, 2):
        w = _small(name)
        w.setup(seed, tmp_path / f"setup-{seed}", checkpoint)
        if name == "batch-episodic":
            inputs.append([u.transcript for u in w.utterances])
        elif name == "stream-continual":
            inputs.append([i.transcript for i in w.items])
        else:
            inputs.append([e.transcript for e in w.held_out])
    assert inputs[0] != inputs[1]
    assert len(inputs[0]) == len(inputs[1])

    if name == "stream-continual":  # the cheapest workload to run twice
        names = [set(_run(name, seed, False, build_dir, tmp_path)[1]["metrics"]) for seed in (1, 2)]
        assert names[0] == names[1]


def test_every_span_lies_inside_its_parent(results):
    for name in workloads.WORKLOADS:
        run, _ = results[name, True]
        assert run.spans, name
        assert spans_outside_parent(run.spans) == [], name
    pids = {s["pid"] for s in results["batch-episodic", True][0].spans}
    assert len(pids) > 1, "no spans came back from the pool workers"
    assert os.getpid() in pids


def test_self_time_excludes_children():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "end": 6.0},  # overlaps b: another process
        {"id": "d", "parent": "b", "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == {"a": 5.0, "b": 2.0, "c": 3.0, "d": 1.0}
