"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Layer metrics a traced sweep reports itself (``trace.overhead`` needs the
#: untraced samples too, so the parent computes it).
CHILD_LAYER_METRICS = {
    name for name, *_rest in workloads.LAYER_METRICS if name != "trace.overhead"
}


def _summary() -> dict:
    outcome = {
        "seed": 0, "solved": True, "safe": True, "terminated": True,
        "decided_processes": 4, "scope_size": 4, "first_decision_time": 3,
        "last_decision_time": 3, "messages_sent": 48, "error": None, "predicates": None,
    }
    batched = {
        "scenario": "ho-classic-otr", "fault_model": "fault-free", "seed": 0, "n": 4,
        "params": {}, "solved": True, "safe": True, "terminated": True,
        "decided_processes": 8, "scope_size": 4, "first_decision_time": 3,
        "last_decision_time": 3, "messages_sent": 96, "wall_seconds": 0.5,
        "error": None, "predicates": None,
        "replicas": {
            "count": 2, "backend": "super",
            "outcomes": [outcome, dict(outcome, seed=1)],
            "aggregates": {"replicas": 2, "solved": 2},
        },
    }
    plain = {
        **{key: value for key, value in batched.items() if key != "replicas"},
        "scenario": "ho-stack", "wall_seconds": 0.25, "replicas": None,
    }
    return {"runs": [batched, plain], "aggregates": {"ho-classic-otr/fault-free": {"solved": 2}}}


def test_reference_ignores_wall_time_and_backend_label():
    summary = _summary()
    other = copy.deepcopy(summary)
    other["runs"][0]["wall_seconds"] = 9.0
    other["runs"][0]["replicas"]["backend"] = "scalar-loop"
    other["runs"][1]["wall_seconds"] = 9.0
    check = reference.compare(reference.fingerprint(other), reference.fingerprint(summary))
    assert check == {"attempted": 3, "failed": 0, "first_mismatch": None}


@pytest.mark.parametrize(
    "perturb, failed, cell",
    [
        (lambda s: s["runs"][0]["replicas"]["outcomes"][1].update(messages_sent=47), 1,
         "ho-classic-otr"),
        (lambda s: s["runs"][0]["replicas"]["aggregates"].update(solved=1), 2,
         "ho-classic-otr"),
        (lambda s: s["runs"][1].update(last_decision_time=4), 1, "ho-stack"),
        (lambda s: s["runs"][1].update(error="RuntimeError: boom"), 1, "ho-stack"),
    ],
)
def test_reference_check_trips_on_a_perturbed_record(perturb, failed, cell):
    ref = reference.fingerprint(_summary())
    perturbed = _summary()
    perturb(perturbed)
    check = reference.compare(reference.fingerprint(perturbed), ref)
    assert check["failed"] == failed
    assert check["first_mismatch"] is not None and cell in check["first_mismatch"]


def test_reference_check_trips_on_a_missing_cell():
    perturbed = _summary()
    del perturbed["runs"][1]
    check = reference.compare(reference.fingerprint(perturbed), reference.fingerprint(_summary()))
    assert (check["attempted"], check["failed"]) == (3, 1)
    assert "missing" in check["first_mismatch"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
def test_checked_in_references_match_the_grid(name, seed):
    stored = reference.load(str(HERE / "refs" / f"{name}-s{seed}.json"))
    assert (stored["grid"], stored["seed"]) == (workloads.grid_digest(name), seed)
    assert stored["digest"] == reference.digest(
        {"cells": stored["cells"], "aggregates": stored["aggregates"]}
    )


def _child(tmp_path: Path, name: str, mode: str) -> dict:
    ref = HERE / "refs" / f"{name}-s{workloads.DEFAULT_SEED}.json"
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", name,
         "--seed", str(workloads.DEFAULT_SEED), "--mode", mode,
         "--work", str(tmp_path / mode), "--ref", str(ref)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_has_no_side_effects_and_covers_every_layer(tmp_path, name):
    untraced = _child(tmp_path, name, "measure")
    traced = _child(tmp_path, name, "trace")
    assert untraced["failed"] == traced["failed"] == 0
    assert traced["digest"] == untraced["digest"]
    assert set(traced["layers"]) | set(traced["absent"]) == CHILD_LAYER_METRICS
    assert traced["absent"] == []


def test_layer_table_prints_every_metric_or_absent(capsys):
    layers = {name: [1.0] for name, *_rest in workloads.LAYER_METRICS}
    del layers["batch.unpack_s"]
    result = {
        "name": "step-stack", "seed": 0, "reference": "refs/step-stack-s0.json",
        "environment": {"python": "3", "numpy": None, "numba": False,
                        "REPRO_DISABLE_NUMBA": None, "auto_backend": "batch",
                        "nproc": 1, "cpu_model": "cpu"},
        "runs_per_sweep": 1,
        "end_to_end": {metric: [1.0, 2.0] for metric in workloads.END_TO_END},
        "layers": layers, "attempted": 2, "failed": 0,
        "first_mismatch": None, "correct": True, "traced": 1,
    }
    run._print_workload(result, trace=True)
    lines = capsys.readouterr().out.splitlines()
    for name, *_rest in workloads.LAYER_METRICS:
        row = next(line for line in lines if line.split()[:1] == [name])
        assert ("absent" in row) == (name == "batch.unpack_s")
    assert run._metrics(result, trace=True).keys() == layers.keys()


def test_a_vanished_hook_target_marks_its_metrics_absent():
    def vanished(_tracer):
        raise AttributeError("BatchEngine")

    tracer = tracing.Tracer()
    tracing.install(tracer, {"kernels": vanished})
    assert tracer.missing == {"kernels"}
    assert tracer.absent_metrics() == set(tracing.GROUP_METRICS["kernels"])


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "step-stack", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
