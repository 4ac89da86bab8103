"""The benchmark's workloads and metric catalogue (standard library only).

A workload is one sweep grid, driven through the public runner API
(``build_grid`` + ``run_sweep`` + ``JsonlSink`` + ``SweepResult.write_json``)
as one closed-loop client with ``workers=1``.  The ``--seed`` argument picks
the grid's base seed; every cell's replica (or plain-run) seeds are derived
from it, so the same seed always yields the same inputs and seeds never
share replica seeds.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

#: Replica / plain-run seeds of workload seed ``s`` start at ``s * SEED_STRIDE``
#: (wider than any cell's seed range, so different workload seeds never overlap).
SEED_STRIDE = 1000

ALL_PREDICATES = ("p_otr", "p_restr_otr", "p_su", "p_k", "p_2otr", "p_1/1otr")

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "grid-mixed-super": {
        "why": (
            "whole-grid super-batching of counter-based and broadcast oracles at mixed n: "
            "kernel step, counter hashing, unpack/popcount, padding and compaction"
        ),
        "scenarios": [
            "ho-classic-otr",
            "ho-classic-uv",
            "ho-classic-lv",
            "ho-round-mobile-omission",
            "ho-round-rotating-partition",
            "ho-round-bursty-loss",
            "ho-round-eventually-stable-coordinator",
        ],
        "fault_models": ["fault-free", "crash-stop", "crash-recovery"],
        "ns": [16, 64],
        "seeds_per_cell": 1,
        "replicas": 8,
        "backend": "super",
        "predicates": None,
    },
    "cells-monitored-lossy": {
        "why": (
            "per-cell batch engine with all six batched predicate monitors and the "
            "per-replica scalar oracle loop of lossy cells; little kernel time"
        ),
        "scenarios": [
            "ho-classic-otr",
            "ho-classic-uv",
            "ho-classic-lv",
            "ho-round-mobile-omission",
            "ho-round-bursty-loss",
        ],
        "fault_models": ["fault-free", "crash-stop", "lossy"],
        "ns": [32],
        "seeds_per_cell": 1,
        "replicas": 16,
        "backend": "auto",
        "predicates": list(ALL_PREDICATES),
    },
    "step-stack": {
        "why": (
            "step-level half of the paper: sysmodel/des simulators, the engine event "
            "loop and one JSONL record per plain run; no batch kernel runs"
        ),
        "scenarios": [
            "ho-stack",
            "chandra-toueg",
            "aguilera",
            "ho-step-down-otr",
            "ho-step-arbitrary-otr",
            "ho-theorem8-translation",
        ],
        "fault_models": ["fault-free", "crash-stop", "crash-recovery", "lossy"],
        "ns": [8],
        "seeds_per_cell": 3,
        "replicas": None,
        "backend": "auto",
        "predicates": None,
    },
}

#: The workload seed whose references the benchmark was tuned on, and the
#: held-out seed kept for re-checking later claims on unseen inputs.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

#: End-to-end metrics of the untraced samples: unit, and the quantile of the
#: run's samples that the run reports.  Throughput and first-record latency
#: report the slower quartile of the sweeps (q1 of runs_per_s, q3 of
#: first_record_s): shared hosts run in a steady regime with bursts of faster
#: sweeps, and a burst moves a run's median far more than its slower quartile.
#: Set-up time and memory report the median.  ``failed_share`` is printed too
#: but reaches callers through ``attempted``/``failed``.
END_TO_END = {
    "setup_s": ("s", 0.5),
    "runs_per_s": ("1/s", 0.25),
    "first_record_s": ("s", 0.75),
    "peak_rss_mb": ("MB", 0.5),
}

#: Per-layer metrics of the traced run: (name, unit, better, what it should
#: move and where).  Times are self times (span minus child spans) per sweep.
LAYER_METRICS: List[tuple] = [
    ("runner.build_grid_s", "s", "lower", "setup_s, all workloads"),
    ("runner.sink_write_s", "s", "lower", "runs_per_s on step-stack"),
    ("runner.summary_s", "s", "lower", "runs_per_s on step-stack"),
    ("runner.records", "count", "higher", "runs_per_s on step-stack"),
    ("workloads.plan_build_s", "s", "lower",
     "first_record_s, runs_per_s on grid-mixed-super"),
    ("workloads.decode_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("workloads.scenario_self_s", "s", "lower", "runs_per_s on step-stack"),
    ("rounds.backend_self_s", "s", "lower", "runs_per_s on both round-level workloads"),
    ("rounds.tier_engaged_share", "ratio", "higher", "runs_per_s on cells-monitored-lossy"),
    ("rounds.fallback_cells", "count", "lower", "runs_per_s on cells-monitored-lossy"),
    ("adversaries.vectorised_masks_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("adversaries.per_replica_masks_s", "s", "lower", "runs_per_s on cells-monitored-lossy"),
    ("adversaries.vectorised_cell_share", "ratio", "higher",
     "runs_per_s on cells-monitored-lossy"),
    ("adversaries.round_masks_calls", "count", "lower", "runs_per_s on cells-monitored-lossy"),
    ("engine.counter_hash_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("engine.event_loop_s", "s", "lower", "runs_per_s on step-stack"),
    ("engine.events", "count", "lower", "runs_per_s on step-stack"),
    ("algorithms.kernel_step_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("algorithms.kernel_steps", "count", "lower", "runs_per_s on grid-mixed-super"),
    ("algorithms.row_rounds", "count", "lower", "runs_per_s on grid-mixed-super"),
    ("algorithms.live_row_share", "ratio", "higher", "runs_per_s on grid-mixed-super"),
    ("algorithms.decisions_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("batch.unpack_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("batch.pack_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("batch.popcount_s", "s", "lower", "runs_per_s on grid-mixed-super"),
    ("batch.padding_share", "ratio", "higher",
     "runs_per_s, peak_rss_mb on grid-mixed-super"),
    ("batch.compactions", "count", "lower", "runs_per_s, peak_rss_mb on grid-mixed-super"),
    ("batch.scratch_bytes", "bytes_computed", "lower",
     "runs_per_s, peak_rss_mb on grid-mixed-super"),
    ("predicates.observe_s", "s", "lower", "runs_per_s on cells-monitored-lossy"),
    ("predicates.observe_calls", "count", "lower", "runs_per_s on cells-monitored-lossy"),
    ("sysmodel.run_s", "s", "lower", "runs_per_s on step-stack"),
    ("des.run_s", "s", "lower", "runs_per_s on step-stack"),
    ("analysis.check_s", "s", "lower", "runs_per_s on step-stack"),
    ("trace.unattributed_share", "ratio", "lower", "trace quality, all workloads"),
    ("trace.overhead", "ratio", "higher", "trace quality (traced / untraced runs_per_s)"),
]


def base_seeds(name: str, seed: int) -> List[int]:
    """The base seeds of every cell of workload *name* at workload seed *seed*."""
    per_cell = WORKLOADS[name]["seeds_per_cell"]
    return [seed * SEED_STRIDE + i for i in range(per_cell)]


def grid_digest(name: str) -> str:
    """Identity of a workload's grid definition (references are bound to it)."""
    spec = {key: value for key, value in WORKLOADS[name].items() if key != "why"}
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
