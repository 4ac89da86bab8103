"""One workload sweep in a fresh process; prints one JSON result line.

Run by ``run.py``, never imported by it.  Modes:

* ``measure`` -- the untraced sweep: set-up time, throughput, first-record
  latency and peak RSS, then the reference check of every replica;
* ``trace`` -- the same sweep with layer spans installed (``tracing.py``),
  reporting per-layer self times and counters instead of set-up numbers;
* ``reference`` -- the scalar-backend sweep whose outcomes become the
  reference file named by ``--ref``.

The program is driven only through ``repro.runner``'s public API, exactly as
``python -m repro.runner`` drives it: names validated against the registry,
``build_grid``, ``run_sweep`` streaming into a ``JsonlSink``, and
``SweepResult.write_json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def environment() -> Dict[str, Any]:
    """The run's environment block (read after the measured region)."""
    import importlib.util

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.rounds.backend import get_backend

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "REPRO_DISABLE_NUMBA": os.environ.get("REPRO_DISABLE_NUMBA"),
        "auto_backend": get_backend("auto").name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class _TimedSink:
    """A JsonlSink whose writes are spans of the runner layer (traced runs)."""

    def __init__(self, sink: Any, tracer: Any) -> None:
        self.write = tracer.timed("runner.sink_write_s", sink.write)
        self.close = sink.close


def _scratch_and_padding(runs: List[Mapping[str, Any]], plans: Mapping[tuple, tuple]) -> tuple:
    """Computed round-loop scratch bytes and the useful share of padded rows.

    Mirrors the engines' allocations: the per-cell engine holds an
    ``(R, n, n)`` bool heard matrix and an ``(R, n, W, 64)`` uint64 bit
    expansion next to the ``(R, n, W)`` mask words; a super group holds the
    same over ``sum(R_b)`` rows padded to ``n_max``.  Groups and cells run
    one after another, so the peak is the largest single unit.
    """
    from repro.rounds.bitmask import WORD_BITS

    def unit_bytes(rows: int, n: int) -> int:
        words = -(-n // WORD_BITS)
        return rows * n * (n + words * 8 + words * WORD_BITS * 8)

    groups: Dict[str, List[tuple]] = {}
    peak = 0
    useful = 0
    padded = 0
    for run in runs:
        replicas = run.get("replicas") or {}
        label = replicas.get("backend")
        count, n = int(replicas.get("count") or 0), int(run["n"])
        if label == "super":
            shape = plans.get((run["scenario"], run["fault_model"], n, run["seed"]))
            if shape is not None:
                groups.setdefault(shape[1], []).append((count, n))
        elif label == "batch":
            peak = max(peak, unit_bytes(count, n))
            useful += count * n * n
            padded += count * n * n
    for cells in groups.values():
        rows = sum(count for count, _ in cells)
        n_max = max(n for _, n in cells)
        peak = max(peak, unit_bytes(rows, n_max))
        useful += sum(count * n * n for count, n in cells)
        padded += rows * n_max * n_max
    return peak, (useful / padded if padded else 0.0)


def _layers(tracer: Any, runs: List[Mapping[str, Any]], sweep_wall: float) -> Dict[str, float]:
    counts = tracer.counts
    batched = [run for run in runs if run.get("replicas")]
    engaged = sum(1 for run in batched if ":" not in str(run["replicas"].get("backend")))
    scratch, padding = _scratch_and_padding(runs, tracer.plans)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values: Dict[str, float] = {
        "runner.records": counts["runner.records"],
        "rounds.tier_engaged_share": share(engaged, len(batched)),
        "rounds.fallback_cells": len(batched) - engaged,
        "adversaries.vectorised_cell_share": share(
            counts["adversaries.vectorised_cells"], counts["adversaries.cells"]
        ),
        "adversaries.round_masks_calls": counts["adversaries.round_masks_calls"],
        "engine.events": counts["engine.events"],
        "algorithms.kernel_steps": counts["algorithms.kernel_steps"],
        "algorithms.row_rounds": counts["algorithms.row_rounds"],
        "algorithms.live_row_share": share(
            counts["algorithms.live_rows"], counts["algorithms.row_rounds"]
        ),
        "batch.padding_share": padding,
        "batch.compactions": counts["batch.compactions"],
        "batch.scratch_bytes": scratch,
        "predicates.observe_calls": counts["predicates.observe_calls"],
        "trace.unattributed_share": share(max(sweep_wall - tracer.covered, 0.0), sweep_wall),
    }
    for name, _unit, _better, _moves in workloads.LAYER_METRICS:
        if name.endswith("_s") and name not in values:
            values[name] = tracer.self_time.get(name, 0.0)
    for name in tracer.absent_metrics():
        values.pop(name, None)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "reference"), required=True)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() just before this process was spawned")
    parser.add_argument("--work", required=True, help="directory for the sweep's outputs")
    parser.add_argument("--ref", required=True, help="reference file to check or write")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    spec = workloads.WORKLOADS[args.workload]

    _import_program()
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from repro.predicates import canonical_predicate_name
    from repro.runner import REGISTRY, JsonlSink, build_grid, run_sweep

    known = set(REGISTRY.scenario_names())
    known_fault_models = set(REGISTRY.fault_model_names())
    unknown = [name for name in spec["scenarios"] if name not in known]
    unknown += [name for name in spec["fault_models"] if name not in known_fault_models]
    if unknown:
        print(f"error: unknown scenario or fault model(s): {unknown}", file=sys.stderr)
        return 2
    params: Dict[str, Any] = {}
    if spec["predicates"]:
        params["predicates"] = tuple(canonical_predicate_name(p) for p in spec["predicates"])

    build = build_grid if tracer is None else tracer.timed("runner.build_grid_s", build_grid)
    specs = build(
        spec["scenarios"], spec["fault_models"],
        workloads.base_seeds(args.workload, args.seed), ns=spec["ns"], **params,
    )
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    jsonl_path, summary_path = work / "sweep.jsonl", work / "sweep.json"
    sink: Any = JsonlSink(str(jsonl_path))
    write_json: Any = lambda result: result.write_json(str(summary_path))  # noqa: E731
    if tracer is not None:
        sink = _TimedSink(sink, tracer)
        write_json = tracer.timed("runner.summary_s", write_json)
    backend = spec["backend"] if args.mode != "reference" else "scalar"
    first_record: List[float] = []

    def on_record(_record: Any) -> None:
        if tracer is not None:
            tracer.counts["runner.records"] += 1
        if not first_record:
            first_record.append(time.perf_counter())

    setup_s = time.monotonic() - t0
    if tracer is not None:
        tracer.covered = 0.0
    started = time.perf_counter()
    # The measured client is one closed loop with one worker; the reference
    # is not measured, so it may use both cores.
    result = run_sweep(
        specs, workers=2 if args.mode == "reference" else 1, on_record=on_record,
        sinks=[sink], replicas=spec["replicas"], backend=backend,
    )
    write_json(result)
    sweep_wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(summary_path, encoding="utf-8") as handle:
        summary = json.load(handle)
    fingerprint = reference.fingerprint(summary)
    runs = sum(len(cell["replicas"]) for cell in fingerprint["cells"])
    out: Dict[str, Any] = {
        "mode": args.mode,
        "runs": runs,
        "sweep_wall_s": sweep_wall,
        "runs_per_s": runs / sweep_wall,
        "digest": reference.digest(fingerprint),
    }
    if args.mode == "reference":
        errored = [cell["key"] for cell in fingerprint["cells"] if cell["errors"]]
        if errored:
            print(f"error: reference run errored in cell {errored[0]}", file=sys.stderr)
            return 1
        reference.save(args.ref, args.workload, args.seed,
                       workloads.grid_digest(args.workload), fingerprint)
    else:
        out.update(reference.compare(fingerprint, reference.load(args.ref)))
    if args.mode == "measure":
        out.update(
            setup_s=setup_s,
            first_record_s=first_record[0] - started,
            peak_rss_mb=peak_rss_mb,
            environment=environment(),
        )
    elif tracer is not None:
        out["layers"] = _layers(tracer, summary["runs"], sweep_wall)
        out["absent"] = sorted(tracer.absent_metrics())
    for path in (jsonl_path, summary_path):
        path.unlink()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
