"""The repo's sweep benchmark: end-to-end metrics per workload, layers when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-mixed-super --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --workload step-stack --trace 1   # per-layer table

Each sample is one workload sweep in a fresh process (``child.py``): one
closed-loop client submitting the whole grid with ``workers=1``.  Samples
repeat until ``--seconds`` have passed (at least ``MIN_SAMPLES``), and each
metric reports one quantile of the samples: the median, or for throughput
and first-record latency the slower quartile (``workloads.END_TO_END``).
Every sample checks every replica outcome against the workload's
scalar-backend reference (``refs/`` for the default and held-out seeds,
computed once and cached under ``_work/`` for any other seed); a mismatch
fails the run.

With ``--trace 1`` untraced and traced samples alternate: the traced ones
give the per-layer self times and counters, and ``trace.overhead`` is
their throughput over the untraced ones'.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Fewest samples per kind (untraced, traced) a run reports a median over.
MIN_SAMPLES = 3
#: Seconds one child may take before it is killed (a run ends within 180 s).
CHILD_TIMEOUT_S = 150
WORK = HERE / "_work"


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, mode: str, ref: Path, work: Path) -> Dict[str, Any]:
    """Run one sweep in a fresh interpreter and return its JSON result line."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--work", str(work), "--ref", str(ref),
    ]
    command += ["--t0", repr(time.monotonic())]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            child.kill()
            child.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"{mode} sweep of {workload} timed out") from None
            raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} sweep of {workload} exited with {child.returncode}")
    return json.loads(lines[-1])


def _reference(workload: str, seed: int, work: Path, write: bool) -> tuple:
    """The reference file of (workload, seed), generating it when missing.

    Checked-in references live in ``refs/``; references for other seeds are
    computed with the scalar backend on first use and cached in ``_work/``.
    A reference made for a different grid definition is refused (checked
    in) or recomputed (cached).
    """
    grid = workloads.grid_digest(workload)
    checked_in = HERE / "refs" / f"{workload}-s{seed}.json"
    if write:
        checked_in.parent.mkdir(exist_ok=True)
        _child(workload, seed, "reference", checked_in, work)
        return checked_in, "written"
    if checked_in.is_file():
        stored = json.loads(checked_in.read_text(encoding="utf-8"))
        if stored.get("grid") != grid or stored.get("seed") != seed:
            raise ChildFailed(
                f"{checked_in.name} was made for another grid; rewrite it with "
                "--write-reference"
            )
        return checked_in, "checked in"
    cached = WORK / "refs" / f"{workload}-s{seed}-{grid}.json"
    if not cached.is_file():
        cached.parent.mkdir(parents=True, exist_ok=True)
        partial = cached.with_suffix(f".{os.getpid()}.tmp")
        _child(workload, seed, "reference", partial, work)
        os.replace(partial, cached)
        return cached, "computed now (scalar backend)"
    return cached, "cached (scalar backend)"


def _quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` of the samples."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _reported(metric: str, values: List[float]) -> float:
    """The sample quantile an end-to-end metric reports (see ``END_TO_END``)."""
    _unit, quantile = workloads.END_TO_END[metric]
    return _quartiles(values)[int(quantile * 4) - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool, write_ref: bool) -> Dict:
    """Measure one workload; returns the printed tables' data and the verdict."""
    work = WORK / f"run-{os.getpid()}"
    try:
        ref, ref_state = _reference(name, seed, work, write_ref)
        # Byte-compile up front so no sample pays a one-off cost that users
        # do not pay on every sweep.
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        samples: Dict[str, List[Dict[str, Any]]] = {"measure": [], "trace": []}
        kinds = ["measure", "trace"] if trace else ["measure"]
        deadline = time.monotonic() + seconds
        turn = 0
        while time.monotonic() < deadline or any(
            len(samples[kind]) < MIN_SAMPLES for kind in kinds
        ):
            kind = kinds[turn % len(kinds)]
            samples[kind].append(_child(name, seed, kind, ref, work))
            turn += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = samples["measure"]
    traced = samples["trace"]
    every = measured + traced
    attempted = sum(sample["attempted"] for sample in every)
    failed = sum(sample["failed"] for sample in every)
    mismatch = next((s["first_mismatch"] for s in every if s["first_mismatch"]), None)
    digests = {sample["digest"] for sample in every}
    if len(digests) > 1 and mismatch is None:
        mismatch = "outcome digests differ between samples"
    end_to_end = {
        metric: [sample[metric] for sample in measured]
        for metric in workloads.END_TO_END
    }
    layers: Dict[str, List[float]] = {}
    for sample in traced:
        for metric, value in sample["layers"].items():
            layers.setdefault(metric, []).append(value)
    if traced:
        layers["trace.overhead"] = [
            statistics.median(s["runs_per_s"] for s in traced)
            / statistics.median(end_to_end["runs_per_s"])
        ]
    return {
        "name": name,
        "seed": seed,
        "reference": f"{ref.relative_to(HERE)} ({ref_state})",
        "environment": measured[0]["environment"],
        "runs_per_sweep": measured[0]["runs"],
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "first_mismatch": mismatch,
        "correct": failed == 0 and mismatch is None,
        "traced": len(traced),
    }


def _print_workload(result: Dict[str, Any], trace: bool) -> None:
    spec = workloads.WORKLOADS[result["name"]]
    env = result["environment"]
    print(f"== {result['name']} (seed {result['seed']}): {spec['why']}")
    print(
        f"   {len(spec['scenarios'])} scenarios x {len(spec['fault_models'])} fault models"
        f" x n={spec['ns']}, replicas={spec['replicas']}, backend={spec['backend']};"
        f" {result['runs_per_sweep']} runs per sweep"
    )
    print(f"   reference: {result['reference']}")
    print(
        f"   environment: python {env['python']}, numpy {env['numpy']}, "
        f"numba {'present' if env['numba'] else 'absent'}, "
        f"REPRO_DISABLE_NUMBA={env['REPRO_DISABLE_NUMBA'] or 'unset'}, "
        f"auto -> {env['auto_backend']}, nproc {env['nproc']}, cpu {env['cpu_model']}"
    )
    samples = len(result["end_to_end"]["runs_per_s"])
    print(
        f"   {'metric':<16}{'reported':>14}{'median':>14}{'q1':>14}{'q3':>14}  unit"
        f"   (n={samples} sweeps; reported = {{q1,q3}} of {{runs_per_s,first_record_s}},"
        " else median)"
    )
    for metric, (unit, _quantile) in workloads.END_TO_END.items():
        values = result["end_to_end"][metric]
        q1, median, q3 = _quartiles(values)
        print(
            f"   {metric:<16}{_reported(metric, values):>14.6g}{median:>14.6g}"
            f"{q1:>14.6g}{q3:>14.6g}  {unit}"
        )
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(
        f"   {'failed_share':<16}{share:>14.6g}{'':>42}  ratio  "
        f"({result['failed']} of {result['attempted']} replica runs)"
    )
    if result["first_mismatch"]:
        print(f"   FIRST MISMATCH: {result['first_mismatch']}")
    if not trace:
        return
    print(f"   per-layer (median of {result['traced']} traced sweeps; times are self times)")
    print(f"   {'layer metric':<36}{'value':>14}  {'unit':<15}moves")
    for metric, unit, _better, moves in workloads.LAYER_METRICS:
        values = result["layers"].get(metric)
        if values is None:
            print(f"   {metric:<36}{'absent':>14}  {unit:<15}{moves}")
        else:
            print(f"   {metric:<36}{statistics.median(values):>14.6g}  {unit:<15}{moves}")


def _metrics(result: Dict[str, Any], trace: bool, prefix: str = "") -> Dict[str, Any]:
    if not trace:
        return {
            prefix + name: {"value": _reported(name, result["end_to_end"][name]), "unit": unit}
            for name, (unit, _quantile) in workloads.END_TO_END.items()
        }
    return {
        prefix + name: {"value": statistics.median(result["layers"][name]), "unit": unit}
        for name, unit, _better, _moves in workloads.LAYER_METRICS
        if name in result["layers"]
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep benchmark: end-to-end metrics per workload, layers when traced."
    )
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10,
                        help="how long to keep sampling (at least %d samples)" % MIN_SAMPLES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate refs/<workload>-s<seed>.json with the scalar backend")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps the sweep it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(
                run_workload(name, args.seed, args.seconds, bool(args.trace),
                             args.write_reference)
            )
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics: Dict[str, Any] = {}
    for result in results:
        _print_workload(result, bool(args.trace))
        prefix = f"{result['name']}." if len(results) > 1 else ""
        metrics.update(_metrics(result, bool(args.trace), prefix))
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
