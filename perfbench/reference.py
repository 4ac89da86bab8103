"""Scalar-reference outcomes: stripping, fingerprints and the per-replica check.

A sweep's JSON summary (``SweepResult.write_json``) is reduced to what the
contract pins -- every cell's record and per-replica outcomes, plus the
grid aggregates -- with wall times and the diagnostic backend label
removed, since those legitimately differ between backends and runs.  A
reference file stores that reduction of a ``--backend scalar`` run as one
digest per cell and per replica (so a mismatch names its cell and counts
its replicas) next to the grid aggregates in full.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional

SCHEMA = "perfbench-ref/1"


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def _hash(payload: Any) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:20]


def cell_key(run: Mapping[str, Any]) -> str:
    """A cell's identity: (scenario, fault model, n, seed, params, replicas)."""
    replicas = run.get("replicas") or {}
    return _canonical(
        [run["scenario"], run["fault_model"], run["n"], run["seed"],
         run.get("params") or {}, replicas.get("count")]
    )


def fingerprint(summary: Mapping[str, Any]) -> Dict[str, Any]:
    """The comparable part of a sweep summary, one digest per cell and replica."""
    cells = []
    for run in summary["runs"]:
        stripped = {key: value for key, value in run.items() if key != "wall_seconds"}
        # A plain run is its own single replica outcome.
        outcomes: List[Mapping[str, Any]] = [stripped]
        if stripped.get("replicas"):
            outcomes = list(stripped["replicas"].get("outcomes") or [])
            stripped["replicas"] = {
                key: value for key, value in stripped["replicas"].items()
                if key not in ("backend", "outcomes")
            }
        cells.append({
            "key": cell_key(run),
            "cell": _hash(stripped),
            "replicas": [_hash(outcome) for outcome in outcomes],
            "errors": sum(1 for outcome in outcomes if outcome.get("error")),
        })
    return {"cells": cells, "aggregates": summary["aggregates"]}


def digest(fingerprinted: Mapping[str, Any]) -> str:
    return hashlib.sha256(_canonical(fingerprinted).encode()).hexdigest()


def compare(run: Mapping[str, Any], ref: Mapping[str, Any]) -> Dict[str, Any]:
    """Check every replica of fingerprint *run* against reference fingerprint *ref*.

    Returns ``{"attempted", "failed", "first_mismatch"}``: ``attempted`` is
    the number of replica runs (a plain run is one); ``failed`` counts the
    replicas that errored or differ from the reference -- all replicas of a
    cell whose cell-level fields differ -- and ``first_mismatch`` names the
    first differing cell in grid order (None when everything matches).
    """
    expected = {cell["key"]: cell for cell in ref["cells"]}
    attempted = 0
    failed = 0
    first: Optional[str] = None

    def note(message: str) -> None:
        nonlocal first
        if first is None:
            first = message

    for cell in run["cells"]:
        count = len(cell["replicas"])
        attempted += count
        want = expected.pop(cell["key"], None)
        if want is None:
            failed += count
            note(f"cell {cell['key']} has no reference")
            continue
        if cell["cell"] != want["cell"] or len(want["replicas"]) != count:
            bad = count
        else:
            bad = sum(1 for got, ok in zip(cell["replicas"], want["replicas"]) if got != ok)
        bad = max(bad, cell["errors"])
        if bad:
            failed += bad
            note(f"cell {cell['key']}: {bad} of {count} replica(s) differ from the reference")
    for cell in expected.values():
        attempted += len(cell["replicas"])
        failed += len(cell["replicas"])
        note(f"cell {cell['key']} is missing from the run")
    if run["aggregates"] != ref["aggregates"] and first is None:
        note("grid aggregates differ from the reference")
        failed = max(failed, 1)
    return {"attempted": attempted, "failed": failed, "first_mismatch": first}


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save(path: str, workload: str, seed: int, grid: str, fingerprinted: Mapping[str, Any]) -> None:
    """Write a reference as JSON with one aggregate group and one cell per line."""
    header = {
        "schema": SCHEMA, "workload": workload, "seed": seed, "grid": grid,
        "digest": digest(fingerprinted),
    }
    fields = "".join(f" {json.dumps(key)}: {json.dumps(value)},\n" for key, value in header.items())
    groups = ",\n  ".join(
        f"{json.dumps(name)}: {_canonical(group)}"
        for name, group in fingerprinted["aggregates"].items()
    )
    cells = ",\n  ".join(_canonical(cell) for cell in fingerprinted["cells"])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"{{\n{fields} \"aggregates\": {{\n  {groups}\n }},\n"
            f" \"cells\": [\n  {cells}\n ]\n}}\n"
        )
