"""Golden-trace fixtures pinning the round-execution refactor.

The scenarios and fingerprints below were captured from the pre-refactor
executors (the original ``HOMachine`` loop and the hand-rolled round loops
inside ``predimpl``).  After the unification on ``repro.rounds.RoundEngine``
the same seeds must reproduce byte-identical traces; the fingerprints only
use public trace APIs so they are computable on both sides of the refactor.
The step-level keys added later (``down/crash-stop``,
``down/alternating-crash-recovery``, ``arbitrary/bad-prefix-lossy`` and the
``des/*`` fingerprints) were captured before the step-simulator hot-path
rewrite and pin it the same way.

Regenerate (only when a semantic change is intended)::

    PYTHONPATH=src python -c "from tests.rounds._golden import write_goldens; write_goldens()"
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

from repro.algorithms import OneThirdRule, UniformVoting
from repro.core.machine import HOMachine
from repro.des import ChannelConfig, EventSimulator
from repro.failure_detectors import (
    EventuallyStrongDetector,
    EventuallyStrongRecoveryDetector,
    build_aguilera_processes,
    build_chandra_toueg_processes,
)
from repro.predimpl import build_arbitrary_stack, build_down_stack
from repro.sysmodel import (
    BadPeriodNetwork,
    BadPeriodProcessBehavior,
    FaultSchedule,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemSimulator,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "golden_traces.json")

PARAMS = SynchronyParams(phi=1.0, delta=2.0)


def formula_oracle(n: int):
    """A deterministic, library-independent heard-of oracle.

    Pure arithmetic (no RNG), so its outputs cannot drift when the library's
    random-stream layout changes; every process always hears of itself.
    """

    def oracle(round_, process):
        return {q for q in range(n) if (q * 31 + round_ * 17 + process * 13) % 11 < 8} | {process}

    return oracle


def _canon(value: Any) -> Any:
    return repr(value)


def fingerprint_ho_trace(trace) -> str:
    """A stable digest of a round-level ``RunTrace``."""
    payload = {
        "n": trace.n,
        "records": [
            [r.process, r.round, sorted(r.ho_set), _canon(r.state_after),
             _canon(r.decision), _canon(r.sent_payload)]
            for r in trace.records
        ],
        "ho": [[p, r, sorted(ho)] for p, r, ho in trace.ho_collection.items()],
        "decisions": sorted((p, _canon(v)) for p, v in trace.decisions().items()),
        "decision_rounds": sorted(trace.decision_rounds().items()),
        "messages_sent": trace.messages_sent,
        "messages_delivered": trace.messages_delivered,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint_system_trace(trace) -> str:
    """A stable digest of a step-level ``SystemRunTrace``."""
    payload = {
        "n": trace.n,
        "ho": [[p, r, sorted(ho)] for p, r, ho in trace.ho_collection.items()],
        "transition_times": sorted(
            [[p, r, t] for (p, r), t in trace.transition_times.items()]
        ),
        "round_send_times": sorted(
            [[p, r, t] for (p, r), t in trace.round_send_times.items()]
        ),
        "reception_times": sorted(
            [[p, r, q, t] for (p, r, q), t in trace.reception_times.items()]
        ),
        "decisions": sorted(
            [[p, _canon(d.value), d.round, d.time] for p, d in trace.decisions.items()]
        ),
        "counters": [
            trace.messages_sent,
            trace.messages_dropped,
            trace.total_send_steps,
            trace.total_receive_steps,
            trace.crashes,
            trace.recoveries,
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint_system_run(simulator, trace) -> str:
    """:func:`fingerprint_system_trace` plus the vetoed fault events."""
    payload = {
        "trace": fingerprint_system_trace(trace),
        "skipped_fault_events": [
            [event.time, event.kind.value, event.process]
            for event in simulator.skipped_fault_events
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fingerprint_des_run(simulator) -> str:
    """A stable digest of an ``EventSimulator`` run: decisions and counters."""
    payload = {
        "decisions": sorted(
            [p, _canon(event.value), event.time] for p, event in simulator.decisions.items()
        ),
        "messages": [
            simulator.messages_sent,
            simulator.messages_lost,
            simulator.messages_delivered,
        ],
        "crash_count": list(simulator.crash_count),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #


def _run_machine(algo_cls, n: int, rounds: int):
    values = [10 * (p % 3 + 1) for p in range(n)]
    machine = HOMachine(algo_cls(n), formula_oracle(n), values)
    return machine.run(rounds)


def _run_down(fault_model: str, n: int, seed: int):
    values = [10 * (p + 1) for p in range(n)]
    stack = build_down_stack(OneThirdRule(n), values, PARAMS)
    bad, good = 80.0, 300.0
    faults = FaultSchedule.none()
    if fault_model == "fault-free":
        schedule = PeriodSchedule.always_good(n, GoodPeriodKind.PI_GOOD)
    elif fault_model == "crash-stop":
        faults = FaultSchedule.crash_stop([(n - 1, bad * 0.25)])
        schedule = PeriodSchedule.single_good_period(
            n, start=bad, length=good, kind=GoodPeriodKind.PI0_DOWN,
            pi0=range(n - 1),
        )
    elif fault_model == "crash-recovery":
        faults = FaultSchedule.crash_recovery(
            [(p, bad * (0.1 + 0.15 * p), bad * (0.3 + 0.15 * p)) for p in range(n)]
        )
        schedule = PeriodSchedule.single_good_period(
            n, start=bad, length=good, kind=GoodPeriodKind.PI0_DOWN
        )
    else:  # lossy
        schedule = PeriodSchedule.single_good_period(
            n, start=bad, length=good, kind=GoodPeriodKind.PI0_DOWN
        )
    lossy = fault_model != "fault-free"
    simulator = SystemSimulator(
        stack.programs,
        PARAMS,
        schedule,
        seed=seed,
        trace=stack.trace,
        fault_schedule=faults,
        bad_network=BadPeriodNetwork(
            loss_probability=0.5 if lossy else 0.0, min_delay=1.0, max_delay=30.0
        ),
        bad_process_behavior=BadPeriodProcessBehavior(
            min_step_gap=1.0, max_step_gap=5.0, stall_probability=0.2
        ),
    )
    return simulator.run(until=bad + good)


def _run_arbitrary(n: int, f: int, seed: int, use_translation: bool):
    values = list(range(10, 10 + n))
    stack = build_arbitrary_stack(
        OneThirdRule(n), f, values, PARAMS, use_translation=use_translation
    )
    pi0 = frozenset(range(n - f))
    schedule = PeriodSchedule.always_good(n, GoodPeriodKind.PI0_ARBITRARY, pi0=pi0)
    simulator = SystemSimulator(
        stack.programs, PARAMS, schedule, seed=seed, trace=stack.trace
    )
    return simulator.run(until=300.0)


def _run_alternating_down(n: int, seed: int):
    """Several pi0-down good periods, crash-recovery faults, some of them vetoed.

    Exercises the ``period_start`` purges and recoveries, steps that cross
    period boundaries mid-run and faults refused inside a good period's
    synchronous scope (``skipped_fault_events``).
    """
    values = [10 * (p + 1) for p in range(n)]
    stack = build_down_stack(OneThirdRule(n), values, PARAMS)
    # good periods [40, 100), [140, 200), [240, 300), [340, 400)
    schedule = PeriodSchedule.alternating(
        n, good_length=60.0, bad_length=40.0, count=4,
        kind=GoodPeriodKind.PI0_DOWN, pi0=range(n - 1),
    )
    faults = FaultSchedule.crash_recovery(
        [
            (0, 10.0, 25.0),  # bad period: applied
            (1, 50.0, 70.0),  # p1 in pi0 inside a good period: both vetoed
            (n - 1, 110.0, 130.0),  # already down: crash is a no-op, recovery applies
            (2, 120.0, 160.0),  # crash applies; recovery vetoed (period start recovers)
            (n - 1, 150.0, 210.0),  # outside pi0: not vetoed, a no-op (down); recovery applies
            (0, 250.0, 320.0),  # crash vetoed, recovery finds p0 up
        ]
    )
    simulator = SystemSimulator(
        stack.programs,
        PARAMS,
        schedule,
        seed=seed,
        trace=stack.trace,
        fault_schedule=faults,
        bad_network=BadPeriodNetwork(loss_probability=0.3, min_delay=1.0, max_delay=20.0),
        bad_process_behavior=BadPeriodProcessBehavior(
            min_step_gap=1.0, max_step_gap=4.0, stall_probability=0.25
        ),
    )
    return simulator, simulator.run(until=420.0)


def _run_arbitrary_bad_prefix(n: int, f: int, seed: int, use_translation: bool):
    """The arbitrary stack after a bad prefix with a lossy bad-period network."""
    values = list(range(10, 10 + n))
    stack = build_arbitrary_stack(
        OneThirdRule(n), f, values, PARAMS, use_translation=use_translation
    )
    schedule = PeriodSchedule.single_good_period(
        n, start=60.0, length=240.0, kind=GoodPeriodKind.PI0_ARBITRARY,
        pi0=range(n - f),
    )
    simulator = SystemSimulator(
        stack.programs,
        PARAMS,
        schedule,
        seed=seed,
        trace=stack.trace,
        bad_network=BadPeriodNetwork(loss_probability=0.4, min_delay=0.5, max_delay=25.0),
    )
    return simulator.run(until=300.0)


_DES_FAULTS = {
    "crash-stop": ({3: 5.0}, {}),
    "crash-recovery": ({p: 3.0 + 2.0 * p for p in range(4)},
                       {p: 20.0 + 2.0 * p for p in range(4)}),
    "lossy": ({}, {}),
}


def _run_des(stack: str, fault_model: str, seed: int):
    """One failure-detector baseline run on the DES (n=4), as the scenarios build it."""
    n = 4
    values = [10 * (p + 1) for p in range(n)]
    if stack == "chandra-toueg":
        processes = build_chandra_toueg_processes(n, values)
        detector = EventuallyStrongDetector(stabilization_time=30.0, seed=seed + 1)
        horizon = 400.0
    else:
        processes = build_aguilera_processes(n, values)
        detector = EventuallyStrongRecoveryDetector(stabilization_time=40.0, seed=seed + 1)
        horizon = 600.0
    crash_times, recovery_times = _DES_FAULTS[fault_model]
    simulator = EventSimulator(
        processes,
        channel=ChannelConfig(loss_probability=0.0 if fault_model == "crash-stop" else 0.3),
        crash_times=crash_times,
        recovery_times=recovery_times,
        seed=seed,
    )
    simulator.register_failure_detector("default", detector)
    scope = range(n - 1) if fault_model == "crash-stop" else range(n)
    simulator.run_until_all_decided(until=horizon, scope=scope)
    return simulator


def compute_fingerprints() -> Dict[str, str]:
    """Run every golden scenario and return its fingerprint, by name."""
    out: Dict[str, str] = {}
    for algo_cls in (OneThirdRule, UniformVoting):
        for n in (4, 9):
            trace = _run_machine(algo_cls, n, rounds=30)
            out[f"machine/{algo_cls.__name__}/n={n}"] = fingerprint_ho_trace(trace)
    for fault_model, seed in (("fault-free", 0), ("lossy", 1), ("crash-recovery", 2)):
        trace = _run_down(fault_model, n=4, seed=seed)
        out[f"down/{fault_model}/seed={seed}"] = fingerprint_system_trace(trace)
    for use_translation in (False, True):
        trace = _run_arbitrary(n=4, f=1, seed=0, use_translation=use_translation)
        out[f"arbitrary/translation={use_translation}"] = fingerprint_system_trace(trace)
    trace = _run_down("crash-stop", n=4, seed=3)
    out["down/crash-stop/seed=3"] = fingerprint_system_trace(trace)
    simulator, trace = _run_alternating_down(n=4, seed=4)
    out["down/alternating-crash-recovery/seed=4"] = fingerprint_system_run(simulator, trace)
    for use_translation in (False, True):
        trace = _run_arbitrary_bad_prefix(n=4, f=1, seed=5, use_translation=use_translation)
        out[f"arbitrary/bad-prefix-lossy/translation={use_translation}"] = (
            fingerprint_system_trace(trace)
        )
    for stack, fault_model in (
        ("chandra-toueg", "crash-stop"),
        ("chandra-toueg", "lossy"),
        ("aguilera", "crash-recovery"),
        ("aguilera", "lossy"),
    ):
        simulator = _run_des(stack, fault_model, seed=6)
        out[f"des/{stack}/{fault_model}/seed=6"] = fingerprint_des_run(simulator)
    return out


def load_goldens() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def write_goldens() -> None:
    path = os.path.abspath(GOLDEN_PATH)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(compute_fingerprints(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
