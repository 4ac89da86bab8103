"""The ``ho-classic-*`` scenarios: the oracle-driven hot path, batchable per cell.

These scenarios exist for exactly the experiment shape the paper measures:
one algorithm, one classic fault model, R seeds, aggregate.  Each run is a
pure lockstep round-level execution (no step-level simulator), so a sweep
cell of R seeds can be executed either as R independent scalar runs or as
*one* vectorised replica batch -- and the two must agree bit for bit.

Three scenarios are registered, one per consensus algorithm:

* ``ho-classic-otr`` -- OneThirdRule,
* ``ho-classic-uv``  -- UniformVoting,
* ``ho-classic-lv``  -- LastVoting,

each crossed with the standard fault-model axis, expressed purely with the
classic oracle zoo:

* ``fault-free``     -- :class:`FaultFreeOracle`;
* ``crash-stop``     -- :class:`StaticCrashOracle` silencing the last
  process from round 3 (replica-invariant: broadcast across the batch);
* ``crash-recovery`` -- a :class:`SequenceOracle` partition schedule:
  fault-free rounds, a transient crash window of the last process, then
  fault-free again (still replica-invariant);
* ``lossy``          -- :class:`RandomOmissionOracle` (seeded, stateful:
  the batch and super backends draw it with its bulk Mersenne-Twister
  twin, :class:`~repro.adversaries.batch.RandomOmissionBatchDual`, which
  replays each replica's loss stream bit for bit; the compiled tier
  refuses it and hands the cell to the batch backend).

Replicas differ even under the deterministic fault models because every
seed shuffles the initial-value assignment through the run's
``values`` :class:`~repro.engine.rng.SeededRng` sub-stream -- the
round-level analogue of drawing a workload per seed.

``run_classic`` is the scalar reference (an ordinary
:class:`~repro.core.machine.HOMachine` run); ``run_classic_batch`` is the
registered batch runner the sweep executor calls for ``replicas=`` cells.
The equivalence tests pin them against each other per seed.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..adversaries import (
    FaultFreeOracle,
    HOOracleBase,
    RandomOmissionOracle,
    SequenceOracle,
    StaticCrashOracle,
)
from ..algorithms import LastVoting, OneThirdRule, UniformVoting
from ..analysis.consensus_check import check_consensus
from ..analysis.metrics import metrics_from_trace
from ..core.machine import HOMachine
from ..engine.rng import SeededRng
from ..predicates import MonitorBank, build_monitor_bank
from ..rounds.backend import (
    CellPlan,
    MonitorSpec,
    ReplicaBatch,
    ReplicaTask,
    get_backend,
)
from ..rounds.bitmask import mask_of
from ..runner.registry import REGISTRY
from .scenarios import FAULT_MODELS, ScenarioResult, _initial_values, _scope_for

#: algorithm key -> class, as accepted by the scenarios' ``algorithm`` param.
CLASSIC_ALGORITHMS = {
    "otr": OneThirdRule,
    "uv": UniformVoting,
    "lv": LastVoting,
}

#: round the crash-stop fault model silences the last process from.
CRASH_ROUND = 3


def _classic_values(n: int, rng: SeededRng, shuffle_values: bool) -> List[int]:
    """The run's initial values: the standard ladder, seed-shuffled.

    The shuffle draws from the ``values`` sub-stream, so it never perturbs
    oracle noise -- and replica i of a batch shuffles exactly like the
    single run with seed ``seed + i`` (see :meth:`SeededRng.replicate`).
    """
    values = _initial_values(n)
    if shuffle_values:
        rng.stream("values").shuffle(values)
    return values


def _classic_oracle(
    fault_model: str,
    n: int,
    rng: SeededRng,
    rounds: int,
    loss_probability: float,
) -> HOOracleBase:
    if fault_model == "fault-free":
        return FaultFreeOracle(n)
    if fault_model == "crash-stop":
        return StaticCrashOracle(n, {n - 1: CRASH_ROUND})
    if fault_model == "crash-recovery":
        # A deterministic partition schedule: the last process is down for a
        # window of the first half of the horizon, then comes back.
        down_from = max(2, rounds // 6)
        down_length = max(1, rounds // 6)
        return SequenceOracle(
            n,
            [
                (FaultFreeOracle(n), down_from - 1),
                (StaticCrashOracle(n, {n - 1: 1}), down_length),
                (FaultFreeOracle(n), None),
            ],
        )
    if fault_model == "lossy":
        return RandomOmissionOracle(n, loss_probability, rng=rng)
    raise ValueError(f"unknown fault model {fault_model!r}; expected one of {FAULT_MODELS}")


def run_classic(
    fault_model: str,
    n: int = 4,
    seed: int = 0,
    algorithm: str = "otr",
    rounds: int = 60,
    loss_probability: float = 0.2,
    shuffle_values: bool = True,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
    run_full_horizon: bool = False,
    keep_trace: bool = False,
) -> ScenarioResult:
    """Run one classic-oracle lockstep scenario on the scalar RoundEngine path.

    This is the per-seed reference the batch runner is pinned against.  The
    surface mirrors :func:`repro.workloads.adversarial.run_round_adversary`:
    *predicates* attaches streaming monitors scoped to the surviving
    processes, *stop_after_held* adds the early-stop policy, and
    *run_full_horizon* keeps executing after the scope decided.
    """
    if fault_model not in FAULT_MODELS:
        raise ValueError(f"unknown fault model {fault_model!r}; expected one of {FAULT_MODELS}")
    if algorithm not in CLASSIC_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(CLASSIC_ALGORITHMS)}"
        )
    rng = SeededRng(seed)
    values = _classic_values(n, rng, shuffle_values)
    oracle = _classic_oracle(fault_model, n, rng, rounds, loss_probability)
    scope = _scope_for(fault_model, n)
    bank: Optional[MonitorBank] = None
    observers: Sequence[Any] = ()
    if predicates:
        bank = build_monitor_bank(n, predicates, pi0=scope, stop_after_held=stop_after_held)
        observers = (bank,)
    elif stop_after_held is not None:
        raise ValueError("stop_after_held requires at least one monitored predicate")
    machine = HOMachine(CLASSIC_ALGORITHMS[algorithm](n), oracle, values, observers=observers)
    if run_full_horizon:
        while machine.current_round < rounds and not machine.engine.stop_requested:
            machine.run_round()
        trace = machine.trace
    else:
        trace = machine.run_until_decision(max_rounds=rounds, scope=scope)
    verdict = check_consensus(trace, values, scope=scope)
    extra: Dict[str, Any] = {"algorithm": algorithm, "rounds": rounds}
    if bank is not None:
        extra["predicate_reports"] = bank.reports_json()
        extra["stopped_early"] = bank.stop_requested
    if keep_trace:
        extra["trace"] = trace
    return ScenarioResult(
        stack=f"ho-classic/{algorithm}",
        fault_model=fault_model,
        n=n,
        seed=seed,
        verdict=verdict,
        metrics=metrics_from_trace(trace, scope=scope),
        extra=extra,
    )


class _DecisionsView:
    """Adapt a backend outcome's decision table to the trace checker protocol."""

    def __init__(self, decisions: Dict[int, Any]) -> None:
        self._decisions = decisions

    def decision_values(self) -> Dict[int, Any]:
        return dict(self._decisions)


def _replica_outcome_dict(
    outcome: Any, values: Sequence[Any], scope: Sequence[int]
) -> Dict[str, Any]:
    """Flatten one backend ReplicaOutcome into the sweep's wire shape.

    The verdict comes from the very same :func:`check_consensus` the scalar
    scenario path uses (over the outcome's trace-free decision table), so
    the consensus semantics cannot drift between the two paths; the metric
    fields mirror ``metrics_from_trace`` scoped to the surviving processes,
    with round-level times equal to round numbers.
    """
    verdict = check_consensus(_DecisionsView(outcome.decisions), values, scope=scope)
    scope_set = frozenset(scope)
    scoped_rounds = [r for p, r in outcome.decision_rounds.items() if p in scope_set]
    return {
        "seed": outcome.seed,
        "solved": verdict.solved,
        "safe": verdict.safe,
        "terminated": verdict.termination,
        "decided_processes": sum(1 for p in outcome.decisions if p in scope_set),
        "scope_size": len(scope_set),
        "first_decision_time": float(min(scoped_rounds)) if scoped_rounds else None,
        "last_decision_time": float(max(scoped_rounds)) if scoped_rounds else None,
        "messages_sent": outcome.messages_sent,
        "error": None,
        "predicates": outcome.predicate_reports,
    }


def build_classic_batch(
    fault_model: str,
    n: int = 4,
    seeds: Sequence[int] = (0,),
    algorithm: str = "otr",
    rounds: int = 60,
    loss_probability: float = 0.2,
    shuffle_values: bool = True,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
    run_full_horizon: bool = False,
) -> CellPlan:
    """Build one sweep cell -- all *seeds* of one classic scenario -- as data.

    One :class:`~repro.rounds.backend.ReplicaTask` per seed, with exactly
    the algorithm/oracle/values the scalar :func:`run_classic` run of that
    seed would build, plus the flattener from backend outcomes to the
    sweep's per-replica wire dicts.  Execution is the caller's choice: the
    per-cell batch runner hands the batch to one backend, the super-batch
    sweep path packs many plans into one cross-cell engine run.
    """
    if fault_model not in FAULT_MODELS:
        raise ValueError(f"unknown fault model {fault_model!r}; expected one of {FAULT_MODELS}")
    if algorithm not in CLASSIC_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(CLASSIC_ALGORITHMS)}"
        )
    if stop_after_held is not None and not predicates:
        raise ValueError("stop_after_held requires at least one monitored predicate")
    algorithm_class = CLASSIC_ALGORITHMS[algorithm]
    scope = sorted(_scope_for(fault_model, n))
    tasks: List[ReplicaTask] = []
    for seed in seeds:
        rng = SeededRng(seed)
        values = _classic_values(n, rng, shuffle_values)
        oracle = _classic_oracle(fault_model, n, rng, rounds, loss_probability)
        tasks.append(ReplicaTask(seed=seed, algorithm=algorithm_class(n), oracle=oracle,
                                 initial_values=values))
    monitor_factory: Optional[Callable[[], Any]] = None
    monitor_spec: Optional[MonitorSpec] = None
    if predicates:
        names = tuple(predicates)
        pi0 = frozenset(scope)
        monitor_factory = lambda: build_monitor_bank(  # noqa: E731
            n, names, pi0=pi0, stop_after_held=stop_after_held
        )
        monitor_spec = MonitorSpec(
            predicates=names, pi0_mask=mask_of(pi0), stop_after_held=stop_after_held
        )
    batch = ReplicaBatch(
        n=n,
        tasks=tasks,
        max_rounds=rounds,
        scope_mask=mask_of(scope),
        run_full_horizon=run_full_horizon,
        monitor_factory=monitor_factory,
        monitor_spec=monitor_spec,
    )
    task_values = [task.initial_values for task in tasks]

    def finalize(outcomes: Sequence[Any]) -> List[Dict[str, Any]]:
        return [
            _replica_outcome_dict(outcome, values, scope)
            for outcome, values in zip(outcomes, task_values)
        ]

    return CellPlan(batch=batch, finalize=finalize)


def run_classic_batch(
    fault_model: str,
    n: int = 4,
    seeds: Sequence[int] = (0,),
    backend: str = "auto",
    **kwargs: Any,
) -> List[Dict[str, Any]]:
    """Run one sweep cell -- all *seeds* of one classic scenario -- as a batch.

    Builds the cell with :func:`build_classic_batch`, hands it to the
    requested execution backend, and flattens the outcomes into the sweep's
    per-replica wire dicts.  Bit-identity with R scalar runs is the
    contract (and is pinned by the equivalence tests).
    """
    plan = build_classic_batch(fault_model, n=n, seeds=seeds, **kwargs)
    return plan.finalize(get_backend(backend).run(plan.batch))


for _key in CLASSIC_ALGORITHMS:
    REGISTRY.register_scenario(
        f"ho-classic-{_key}",
        partial(run_classic, algorithm=_key),
        monitorable=True,
        batch_runner=partial(run_classic_batch, algorithm=_key),
        batch_builder=partial(build_classic_batch, algorithm=_key),
    )


__all__ = [
    "CLASSIC_ALGORITHMS",
    "run_classic",
    "build_classic_batch",
    "run_classic_batch",
]
