"""Layer spans for the traced run, hooked onto the program's public surface.

Nothing under ``src/`` knows about tracing: :func:`install` wraps public
functions and methods of each layer (module functions are rebound in every
loaded ``repro`` module that imported them; methods are replaced on their
defining class) with span recorders.  A span's *self time* is its duration
minus the time covered by the spans it encloses; a call re-entering the
span it is already inside (a backend delegating to another backend, a
composed oracle querying its parts) is folded into the outer span.

A hook whose target no longer exists is skipped and every metric that
depends on it is reported absent -- a refactor never crashes the traced
run, and untraced runs install nothing at all.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Set

#: Hook group -> the layer metrics it feeds (a metric is absent when any of
#: its groups could not be installed).
GROUP_METRICS = {
    "registry": ["workloads.plan_build_s", "workloads.decode_s",
                 "workloads.scenario_self_s", "batch.padding_share", "batch.scratch_bytes"],
    "backends": ["rounds.backend_self_s"],
    "masks": ["adversaries.vectorised_masks_s", "adversaries.per_replica_masks_s",
              "adversaries.round_masks_calls"],
    "vectorize": ["adversaries.vectorised_cell_share"],
    "counter": ["engine.counter_hash_s"],
    "event_loop": ["engine.event_loop_s", "engine.events"],
    "kernels": ["algorithms.kernel_step_s", "algorithms.kernel_steps",
                "algorithms.row_rounds", "algorithms.live_row_share"],
    "decisions": ["algorithms.decisions_s"],
    "compact": ["batch.compactions"],
    "unpack": ["batch.unpack_s"],
    "pack": ["batch.pack_s"],
    "popcount": ["batch.popcount_s"],
    "monitors": ["predicates.observe_s", "predicates.observe_calls"],
    "sysmodel": ["sysmodel.run_s"],
    "des": ["des.run_s"],
    "analysis": ["analysis.check_s"],
}

#: Errors that mean "this hook's target moved or changed shape".
_MISSING = (ImportError, AttributeError, KeyError, TypeError, ValueError)


class Tracer:
    """Span self-time totals and counters, kept in memory for one sweep."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: time covered by outermost spans (reset at sweep start).
        self.covered = 0.0
        self.missing: Set[str] = set()
        #: shapes of the cells built through the registry: (scenario,
        #: fault model, n, first seed) -> (replicas, algorithm class name).
        self.plans: Dict[tuple, tuple] = {}
        self._stack: List[list] = []

    def timed(
        self, name: str, fn: Callable, on_call: Optional[Callable[..., None]] = None
    ) -> Callable:
        """*fn* wrapped in a span called *name* (calling ``on_call(*args)`` first)."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.covered += elapsed

        return wrapper

    def absent_metrics(self) -> Set[str]:
        return {metric for group in self.missing for metric in GROUP_METRICS[group]}


# --------------------------------------------------------------------------- #
# patching helpers
# --------------------------------------------------------------------------- #


def _rebind(original: Any, replacement: Any) -> None:
    """Replace every module-level binding of *original* in loaded repro modules."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _patch_function(tracer: Tracer, module_name: str, attr: str, span: str) -> None:
    original = getattr(importlib.import_module(module_name), attr)
    if not callable(original):
        raise TypeError(f"{module_name}.{attr} is not callable")
    _rebind(original, tracer.timed(span, original))


def _patch_method(
    tracer: Tracer, cls: type, attr: str, span: str,
    on_call: Optional[Callable[..., None]] = None,
) -> bool:
    """Wrap *cls.attr* when *cls* itself defines it as a plain function."""
    original = vars(cls).get(attr)
    if not inspect.isfunction(original):
        return False
    setattr(cls, attr, tracer.timed(span, original, on_call))
    return True


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        for sub in current.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return [cls] + found


def _classes_in(module_name: str) -> List[type]:
    module = importlib.import_module(module_name)
    return [
        value for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module_name
    ]


# --------------------------------------------------------------------------- #
# the hooks, one group per layer boundary
# --------------------------------------------------------------------------- #


def _hook_registry(tracer: Tracer) -> None:
    registry = importlib.import_module("repro.runner.registry").REGISTRY
    scenario = registry.scenario
    batch_runner = registry.batch_runner
    batch_builder = registry.batch_builder

    def traced_plan(plan: Any) -> Any:
        return dataclasses.replace(
            plan, finalize=tracer.timed("workloads.decode_s", plan.finalize)
        )

    def builder_wrapper(builder: Callable, label: Optional[str]) -> Callable:
        def build(fault_model: str, *args: Any, **kwargs: Any) -> Any:
            plan = traced_plan(builder(fault_model, *args, **kwargs))
            if label is not None:
                batch = plan.batch
                tracer.plans[(label, fault_model, batch.n, batch.tasks[0].seed)] = (
                    batch.replicas, type(batch.tasks[0].algorithm).__name__
                )
            return plan

        return tracer.timed("workloads.plan_build_s", build)

    # Per-cell batch runners call their builder function directly; rebind
    # it so those plans decode inside a span too.
    for name in registry.batchable_scenario_names():
        builder = batch_builder(name)
        if builder is not None:
            function = getattr(builder, "func", builder)
            _rebind(function, builder_wrapper(function, None))

    def traced_scenario(name: str) -> Callable:
        return tracer.timed("workloads.scenario_self_s", scenario(name))

    def traced_runner(name: str) -> Optional[Callable]:
        runner = batch_runner(name)
        return None if runner is None else tracer.timed("workloads.plan_build_s", runner)

    def traced_builder(name: str) -> Optional[Callable]:
        builder = batch_builder(name)
        return None if builder is None else builder_wrapper(builder, name)

    registry.scenario = traced_scenario
    registry.batch_runner = traced_runner
    registry.batch_builder = traced_builder


def _hook_backends(tracer: Tracer) -> None:
    backend = importlib.import_module("repro.rounds.backend")
    classes = {type(backend.get_backend(name)) for name in backend.backend_names()}
    hooked = False
    for cls in classes:
        for attr in ("run", "run_batches"):
            hooked |= _patch_method(tracer, cls, attr, "rounds.backend_self_s")
    if not hooked:
        raise AttributeError("no backend run methods found")


def _hook_masks(tracer: Tracer) -> None:
    per_replica = importlib.import_module("repro.adversaries.batch").PerReplicaBatchOracle

    def count_call(*_args: Any, **_kwargs: Any) -> None:
        tracer.counts["adversaries.round_masks_calls"] += 1

    hooked = False
    for module_name in ("repro.adversaries.batch", "repro.adversaries.counter_batch"):
        for cls in _classes_in(module_name):
            span = (
                "adversaries.per_replica_masks_s" if issubclass(cls, per_replica)
                else "adversaries.vectorised_masks_s"
            )
            hooked |= _patch_method(tracer, cls, "round_masks", span, count_call)
    if not hooked:
        raise AttributeError("no round_masks methods found")


def _hook_vectorize(tracer: Tracer) -> None:
    module = importlib.import_module("repro.adversaries.batch")
    original = module.vectorize_oracles
    per_replica = module.PerReplicaBatchOracle

    @functools.wraps(original)
    def vectorize_oracles(*args: Any, **kwargs: Any) -> Any:
        oracle = original(*args, **kwargs)
        tracer.counts["adversaries.cells"] += 1
        if not isinstance(oracle, per_replica):
            tracer.counts["adversaries.vectorised_cells"] += 1
        return oracle

    _rebind(original, vectorize_oracles)


def _hook_counter(tracer: Tracer) -> None:
    for attr in ("counter_hash_array", "units_of_array", "units_of_counters"):
        _patch_function(tracer, "repro.engine.counter", attr, "engine.counter_hash_s")


def _dispatch_layer(dispatch: Any) -> Optional[str]:
    owner = type(getattr(dispatch, "__self__", None)).__module__
    if owner.startswith("repro.sysmodel"):
        return "sysmodel.run_s"
    if owner.startswith("repro.des"):
        return "des.run_s"
    return None


def _hook_event_loop(tracer: Tracer) -> None:
    core = importlib.import_module("repro.engine.core").EngineCore
    original = vars(core)["run"]
    signature = inspect.signature(original)
    if "dispatch" not in signature.parameters:
        raise TypeError("EngineCore.run takes no dispatch callable")

    def counted(dispatch: Callable) -> Callable:
        layer = _dispatch_layer(dispatch)
        inner = dispatch if layer is None else tracer.timed(layer, dispatch)

        def dispatch_event(event: Any) -> Any:
            tracer.counts["engine.events"] += 1
            return inner(event)

        return dispatch_event

    timed = tracer.timed("engine.event_loop_s", original)

    @functools.wraps(original)
    def run(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.arguments["dispatch"] = counted(bound.arguments["dispatch"])
        return timed(*bound.args, **bound.kwargs)

    core.run = run


def _hook_kernels(tracer: Tracer) -> None:
    kernel = importlib.import_module("repro.algorithms.batched").BatchKernel

    def on_step(*args: Any, **kwargs: Any) -> None:
        # step(self, round, heard, active): the (R,) live-row mask.
        active = kwargs.get("active", args[3] if len(args) > 3 else None)
        tracer.counts["algorithms.kernel_steps"] += 1
        if active is not None:
            tracer.counts["algorithms.row_rounds"] += len(active)
            tracer.counts["algorithms.live_rows"] += int(active.sum())

    hooked = False
    for cls in _subclasses(kernel):
        hooked |= _patch_method(tracer, cls, "step", "algorithms.kernel_step_s", on_step)
    if not hooked:
        raise AttributeError("no batch kernel step methods found")


def _hook_decisions(tracer: Tracer) -> None:
    kernel = importlib.import_module("repro.algorithms.batched").BatchKernel
    hooked = False
    for cls in _subclasses(kernel):
        for attr in ("decided", "scope_all_decided", "decisions_of"):
            hooked |= _patch_method(tracer, cls, attr, "algorithms.decisions_s")
    if not hooked:
        raise AttributeError("no batch kernel decision queries found")


def _hook_compact(tracer: Tracer) -> None:
    kernel = importlib.import_module("repro.algorithms.batched").BatchKernel

    def on_compact(*_args: Any, **_kwargs: Any) -> None:
        tracer.counts["batch.compactions"] += 1

    hooked = False
    for cls in _subclasses(kernel):
        hooked |= _patch_method(tracer, cls, "compact", "batch.compact_s", on_compact)
    if not hooked:
        raise AttributeError("no compact methods found")


def _hook_monitors(tracer: Tracer) -> None:
    bank = importlib.import_module("repro.predicates.batch").BatchMonitorBank

    def on_observe(*_args: Any, **_kwargs: Any) -> None:
        tracer.counts["predicates.observe_calls"] += 1

    if not _patch_method(tracer, bank, "observe_round", "predicates.observe_s", on_observe):
        raise AttributeError("BatchMonitorBank.observe_round")


def _hook_simulator(tracer: Tracer, module_name: str, cls_name: str, span: str) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    if not _patch_method(tracer, cls, "run", span):
        raise AttributeError(f"{cls_name}.run")


HOOKS: Dict[str, Callable[[Tracer], None]] = {
    "registry": _hook_registry,
    "backends": _hook_backends,
    "masks": _hook_masks,
    "vectorize": _hook_vectorize,
    "counter": _hook_counter,
    "event_loop": _hook_event_loop,
    "kernels": _hook_kernels,
    "decisions": _hook_decisions,
    "compact": _hook_compact,
    "unpack": lambda t: _patch_function(t, "repro.batch.arrays", "unpack_words",
                                        "batch.unpack_s"),
    "pack": lambda t: _patch_function(t, "repro.batch.arrays", "pack_bools", "batch.pack_s"),
    "popcount": lambda t: _patch_function(t, "repro.batch.arrays", "popcount_words",
                                          "batch.popcount_s"),
    "monitors": _hook_monitors,
    "sysmodel": lambda t: _hook_simulator(t, "repro.sysmodel.simulator", "SystemSimulator",
                                          "sysmodel.run_s"),
    "des": lambda t: _hook_simulator(t, "repro.des.simulator", "EventSimulator", "des.run_s"),
    "analysis": lambda t: _patch_function(t, "repro.analysis.consensus_check",
                                          "check_consensus", "analysis.check_s"),
}

#: Modules imported before hooking, so that every ``from x import f``
#: binding the hooks must rebind already exists.
PRELOAD = (
    "repro.workloads",
    "repro.rounds.backend",
    "repro.batch",
    "repro.batch.super",
    "repro.adversaries.batch",
    "repro.adversaries.counter_batch",
    "repro.predicates.batch",
    "repro.predimpl.step_backend",
    "repro.compiled",
)


def install(tracer: Tracer, hooks: Optional[Dict[str, Callable[[Tracer], None]]] = None) -> None:
    """Install every hook; groups whose target is gone are recorded as missing."""
    for module_name in PRELOAD:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    for group, hook in (HOOKS if hooks is None else hooks).items():
        try:
            hook(tracer)
        except _MISSING:
            tracer.missing.add(group)
