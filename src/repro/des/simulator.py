"""An event-driven simulator of asynchronous message-passing systems.

This is the substrate on which the failure-detector baselines run
(Chandra-Toueg in the crash-stop model, Aguilera et al. in the
crash-recovery model).  Processes are written in the classical
"upon receive / upon timer" style:

* :class:`DESProcess` subclasses implement ``on_start``, ``on_message``,
  ``on_timer`` and (for crash-recovery algorithms) ``on_recover``;
* the :class:`EventSimulator` is a *policy layer* over the shared engine
  core (:mod:`repro.engine`): the event queue, the clock, the seeded
  random sub-streams and the crash/recovery injection live in the engine,
  while this module defines what the events mean -- message delivery over
  (possibly lossy) channels, timers, per-process stable storage and the
  registered failure-detector oracles.

Channel randomness is drawn from two named engine sub-streams
(``channel.loss`` and ``channel.delay``), so loss decisions never perturb
the delay sequence.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.types import ProcessId
from ..engine import EngineCore, FaultEvent, FaultSchedule
from .events import DecisionEvent, Event, EventKind


@dataclass
class ChannelConfig:
    """Link behaviour: delivery delay range and loss probability.

    The failure-detector algorithms of Appendix A assume quasi-reliable
    channels; the defaults reflect that (no loss).  Crash-recovery
    experiments typically use ``loss_probability > 0`` together with the
    retransmission built into the Aguilera et al. algorithm.
    """

    min_delay: float = 0.5
    max_delay: float = 2.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError(f"invalid delay range [{self.min_delay}, {self.max_delay}]")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {self.loss_probability}"
            )


class ProcessContext:
    """The API a :class:`DESProcess` uses to interact with the simulator."""

    def __init__(self, simulator: "EventSimulator", process: ProcessId) -> None:
        self._simulator = simulator
        self._process = process

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._simulator._clock.now

    @property
    def process_id(self) -> ProcessId:
        return self._process

    @property
    def n(self) -> int:
        return self._simulator.n

    def send(self, destination: ProcessId, payload: Any) -> None:
        """Send *payload* to *destination* over the (possibly lossy) channel."""
        self._simulator.post_message(self._process, destination, payload)

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        """Send *payload* to every process (optionally excluding the sender)."""
        for destination in range(self._simulator.n):
            if destination == self._process and not include_self:
                continue
            self.send(destination, payload)

    def set_timer(self, delay: float, name: str) -> int:
        """Arm a timer; ``on_timer(name)`` fires after *delay* unless the process crashes."""
        return self._simulator.post_timer(self._process, delay, name)

    def stable_store(self, key: str, value: Any) -> None:
        """Write to stable storage (survives crashes)."""
        self._simulator.stable_storage[self._process][key] = value

    def stable_load(self, key: str, default: Any = None) -> Any:
        """Read from stable storage."""
        return self._simulator.stable_storage[self._process].get(key, default)

    def decide(self, value: Any) -> None:
        """Report a consensus decision (only the first one per process is recorded)."""
        self._simulator.record_decision(self._process, value)

    def query_failure_detector(self, name: str = "default") -> Any:
        """Query a registered failure-detector oracle."""
        return self._simulator.query_failure_detector(name, self._process)


class DESProcess:
    """Base class for processes of the event-driven simulator."""

    def __init__(self, process_id: ProcessId, n: int) -> None:
        self.process_id = process_id
        self.n = n

    def on_start(self, ctx: ProcessContext) -> None:
        """Called once at time 0 (if the process is initially up)."""

    def on_message(self, ctx: ProcessContext, sender: ProcessId, payload: Any) -> None:
        """Called on every delivered message."""

    def on_timer(self, ctx: ProcessContext, name: str) -> None:
        """Called when a timer armed with :meth:`ProcessContext.set_timer` fires."""

    def on_crash(self, ctx: ProcessContext) -> None:
        """Called right before the process goes down (rarely needed)."""

    def on_recover(self, ctx: ProcessContext) -> None:
        """Called when the process comes back up; volatile state must be rebuilt here."""


FailureDetectorOracle = Callable[["EventSimulator", ProcessId], Any]


class EventSimulator:
    """Deterministic event-driven simulator for asynchronous message passing.

    Event scheduling, simulated time, seeded randomness and crash/recovery
    injection are delegated to :class:`repro.engine.EngineCore`; this class
    only implements the message/timer policy on top of it.
    """

    def __init__(
        self,
        processes: Sequence[DESProcess],
        channel: Optional[ChannelConfig] = None,
        crash_times: Optional[Dict[ProcessId, float]] = None,
        recovery_times: Optional[Dict[ProcessId, float]] = None,
        seed: int = 0,
    ) -> None:
        self.n = len(processes)
        if self.n == 0:
            raise ValueError("at least one process is required")
        self.processes = list(processes)
        self.channel = channel if channel is not None else ChannelConfig()
        self.crash_times = dict(crash_times or {})
        self.recovery_times = dict(recovery_times or {})
        self._engine = EngineCore(seed)
        self._clock = self._engine.clock
        self._loss_rng = self._engine.rng.stream("channel.loss")
        self._delay_rng = self._engine.rng.stream("channel.delay")
        self._engine.attach_faults(
            FaultSchedule.from_maps(self.crash_times, self.recovery_times),
            crash=self._apply_crash,
            recover=self._apply_recover,
            recorder=self,
        )
        self.up = [True] * self.n
        self.stable_storage: List[Dict[str, Any]] = [{} for _ in range(self.n)]
        self.decisions: Dict[ProcessId, DecisionEvent] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0
        self.crash_count = [0] * self.n
        self._contexts = [ProcessContext(self, p) for p in range(self.n)]
        self._cancelled_timers: set[Tuple[ProcessId, int]] = set()
        self._next_timer_id = 1
        self._failure_detectors: Dict[str, FailureDetectorOracle] = {}
        self._started = False

    @property
    def now(self) -> float:
        """Current simulated time (owned by the engine clock)."""
        return self._clock.now

    # ------------------------------------------------------------------ #
    # registration / posting
    # ------------------------------------------------------------------ #

    def register_failure_detector(self, name: str, oracle: FailureDetectorOracle) -> None:
        """Register a failure-detector oracle queried via ``ctx.query_failure_detector``."""
        self._failure_detectors[name] = oracle

    def query_failure_detector(self, name: str, process: ProcessId) -> Any:
        if name not in self._failure_detectors:
            raise KeyError(f"no failure detector registered under {name!r}")
        return self._failure_detectors[name](self, process)

    def post_message(self, sender: ProcessId, destination: ProcessId, payload: Any) -> None:
        """Queue a message delivery, applying channel loss and delay."""
        self.messages_sent += 1
        if self._loss_rng.random() < self.channel.loss_probability:
            self.messages_lost += 1
            return
        delay = self._delay_rng.uniform(self.channel.min_delay, self.channel.max_delay)
        self._post(
            self._clock.now + delay,
            EventKind.DELIVER,
            destination,
            sender=sender,
            payload=payload,
        )

    def post_timer(self, process: ProcessId, delay: float, name: str) -> int:
        """Queue a timer event; returns an id usable with :meth:`cancel_timer`."""
        if delay < 0:
            raise ValueError(f"timer delay must be non-negative, got {delay}")
        timer_id = self._next_timer_id
        self._next_timer_id += 1
        self._post(
            self._clock.now + delay,
            EventKind.TIMER,
            process,
            timer_name=name,
            timer_id=timer_id,
        )
        return timer_id

    def cancel_timer(self, process: ProcessId, timer_id: int) -> None:
        """Cancel a pending timer (it will be silently dropped when it fires)."""
        self._cancelled_timers.add((process, timer_id))

    def record_decision(self, process: ProcessId, value: Any) -> None:
        if process not in self.decisions:
            self.decisions[process] = DecisionEvent(process, value, self._clock.now)

    # ------------------------------------------------------------------ #
    # queries used by failure detectors and tests
    # ------------------------------------------------------------------ #

    def is_up(self, process: ProcessId) -> bool:
        """Whether *process* is currently up."""
        return self.up[process]

    def eventually_up_processes(self) -> frozenset[ProcessId]:
        """Processes that are up at the end of the configured fault schedule.

        A process is "eventually up" when it never crashes, or when it
        recovers after its last crash (used by the ◇Su ground-truth oracle).
        """
        good = set()
        for process in range(self.n):
            crash_at = self.crash_times.get(process)
            if crash_at is None:
                good.add(process)
            elif process in self.recovery_times:
                good.add(process)
        return frozenset(good)

    def decision_values(self) -> Dict[ProcessId, Any]:
        """Map process -> decided value."""
        return {p: event.value for p, event in self.decisions.items()}

    def decision_times(self) -> Dict[ProcessId, float]:
        """Map process -> decision time."""
        return {p: event.time for p, event in self.decisions.items()}

    def all_decided(self, scope: Optional[Iterable[ProcessId]] = None) -> bool:
        scope_set = set(range(self.n)) if scope is None else set(scope)
        return scope_set.issubset(self.decisions)

    # ------------------------------------------------------------------ #
    # engine hooks: event posting, fault application, trace accounting
    # ------------------------------------------------------------------ #

    def _post(self, time: float, kind: EventKind, process: ProcessId, **fields: Any) -> None:
        """Create the public event record and schedule it on the engine queue."""
        sequence = self._engine.queue.next_sequence()
        event = Event(time=time, sequence=sequence, kind=kind, process=process, **fields)
        self._engine.queue.schedule(time, event, sequence=sequence)

    def _apply_crash(self, process: ProcessId) -> bool:
        if not self.up[process]:
            return False
        self.processes[process].on_crash(self._contexts[process])
        self.up[process] = False
        return True

    def _apply_recover(self, process: ProcessId) -> bool:
        if self.up[process]:
            return False
        self.up[process] = True
        self.processes[process].on_recover(self._contexts[process])
        return True

    def record_crash(self, process: ProcessId, time: float) -> None:
        """Trace-recorder hook: account one applied crash."""
        self.crash_count[process] += 1

    def record_recovery(self, process: ProcessId, time: float) -> None:
        """Trace-recorder hook: recoveries are visible via ``is_up``; nothing to count."""

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def _start(self) -> None:
        self._started = True
        for process in range(self.n):
            self._post(0.0, EventKind.START, process)
        self._engine.arm_faults()

    def run(
        self,
        until: float,
        stop_when: Optional[Callable[["EventSimulator"], bool]] = None,
    ) -> Dict[ProcessId, Any]:
        """Run until simulated time *until* (or *stop_when* returns True).

        Returns the decision values recorded so far.
        """
        if not self._started:
            self._start()
        self._engine.run(
            until,
            self._dispatch,
            stop_when=None if stop_when is None else (lambda: stop_when(self)),
        )
        return self.decision_values()

    def run_until_all_decided(self, until: float, scope: Optional[Iterable[ProcessId]] = None):
        """Run until every process in *scope* decided or time *until* is reached."""
        scope_set = frozenset(range(self.n) if scope is None else scope)
        return self.run(until, stop_when=lambda sim: scope_set.issubset(sim.decisions))

    def _dispatch(self, event: Any) -> None:
        if isinstance(event, FaultEvent):
            assert self._engine.injector is not None
            self._engine.injector.apply(event)
            return
        process = event.process
        ctx = self._contexts[process]
        if event.kind is EventKind.START:
            if self.up[process]:
                self.processes[process].on_start(ctx)
        elif event.kind is EventKind.DELIVER:
            if self.up[process]:
                self.messages_delivered += 1
                self.processes[process].on_message(ctx, event.sender, event.payload)
        elif event.kind is EventKind.TIMER:
            if (process, event.timer_id) in self._cancelled_timers:
                self._cancelled_timers.discard((process, event.timer_id))
                return
            if self.up[process]:
                self.processes[process].on_timer(ctx, event.timer_name)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown event kind {event.kind!r}")


__all__ = ["ChannelConfig", "ProcessContext", "DESProcess", "EventSimulator"]
