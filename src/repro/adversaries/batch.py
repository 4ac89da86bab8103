"""Batched heard-of oracles: the replica-vectorised environment layer.

A :class:`BatchOracle` produces, per round, the heard-of sets of *all* R
replicas of a batch at once, as an ``(R, n, ceil(n/64))`` uint64 mask array
(the word-spill layout of :func:`repro.rounds.bitmask.mask_to_words`).  Three
strategies cover the whole oracle zoo:

* :class:`BroadcastBatchOracle` -- for *replica-invariant* environments
  (``oracle.replica_invariant``: the classic crash-stop / static-omission /
  partition-schedule family, scripted and silent-round oracles, and any
  combinator over those).  The masks depend only on ``(round, process)``,
  so one scalar query per process is computed and broadcast across the
  replica axis -- the vectorised classic zoo.
* :class:`RandomOmissionBatchDual` -- the loss twin for seeded
  independent message loss (:class:`~repro.adversaries.classic.
  RandomOmissionOracle`).  It clones every replica's ``oracle.loss``
  Mersenne-Twister stream into a numpy ``RandomState``
  (:func:`~repro.engine.rng.random_state_clone`) and draws a whole round
  per replica in one call, in the scalar oracle's query order -- the same
  numbers from the same generator state, so bit-identical by construction.
* :class:`PerReplicaBatchOracle` -- the automatic fallback loop for the
  remaining stateful families (the eventually-good loss/partition oracle,
  kernel-only oracles, replica-varying deterministic oracles, any
  combinator that cannot be decomposed).  Each replica owns the exact
  scalar oracle the corresponding single run would use, queried replica by
  replica; the transition kernels above stay vectorised, and bit-identity
  with the scalar path is preserved because the very same oracle objects
  draw from the very same :class:`~repro.engine.rng.SeededRng` streams.

:func:`vectorize_oracles` picks the strategy (the counter-based dynamic
families get their array duals from :mod:`repro.adversaries.counter_batch`).
Broadcasting additionally assumes the per-replica oracles were *constructed
identically* (a replica-invariant oracle whose constructor arguments varied
per seed would still differ across replicas); the scenario builders
guarantee this by constructing deterministic oracles independently of the
replica seed.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence, runtime_checkable

from .._optional import require_numpy
from ..batch.arrays import pack_bools
from ..engine.rng import random_state_clone
from ..rounds.bitmask import full_mask, mask_to_words, word_count
from .base import HOOracleBase
from .classic import RandomOmissionOracle


@runtime_checkable
class BatchOracle(Protocol):
    """The environment of a replica batch: all replicas' masks, per round.

    ``round_masks(round, active)`` returns the ``(R, n, W)`` uint64 array of
    heard-of sets for *round*; *active* is an ``(R,)`` bool array and rows
    of inactive replicas may hold arbitrary (ignored) masks -- a stopped
    replica's oracle must not be queried further, exactly like a finished
    scalar run.
    """

    n: int
    replicas: int

    def round_masks(self, round: int, active: Any) -> Any: ...


class BroadcastBatchOracle:
    """One replica-invariant scalar oracle, broadcast across the replica axis."""

    def __init__(self, oracle: HOOracleBase, replicas: int) -> None:
        np = require_numpy()
        if not getattr(oracle, "replica_invariant", False):
            raise ValueError(
                f"{type(oracle).__name__} is not replica-invariant; "
                "use PerReplicaBatchOracle"
            )
        self.np = np
        self.oracle = oracle
        self.n = oracle.n
        self.replicas = replicas
        self._words = word_count(self.n)
        self._full = full_mask(self.n)
        self._row = np.empty((self.n, self._words), dtype=np.uint64)

    def round_masks(self, round: int, active: Any) -> Any:
        np = self.np
        oracle = self.oracle
        full = self._full
        row = self._row
        if self._words == 1:
            # n <= 64: each mask is its own single word.
            row[:, 0] = [oracle.ho_mask(round, p) & full for p in range(self.n)]
        else:
            for p in range(self.n):
                row[p] = mask_to_words(oracle.ho_mask(round, p) & full, self.n)
        return np.broadcast_to(row, (self.replicas, self.n, self._words))


class PerReplicaBatchOracle:
    """The fallback loop: one scalar oracle per replica, queried in a loop.

    Queries follow the scalar engine's order (ascending process id per
    round, replicas independent), so seeded oracles draw exactly the
    streams their single-run twins draw.  Inactive replicas are skipped --
    their oracles stop being queried the moment their run would have ended.
    """

    def __init__(self, oracles: Sequence[HOOracleBase]) -> None:
        np = require_numpy()
        if not oracles:
            raise ValueError("at least one per-replica oracle is required")
        n = oracles[0].n
        for oracle in oracles:
            if oracle.n != n:
                raise ValueError("per-replica oracles must share one system size")
        self.np = np
        self.oracles = list(oracles)
        self.n = n
        self.replicas = len(self.oracles)
        self._words = word_count(n)
        self._full = full_mask(n)
        self._buffer = np.zeros((self.replicas, n, self._words), dtype=np.uint64)

    def round_masks(self, round: int, active: Any) -> Any:
        buffer = self._buffer
        full = self._full
        n = self.n
        for r, oracle in enumerate(self.oracles):
            if not active[r]:
                continue
            mask_fn = oracle.ho_mask
            for p in range(n):
                buffer[r, p] = mask_to_words(mask_fn(round, p) & full, n)
        return buffer


class RandomOmissionBatchDual:
    """Array twin of :class:`~repro.adversaries.classic.RandomOmissionOracle`.

    Each replica's ``oracle.loss`` stream is cloned once, at construction,
    into a numpy ``RandomState`` at the same MT19937 position.  Per round,
    every active replica draws ``n*(n-1)`` uniforms in one call (``n*n``
    when the self bit is drawn too): exactly the values the scalar oracle
    draws for receivers ``0..n-1`` in order, senders ascending, self
    skipped.  They are compared against the loss probability, scattered off
    the diagonal of an ``(R, n, n)`` bool buffer and packed once.

    Like the recurrence duals the stream only advances: the same round
    again returns the stored words, a round behind the frontier raises
    :class:`LookupError`.  Inactive replicas draw nothing, so their clone
    stops exactly where a finished scalar run's stream stops.  The scalar
    oracles themselves are never queried or advanced.
    """

    def __init__(self, oracles: Sequence[RandomOmissionOracle]) -> None:
        np = require_numpy()
        first = oracles[0]
        n = first.n
        self.np = np
        self.n = n
        self.replicas = len(oracles)
        self.loss_probability = first.loss_probability
        # Friend access within the adversaries package: the scalar stream.
        self._states = [random_state_clone(oracle._stream) for oracle in oracles]
        drawn = np.ones((n, n), dtype=bool)
        if first.always_hear_self:
            np.fill_diagonal(drawn, False)
        # Row-major flat positions of the drawn (receiver, sender) pairs --
        # the scalar draw order.
        self._cells = np.flatnonzero(drawn)
        self._heard = np.broadcast_to(~drawn, (self.replicas, n, n)).copy()
        self._round = 0
        self._words: Optional[Any] = None

    def round_masks(self, round: int, active: Any) -> Any:
        if round == self._round:
            return self._words
        if round < self._round:
            raise LookupError(
                f"loss round {round} is behind the batch frontier "
                f"({self._round}); the loss streams only advance forward"
            )
        np = self.np
        rows = np.flatnonzero(active)
        count = self._cells.size
        draws = np.empty((rows.size, count))
        for i, r in enumerate(rows):
            draws[i] = self._states[r].random_sample(count)
        flat = self._heard.reshape(self.replicas, self.n * self.n)
        flat[rows[:, None], self._cells] = draws >= self.loss_probability
        self._round = round
        self._words = pack_bools(self._heard, self.n)
        return self._words


def _loss_batch_dual(
    oracles: Sequence[RandomOmissionOracle],
) -> Optional[RandomOmissionBatchDual]:
    """The loss twin when every replica's oracle is a fresh, unshared one.

    Requires exactly :class:`RandomOmissionOracle` everywhere with one
    ``(n, loss_probability, always_hear_self)``, never queried (empty memo:
    the clone must start where the scalar run starts) and each drawing from
    its own stream object (two replicas on one stream interleave draws).
    """
    first = oracles[0]
    signature = (first.n, first.loss_probability, first.always_hear_self)
    streams = set()
    for oracle in oracles:
        if type(oracle) is not RandomOmissionOracle or oracle._memo:
            return None
        if (oracle.n, oracle.loss_probability, oracle.always_hear_self) != signature:
            return None
        # Identity, not equality: id() is stable while the oracles are alive.
        streams.add(id(oracle._stream))
    if len(streams) != len(oracles):
        return None
    return RandomOmissionBatchDual(oracles)


class IntersectBatchOracle:
    """Intersection of batch oracles (the batched ``IntersectOracle``)."""

    def __init__(self, *components: BatchOracle) -> None:
        if not components:
            raise ValueError("at least one component is required")
        self.components = components
        self.n = components[0].n
        self.replicas = components[0].replicas
        for component in components:
            if (component.n, component.replicas) != (self.n, self.replicas):
                raise ValueError("components must share (n, replicas)")

    def round_masks(self, round: int, active: Any) -> Any:
        masks = self.components[0].round_masks(round, active)
        for component in self.components[1:]:
            masks = masks & component.round_masks(round, active)
        return masks


def needs_query_order(oracle: Any) -> bool:
    """Whether a batch oracle's masks depend on the order it is queried in.

    The per-replica loop and the loss twin draw from cursor-carrying
    streams: their answers replay the scalar runs only when queried round
    by round in the scalar order.  Such an oracle cannot share a decomposed
    intersection with a second one (the two could share a stream, and
    decomposition reorders draws across components), and the fused compiled
    loop, which precomputes rounds ahead, refuses it.  An intersection needs
    query order when any of its components does.
    """
    if isinstance(oracle, IntersectBatchOracle):
        return any(needs_query_order(c) for c in oracle.components)
    return isinstance(oracle, (PerReplicaBatchOracle, RandomOmissionBatchDual))


def _structurally_equal(a: Any, b: Any) -> bool:
    """Whether two oracle objects were constructed with the same parameters.

    Replica invariance says an oracle's masks depend only on ``(round,
    process)`` *and its constructor arguments* -- a batch may still have
    been built with per-replica arguments (say, a different crash round per
    seed), in which case broadcasting replica 0 would be silently wrong.
    Deterministic oracles keep all their construction state in plain
    instance attributes (ints, masks, dicts, nested component oracles), so
    structural equality over those attributes is a sound broadcast check;
    anything uncomparable conservatively fails it.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, HOOracleBase):
        return _structurally_equal(a.__dict__, b.__dict__)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_structurally_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_structurally_equal, a, b))
    try:
        return bool(a == b)
    except Exception:
        return False


def vectorize_oracles(oracles: Sequence[HOOracleBase], replicas: int) -> Any:
    """The batch oracle for one oracle per replica, broadcast when sound.

    *oracles* holds the scalar oracle of every replica (length R).  The
    batch is served by broadcasting replica 0's oracle exactly when every
    oracle is replica-invariant *and* structurally equal to it (same class,
    same constructor state, recursively through combinator components) --
    replica-varying or stateful environments keep one oracle per replica
    via the fallback loop, so broadcasting can never silently change a
    replica's environment.

    The dynamic adversary families draw counter-based randomness
    (:mod:`repro.adversaries.counter_batch`): a batch of one family with
    shared construction parameters is served by its array dual, which
    recomputes the scalar oracles' draws array-wide -- bit-identical with
    no per-replica loop.  Seeded independent loss is served by
    :class:`RandomOmissionBatchDual`, which replays the very same
    Mersenne-Twister streams in bulk.

    Intersections decompose: a batch of ``IntersectOracle``\\ s is rebuilt
    as an :class:`IntersectBatchOracle` whose components broadcast or run
    their duals independently.  Decomposition reorders queries *across*
    components (component by component instead of process by process),
    which is invisible to broadcast and counter-based components (their
    draws carry no cursor) but would change the draw interleaving of two
    *sequential* stateful components sharing a stream -- so the guard that
    remains is: at most one component may need query order
    (:func:`needs_query_order`).
    """
    from .combinators import IntersectOracle
    from .counter_batch import counter_batch_dual

    if len(oracles) != replicas:
        raise ValueError(f"expected {replicas} oracles, got {len(oracles)}")
    if getattr(oracles[0], "replica_invariant", False) and all(
        _structurally_equal(oracle, oracles[0]) for oracle in oracles[1:]
    ):
        return BroadcastBatchOracle(oracles[0], replicas)
    dual = counter_batch_dual(oracles, replicas)
    if dual is None and type(oracles[0]) is RandomOmissionOracle:
        dual = _loss_batch_dual(oracles)
    if dual is not None:
        return dual
    if isinstance(oracles[0], IntersectOracle):
        arity = len(oracles[0].oracles)
        if arity > 1 and all(
            type(oracle) is IntersectOracle and len(oracle.oracles) == arity
            for oracle in oracles
        ):
            components = [
                vectorize_oracles([oracle.oracles[i] for oracle in oracles], replicas)
                for i in range(arity)
            ]
            if sum(map(needs_query_order, components)) <= 1:
                return IntersectBatchOracle(*components)
    return PerReplicaBatchOracle(oracles)


__all__ = [
    "BatchOracle",
    "BroadcastBatchOracle",
    "PerReplicaBatchOracle",
    "RandomOmissionBatchDual",
    "IntersectBatchOracle",
    "needs_query_order",
    "vectorize_oracles",
]
