"""The bulk Mersenne-Twister twin of seeded loss: bit-identical to the scalar oracle.

:class:`~repro.adversaries.batch.RandomOmissionBatchDual` clones every
replica's ``oracle.loss`` stream into a numpy ``RandomState``
(:func:`~repro.engine.rng.random_state_clone`) and draws whole rounds at
once.  These tests pin the clone to ``random.random()``, the dual's masks
to the scalar ``RandomOmissionOracle`` round by round, its frontier and
retirement semantics, every eligibility refusal, and the batch and super
backends against the scalar reference on the lossy sweep cells.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro._optional import have_numpy
from repro.adversaries import (
    FaultFreeOracle,
    IntersectOracle,
    RandomOmissionOracle,
    StaticCrashOracle,
)
from repro.adversaries.batch import (
    IntersectBatchOracle,
    PerReplicaBatchOracle,
    RandomOmissionBatchDual,
    needs_query_order,
    vectorize_oracles,
)
from repro.engine.rng import SeededRng, random_state_clone
from repro.predicates import MONITOR_NAMES
from repro.rounds.backend import get_backend
from repro.workloads.adversarial import build_round_adversary_batch
from repro.workloads.batched import build_classic_batch

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")


def lossy_oracles(n, loss, replicas, always_hear_self=True, base_seed=30):
    return [
        RandomOmissionOracle(
            n, loss, rng=SeededRng(base_seed + i), always_hear_self=always_hear_self
        )
        for i in range(replicas)
    ]


def rows_as_ints(words, rows, n):
    from repro.batch.arrays import mask_from_words_row

    return {r: [mask_from_words_row(words[r, p]) for p in range(n)] for r in rows}


@needs_numpy
class TestRandomStateClone:
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    @pytest.mark.parametrize("consumed", [0, 1, 624, 1000])
    @pytest.mark.parametrize("draws", [0, 1, 5000])
    def test_clone_continues_the_python_stream(self, seed, consumed, draws):
        stream = random.Random(seed)
        for _ in range(consumed):
            stream.random()
        clone = random_state_clone(stream)
        expected = [stream.random() for _ in range(draws)]
        assert clone.random_sample(draws).tolist() == expected

    def test_clone_leaves_the_stream_untouched(self):
        stream = random.Random(5)
        stream.random()
        before = stream.getstate()
        random_state_clone(stream).random_sample(100)
        assert stream.getstate() == before


@needs_numpy
class TestScalarEquality:
    @pytest.mark.parametrize("n", [1, 2, 31, 63, 64, 65, 128])
    @pytest.mark.parametrize("loss", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("always_hear_self", [True, False])
    def test_masks_equal_every_round(self, n, loss, always_hear_self):
        import numpy as np

        replicas = 3
        dual = vectorize_oracles(
            lossy_oracles(n, loss, replicas, always_hear_self), replicas
        )
        assert isinstance(dual, RandomOmissionBatchDual)
        reference = lossy_oracles(n, loss, replicas, always_hear_self)
        active = np.ones(replicas, dtype=bool)
        for round in range(1, 5):
            rows = rows_as_ints(dual.round_masks(round, active), range(replicas), n)
            for r in range(replicas):
                assert rows[r] == [reference[r].ho_mask(round, p) for p in range(n)]

    def test_retired_replica_leaves_siblings_in_step(self):
        import numpy as np

        n, replicas = 9, 4
        dual = vectorize_oracles(lossy_oracles(n, 0.3, replicas), replicas)
        reference = lossy_oracles(n, 0.3, replicas)
        active = np.ones(replicas, dtype=bool)
        for round in range(1, 9):
            if round == 3:
                active[1] = False
            if round == 6:
                active[3] = False
            live = np.flatnonzero(active).tolist()
            rows = rows_as_ints(dual.round_masks(round, active), live, n)
            for r in live:
                assert rows[r] == [reference[r].ho_mask(round, p) for p in range(n)]

    def test_scalar_oracles_are_not_advanced(self):
        import numpy as np

        oracles = lossy_oracles(5, 0.4, 2)
        states = [oracle._stream.getstate() for oracle in oracles]
        dual = vectorize_oracles(oracles, 2)
        dual.round_masks(1, np.ones(2, dtype=bool))
        assert [oracle._stream.getstate() for oracle in oracles] == states
        assert all(not oracle._memo for oracle in oracles)


@needs_numpy
class TestFrontier:
    def test_same_round_returns_the_stored_words(self):
        import numpy as np

        dual = vectorize_oracles(lossy_oracles(6, 0.5, 2), 2)
        active = np.ones(2, dtype=bool)
        first = dual.round_masks(1, active)
        again = dual.round_masks(1, active)
        assert again is first
        assert not np.array_equal(dual.round_masks(2, active), first)

    def test_behind_the_frontier_raises(self):
        import numpy as np

        dual = vectorize_oracles(lossy_oracles(6, 0.5, 2), 2)
        active = np.ones(2, dtype=bool)
        dual.round_masks(1, active)
        dual.round_masks(2, active)
        with pytest.raises(LookupError):
            dual.round_masks(1, active)


@needs_numpy
class TestEligibility:
    def test_subclass_is_refused(self):
        class Tweaked(RandomOmissionOracle):
            pass

        oracles = [Tweaked(4, 0.2, rng=SeededRng(i)) for i in range(3)]
        assert isinstance(vectorize_oracles(oracles, 3), PerReplicaBatchOracle)

    def test_mixed_classes_are_refused(self):
        oracles = lossy_oracles(4, 0.2, 2) + [FaultFreeOracle(4)]
        assert isinstance(vectorize_oracles(oracles, 3), PerReplicaBatchOracle)

    @pytest.mark.parametrize(
        "odd_one",
        [
            lambda seed: RandomOmissionOracle(4, 0.3, rng=SeededRng(seed)),
            lambda seed: RandomOmissionOracle(
                4, 0.2, rng=SeededRng(seed), always_hear_self=False
            ),
        ],
        ids=["loss_probability", "always_hear_self"],
    )
    def test_differing_parameters_are_refused(self, odd_one):
        oracles = lossy_oracles(4, 0.2, 2) + [odd_one(99)]
        assert isinstance(vectorize_oracles(oracles, 3), PerReplicaBatchOracle)

    def test_differing_n_reaches_the_fallback_loop(self):
        # The dual refuses; the per-replica loop then rejects the batch.
        oracles = lossy_oracles(4, 0.2, 2) + [RandomOmissionOracle(5, 0.2)]
        with pytest.raises(ValueError, match="one system size"):
            vectorize_oracles(oracles, 3)

    def test_queried_oracle_is_refused(self):
        oracles = lossy_oracles(4, 0.2, 3)
        oracles[2].ho_mask(1, 0)
        assert isinstance(vectorize_oracles(oracles, 3), PerReplicaBatchOracle)

    def test_shared_stream_is_refused(self):
        rng = SeededRng(3)
        oracles = [RandomOmissionOracle(4, 0.2, rng=rng) for _ in range(2)]
        assert oracles[0]._stream is oracles[1]._stream
        assert isinstance(vectorize_oracles(oracles, 2), PerReplicaBatchOracle)

    def test_same_oracle_twice_is_refused(self):
        oracle = RandomOmissionOracle(4, 0.2, rng=SeededRng(3))
        assert isinstance(vectorize_oracles([oracle, oracle], 2), PerReplicaBatchOracle)

    def test_dual_needs_query_order(self):
        dual = vectorize_oracles(lossy_oracles(4, 0.2, 2), 2)
        assert needs_query_order(dual)

    def test_intersect_with_one_loss_component_decomposes(self):
        n, replicas = 5, 3
        oracles = [
            IntersectOracle(
                n,
                StaticCrashOracle(n, {n - 1: 2}),
                RandomOmissionOracle(n, 0.4, rng=SeededRng(10 + i)),
            )
            for i in range(replicas)
        ]
        batch = vectorize_oracles(oracles, replicas)
        assert isinstance(batch, IntersectBatchOracle)
        assert any(isinstance(c, RandomOmissionBatchDual) for c in batch.components)
        assert needs_query_order(batch)


def _lossy_plans(builder_name, algorithm_or_family, n, seeds, **kwargs):
    if builder_name == "classic":
        return build_classic_batch(
            "lossy", n=n, seeds=seeds, algorithm=algorithm_or_family, rounds=30, **kwargs
        )
    return build_round_adversary_batch(
        "lossy", n=n, seeds=seeds, family=algorithm_or_family, rounds=30, **kwargs
    )


LOSSY_CELLS = [
    ("classic", "otr"),
    ("classic", "uv"),
    ("classic", "lv"),
    ("round", "mobile-omission"),
    ("round", "bursty-loss"),
]


@needs_numpy
@pytest.mark.parametrize("builder,which", LOSSY_CELLS)
class TestBackendsOnLossyCells:
    def test_cell_oracle_uses_the_loss_twin(self, builder, which):
        plan = _lossy_plans(builder, which, 7, range(4))
        batch = vectorize_oracles([task.oracle for task in plan.batch.tasks], 4)
        assert not isinstance(batch, PerReplicaBatchOracle)
        components = getattr(batch, "components", (batch,))
        assert any(isinstance(c, RandomOmissionBatchDual) for c in components)

    @pytest.mark.parametrize("backend", ["batch", "super"])
    def test_monitored_fingerprinted_cell_matches_scalar(self, builder, which, backend):
        def build():
            plan = _lossy_plans(
                builder, which, 7, range(5), predicates=MONITOR_NAMES
            )
            return dataclasses.replace(plan.batch, fingerprints=True)

        reference = get_backend("scalar").run(build())
        runner = get_backend(backend)
        outcomes = runner.run(build())
        if backend == "batch":
            assert runner.last_fallback_reason is None
        assert outcomes == reference
        assert all(o.fingerprint is not None for o in outcomes)
        assert all(o.predicate_reports is not None for o in outcomes)

    def test_super_batched_grid_matches_scalar(self, builder, which):
        from repro.batch import SuperBatchBackend

        def build():
            return [
                _lossy_plans(builder, which, n, range(3 * n, 3 * n + 4)).batch
                for n in (5, 9, 66)
            ]

        super_backend = SuperBatchBackend()
        outcomes = super_backend.run_batches(build())
        assert super_backend.last_fallback_reasons == {}
        reference = [get_backend("scalar").run(batch) for batch in build()]
        assert outcomes == reference
