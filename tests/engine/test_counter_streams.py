"""Draw-order invariance of the counter-based random streams.

The whole point of :mod:`repro.engine.counter` is that a draw is a pure
function of ``(stream key, counter tuple)`` -- no sequence position, no
hidden cursor.  These tests pin the properties the scalar oracles and the
batch duals both rely on: scalar/array bit-identity on every prefix, the
leading-tag decorrelation convention, the ``SeededRng`` named-stream and
``replicate(i)`` contracts, and basic uniformity sanity.
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy, require_numpy
from repro.engine.counter import (
    CounterStream,
    counter_hash,
    counter_hash_array,
    mix64,
    unit_of,
    units_of_array,
)
from repro.engine.rng import SeededRng, derive_seed

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")


class TestScalarStream:
    def test_draws_are_pure_functions_of_counters(self):
        """Query order cannot matter: re-asking yields the same value."""
        stream = CounterStream(derive_seed(7, "oracle.test"))
        forward = [stream.hash(r, q) for r in range(10) for q in range(5)]
        backward = [
            stream.hash(r, q) for r in reversed(range(10)) for q in reversed(range(5))
        ]
        backward.reverse()
        # backward iterated (r, q) in reverse lexicographic order; realign.
        realigned = [
            stream.hash(r, q) for r in range(10) for q in range(5)
        ]
        assert forward == realigned
        assert sorted(forward) == sorted(backward)

    def test_arity_and_leading_tag_decorrelate(self):
        """(a, b) is not a prefix extension of (a): tuples of different
        shapes and different leading tags give independent draws."""
        stream = CounterStream(123456789)
        assert stream.hash(3) != stream.hash(3, 0)
        assert stream.hash(0, 5, 2) != stream.hash(1, 5, 2)
        assert stream.hash(2, 7) != stream.hash(7, 2)

    def test_unit_in_range_and_deterministic(self):
        stream = CounterStream(42)
        units = [stream.unit(0, r, p) for r in range(50) for p in range(4)]
        assert all(0.0 <= u < 1.0 for u in units)
        assert units == [stream.unit(0, r, p) for r in range(50) for p in range(4)]

    def test_mod_and_below_derive_from_hash(self):
        stream = CounterStream(42)
        assert stream.mod(7, 1, 2) == stream.hash(1, 2) % 7
        assert stream.below(0.5, 1, 2) == (unit_of(stream.hash(1, 2)) < 0.5)

    def test_mix64_is_bijective_on_samples(self):
        values = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]
        assert len({mix64(v) for v in values}) == len(values)

    def test_unit_histogram_is_roughly_uniform(self):
        stream = CounterStream(derive_seed(0, "oracle.uniformity"))
        draws = [stream.unit(i) for i in range(4000)]
        buckets = [0] * 8
        for u in draws:
            buckets[int(u * 8)] += 1
        assert all(350 < b < 650 for b in buckets)


class TestSeededRngContract:
    def test_counter_stream_keys_are_name_separated(self):
        rng = SeededRng(11)
        a = rng.counter_stream("oracle.mobile")
        b = rng.counter_stream("oracle.partition")
        assert a.key != b.key
        assert a.key == SeededRng(11).counter_stream("oracle.mobile").key

    def test_replicate_matches_seed_plus_i(self):
        """replicate(i) == an independent run seeded seed + i, for counter
        streams exactly as for the sequential named streams."""
        base = SeededRng(100)
        for i in range(5):
            replica_key = base.replicate(i).counter_stream("oracle.burst").key
            direct_key = SeededRng(100 + i).counter_stream("oracle.burst").key
            assert replica_key == direct_key


@needs_numpy
class TestArrayDual:
    def test_bit_identity_on_every_prefix(self):
        """The numpy path equals the scalar path element for element --
        single counters, multi-counter tuples, and every prefix length."""
        np = require_numpy()
        key = derive_seed(3, "oracle.dual")
        stream = CounterStream(key)
        for arity in (1, 2, 3, 4):
            counters = [np.arange(64, dtype=np.uint64) + np.uint64(t) for t in range(arity)]
            hashes = counter_hash_array(np, np.uint64(key), counters)
            scalars = [
                stream.hash(*(int(c[i]) for c in counters)) for i in range(64)
            ]
            assert [int(h) for h in hashes] == scalars

    def test_units_bit_identical(self):
        np = require_numpy()
        key = derive_seed(9, "oracle.dual")
        stream = CounterStream(key)
        hashes = counter_hash_array(
            np, np.uint64(key), [np.uint64(0), np.arange(128, dtype=np.uint64)]
        )
        units = units_of_array(np, hashes)
        assert [float(u) for u in units] == [stream.unit(0, q) for q in range(128)]

    def test_broadcast_shapes(self):
        np = require_numpy()
        keys = np.array([1, 2, 3], dtype=np.uint64)[:, None]
        counters = [np.uint64(5), np.arange(4, dtype=np.uint64)[None, :]]
        hashes = counter_hash_array(np, keys, counters)
        assert hashes.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert int(hashes[i, j]) == counter_hash(i + 1, 5, j)

    def test_uint64_wraparound_not_promoted(self):
        """numpy 1.x promotes uint64 + python-int to float64; the array
        implementation must stay in uint64 (otherwise the wraparound --
        and hence bit-identity -- is destroyed)."""
        np = require_numpy()
        big = 2**64 - 1
        hashes = counter_hash_array(
            np, np.uint64(big), [np.array([big], dtype=np.uint64)]
        )
        assert hashes.dtype == np.uint64
        assert int(hashes[0]) == counter_hash(big, big)

    def test_zero_d_one_d_and_broadcast_shapes_equal_scalar(self):
        np = require_numpy()
        key = derive_seed(5, "oracle.shapes")
        zero_d = counter_hash_array(np, np.uint64(key), [np.uint64(2), np.uint64(9)])
        assert zero_d.shape == () and zero_d.dtype == np.uint64
        assert int(zero_d) == counter_hash(key, 2, 9)
        keys = np.array([key, key + 1, 7], dtype=np.uint64)
        one_d = counter_hash_array(np, keys, [np.uint64(4), np.arange(3, dtype=np.uint64)])
        assert [int(h) for h in one_d] == [
            counter_hash(int(k), 4, q) for q, k in enumerate(keys)
        ]
        # Keys (3, 1, 1) widened by a (4, 1) then a (1, 5) counter: the chain
        # reallocates twice and must still match element for element.
        rows = np.arange(4, dtype=np.uint64)[:, None]
        cols = np.arange(5, dtype=np.uint64)[None, :]
        wide = counter_hash_array(np, keys[:, None, None], [np.uint64(1), rows, cols])
        assert wide.shape == (3, 4, 5)
        assert all(
            int(wide[i, p, q]) == counter_hash(int(keys[i]), 1, p, q)
            for i in range(3) for p in range(4) for q in range(5)
        )
        units = units_of_array(np, wide)
        assert all(
            float(units[i, p, q]) == unit_of(counter_hash(int(keys[i]), 1, p, q))
            for i in range(3) for p in range(4) for q in range(5)
        )

    def test_inputs_are_never_written(self):
        """The first link allocates, so caller arrays survive the in-place chain."""
        np = require_numpy()
        keys = np.arange(1, 13, dtype=np.uint64).reshape(3, 4)
        counters = [np.full((3, 4), 6, dtype=np.uint64), np.arange(4, dtype=np.uint64)]
        saved = [keys.copy()] + [c.copy() for c in counters]
        hashes = counter_hash_array(np, keys, counters)
        hashes_before = hashes.copy()
        units_of_array(np, hashes)
        for array, copy in zip([keys] + counters, saved):
            assert np.array_equal(array, copy)
        assert np.array_equal(hashes, hashes_before)

    def test_prefix_continuation(self):
        """The chain is a fold: a cached (key, tag) state continues it."""
        np = require_numpy()
        keys = np.array([3, 2**64 - 1, derive_seed(1, "oracle.prefix")], dtype=np.uint64)
        rest = [np.uint64(11), np.arange(6, dtype=np.uint64)[None, :]]
        prefix = counter_hash_array(np, keys, [np.uint64(2)])
        continued = counter_hash_array(np, prefix[:, None], rest)
        direct = counter_hash_array(np, keys[:, None], [np.uint64(2)] + rest)
        assert np.array_equal(continued, direct)
        for key in keys.tolist():
            assert counter_hash(counter_hash(key, 2), 11, 5) == counter_hash(key, 2, 11, 5)
