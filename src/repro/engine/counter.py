"""Counter-based random draws: hash ``(stream_key, counters...)``, no state.

The dynamic adversary families used to draw from sequential
``random.Random`` sub-streams, which forces a strict draw *order*: the
value of the k-th draw depends on the k-1 draws before it, so a vectorised
consumer must replay the exact scalar query sequence -- the reason those
families took the per-replica fallback loop in the batch backends.

A *counter-based* stream removes the order dependence: every draw is a pure
function of the stream key and a tuple of integer counters (round, process,
sender, a draw-type tag), computed with the splitmix64 finalizer.  Any
consumer -- the scalar oracle, a replica-vectorised batch dual, a prefix
re-query -- obtains bit-identical values, in any order, at any granularity.
The key is still derived with :func:`repro.engine.rng.derive_seed`, so the
``SeededRng`` contracts (named-stream isolation, ``replicate(i)`` ==
single run with ``seed + i``) carry over unchanged.

Two implementations of the same function live here and are pinned equal by
the draw-order-invariance tests:

* the pure-Python scalar path (:func:`counter_hash`, :class:`CounterStream`),
* the numpy array path (:func:`counter_hash_array`, :func:`units_of_array`),
  written entirely in ``uint64`` arithmetic (constants are ``np.uint64``:
  numpy 1.x silently promotes ``uint64 op python-int`` to float64, which
  would destroy the wraparound semantics).

Uniform doubles are ``(h >> 11) * 2^-53`` -- the top 53 bits of the hash,
exactly representable in a float64, so the scalar and array paths agree bit
for bit.
"""

from __future__ import annotations

from typing import Any, Sequence

_MASK64 = (1 << 64) - 1

#: golden-ratio increment of the splitmix64 state walk.
_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: scale of the 53-bit uniform: ``2 ** -53``, exact in binary floating point.
_UNIT_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijective scramble of one 64-bit word."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def counter_hash(key: int, *counters: int) -> int:
    """A 64-bit hash of ``(key, counters...)``: one draw, order-independent.

    Each counter is absorbed with a golden-ratio state bump followed by the
    splitmix64 scramble, so draws with a different counter tuple (including
    a different arity) are decorrelated.  Callers distinguish draw *types*
    by a leading tag counter, which keeps tuples of different types from
    being prefix extensions of one another.
    """
    z = key & _MASK64
    for counter in counters:
        z = (z + _PHI) & _MASK64
        z = mix64(z ^ (counter & _MASK64))
    return z


def unit_of(h: int) -> float:
    """Map a 64-bit hash to a uniform double in ``[0, 1)`` (top 53 bits)."""
    return (h >> 11) * _UNIT_SCALE


class CounterStream:
    """One named stream of counter-addressed draws under a fixed 64-bit key.

    The scalar-side face of counter-based randomness: oracles call
    :meth:`unit` / :meth:`mod` with their counter tuples, batch duals reuse
    :attr:`key` with the array implementation, and both obtain the same
    values because there is no sequence position to disagree on.
    """

    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key & _MASK64

    def hash(self, *counters: int) -> int:
        """The raw 64-bit draw at *counters*."""
        return counter_hash(self.key, *counters)

    def unit(self, *counters: int) -> float:
        """A uniform double in ``[0, 1)`` at *counters*."""
        return unit_of(counter_hash(self.key, *counters))

    def below(self, probability: float, *counters: int) -> bool:
        """A Bernoulli(*probability*) draw at *counters*."""
        return unit_of(counter_hash(self.key, *counters)) < probability

    def mod(self, modulus: int, *counters: int) -> int:
        """A draw in ``range(modulus)`` at *counters* (negligible modulo bias)."""
        return counter_hash(self.key, *counters) % modulus

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CounterStream(key=0x{self.key:016x})"


# --------------------------------------------------------------------------- #
# the numpy dual: identical values, computed array-wide
# --------------------------------------------------------------------------- #


def _mix64_array(np: Any, z: Any, scratch: Any) -> Any:
    """The splitmix64 finalizer, in place on the uint64 array *z*.

    *scratch* is a buffer of *z*'s shape that holds each shifted copy, so
    the whole scramble allocates nothing.
    """
    u64 = np.uint64
    np.bitwise_xor(z, np.right_shift(z, u64(30), out=scratch), out=z)
    np.multiply(z, u64(_MIX1), out=z)
    np.bitwise_xor(z, np.right_shift(z, u64(27), out=scratch), out=z)
    np.multiply(z, u64(_MIX2), out=z)
    np.bitwise_xor(z, np.right_shift(z, u64(31), out=scratch), out=z)
    return z


def counter_hash_array(np: Any, keys: Any, counters: Sequence[Any]) -> Any:
    """The array form of :func:`counter_hash`, broadcasting over all inputs.

    *keys* and every entry of *counters* may be scalars or arrays of any
    mutually broadcastable shapes; the result has the broadcast shape and
    dtype uint64, bit-identical to the scalar function element-wise.

    The chain works in place on one array of the running broadcast shape
    (plus one reused scratch buffer), reallocating only when a counter
    widens the shape.  The first operation always allocates, so neither
    *keys* nor any counter array is ever written.
    """
    # Every operation writes into an array (never a numpy scalar), so the
    # uint64 wraparound raises no overflow warning even for 0-d inputs.
    z = np.asarray(keys, dtype=np.uint64)
    phi = np.uint64(_PHI)
    scratch = None
    for counter in counters:
        counter = np.asarray(counter, dtype=np.uint64)
        if scratch is None:  # the first link: never write into the caller's keys
            z = np.add(z, phi, out=np.empty(z.shape, dtype=np.uint64))
        else:
            np.add(z, phi, out=z)
        shape = z.shape if counter.ndim == 0 else np.broadcast_shapes(z.shape, counter.shape)
        if shape == z.shape:
            np.bitwise_xor(z, counter, out=z)
        else:
            z = np.bitwise_xor(z, counter, out=np.empty(shape, dtype=np.uint64))
        if scratch is None or scratch.shape != shape:
            scratch = np.empty(shape, dtype=np.uint64)
        _mix64_array(np, z, scratch)
    return z


def units_of_array(np: Any, hashes: Any) -> Any:
    """The array form of :func:`unit_of`: uniform float64 in ``[0, 1)``."""
    units = (hashes >> np.uint64(11)).astype(np.float64)
    units *= _UNIT_SCALE
    return units


#: the fused compiled kernel, resolved on first use: False = unresolved,
#: None = unavailable (no numba), else repro.compiled.kernels.counter_units.
_FUSED_UNITS: Any = False


def units_of_counters(np: Any, keys: Any, counters: Sequence[Any]) -> Any:
    """``units_of_array(counter_hash_array(keys, counters))``, fused.

    The hot form of a counter-based uniform draw: when numba is available
    the hash chain and the unit scaling run as one nopython pass with no
    intermediate hash array (:func:`repro.compiled.kernels.counter_units`);
    otherwise the two-step numpy path runs.  Bit-identical either way --
    the top 53 hash bits scale to a float64 exactly.

    The compiled module is imported lazily at first use (this module sits
    below :mod:`repro.compiled` in the layering DAG) and the resolution is
    cached for the life of the process, like :data:`repro._optional.NUMBA`.
    """
    global _FUSED_UNITS
    if _FUSED_UNITS is False:
        from .._optional import have_numba

        if have_numba():
            from ..compiled.kernels import counter_units

            _FUSED_UNITS = counter_units
        else:
            _FUSED_UNITS = None
    if _FUSED_UNITS is not None:
        return _FUSED_UNITS(np, keys, counters)
    return units_of_array(np, counter_hash_array(np, keys, counters))


__all__ = [
    "mix64",
    "counter_hash",
    "unit_of",
    "CounterStream",
    "counter_hash_array",
    "units_of_array",
    "units_of_counters",
]
