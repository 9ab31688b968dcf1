"""Deterministic random-number streams.

Every stochastic component of the simulator draws from its own named stream
derived from a single root seed, so that (a) whole-fleet simulations are
reproducible bit-for-bit, and (b) adding randomness to one component does not
perturb the draws seen by any other component.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = ["SeedSequenceFactory", "stable_hash", "stream"]


_MASK64 = (1 << 64) - 1


def _rotl64(x: int, bits: int) -> int:
    return ((x << bits) | (x >> (64 - bits))) & _MASK64


def _sip_round(v0: int, v1: int, v2: int, v3: int):
    v0 = (v0 + v1) & _MASK64
    v2 = (v2 + v3) & _MASK64
    v1 = _rotl64(v1, 13) ^ v0
    v3 = _rotl64(v3, 16) ^ v2
    v0 = _rotl64(v0, 32)
    v2 = (v2 + v1) & _MASK64
    v0 = (v0 + v3) & _MASK64
    v1 = _rotl64(v1, 17) ^ v2
    v3 = _rotl64(v3, 21) ^ v0
    v2 = _rotl64(v2, 32)
    return v0, v1, v2, v3


def stable_hash(s: str) -> int:
    """A process-independent string hash for deriving stream indices.

    The builtin ``hash(str)`` is salted per process (``PYTHONHASHSEED``),
    so seeding from it makes a seeded run differ between processes.  This
    is SipHash-1-3 with an all-zero key over the UTF-8 bytes of ``s``,
    returned as a signed 64-bit integer with -1 mapped to -2 and the empty
    string hashing to 0 — on CPython 3.11+ exactly ``hash(s)`` under
    ``PYTHONHASHSEED=0`` for ASCII strings, so ids derived before this
    function existed keep their streams.
    """
    data = s.encode("utf-8")
    if not data:
        return 0
    v0 = 0x736F6D6570736575
    v1 = 0x646F72616E646F6D
    v2 = 0x6C7967656E657261
    v3 = 0x7465646279746573
    whole = len(data) - len(data) % 8
    for i in range(0, whole, 8):
        m = int.from_bytes(data[i : i + 8], "little")
        v3 ^= m
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
        v0 ^= m
    b = ((len(data) & 0xFF) << 56) | int.from_bytes(data[whole:], "little")
    v3 ^= b
    v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    v0 ^= b
    v2 ^= 0xFF
    for _ in range(3):
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    h = v0 ^ v1 ^ v2 ^ v3
    if h >= 1 << 63:
        h -= 1 << 64
    return -2 if h == -1 else h


class SeedSequenceFactory:
    """Derives independent, reproducible RNG streams from one root seed.

    Streams are identified by string names (plus optional integer indices),
    hashed into spawn keys, so the same ``(seed, name)`` pair always yields
    the same stream regardless of creation order.

    Example::

        rngs = SeedSequenceFactory(42)
        workload_rng = rngs.stream("workload", job_id=7)
        arena_rng = rngs.stream("zsmalloc")
    """

    def __init__(self, root_seed: int = 0):
        if root_seed < 0:
            raise ConfigurationError(
                f"root seed must be non-negative, got {root_seed}"
            )
        self.root_seed = int(root_seed)

    def stream(self, name: str, **indices: int) -> np.random.Generator:
        """Return the generator for the named stream.

        Args:
            name: a stable component name, e.g. ``"workload"``.
            **indices: optional integer coordinates (job id, machine id, ...)
                that distinguish sibling streams within a component.
        """
        key = name + "".join(f"/{k}={v}" for k, v in sorted(indices.items()))
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        seq = np.random.SeedSequence([self.root_seed, *words])
        return np.random.default_rng(seq)

    def fork(self, name: str, **indices: int) -> "SeedSequenceFactory":
        """Return a child factory whose streams are disjoint from this one."""
        child = self.stream(name, **indices).integers(0, 2**31 - 1)
        return SeedSequenceFactory(int(child))


def stream(seed: int, name: str, **indices: int) -> np.random.Generator:
    """One-shot convenience wrapper around :class:`SeedSequenceFactory`."""
    return SeedSequenceFactory(seed).stream(name, **indices)
