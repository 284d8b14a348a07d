"""Deterministic named random-number streams.

Every stateful stochastic decision in the simulator (backoff draws,
bit-error sampling, topology placement, ...) pulls from a *named* stream so
that adding randomness to one component never perturbs another.  Streams are
derived from a single root seed with ``numpy``'s ``SeedSequence.spawn``-style
keying on ``crc32(name)``, so a run is fully determined by
``(root_seed, stream names used)``.

A stream's values depend only on the root seed and its name, never on when
(or whether) other streams were built.  Components therefore resolve their
stream on first draw: a MAC looks up ``mac.{name}`` at its first backoff and
a radio ``biterrors.{name}`` at its first bit-error draw, so a large scene
builds generators only for the nodes that draw.  :meth:`RngStreams.stream`
is the one place a generator is built.

Per-packet fading keeps no stream at all: its draws are a pure function of
a link key derived from :attr:`RngStreams.root_seed` and the source's
transmit counter (:mod:`repro.phy.fading`).
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed)!r}")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator object within one
        :class:`RngStreams` instance, and to an identically-seeded generator
        across instances built with the same root seed.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Key the child seed on a stable hash of the name: independent of
            # creation order and of Python's randomized str hashing.
            name_key = zlib.crc32(name.encode("utf-8"))
            seed_seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(name_key,)
            )
            generator = np.random.Generator(np.random.PCG64(seed_seq))
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RngStreams":
        """Derive an independent :class:`RngStreams` (e.g. per repetition)."""
        return RngStreams(root_seed=(self.root_seed * 1_000_003 + salt) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"
