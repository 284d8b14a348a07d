"""Small-scale per-packet channel variation.

Real testbed links do not see a single deterministic RSS: multipath,
orientation and interference make the received power of *each packet* vary
around the path-loss mean.  This spread is load-bearing for the paper's
Fig. 4 — the collided-packet receive rate (CPRR) is a *smooth* function of
channel frequency distance only because per-packet SINR is spread around its
mean (a deterministic SINR would make CPRR a step function, because the
802.15.4 BER curve is extremely steep).

We model the variation as a zero-mean log-normal term (in dB) drawn
independently per (transmission, receiver) pair.

Keyed draws
-----------
A draw is a pure function of ``(link key, counter)``, in the style of the
counter-based generators of Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3" (SC'11); there is no per-link generator state.

- The *link key* (:func:`link_keys`) is a 64-bit BLAKE2b hash of the root
  seed and the source and receiver names.  It does not depend on
  registration order or on which other links exist.
- The *counter* is the source's transmit sequence number, kept by the
  medium.

Each draw adds ``counter`` golden-ratio increments to the key and runs one
splitmix64 finaliser over the sum.  The top and bottom 16 bits of the hash
pick a uniform bin each, and Box-Muller turns the two bins into
``sigma * sqrt(-2 ln u1) * cos(2 pi u2)``, clipped to ``±clip_db``.  The
two Box-Muller factors are tabulated once per process at the 2^16 bin
centres with :mod:`math`, so a draw takes only integer ops, two table
reads, two float products and the clip: no SIMD transcendental can make
two evaluations disagree.  That is why the short-fanout Python loop and
the long-fanout numpy kernel return the same floats, and why a link's
draw never depends on the other links in the call — culling a link, or
registering another receiver, never moves another link's draws.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["FadingModel", "NoFading", "LogNormalFading", "link_keys"]

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TABLE_BITS = 16
_TABLE_MASK = (1 << _TABLE_BITS) - 1
_RADIUS_SHIFT = 64 - _TABLE_BITS

#: Fanouts up to this many links draw in a Python loop, longer ones in
#: numpy.  The numpy kernel's ~14 ufunc calls cost ~10 us of dispatch
#: whatever the length, the loop ~0.7 us per link; they break even near
#: 14 links (testbed fanouts average ~21, Fig. 4's are 3, scene5k's ~188).
SCALAR_MAX_LINKS = 14


# Operands as 0-d arrays: the cheapest form for numpy's ufunc dispatch.
def _u64(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint64)


_MIX1_U64, _MIX2_U64 = _u64(_MIX1), _u64(_MIX2)
_SHIFT1, _SHIFT2, _SHIFT3 = _u64(30), _u64(27), _u64(31)
_RADIUS_SHIFT_U64 = _u64(_RADIUS_SHIFT)
_TABLE_MASK_U64 = _u64(_TABLE_MASK)


def link_keys(root_seed: int, source: str, receivers: Sequence[str]) -> np.ndarray:
    """The uint64 link key of ``source`` → each of ``receivers``."""
    prefix = f"{root_seed}\0{source}\0".encode("utf-8")
    blake2b = hashlib.blake2b
    digests = b"".join(
        blake2b(prefix + name.encode("utf-8"), digest_size=8).digest()
        for name in receivers
    )
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _box_muller_tables() -> Tuple[array, array, np.ndarray, np.ndarray]:
    """``sqrt(-2 ln u)`` and ``cos(2 pi u)`` at the 2^16 bin centres ``u``.

    Built with :mod:`math` (~60 ms, once per process), as Python-indexable
    arrays plus numpy views of the same memory.
    """
    bins = 1 << _TABLE_BITS
    centres = [(i + 0.5) / bins for i in range(bins)]
    radius = array("d", [math.sqrt(-2.0 * math.log(u)) for u in centres])
    cosine = array("d", [math.cos(2.0 * math.pi * u) for u in centres])
    return radius, cosine, np.frombuffer(radius), np.frombuffer(cosine)


def _draws_loop(keys: List[int], counter: int, sigma: float,
                clip: float) -> List[float]:
    """The keyed draws in plain Python (the short-fanout evaluator)."""
    radius, cosine, _, _ = _box_muller_tables()
    increment = counter * _GAMMA
    neg_clip = -clip
    out = []
    for key in keys:
        z = (key + increment) & _M64
        z ^= z >> 30
        z = (z * _MIX1) & _M64
        z ^= z >> 27
        z = (z * _MIX2) & _M64
        z ^= z >> 31
        draw = sigma * radius[z >> _RADIUS_SHIFT] * cosine[z & _TABLE_MASK]
        if draw > clip:
            draw = clip
        elif draw < neg_clip:
            draw = neg_clip
        out.append(draw)
    return out


def _draws_numpy(keys: np.ndarray, counter: int, sigma: np.ndarray,
                 clip: np.ndarray, neg_clip: np.ndarray) -> np.ndarray:
    """The keyed draws in numpy, operation for operation as the loop."""
    _, _, radius, cosine = _box_muller_tables()
    z = np.add(keys, _u64(counter * _GAMMA & _M64))
    scratch = np.empty_like(z)
    np.bitwise_xor(z, np.right_shift(z, _SHIFT1, out=scratch), out=z)
    np.multiply(z, _MIX1_U64, out=z)
    np.bitwise_xor(z, np.right_shift(z, _SHIFT2, out=scratch), out=z)
    np.multiply(z, _MIX2_U64, out=z)
    np.bitwise_xor(z, np.right_shift(z, _SHIFT3, out=scratch), out=z)
    draws = radius.take(np.right_shift(z, _RADIUS_SHIFT_U64, out=scratch))
    np.multiply(draws, sigma, out=draws)
    np.multiply(
        draws,
        cosine.take(np.bitwise_and(z, _TABLE_MASK_U64, out=z)),
        out=draws,
    )
    np.minimum(draws, clip, out=draws)
    np.maximum(draws, neg_clip, out=draws)
    return draws


class FadingModel:
    """Interface: per-packet dB offset applied on top of path loss."""

    def sample_db_many(self, keys: np.ndarray, counter: int) -> np.ndarray:
        """One draw per link key (a uint64 column) for transmit ``counter``.

        Must be elementwise: a link's draw depends only on its key and
        the counter, never on the other keys in the column.
        """
        raise NotImplementedError

    def max_gain_db(self) -> float:
        """Largest dB offset :meth:`sample_db_many` can ever return.

        Used by the medium's band-audibility rule: a link whose best-case
        power (mean plus this headroom) misses the delivery floor does not
        exist.  Models with unbounded support must return ``inf`` (every
        link then exists).
        """
        return float("inf")


class NoFading(FadingModel):
    """Deterministic channel: every packet sees exactly the mean RSS."""

    def sample_db_many(self, keys: np.ndarray, counter: int) -> np.ndarray:
        return np.zeros(len(keys))

    def max_gain_db(self) -> float:
        return 0.0


class LogNormalFading(FadingModel):
    """Gaussian-in-dB per-packet variation.

    Parameters
    ----------
    sigma_db:
        Standard deviation of the per-packet offset.  4 dB reproduces the
        gradual CPRR-vs-CFD transition of Fig. 4; testbeds commonly report
        3-6 dB of per-packet RSS spread indoors.
    clip_db:
        Offsets are clipped to ±``clip_db`` to keep extreme draws from
        creating physically absurd link budgets.
    """

    def __init__(self, sigma_db: float = 4.0, clip_db: float = 12.0) -> None:
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        if clip_db <= 0:
            raise ValueError(f"clip_db must be > 0, got {clip_db}")
        self.sigma_db = sigma_db
        self.clip_db = clip_db
        self._sigma = np.array(float(sigma_db))
        self._clip = np.array(float(clip_db))
        self._neg_clip = np.array(-float(clip_db))
        _box_muller_tables()  # build at set-up, not on the first frame

    def max_gain_db(self) -> float:
        return self.clip_db if self.sigma_db > 0.0 else 0.0

    def sample_db_many(self, keys: np.ndarray, counter: int) -> np.ndarray:
        if self.sigma_db == 0.0:
            return np.zeros(len(keys))
        if len(keys) <= SCALAR_MAX_LINKS:
            return np.array(_draws_loop(
                keys.tolist(), counter, float(self.sigma_db),
                float(self.clip_db),
            ))
        return _draws_numpy(
            keys, counter, self._sigma, self._clip, self._neg_clip
        )
