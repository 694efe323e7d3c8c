"""Seeded, splittable random streams.

Reproducibility is a first-class requirement of the experiment harness: every
experiment row must be regenerable exactly from its seed.  This module
provides a tiny helper to derive independent named sub-streams from a master
seed, so that e.g. the mobility stream and the channel-loss stream do not
interfere (adding a stochastic component never perturbs the others).

Batched streams
---------------
A world needs one stream per node (GRP's jittered ``Tc``/``Ts`` timers, a
traffic workload's per-node sends).  ``np.random.default_rng(seed)`` spends
most of its time hashing the seed through ``SeedSequence``, one seed at a
time.  :func:`generators` runs the same hashing over a whole batch of seeds
at once, on ``uint32`` arrays:

1. the seed's two 32-bit words (low, high) and two zero words fill a pool of
   4 words through ``hashmix`` (hash constant ``0x43b0d7e5``, multiplier
   ``0x931e8875``);
2. every pool word is mixed into every other one (``mix``, multipliers
   ``0xca01f9dd`` and ``0x4973f715``);
3. ``generate_state(4, uint64)`` cycles the pool through a second hash
   (constant ``0x8b51f9dd``, multiplier ``0x58f38ded``) into 8 words, read
   little-endian as 4 ``uint64`` words.

Each ``PCG64`` is then seeded from its precomputed words through
:class:`PrecomputedSeed`.  A seed below ``2**32`` is one entropy word in
numpy, and a missing pool word hashes as zero, so one formula covers every
seed in ``[0, 2**63)``.

Equality contract: ``generators(seeds)[i]`` has exactly the
``bit_generator.state`` of ``np.random.default_rng(seeds[i])``, hence the
same draws; only ``bit_generator.seed_seq`` differs (it cannot ``spawn``).
``default_rng`` stays the reference (``tests/test_seeded_streams.py``) and
the path of every one-off stream.  NumPy's random policy (NEP 19) freezes
only the legacy ``RandomState`` streams; ``SeedSequence``'s algorithm has
been unchanged since numpy 1.17, but a numpy release may change it, and the
contract tests would then fail against the installed version.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["derive_seed", "substream", "generators", "PrecomputedSeed",
           "SeedSequenceFactory"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def derive_seed(master_seed: Optional[int], name: str) -> int:
    """Derive a deterministic 63-bit seed for the sub-stream ``name``.

    The derivation hashes ``(master_seed, name)`` with SHA-256 so that streams
    with different names are statistically independent and stable across runs
    and platforms.
    """
    base = "entropy" if master_seed is None else str(int(master_seed))
    digest = hashlib.sha256(f"{base}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)


def substream(master_seed: Optional[int], name: str) -> np.random.Generator:
    """Return an independent generator for the named sub-stream."""
    if master_seed is None:
        return np.random.default_rng()
    return np.random.default_rng(derive_seed(master_seed, name))


class PrecomputedSeed(ISeedSequence):
    """Seed words of one ``PCG64``, already computed by :func:`generators`.

    ``PCG64`` asks its seed sequence for ``generate_state(4, uint64)`` once,
    at construction; this returns the words ``SeedSequence(seed)`` would.
    Module-level so a seeded generator pickles (sharded snapshots).
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed holds only the 4 uint64 words "
                             "PCG64 asks for")
        return self.words


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, uint64)`` for every ``s``, as one
    ``(len(seeds), 4)`` array (``seeds``: uint64 in ``[0, 2**63)``)."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32),
               (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)

    state = np.empty((len(seeds), 2 * _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


def generators(seeds: Sequence[int]) -> List[np.random.Generator]:
    """One ``Generator`` per seed, each equal to ``np.random.default_rng(seed)``.

    The ``SeedSequence`` hashing runs once over the whole batch (see the
    module docstring), so a batch of 1,000 costs a fraction of 1,000
    ``default_rng`` calls; a batch of one costs more than one ``default_rng``
    call, so one-off streams keep ``default_rng``.  Every seed must be an
    integer in ``[0, 2**63)`` (a list or an integer array); anything else
    raises ``ValueError``.
    """
    values = np.asarray(seeds)
    if values.size == 0:
        return []
    if (values.ndim != 1 or values.dtype.kind not in "iu"
            or values.min() < 0 or values.max() >= 2**63):
        raise ValueError("seeds must be a flat sequence of integers in [0, 2**63)")
    return [np.random.Generator(np.random.PCG64(PrecomputedSeed(words)))
            for words in _seed_words(values.astype(np.uint64))]


class SeedSequenceFactory:
    """Factory handing out named sub-streams of a master seed.

    Examples
    --------
    >>> factory = SeedSequenceFactory(42)
    >>> mobility_rng = factory.stream("mobility")
    >>> channel_rng = factory.stream("channel")
    """

    def __init__(self, master_seed: Optional[Union[int, np.integer]] = None):
        self._master_seed = None if master_seed is None else int(master_seed)

    @property
    def master_seed(self) -> Optional[int]:
        """The master seed (``None`` means OS entropy)."""
        return self._master_seed

    def seed_for(self, name: str) -> Optional[int]:
        """Deterministic seed derived for ``name``; ``None`` (OS entropy, as
        :meth:`stream` draws) when the master seed is ``None``."""
        if self._master_seed is None:
            return None
        return derive_seed(self._master_seed, name)

    def stream(self, name: str) -> np.random.Generator:
        """Independent generator for the named sub-stream."""
        return substream(self._master_seed, name)
