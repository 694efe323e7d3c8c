"""Seeded, splittable random streams.

Reproducibility is a first-class requirement of the experiment harness: every
experiment row must be regenerable exactly from its seed.  This module
provides a tiny helper to derive independent named sub-streams from a master
seed, so that e.g. the mobility stream and the channel-loss stream do not
interfere (adding a stochastic component never perturbs the others).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

__all__ = ["derive_seed", "substream", "SeedSequenceFactory"]


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

    def seed_for(self, name: str) -> int:
        """Deterministic seed derived for ``name``."""
        return derive_seed(self._master_seed, name)

    def stream(self, name: str) -> np.random.Generator:
        """Independent generator for the named sub-stream."""
        return substream(self._master_seed, name)
