"""Reproducible named random streams.

Every stochastic component in the PiCloud model (traffic generators, request
arrival processes, failure injectors) draws from a named stream obtained
from one :class:`RngRegistry`.  Streams are seeded by hashing the master
seed with the stream name using SHA-256, so results are stable across
processes and Python versions (``hash()`` would not be, under
``PYTHONHASHSEED`` randomisation) and independent of the order in which
streams are created.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """A factory of deterministic, independent ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same ``(seed, name)`` pair always yields an identical sequence.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def fork(self, suffix: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per experiment repetition)."""
        digest = hashlib.sha256(f"{self.seed}/{suffix}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
