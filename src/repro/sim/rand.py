"""Deterministic random-number streams for simulation components.

Every stochastic component (network jitter, workload key choice, client
think time, ...) draws from its own named stream derived from a single root
seed.  Streams are independent, so adding a new random consumer does not
perturb the draws seen by existing components -- benchmark numbers only
move when the modelled system changes, not when unrelated code does.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name."""
    digest = hashlib.sha256(("%d/%s" % (root_seed, name)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, independently-seeded ``random.Random`` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng
