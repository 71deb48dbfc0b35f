"""Splittable, reproducible random streams.

Every stochastic operation in the package takes an explicit RngStream.
A stream is identified by a 64-bit seed plus a key path; the same
(seed, key) always yields the same draw sequence, and distinct keys give
statistically independent streams via numpy's SeedSequence spawning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RngStream:
    seed: int
    key: tuple[int, ...] = field(default_factory=tuple)

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream. child(i) != child(j) for i != j."""
        return RngStream(self.seed, self.key + (int(index),))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(seq))
