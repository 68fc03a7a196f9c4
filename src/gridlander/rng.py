"""Deterministic random streams.

Every stochastic component in the package draws from :class:`Rng`, a thin
wrapper around the Philox4x32-10 counter-based generator. A 64-bit seed
fully determines the stream, and the stream is identical on every platform
for a given seed. Independent substreams are derived by mixing a tag into
the seed with SplitMix64, so sibling streams never overlap in practice.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """Seeded counter-based random stream (Philox4x32-10)."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, tag: int) -> "Rng":
        """Independent child stream for the given tag."""
        return Rng(_splitmix64(self.seed ^ _splitmix64(int(tag))))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, n: int, size=None):
        """Uniform integers on [0, n)."""
        return self._gen.integers(0, n, size=size)

    def normal(self, size=None, std: float = 1.0):
        return self._gen.normal(0.0, std, size)

    def truncated_normal(self, size, std: float, clip: float = 2.0) -> np.ndarray:
        """Normal(0, std) resampled until every entry lies within clip*std."""
        out = np.asarray(self._gen.normal(0.0, std, size))
        flat = out.reshape(-1)  # a view: the generator returns a contiguous array
        idx = np.flatnonzero(np.abs(flat) > clip * std)
        while idx.size:  # only the entries just redrawn can still be out of range
            redrawn = self._gen.normal(0.0, std, idx.size)
            flat[idx] = redrawn
            idx = idx[np.abs(redrawn) > clip * std]
        return out

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)
