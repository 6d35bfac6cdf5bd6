"""Deterministic, splittable random streams.

Every source of randomness in the library flows through :class:`Rng` so that
runs are reproducible bit-for-bit.  The seed-to-stream mapping is fixed and
documented here:

    stream(seed, path) = PCG64(SeedSequence([seed, h(p1), h(p2), ...]))

where ``path`` is the sequence of labels passed to :meth:`split` and ``h`` is
the first 8 bytes of SHA-256 of the label's string form, read little-endian.
Splitting by distinct labels therefore yields statistically independent
streams, and the same ``(seed, path)`` always reproduces the same values on
any platform.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError, is_integer


def _label_key(label: str | int) -> int:
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """A named, splittable wrapper around numpy's PCG64 generator."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if not is_integer(seed):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self._path = _path
        entropy = [self.seed, *(_path)]
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def split(self, label: str | int) -> "Rng":
        """Derive an independent child stream identified by ``label``."""
        return Rng(self.seed, self._path + (_label_key(label),))

    def normal(self, shape: tuple[int, ...] | int, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape).astype(np.float64)

    def uniform(self, shape: tuple[int, ...] | int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float64)

    def integers(self, low: int, high: int, shape: tuple[int, ...] | int | None = None):
        return self._gen.integers(low, high, size=shape)
