"""Named random streams.

Every stochastic component of an experiment (topology, tree growth, link
loss, each protocol's timers) draws from its own ``numpy`` Generator
derived from a single experiment seed via ``SeedSequence.spawn``-style
keyed derivation.  Two consequences we rely on:

* experiments are exactly reproducible from one integer seed;
* changing how many random numbers one component uses (say, a
  protocol draws an extra timer) does not perturb any other component,
  so protocol comparisons stay paired on identical topologies and can
  share loss realizations when configured to.
"""

from __future__ import annotations

import numpy as np


class RngStreams:
    """A family of independently-seeded generators keyed by name."""

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream is seeded from ``(experiment seed, stable hash of
        name)`` so the mapping is stable across runs and processes
        (``hash()`` is salted per process, so we roll our own).
        """
        stream = self._streams.get(name)
        if stream is None:
            key = _stable_key(name)
            stream = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            )
            self._streams[name] = stream
        return stream

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.get(name)


def _stable_key(name: str) -> int:
    """FNV-1a over the UTF-8 bytes — stable across processes/platforms."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
