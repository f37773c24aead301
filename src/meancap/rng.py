"""Counter-based random streams.

Every random draw in the library is a pure function of (seed, role, step,
counter), realised through Philox keyed by a SeedSequence spawn key.  This
makes training runs reproducible bit for bit, lets a resumed run replay the
exact draws of the uninterrupted one, and keeps the online and target models
on independent streams so that adding or removing one model's forward pass
never perturbs the other's randomness.
"""

import zlib

import numpy as np

# Stream roles. Keeping them as fixed small integers (rather than hashes of
# strings chosen at call sites) guards against accidental collisions.
ROLE_INIT = 1      # parameter initialisation
ROLE_ONLINE = 2    # dropout in the online model
ROLE_TARGET = 3    # dropout in the target model
ROLE_BATCH = 4     # batch sampling in the training loop
ROLE_DATA = 5      # synthetic dataset generation


def generator(seed: int, *key: int) -> np.random.Generator:
    """A fresh Philox generator keyed by (seed, *key)."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def name_key(name: str) -> int:
    """Stable integer key for a parameter name (Python's hash() is salted)."""
    return zlib.crc32(name.encode("utf-8"))


class KeyedRng:
    """A per-role stream of draws indexed by (step, call counter).

    Usage: call ``begin_step(step)`` once per training step, then each
    ``uniform(shape)`` call consumes the next counter value.  Draws depend
    only on (seed, role, step, counter), never on how many draws other
    streams made.
    """

    def __init__(self, seed: int, role: int):
        self.seed = int(seed)
        self.role = int(role)
        self.step = 0
        self._counter = 0

    def begin_step(self, step: int) -> None:
        self.step = int(step)
        self._counter = 0

    def uniform(self, shape) -> np.ndarray:
        g = generator(self.seed, self.role, self.step, self._counter)
        self._counter += 1
        return g.random(shape)
