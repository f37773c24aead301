"""Counter-based random streams.

Every random draw in the library comes from Philox keyed by a SeedSequence
spawn key.  Dropout reads one stream per (seed, role, step) in draw order, so
its masks are a function of (seed, role, step) and of the order and shapes
of the draws within the step, which the model code fixes.  This makes runs
reproducible bit for bit, lets a resumed run replay the exact draws of the
uninterrupted one, and keeps the online and target models on independent
streams, so one model's forward passes never perturb the other's draws.  A
mask drops a unit with probability exactly ceil(rate * 2^16) / 2^16, less
than 2^-16 above ``rate``.
"""

import math
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
    """A per-role stream of dropout masks: ``begin_step(step)`` restarts it
    at that step, and each ``keep(shape, rate)`` reads its next block."""

    def __init__(self, seed: int, role: int):
        self.seed = int(seed)
        self.role = int(role)
        self.begin_step(0)

    def begin_step(self, step: int) -> None:
        self.step = int(step)
        self._gen = generator(self.seed, self.role, self.step)

    def keep(self, shape, rate: float) -> np.ndarray:
        """A boolean mask, each entry False with probability ceil(rate * 2^16) / 2^16."""
        bits = self._gen.integers(0, 1 << 16, size=shape, dtype=np.uint16)
        return bits >= math.ceil(rate * 65536)
