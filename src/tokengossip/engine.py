"""Event timing and reproducible randomness for the simulators.

Continuous time uses per-node unit-rate Poisson clocks, realized by
thinning: only active tokens are sampled, with a single exponential at
rate equal to the active count followed by a uniform choice of the
firing token.  Discrete time advances in synchronized rounds with a
lazy-hold probability.  Every run is a pure function of its seed: a
simulation state (``protocols.SimState``) holds its stream's generator,
and the walk kernel (``_walk``) and the Python code draw each variate from
it where it is used, in event order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class Continuous:
    """Asynchronous unit-rate Poisson clocks, simulated by thinning."""

    name: ClassVar[str] = "continuous"


@dataclass(frozen=True)
class SynchronousDiscrete:
    """Synchronized rounds; each token holds with probability ``lazy_prob``.

    The default 1/2 kills parity effects on bipartite graphs, matching
    the lazy-walk convention under which heat-kernel lower bounds hold.
    """

    lazy_prob: float = 0.5
    name: ClassVar[str] = "discrete"

    def __post_init__(self):
        if not (isinstance(self.lazy_prob, (int, float)) and 0.0 <= self.lazy_prob < 1.0):
            raise ValueError(f"lazy_prob must lie in [0, 1), not {self.lazy_prob!r}")


ClockMode = Continuous | SynchronousDiscrete


@dataclass(frozen=True)
class RngStream:
    """A named, independently reproducible random stream.

    Streams are split from the master seed with the documented rule
    ``SeedSequence(master_seed, spawn_key=(stream_id,))`` into PCG64: the
    same (seed, stream) pair always reproduces the same draws, and
    distinct stream ids are statistically independent, so trials can run
    in any order or concurrently.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

