"""Event timing and reproducible randomness for the simulators.

Continuous time uses per-node unit-rate Poisson clocks, realized by
thinning: only active tokens are sampled, with a single exponential at
rate equal to the active count followed by a uniform choice of the
firing token.  Discrete time advances in synchronized rounds with a
lazy-hold probability.  Every run is a pure function of its seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class Continuous:
    """Asynchronous unit-rate Poisson clocks, simulated by thinning."""

    name: str = "continuous"


@dataclass(frozen=True)
class SynchronousDiscrete:
    """Synchronized rounds; each token holds with probability ``lazy_prob``.

    The default 1/2 kills parity effects on bipartite graphs, matching
    the lazy-walk convention under which heat-kernel lower bounds hold.
    """

    lazy_prob: float = 0.5
    name: str = "discrete"

    def __post_init__(self):
        if not 0.0 <= self.lazy_prob < 1.0:
            raise ValueError("lazy_prob must lie in [0, 1)")


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


class BlockSampler:
    """Draws uniforms and unit exponentials from pre-filled blocks.

    Consumption order is strictly sequential, so results are a
    deterministic function of the underlying generator state while
    amortizing per-call overhead in event loops.  A block is drawn when
    the previous one is used up and the next draw is asked for.

    Blocks are float64 arrays, which the compiled walk (``_walk``) reads
    in place.  A block's list of Python floats, which ``uniform`` and
    ``exponential`` index, is built when Python first draws from it: until
    then ``_uend``/``_eend`` equal the cursor, so that first draw takes
    the slow path and the others cost no extra branch.
    """

    __slots__ = ("_rng", "_block", "_ua", "_u", "_ui", "_uend", "_ea", "_e", "_ei", "_eend")

    def __init__(self, rng: np.random.Generator, block: int = 4096):
        self._rng = rng
        self._block = block
        self._ua = rng.random(block)
        self._ea = rng.standard_exponential(block)
        self._u = self._e = None
        self._ui = self._uend = self._ei = self._eend = 0

    def uniform(self) -> float:
        i = self._ui
        if i == self._uend:
            i = self._uniform_list()
        self._ui = i + 1
        return self._u[i]

    def exponential(self) -> float:
        """One Exp(1) draw."""
        i = self._ei
        if i == self._eend:
            i = self._exponential_list()
        self._ei = i + 1
        return self._e[i]

    def _uniform_list(self) -> int:
        if self._ui == self._block:
            self._refill_uniform()
        self._u = self._ua.tolist()
        self._uend = self._block
        return self._ui

    def _exponential_list(self) -> int:
        if self._ei == self._block:
            self._refill_exponential()
        self._e = self._ea.tolist()
        self._eend = self._block
        return self._ei

    def _refill_uniform(self) -> np.ndarray:
        self._ua = self._rng.random(self._block)
        self._ui = self._uend = 0
        return self._ua

    def _refill_exponential(self) -> np.ndarray:
        self._ea = self._rng.standard_exponential(self._block)
        self._ei = self._eend = 0
        return self._ea

    def _advance_to(self, ui: int, ei: int) -> None:
        """Move the cursors to where a compiled walk stopped reading the
        current blocks."""
        if self._uend != self._block:
            self._uend = ui
        if self._eend != self._block:
            self._eend = ei
        self._ui = ui
        self._ei = ei
