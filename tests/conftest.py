import weakref

import hypothesis
import numpy as np
import pytest

from tasalamouti import montecarlo

hypothesis.settings.register_profile(
    "package",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
hypothesis.settings.load_profile("package")


class DrawSpy:
    """Stands in for the draw generator ``montecarlo._family_blocks`` and
    the block generators of ``montecarlo._substream``.  Records the
    arguments of every generator call that returns (a refused key raises
    first), ``(n_bob, n_trials, seed, members)``; how many earlier
    generators were still alive when each call started; and, per block
    drawn, how many receiver rows and eavesdropper pairs it drew."""

    def __init__(self, generator, substream):
        self._generator = generator
        self._substream = substream
        self._refs = []
        self.calls = []
        self.blocks = []  # per block: {"rows": n, "pairs": n}
        self.most_held = 0

    def held(self) -> int:
        return sum(ref() is not None for ref in self._refs)

    @property
    def keys(self) -> list[tuple]:
        """The draw key (n_alice, n_bob, n_eve, n_trials, seed) of each
        member of each call."""
        return [
            (n_alice, n_bob, n_eve, n_trials, seed)
            for n_bob, n_trials, seed, members in self.calls
            for n_alice, n_eve in members
        ]

    def drawn(self, kind: str) -> list[int]:
        """Receiver ``"rows"`` or eavesdropper ``"pairs"`` drawn per block."""
        return [tally[kind] for tally in self.blocks]

    def __call__(self, *args, **kwargs):
        self.most_held = max(self.most_held, self.held())
        blocks = self._generator(*args, **kwargs)
        self.calls.append(args + tuple(kwargs.values()))
        self._refs.append(weakref.ref(blocks))
        return blocks

    def substream(self, seed, block):
        tally = {"rows": 0, "pairs": 0}
        self.blocks.append(tally)
        return _CountingGenerator(self._substream(seed, block), tally)


class _CountingGenerator:
    """A block's generator that tallies its ``standard_gamma`` calls: a
    receiver row is one call of one value per trial, an eavesdropper
    pair one call of a (rows, trials) array."""

    def __init__(self, rng, tally):
        self._rng = rng
        self._tally = tally
        self.bit_generator = rng.bit_generator

    def standard_gamma(self, shape, size):
        self._tally["pairs" if np.ndim(size) else "rows"] += 1
        return self._rng.standard_gamma(shape, size)


@pytest.fixture
def block_spy(monkeypatch):
    """A spy on the draw generator, which every Monte Carlo draw reads:
    ``count_outage`` and ``count_outage_grid`` alike."""
    spy = DrawSpy(montecarlo._family_blocks, montecarlo._substream)
    monkeypatch.setattr(montecarlo, "_family_blocks", spy)
    monkeypatch.setattr(montecarlo, "_substream", spy.substream)
    return spy
