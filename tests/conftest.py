import weakref

import hypothesis
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
    """Stands in for the block generator ``montecarlo._blocks``: records
    the arguments of every call that returns (a refused key raises
    first), and how many earlier block generators were still alive when
    each call started."""

    def __init__(self, original):
        self._original = original
        self._refs = []
        self.calls = []
        self.most_held = 0

    def held(self) -> int:
        return sum(ref() is not None for ref in self._refs)

    def __call__(self, *args, **kwargs):
        self.most_held = max(self.most_held, self.held())
        blocks = self._original(*args, **kwargs)
        self.calls.append(args + tuple(kwargs.values()))
        self._refs.append(weakref.ref(blocks))
        return blocks


@pytest.fixture
def block_spy(monkeypatch):
    """A spy on the block generator, which every Monte Carlo draw reads:
    ``count_outage`` and ``count_outage_grid`` alike."""
    spy = DrawSpy(montecarlo._blocks)
    monkeypatch.setattr(montecarlo, "_blocks", spy)
    return spy
