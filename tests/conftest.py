import sys
from pathlib import Path

import pytest

try:
    import demazure_crystals  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from demazure_crystals import (  # noqa: E402  (after the path fallback above)
    BInfElement,
    Elementary,
    ElementaryCrystal,
    TensorCrystal,
    TensorWord,
)


class WindowOracle:
    """Operators of a B(inf) realization recomputed on an explicit tensor word.

    Each element becomes a TensorCrystal of ElementaryCrystal factors covering
    its support plus three all-zero blocks, one block more than the
    realization keeps, so any dependence on the window edge shows up as a
    disagreement.
    """

    def __init__(self, realization):
        self.realization = realization

    def _tensor(self, b):
        block = self.realization.block
        length = len(block)
        n = ((len(b.coords) + length - 1) // length + 3) * length
        coords = b.coords + (0,) * (n - len(b.coords))
        positions = range(n, 0, -1)  # leftmost factor first; position 1 is rightmost
        colors = [block[(p - 1) % length] for p in positions]
        cartan = self.realization.cartan
        tensor = TensorCrystal(cartan, [ElementaryCrystal(cartan, c) for c in colors])
        word = TensorWord(tuple(Elementary(c, -coords[p - 1]) for c, p in zip(colors, positions)))
        return tensor, word

    @staticmethod
    def _element(word):
        coords = [-part.level for part in reversed(word.parts)]
        while coords and coords[-1] == 0:
            coords.pop()
        return BInfElement(tuple(coords))

    def f(self, i, b):
        tensor, word = self._tensor(b)
        return self._element(tensor.f(i, word))

    def e(self, i, b):
        tensor, word = self._tensor(b)
        return self._element(tensor.e(i, word))

    def eps(self, i, b):
        tensor, word = self._tensor(b)
        return tensor.eps(i, word)

    def phi(self, i, b):
        tensor, word = self._tensor(b)
        return tensor.phi(i, word)


@pytest.fixture
def window_oracle():
    return WindowOracle
