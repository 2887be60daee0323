"""Default verification grid: dominant weights and truncation depths per type."""

from __future__ import annotations

from itertools import product

from .cartan import Weight, cartan_matrix

_COORD_BOUNDS = {
    "A1": 4,
    "A1xA1": 2,
    "A2": 2,
    "A3": 1,
    "B2": 2,
    "G2": 1,
}

GRID_TYPES = tuple(_COORD_BOUNDS)

DEFAULT_DEPTH = 6


def grid_lambdas(type_label: str) -> tuple[Weight, ...]:
    bound = _COORD_BOUNDS[type_label]
    rank = cartan_matrix(type_label).rank
    return tuple(product(range(bound + 1), repeat=rank))


def star_depth(type_label: str) -> int:
    """Truncation depth for the starred-operator statements."""
    return 4 if type_label == "G2" else DEFAULT_DEPTH
