"""n-dimensional real vector arithmetic.

Vectors are immutable tuples of finite floats.  Dot products and squared
norms accumulate through :func:`math.fsum`, which tracks rounding error
exactly, so results are independent of component order even when component
magnitudes span several decades; an overflowing sum raises ObjectiveOverflow.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .cloud import Frozen, finite_column, finite_fsum, products
from .errors import DimensionMismatch

__all__ = ["Vector", "dot", "norm_sq", "norm"]


class Vector(Frozen):
    """Ordered tuple of n >= 1 finite real ``components``."""

    _fields = ("components",)

    def __init__(self, components: Iterable[float]):
        self._set(tuple(map(float, finite_column(components))))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[float]:
        return iter(self.components)

    def __getitem__(self, k: int) -> float:
        return self.components[k]


def dot(a: Vector, b: Vector) -> float:
    """Sum of products of corresponding components, compensated."""
    if len(a) != len(b):
        raise DimensionMismatch(len(a), len(b))
    return finite_fsum(products(a, b), "the dot product")


def norm_sq(a: Vector) -> float:
    """Squared norm (quadrance) of ``a``; always >= 0."""
    return finite_fsum(products(a, a), "the squared norm")


def norm(a: Vector) -> float:
    """Euclidean norm of ``a``."""
    return math.sqrt(norm_sq(a))
