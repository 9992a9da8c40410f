"""n-dimensional real vector arithmetic.

Vectors are immutable tuples of finite floats.  Dot products and squared
norms accumulate through :func:`math.fsum`, which tracks rounding error
exactly, so results are independent of component order even when component
magnitudes span several decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .cloud import finite_column
from .errors import DimensionMismatch

__all__ = ["Vector", "dot", "norm_sq", "norm", "sub", "scale", "ones"]


@dataclass(frozen=True)
class Vector:
    """Ordered tuple of n >= 1 finite real components."""

    components: tuple[float, ...]

    def __init__(self, components: Iterable[float]):
        object.__setattr__(self, "components", tuple(map(float, finite_column(components))))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[float]:
        return iter(self.components)

    def __getitem__(self, k: int) -> float:
        return self.components[k]


def _check_same_length(a: Vector, b: Vector) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(len(a), len(b))


def dot(a: Vector, b: Vector) -> float:
    """Sum of products of corresponding components, compensated."""
    _check_same_length(a, b)
    return math.fsum(x * y for x, y in zip(a, b))


def norm_sq(a: Vector) -> float:
    """Squared norm (quadrance) of ``a``; always >= 0."""
    return math.fsum(x * x for x in a)


def norm(a: Vector) -> float:
    """Euclidean norm of ``a``."""
    return math.sqrt(norm_sq(a))


def sub(a: Vector, b: Vector) -> Vector:
    """Componentwise difference ``a - b``."""
    _check_same_length(a, b)
    return Vector(x - y for x, y in zip(a, b))


def scale(c: float, a: Vector) -> Vector:
    """Componentwise multiple ``c * a``; a nan or infinite ``c`` is rejected by Vector."""
    c = float(c)
    return Vector(c * x for x in a)


def ones(n: int) -> Vector:
    """All-ones vector of length ``n`` (n >= 1; Vector rejects an empty one)."""
    return Vector((1.0,) * n)
