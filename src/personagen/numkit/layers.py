"""Parameter initialization helpers and the two layer shapes used everywhere."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add, matmul, tanh


def uniform_param(rng: np.random.Generator, shape, scale: float = 0.1) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def zero_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class Affine:
    """y = x @ w + b with w stored as (in_dim, out_dim).

    The orientation makes single vectors (in_dim,) and batches (n, in_dim)
    go through the same code path.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: float = 0.1):
        self.w = uniform_param(rng, (in_dim, out_dim), scale)
        self.b = zero_param((out_dim,))

    def __call__(self, x) -> Tensor:
        return add(matmul(x, self.w), self.b)

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


class TanhMlp:
    """Single-layer perceptron: tanh(x @ w + b)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: float = 0.1):
        self.affine = Affine(in_dim, out_dim, rng, scale)

    def __call__(self, x) -> Tensor:
        return tanh(self.affine(x))

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return self.affine.named_params(prefix)
