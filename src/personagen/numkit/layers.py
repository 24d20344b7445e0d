"""The parameter walker, initialization helpers and the two layer shapes used
everywhere."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add, matmul, tanh


class Module:
    """A model part whose parameters are its ``Tensor`` attributes.

    ``named_params`` walks the attributes in the order they were set: a
    ``Tensor`` is named by its attribute, a ``Module`` contributes its own
    parameters under ``attribute.name``, and anything else is skipped. That
    order is the order of checkpoints, clipping sums and Adam state.
    """

    def named_params(self) -> list[tuple[str, Tensor]]:
        named = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                named.append((name, value))
            elif isinstance(value, Module):
                named += [(f"{name}.{inner}", t) for inner, t in value.named_params()]
        return named

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]


def uniform_param(rng: np.random.Generator, shape, scale: float = 0.1) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def zero_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class Affine(Module):
    """y = x @ w + b for the (n, in_dim) rows ``x``, with w stored as
    (in_dim, out_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: float = 0.1):
        self.w = uniform_param(rng, (in_dim, out_dim), scale)
        self.b = zero_param((out_dim,))

    def __call__(self, x) -> Tensor:
        return add(matmul(x, self.w), self.b)


class TanhMlp(Affine):
    """Single-layer perceptron: tanh(x @ w + b)."""

    def __call__(self, x) -> Tensor:
        return tanh(super().__call__(x))
