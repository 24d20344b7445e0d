"""GRU cell and bidirectional sequence encoding built on the tensor ops."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import uniform_param, zero_param
from .tensor import Tensor, concat, sigmoid, stack, tanh, zeros


@dataclass
class GruParams:
    """Gate weights for one GRU direction.

    Input-to-hidden matrices are (input_dim, hidden_dim), hidden-to-hidden are
    (hidden_dim, hidden_dim); one bias per gate.
    """

    input_dim: int
    hidden_dim: int
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_n: Tensor
    u_n: Tensor
    b_n: Tensor

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator,
               scale: float = 0.1) -> "GruParams":
        def w():
            return uniform_param(rng, (input_dim, hidden_dim), scale)

        def u():
            return uniform_param(rng, (hidden_dim, hidden_dim), scale)

        def b():
            return zero_param((hidden_dim,))

        return cls(input_dim, hidden_dim, w(), u(), b(), w(), u(), b(), w(), u(), b())

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        names = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n")
        return [(f"{prefix}.{name}", getattr(self, name)) for name in names]


def gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One GRU step: h' = (1 - z) * h + z * candidate.

    Update/reset gates are sigmoids of affine combinations of x and h; the
    candidate applies the reset gate to h before its hidden-to-hidden term.
    """
    if x.shape != (params.input_dim,):
        raise ValueError(f"gru_cell input has shape {x.shape}, expected ({params.input_dim},)")
    if h.shape != (params.hidden_dim,):
        raise ValueError(f"gru_cell hidden has shape {h.shape}, expected ({params.hidden_dim},)")
    z = sigmoid(x @ params.w_z + h @ params.u_z + params.b_z)
    r = sigmoid(x @ params.w_r + h @ params.u_r + params.b_r)
    n = tanh(x @ params.w_n + (r * h) @ params.u_n + params.b_n)
    return (1.0 - z) * h + z * n


def bigru_encode(seq: list[Tensor], fwd: GruParams, bwd: GruParams) -> tuple[Tensor, Tensor]:
    """Run a Bi-GRU over a sequence of input vectors.

    Returns the (T, 2H) matrix of per-step states, row t holding the forward
    and backward states at position t side by side, and the final state,
    which concatenates the forward state at the last position with the
    backward state at the first position.
    """
    if not seq:
        raise ValueError("bigru_encode needs a non-empty sequence")
    if fwd.hidden_dim != bwd.hidden_dim:
        raise ValueError("forward/backward hidden sizes differ")
    h = zeros(fwd.hidden_dim)
    forward_states = []
    for x in seq:
        h = gru_cell(x, h, fwd)
        forward_states.append(h)
    h = zeros(bwd.hidden_dim)
    backward_states: list[Tensor | None] = [None] * len(seq)
    for t in reversed(range(len(seq))):
        h = gru_cell(seq[t], h, bwd)
        backward_states[t] = h
    steps = concat([stack(forward_states), stack(backward_states)], axis=1)
    final = concat([forward_states[-1], backward_states[0]])
    return steps, final
