"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Array, Tensor


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers and the shared step counter."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)

    @classmethod
    def create(cls, params: list[Tensor], lr: float = 1e-4, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step_count=0,
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params: list[Tensor], grads: list[Array], state: AdamState) -> tuple[list[Tensor], AdamState]:
    """Apply one bias-corrected Adam update in place; advances the step counter."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must have matching lengths")
    for p, g, m in zip(params, grads, state.m):
        if p.data.shape != np.shape(g) or p.data.shape != m.shape:
            raise ValueError(f"shape mismatch in adam_step: param {p.data.shape}, grad {np.shape(g)}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        blocks = [np.atleast_1d(a) for a in (p.data, np.asarray(g, dtype=np.float64), m, v)]
        rows = blocks[0].shape[0]
        step_rows = max(1, _BLOCK * rows // max(1, blocks[0].size))
        for start in range(0, rows, step_rows):
            _adam_update(state, bc1, bc2, *(a[start:start + step_rows] for a in blocks))
    return params, state


# Elements per block of the Adam update, so that a block's four operands and
# two temporaries (about 6 x 128 KB) stay in cache across its ten passes.
_BLOCK = 1 << 14


def _adam_update(state: AdamState, bc1: float, bc2: float,
                 p: Array, g: Array, m: Array, v: Array) -> None:
    """Update views ``p``, ``m`` and ``v`` in place with the operations, in
    their order, of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    so the result is bit-identical to that formula.
    """
    scratch = np.multiply(g, 1.0 - state.beta1)
    m *= state.beta1
    m += scratch
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - state.beta2
    v *= state.beta2
    v += scratch
    step = np.divide(m, bc1)
    step *= state.lr
    np.divide(v, bc2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    step /= scratch
    p -= step


def clip_global_norm(grads: list[Array], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
    if total > max_norm > 0.0:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return total
