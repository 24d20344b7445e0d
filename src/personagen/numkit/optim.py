"""Adam with bias correction, plus global-norm gradient clipping.

Both take one gradient per parameter: a dense array of the parameter's shape,
or a ``RowGrad`` with strictly increasing indices, as ``backward`` gives for a
table that only ``lookup`` reached. Clipping reads and scales a ``RowGrad``'s
rows only. Adam is not lazy: it updates every row of a parameter and of its
moments, and a row that a ``RowGrad`` leaves out gets exactly the dense update
with a zero gradient; only the gradient's own terms for that row are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Array, RowGrad, Tensor


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


def adam_step(params: list[Tensor], grads: list[Array | RowGrad],
              state: AdamState) -> tuple[list[Tensor], AdamState]:
    """Apply one bias-corrected Adam update in place; advances the step counter."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must have matching lengths")
    for position, (p, g, m) in enumerate(zip(params, grads, state.m)):
        problem = (f"moments of shape {m.shape}" if m.shape != p.data.shape
                   else _gradient_problem(p.data, g))
        if problem:
            raise ValueError(f"adam_step: parameter {position} of shape {p.data.shape}: {problem}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, m, v = (np.atleast_1d(a) for a in (p.data, m, v))
        for block, selected, g_block in _gradient_blocks(g, p.shape[0], p.size):
            _adam_update(state, bc1, bc2, p[block], m[block], v[block], selected, g_block)
    return params, state


def _gradient_problem(param: Array, g: Array | RowGrad) -> str | None:
    """What makes ``g`` unfit to be ``param``'s gradient, if anything."""
    if not isinstance(g, RowGrad):
        return None if param.shape == np.shape(g) else f"gradient of shape {np.shape(g)}"
    indices, shape = np.asarray(g.indices), np.atleast_1d(param).shape
    if (indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer)
            or (indices[1:] <= indices[:-1]).any()):
        return "RowGrad indices are not a strictly increasing 1-D integer array"
    if indices.size and (indices[0] < 0 or indices[-1] >= shape[0]):
        return f"RowGrad index out of range for {shape[0]} rows"
    if np.shape(g.rows) != (indices.size,) + shape[1:]:
        return f"RowGrad rows of shape {np.shape(g.rows)} for {indices.size} indices"
    return None


def _gradient_blocks(g: Array | RowGrad, rows: int, size: int):
    """``(block, selected, g_block)`` for each block of whole rows, about
    ``_BLOCK`` elements, of a parameter with ``rows`` rows and ``size``
    elements: ``g_block`` holds the gradient of rows ``selected`` of the
    block, which for a dense ``g`` is all of them (``slice(None)``) and for a
    ``RowGrad`` the block-local indices of its rows that fall in the block."""
    step = max(1, _BLOCK * rows // max(1, size))
    starts = range(0, rows, step)
    if isinstance(g, RowGrad):
        indices, g_rows = np.asarray(g.indices), np.asarray(g.rows, dtype=np.float64)
        cuts = np.searchsorted(indices, [*starts, rows])
        for start, lo, hi in zip(starts, cuts[:-1], cuts[1:]):
            yield slice(start, start + step), indices[lo:hi] - start, g_rows[lo:hi]
    else:
        dense = np.atleast_1d(np.asarray(g, dtype=np.float64))
        for start in starts:
            yield slice(start, start + step), slice(None), dense[start:start + step]


# Elements per block of the Adam update, so that a block's four operands and
# two temporaries (about 6 x 128 KB) stay in cache across its passes.
_BLOCK = 1 << 14


def _adam_update(state: AdamState, bc1: float, bc2: float, p: Array, m: Array, v: Array,
                 selected, g: Array) -> None:
    """Update views ``p``, ``m`` and ``v`` in place with the operations, in
    their order, of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    where ``g`` is the gradient of rows ``selected`` and zero in the others,
    so the result is bit-identical to that formula. A row left out skips the
    two ``(1 - beta) * 0`` terms, which changes no bit: adding +0.0 alters
    only a -0.0, ``v`` is never negative, and ``m`` never holds -0.0, since
    it starts at +0.0 and, for beta1 > 1/2, ``beta1 * m`` rounds to zero only
    when ``m`` is zero.
    """
    m *= state.beta1
    v *= state.beta2
    scratch = np.multiply(g, 1.0 - state.beta1)
    m[selected] += scratch
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - state.beta2
    v[selected] += scratch
    step = np.divide(m, bc1)
    step *= state.lr
    denom = np.divide(v, bc2)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p -= step


def clip_global_norm(grads: list[Array | RowGrad], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most max_norm.
    A ``RowGrad``, whose indices must not repeat, counts and is scaled by its
    rows."""
    arrays = [g.rows if isinstance(g, RowGrad) else g for g in grads]
    total = float(np.sqrt(sum(float(np.vdot(a, a)) for a in arrays)))
    if total > max_norm > 0.0:
        factor = max_norm / total
        for a in arrays:
            a *= factor
    return total
