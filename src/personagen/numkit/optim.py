"""Adam with bias correction, plus global-norm gradient clipping.

Adam runs in the efficient form of Kingma & Ba (arXiv:1412.6980, section 2):
the bias corrections fold into the step size ``alpha_t = lr * sqrt(1 -
beta2^t) / (1 - beta1^t)`` and the floor ``eps_hat = eps * sqrt(1 -
beta2^t)``, so ``p -= alpha_t * m / (sqrt(v) + eps_hat)`` is the bias-corrected
update ``lr * m_hat / (sqrt(v_hat) + eps)`` in exact arithmetic, with one
division per element instead of three. The moments are the same; the
parameters differ from that formula's in the last bits.

Both take one gradient per parameter: a dense array of the parameter's shape,
a ``RowGrad`` with strictly increasing indices, as ``backward`` gives for a
table that only ``lookup`` reached, or ``Factors(a, g)`` standing for ``aᵀ·g``,
as it gives for a matrix that only ``matmul`` reached. Clipping reads and
scales a ``RowGrad``'s rows only, and of ``Factors`` it scales ``g`` only and
never writes ``a``. Adam is not lazy: it updates every row of a parameter and
of its moments, and a row that a ``RowGrad`` leaves out gets exactly the dense
update with a zero gradient; only the gradient's own terms for that row are
skipped. It forms a ``Factors`` gradient one cache-sized tile at a time, so no
parameter-size gradient is ever allocated for it.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Array, Factors, RowGrad, Tensor


class AdamState:
    """Per-parameter first/second moment buffers, zero at the start, and the
    shared step counter. The decay rates and ``eps`` are Kingma & Ba's."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.lr = lr
        self.step_count = 0
        # np.zeros gets large buffers as fresh pages that are zeroed on first
        # touch; np.zeros_like would write every zero up front
        self.m = [np.zeros(p.data.shape) for p in params]
        self.v = [np.zeros(p.data.shape) for p in params]


def adam_step(params: list[Tensor], grads: list[Array | RowGrad | Factors],
              state: AdamState) -> None:
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
    root_bc2 = math.sqrt(1.0 - state.beta2 ** t)
    alpha = state.lr * root_bc2 / (1.0 - state.beta1 ** t)
    eps_hat = state.eps * root_bc2
    params_data = [np.atleast_1d(p.data) for p in params]
    largest = max([_BLOCK] + [p[:_block_rows(p)].size for p in params_data])
    g_buffer, step_buffer = np.empty(largest), np.empty(largest)
    for p, g, m, v in zip(params_data, grads, state.m, state.v):
        m, v = np.atleast_1d(m), np.atleast_1d(v)
        for block, selected, g_block in _gradient_blocks(g, p):
            _adam_update(state, alpha, eps_hat, p[block], m[block], v[block], selected,
                         g_block, g_buffer, step_buffer)


def _gradient_problem(param: Array, g: Array | RowGrad | Factors) -> str | None:
    """What makes ``g`` unfit to be ``param``'s gradient, if anything."""
    if isinstance(g, Factors):
        a, rows = np.shape(g.a), np.shape(g.g)
        if (param.ndim != 2 or len(a) != 2 or len(rows) != 2 or a[0] != rows[0]
                or (a[1], rows[1]) != param.shape):
            return f"Factors of shapes {a} and {rows}"
        return None
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


def _block_rows(p: Array) -> int:
    """Rows of ``p`` per block of the update: whole rows, about ``_BLOCK``
    elements, and at least one row."""
    return max(1, _BLOCK * p.shape[0] // max(1, p.size))


def _gradient_blocks(g: Array | RowGrad | Factors, p: Array):
    """``(block, selected, g_block)`` for each block of parameter ``p``:
    ``g_block`` holds the gradient of the entries ``selected`` of ``p[block]``,
    which for a dense ``g`` and for ``Factors`` is all of them
    (``slice(None)``) and for a ``RowGrad`` the block-local indices of its
    rows that fall in the block. A ``Factors`` block is a tile of whole
    ``_TILE_COLS``-wide column spans, formed into one reused buffer; the
    others are ``_block_rows(p)`` whole rows."""
    rows = p.shape[0]
    if isinstance(g, Factors):
        a, g_rows = g.a, g.g
        width = min(p.shape[1], _TILE_COLS)
        height = max(1, _BLOCK // width)
        tile = np.empty(height * width)
        for top in range(0, rows, height):
            a_t = a[:, top:top + height].T
            for left in range(0, p.shape[1], width):
                g_t = g_rows[:, left:left + width]
                out = tile[:a_t.shape[0] * g_t.shape[1]].reshape(a_t.shape[0], g_t.shape[1])
                np.matmul(a_t, g_t, out=out)
                yield (slice(top, top + height), slice(left, left + width)), slice(None), out
        return
    step = _block_rows(p)
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
# two temporaries (about 6 x 256 KB) stay in a 2 MB L2 cache across its
# passes. On a Xeon with that cache, a topic epoch ran about 6 % faster than
# with 1 << 14 and the same as with 1 << 16.
_BLOCK = 1 << 15

# Columns per tile of a ``Factors`` gradient, whose tiles hold ``_BLOCK //
# _TILE_COLS`` rows: on the same Xeon, 8 x 4096 tiles of a (512, 20000)
# output layer ran faster than 16 x 2048.
_TILE_COLS = 1 << 12


def _adam_update(state: AdamState, alpha: float, eps_hat: float, p: Array, m: Array,
                 v: Array, selected, g: Array, g_buffer: Array, step_buffer: Array) -> None:
    """Update views ``p``, ``m`` and ``v`` in place with the operations, in
    their order, of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= m / (sqrt(v) + eps_hat) * alpha

    where ``g`` is the gradient of rows ``selected`` and zero in the others,
    so the result is bit-identical to that formula. A row left out skips the
    two ``(1 - beta) * 0`` terms, which changes no bit: adding +0.0 alters
    only a -0.0, ``v`` is never negative, and ``m`` never holds -0.0, since
    it starts at +0.0 and, for beta1 > 1/2, ``beta1 * m`` rounds to zero only
    when ``m`` is zero. The two temporaries are the leading elements of
    ``g_buffer`` and ``step_buffer``, flat arrays at least as large as the
    block.
    """
    m *= state.beta1
    v *= state.beta2
    work = g_buffer[:g.size].reshape(g.shape)
    np.multiply(g, 1.0 - state.beta1, out=work)
    m[selected] += work
    np.multiply(g, g, out=work)
    work *= 1.0 - state.beta2
    v[selected] += work
    step = step_buffer[:m.size].reshape(m.shape)
    np.sqrt(v, out=step)
    step += eps_hat
    np.divide(m, step, out=step)
    step *= alpha
    p -= step


def clip_global_norm(grads: list[Array | RowGrad | Factors], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most max_norm.
    A ``RowGrad``, whose indices must not repeat, counts and is scaled by its
    rows. ``Factors(a, g)`` counts ``‖aᵀg‖² = ⟨aaᵀ, ggᵀ⟩`` (clamped at 0,
    which rounding can undershoot) and is scaled by ``g`` alone. A norm that
    is not finite, as when the sum of squares overflows, raises
    FloatingPointError and leaves the gradients as they are."""
    total = float(np.sqrt(sum(_squared_norm(g) for g in grads)))
    if not math.isfinite(total):
        raise FloatingPointError(f"global gradient norm is {total}")
    if total > max_norm > 0.0:
        factor = max_norm / total
        for g in grads:
            scaled = g.rows if isinstance(g, RowGrad) else g.g if isinstance(g, Factors) else g
            scaled *= factor
    return total


def _squared_norm(g: Array | RowGrad | Factors) -> float:
    if isinstance(g, Factors):
        # np.maximum keeps a NaN, which the caller reports
        return float(np.maximum(np.vdot(g.a @ g.a.T, g.g @ g.g.T), 0.0))
    a = g.rows if isinstance(g, RowGrad) else g
    return float(np.vdot(a, a))
