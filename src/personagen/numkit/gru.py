"""GRU recurrences as fused primitives: one tape record per run.

One forward kernel and one backward kernel serve every entry point, each a
run of ``steps × rows`` GRU steps in which row i reads its own sequence.
``gru_sequence``, the one entry that checks shapes, runs n sequences from
their own starts as n rows: ``gru_cell`` is its one-step case, and
``bigru_encode`` runs its forward direction through it and its backward
direction reversed. As in cuDNN's fused RNNs (Appleyard, Kočiský & Blunsom
2016), the input projections of all steps are one GEMM per gate before the
loop, which keeps only the ``h @ U`` terms; the hand-written backward runs
back-propagation through time into (steps, rows, H) pre-activation
gradients, so each weight gradient is again one GEMM.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import Module, uniform_param, zero_param
from .tensor import Tensor, _finish, _needs_grad, _require_finite, _sigmoid_stable, concat, lookup


class GruParams(Module):
    """Gate weights for one GRU direction.

    Input-to-hidden matrices are (input_dim, hidden_dim), hidden-to-hidden are
    (hidden_dim, hidden_dim); one bias per gate, starting at zero.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_z = uniform_param(rng, (input_dim, hidden_dim))
        self.u_z = uniform_param(rng, (hidden_dim, hidden_dim))
        self.b_z = zero_param((hidden_dim,))
        self.w_r = uniform_param(rng, (input_dim, hidden_dim))
        self.u_r = uniform_param(rng, (hidden_dim, hidden_dim))
        self.b_r = zero_param((hidden_dim,))
        self.w_n = uniform_param(rng, (input_dim, hidden_dim))
        self.u_n = uniform_param(rng, (hidden_dim, hidden_dim))
        self.b_n = zero_param((hidden_dim,))


def gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One GRU step: h' = (1 - z) * h + z * candidate.

    Update/reset gates are sigmoids of affine combinations of x and h; the
    candidate applies the reset gate to h before its hidden-to-hidden term.
    ``x`` is a (k, E) matrix of rows with a (k, H) ``h``; row i of the result
    is the step of row i.
    """
    return gru_sequence(x, h, params, [1] * (x.shape[0] if x.ndim else 0))


def gru_sequence(x: Tensor, h0: Tensor, params: GruParams, lengths: Sequence[int]) -> Tensor:
    """The GRU over n sequences, the rows of an (X, E) input one after
    another: sequence i is ``lengths[i]`` rows long and starts from row i of
    the (n, H) ``h0``. All n run as rows of one record; the result is the
    (X, H) matrix of the state after each input row, in ``x``'s order."""
    spans = [int(n) for n in lengths]
    if (x.ndim != 2 or x.shape[1] != params.input_dim
            or h0.shape != (len(spans), params.hidden_dim)):
        raise ValueError(f"gru_sequence needs an (X, {params.input_dim}) input and a "
                         f"({len(spans)}, {params.hidden_dim}) start, got shapes {x.shape} "
                         f"and {h0.shape}")
    if min(spans, default=0) < 1 or sum(spans) != x.shape[0]:
        raise ValueError(f"gru_sequence needs positive lengths that sum to the {x.shape[0]} "
                         f"input rows, got {list(lengths)}")
    return _gru(x, h0, params, False, spans)


def bigru_encode(x: Tensor, fwd: GruParams, bwd: GruParams,
                 lengths: Sequence[int]) -> tuple[Tensor, Tensor, Tensor]:
    """Run a Bi-GRU over n sequences, the rows of a (T, E) input matrix one
    after another: sequence i is ``lengths[i]`` rows long. Each sequence is
    encoded on its own, all n as rows of one record per direction, and both
    directions start from zero.

    Returns the forward and the backward direction's (T, H) per-step
    states, in ``x``'s row order, and the (n, 2H) matrix of final states,
    row i concatenating sequence i's forward state at its last position
    with its backward state at its first.
    """
    if (fwd.input_dim, fwd.hidden_dim) != (bwd.input_dim, bwd.hidden_dim):
        raise ValueError("forward and backward GRU shapes differ")
    start = Tensor(np.zeros((len(lengths), fwd.hidden_dim)))
    ahead = gru_sequence(x, start, fwd, lengths)
    behind = _gru(x, start, bwd, True, lengths)
    ends = np.cumsum(lengths)
    return ahead, behind, concat([lookup(ahead, ends - 1), lookup(behind, ends - lengths)])


def _gru(x: Tensor, h0: Tensor, params: GruParams, reverse: bool,
         lengths: Sequence[int]) -> Tensor:
    """The GRU over ``steps × rows`` as one tape record.

    Row i reads ``lengths[i]`` inputs; the rows of the (X, E) ``x`` are row
    0's inputs, then row 1's, and so on. Each row starts from its row of the
    (rows, H) ``h0``, an input of the record whose gradient the backward
    sweep skips when none can flow to it, and ``reverse`` feeds each row's
    inputs last to first. The result is the (X, H) matrix of the state after
    each input, in ``x``'s order.

    The loop runs ``max(lengths)`` steps over all rows, step t of row i
    reading its input t, or in reverse its input ``lengths[i] - 1 - t``.
    Step t of row i is live for t < lengths[i]; once a row has ended it
    holds its last state, and the backward sweep gives its dead steps zero
    pre-activation gradients and passes the carried gradient through
    unchanged. Steps where every row is live run the plain arithmetic.
    """
    tensors = params.params()
    w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_n = (t.data for t in tensors)
    hidden = params.hidden_dim
    xs = x.data
    rows, steps = len(lengths), max(lengths)
    start = h0.data
    carry_start = _needs_grad(h0)
    dead = np.arange(steps)[:, None] >= np.asarray(lengths)[None, :]   # (steps, rows)
    held = dead.any(axis=1).tolist()
    # x's rows sit at these rows of the step-major (steps * rows) layout,
    # where every row starts at step 0; None when the two orders agree
    layout = None if steps == 1 or rows == 1 and not reverse else np.concatenate(
        [(np.arange(n - 1, -1, -1) if reverse else np.arange(n)) * rows + i
         for i, n in enumerate(lengths)])

    def step_major(a):
        if layout is None:
            return a.reshape(steps, rows, hidden)
        full = np.zeros((steps * rows, hidden))
        full[layout] = a
        return full.reshape(steps, rows, hidden)

    def in_x_order(a):
        a = a.reshape(steps * rows, hidden)
        return a if layout is None else a[layout]

    # every step's input projections, one GEMM per gate
    x_z, x_r, x_n = (step_major(xs @ w) for w in (w_z, w_r, w_n))
    pre = np.empty((steps, rows, 3 * hidden))      # [a_z | a_r | a_n] per step and row
    gates = np.empty((steps, rows, 3 * hidden))    # [z | r | n] per step and row
    states = np.empty((steps, rows, hidden))
    h = start
    for t in range(steps):
        a, g = pre[t], gates[t]
        a_z, a_r, a_n = a[:, :hidden], a[:, hidden:2 * hidden], a[:, 2 * hidden:]
        np.add(x_z[t], h @ u_z, out=a_z)
        a_z += b_z
        np.add(x_r[t], h @ u_r, out=a_r)
        a_r += b_r
        g[:, :2 * hidden] = _sigmoid_stable(a[:, :2 * hidden])
        z, r, n = g[:, :hidden], g[:, hidden:2 * hidden], g[:, 2 * hidden:]
        np.add(x_n[t], (r * h) @ u_n, out=a_n)
        a_n += b_n
        np.tanh(a_n, out=n)
        new = (1.0 - z) * h + z * n
        if held[t]:
            new[dead[t]] = h[dead[t]]
        h = states[t] = new
    _require_finite(pre, "GRU pre-activation")

    def backward_fn(g_out):
        g_states = step_major(g_out.reshape(-1, hidden))
        prev = np.empty_like(states)          # the state each step started from
        prev[1:], prev[0] = states[:-1], start
        z, r, n = gates[..., :hidden], gates[..., hidden:2 * hidden], gates[..., 2 * hidden:]
        # per-step factors of d(pre-activation)/d(state) that the carried
        # gradient does not change
        f_z = (n - prev) * z * (1.0 - z)
        f_n = z * (1.0 - n * n)
        f_r = prev * r * (1.0 - r)
        keep = 1.0 - z
        if any(held):   # a dead position is the identity map
            f_z[dead], f_n[dead], f_r[dead], keep[dead] = 0.0, 0.0, 0.0, 1.0
        u_z_t, u_r_t, u_n_t = u_z.T, u_r.T, u_n.T
        d_z, d_r, d_n = (np.empty((steps, rows, hidden)) for _ in range(3))  # d(pre-activation)
        carry = None
        for t in reversed(range(steps)):
            dh = g_states[t] if carry is None else g_states[t] + carry
            d_zt, d_rt, d_nt = d_z[t], d_r[t], d_n[t]
            np.multiply(dh, f_z[t], out=d_zt)
            np.multiply(dh, f_n[t], out=d_nt)
            d_rh = d_nt @ u_n_t
            np.multiply(d_rh, f_r[t], out=d_rt)
            if t or carry_start:
                carry = dh * keep[t] + d_rh * r[t] + d_zt @ u_z_t + d_rt @ u_r_t
        # one GEMM over the live positions per weight gradient
        d_z, d_r, d_n, prev, r = (in_x_order(a) for a in (d_z, d_r, d_n, prev, r))
        d_x = d_z @ w_z.T + d_r @ w_r.T + d_n @ w_n.T
        d_params = [xs.T @ d_z, prev.T @ d_z, d_z.sum(axis=0),
                    xs.T @ d_r, prev.T @ d_r, d_r.sum(axis=0),
                    xs.T @ d_n, (r * prev).T @ d_n, d_n.sum(axis=0)]
        return [d_x, carry if carry_start else None] + d_params

    return _finish(in_x_order(states), (x, h0) + tuple(tensors), backward_fn)
