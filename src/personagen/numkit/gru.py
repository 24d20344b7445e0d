"""GRU recurrences as fused primitives: one tape record per run.

One forward kernel and one backward kernel serve both entry points.
``bigru_encode`` runs each direction over a whole (T, E) sequence as one
record, and ``gru_cell`` is the same kernel for a single step from a given
state. As in cuDNN's fused RNNs (Appleyard, Kočiský & Blunsom 2016), the input
projections of all steps are one GEMM per gate before the loop, which keeps
only the ``h @ U`` terms; the hand-written backward runs back-propagation
through time into (T, H) pre-activation gradients, so each weight gradient is
again one GEMM.
"""

from __future__ import annotations

import numpy as np

from .layers import Module, uniform_param, zero_param
from .tensor import Tensor, _finish, _require_finite, _sigmoid_stable, concat, lookup


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
    ``x`` is one (E,) input with an (H,) ``h``, or a (k, E) batch of rows with
    a (k, H) ``h``; row i of the result is the step of row i.
    """
    if x.ndim not in (1, 2) or x.shape[-1] != params.input_dim:
        raise ValueError(f"gru_cell input has shape {x.shape}, expected "
                         f"({params.input_dim},) or (k, {params.input_dim})")
    if h.shape != x.shape[:-1] + (params.hidden_dim,):
        raise ValueError(f"gru_cell hidden has shape {h.shape}, expected "
                         f"{x.shape[:-1] + (params.hidden_dim,)} for input of shape {x.shape}")
    return _gru(x, h, params, reverse=False)


def bigru_encode(x: Tensor, fwd: GruParams, bwd: GruParams) -> tuple[Tensor, Tensor]:
    """Run a Bi-GRU over the rows of a (T, E) input matrix.

    Returns the (T, 2H) matrix of per-step states, row t holding the forward
    and backward states at position t side by side, and the final state,
    which concatenates the forward state at the last position with the
    backward state at the first position. Both directions start from zero.
    """
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"bigru_encode needs a non-empty (T, E) sequence, got shape {x.shape}")
    if fwd.hidden_dim != bwd.hidden_dim:
        raise ValueError("forward/backward hidden sizes differ")
    for params in (fwd, bwd):
        if x.shape[1] != params.input_dim:
            raise ValueError(f"bigru_encode input has width {x.shape[1]}, "
                             f"expected {params.input_dim}")
    ahead = _gru(x, None, fwd, reverse=False)
    behind = _gru(x, None, bwd, reverse=True)
    return (concat([ahead, behind], axis=1),
            concat([lookup(ahead, x.shape[0] - 1), lookup(behind, 0)]))


def _gru(x: Tensor, h0: Tensor | None, params: GruParams, reverse: bool) -> Tensor:
    """The GRU over the rows of ``x`` as one tape record.

    With ``h0`` None, ``x`` is a (T, E) sequence run from the zero state, which
    is then no input of the record and gets no gradient; the result is the
    (T, H) states, row t the state after input row t, and ``reverse`` feeds the
    rows last to first. Otherwise ``x`` is one step, an (E,) input or (k, E)
    rows, from the matching (H,) or (k, H) ``h0``, and gives one state per row.
    """
    tensors = params.params()
    w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_n = (t.data for t in tensors)
    hidden = params.hidden_dim
    xs = x.data.reshape(-1, params.input_dim)
    if h0 is None:   # (steps, rows) = (T, 1)
        steps, rows, start = xs.shape[0], 1, np.zeros((1, hidden))
    else:            # (1, k)
        steps, rows, start = 1, xs.shape[0], h0.data.reshape(-1, hidden)
    order = range(steps - 1, -1, -1) if reverse else range(steps)

    # every step's input projections, one GEMM per gate
    x_z, x_r, x_n = ((xs @ w).reshape(steps, rows, hidden) for w in (w_z, w_r, w_n))
    pre = np.empty((steps, rows, 3 * hidden))      # [a_z | a_r | a_n] per step and row
    gates = np.empty((steps, rows, 3 * hidden))    # [z | r | n] per step and row
    states = np.empty((steps, rows, hidden))
    h = start
    for t in order:
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
        h = states[t] = (1.0 - z) * h + z * n
    _require_finite(pre, "GRU pre-activation")

    def backward_fn(g_out):
        g_states = g_out.reshape(steps, rows, hidden)
        prev = np.empty_like(states)          # the state each step started from
        if reverse:
            prev[:-1], prev[-1] = states[1:], start
        else:
            prev[1:], prev[0] = states[:-1], start
        z, r, n = gates[..., :hidden], gates[..., hidden:2 * hidden], gates[..., 2 * hidden:]
        # per-step factors of d(pre-activation)/d(state) that the carried
        # gradient does not change
        f_z = (n - prev) * z * (1.0 - z)
        f_n = z * (1.0 - n * n)
        f_r = prev * r * (1.0 - r)
        keep = 1.0 - z
        u_z_t, u_r_t, u_n_t = u_z.T, u_r.T, u_n.T
        d_z, d_r, d_n = (np.empty((steps, rows, hidden)) for _ in range(3))  # d(pre-activation)
        carry = None
        for t in reversed(order):
            dh = g_states[t] if carry is None else g_states[t] + carry
            d_zt, d_rt, d_nt = d_z[t], d_r[t], d_n[t]
            np.multiply(dh, f_z[t], out=d_zt)
            np.multiply(dh, f_n[t], out=d_nt)
            d_rh = d_nt @ u_n_t
            np.multiply(d_rh, f_r[t], out=d_rt)
            if t != order[0] or h0 is not None:
                carry = dh * keep[t] + d_rh * r[t] + d_zt @ u_z_t + d_rt @ u_r_t
        # one (steps * rows)-row GEMM per weight gradient
        d_z, d_r, d_n, prev, r = (a.reshape(-1, hidden) for a in (d_z, d_r, d_n, prev, r))
        d_x = (d_z @ w_z.T + d_r @ w_r.T + d_n @ w_n.T).reshape(x.shape)
        d_params = [xs.T @ d_z, prev.T @ d_z, d_z.sum(axis=0),
                    xs.T @ d_r, prev.T @ d_r, d_r.sum(axis=0),
                    xs.T @ d_n, (r * prev).T @ d_n, d_n.sum(axis=0)]
        return [d_x] + ([] if h0 is None else [carry.reshape(h0.shape)]) + d_params

    inputs = (x,) + (() if h0 is None else (h0,)) + tuple(tensors)
    return _finish(states[:, 0] if h0 is None else states[0].reshape(h0.shape),
                   inputs, backward_fn)
