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

from dataclasses import dataclass

import numpy as np

from .layers import uniform_param, zero_param
from .tensor import Tensor, _finish, _require_finite, _sigmoid_stable, concat

_PARAM_NAMES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n")


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

    def tensors(self) -> list[Tensor]:
        """The nine parameters in declaration order."""
        return [getattr(self, name) for name in _PARAM_NAMES]

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.{name}", getattr(self, name)) for name in _PARAM_NAMES]


def gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One GRU step: h' = (1 - z) * h + z * candidate.

    Update/reset gates are sigmoids of affine combinations of x and h; the
    candidate applies the reset gate to h before its hidden-to-hidden term.
    """
    if x.shape != (params.input_dim,):
        raise ValueError(f"gru_cell input has shape {x.shape}, expected ({params.input_dim},)")
    if h.shape != (params.hidden_dim,):
        raise ValueError(f"gru_cell hidden has shape {h.shape}, expected ({params.hidden_dim},)")
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
    return concat([ahead, behind], axis=1), concat([ahead[-1], behind[0]])


def _gru(x: Tensor, h0: Tensor | None, params: GruParams, reverse: bool) -> Tensor:
    """The GRU over the rows of ``x`` as one tape record.

    A (T, E) ``x`` gives the (T, H) states, row t the state after input row t;
    ``reverse`` feeds the rows last to first. A 1-D ``x`` is one step and
    gives one state. ``h0`` is the initial state; None starts from zero,
    which is then no input of the record and gets no gradient.
    """
    w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_n = (t.data for t in params.tensors())
    xs = x.data.reshape(-1, params.input_dim)
    steps, hidden = xs.shape[0], params.hidden_dim
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    start = np.zeros(hidden) if h0 is None else h0.data

    # every step's input projections, one GEMM per gate
    x_z, x_r, x_n = xs @ w_z, xs @ w_r, xs @ w_n
    pre = np.empty((steps, 3 * hidden))      # [a_z | a_r | a_n] per step
    gates = np.empty((steps, 3 * hidden))    # [z | r | n] per step
    states = np.empty((steps, hidden))
    h = start
    for t in order:
        a, g = pre[t], gates[t]
        a_z, a_r, a_n = a[:hidden], a[hidden:2 * hidden], a[2 * hidden:]
        np.add(x_z[t], h @ u_z, out=a_z)
        a_z += b_z
        np.add(x_r[t], h @ u_r, out=a_r)
        a_r += b_r
        g[:2 * hidden] = _sigmoid_stable(a[:2 * hidden])
        z, r, n = g[:hidden], g[hidden:2 * hidden], g[2 * hidden:]
        np.add(x_n[t], (r * h) @ u_n, out=a_n)
        a_n += b_n
        np.tanh(a_n, out=n)
        h = states[t] = (1.0 - z) * h + z * n
    _require_finite(pre, "GRU pre-activation")

    def backward_fn(g_out):
        g_states = g_out.reshape(steps, hidden)
        prev = np.empty_like(states)          # the state each step started from
        if reverse:
            prev[:-1], prev[-1] = states[1:], start
        else:
            prev[1:], prev[0] = states[:-1], start
        z, r, n = gates[:, :hidden], gates[:, hidden:2 * hidden], gates[:, 2 * hidden:]
        # per-step factors of d(pre-activation)/d(state) that the carried
        # gradient does not change
        f_z = (n - prev) * z * (1.0 - z)
        f_n = z * (1.0 - n * n)
        f_r = prev * r * (1.0 - r)
        keep = 1.0 - z
        u_z_t, u_r_t, u_n_t = u_z.T, u_r.T, u_n.T
        d_z, d_r, d_n = (np.empty((steps, hidden)) for _ in range(3))  # d(pre-activation)
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
        d_x = (d_z @ w_z.T + d_r @ w_r.T + d_n @ w_n.T).reshape(x.shape)
        d_params = [xs.T @ d_z, prev.T @ d_z, d_z.sum(axis=0),
                    xs.T @ d_r, prev.T @ d_r, d_r.sum(axis=0),
                    xs.T @ d_n, (r * prev).T @ d_n, d_n.sum(axis=0)]
        return [d_x] + ([] if h0 is None else [carry]) + d_params

    inputs = (x,) + (() if h0 is None else (h0,)) + tuple(params.tensors())
    return _finish(states if x.ndim == 2 else states[0], inputs, backward_fn)
