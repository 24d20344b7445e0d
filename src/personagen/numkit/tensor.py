"""Float64 tensors with reverse-mode automatic differentiation.

Ops execute eagerly on numpy arrays. When a ``Tape`` is active (entered as a
context manager), each op appends a record holding its input tensors and a
closure mapping the output gradient to input gradients; ``backward`` walks the
records in reverse. With no active tape nothing is recorded, so inference and
finite-difference probes run at plain numpy speed.

Gradient ownership: an input that neither requires a gradient nor is
tracked (the output of a recorded op) is a constant: ``backward`` keeps no
gradient for it, and ``matmul`` and ``mul`` return ``None`` in its slot rather
than compute one. For every other input, a backward rule returns either a
fresh array or its upstream gradient ``g_out`` itself, and it hands ``g_out``
to at most one input (``add`` copies the second operand's when both would
get it; ``lookup``'s ``RowGrad`` rows and ``matmul``'s ``Factors`` count as
handing on ``g_out``). So ``backward`` holds every gradient array alone, adds
into it in place, and returns leaf gradients that callers may scale in place.

Two gradient forms stay compact until something needs them dense. The
backward rule of ``lookup`` returns ``RowGrad(indices, rows)`` rather than a
dense table-size array, and the rule of ``matmul(a, W)`` returns
``Factors(a, g)``, which stands for ``aᵀ·g``. An op output adds
them into its dense gradient on arrival. A leaf keeps them as they arrive
while only such gradients have reached it; its first dense gradient
densifies them in arrival order into its buffer, which that and every later
gradient accumulates into: a ``RowGrad`` by a scatter-add (one fancy-index
``+=`` for strictly increasing indices, such as ``np.unique`` gives,
``np.add.at`` otherwise, which sums repeated rows) and a ``Factors`` by
adding its product ``aᵀ·g``. So every tensor gets the sum, in arrival order,
of one dense array per contribution.

Given the parameters, ``backward`` hands a leaf that only ``lookup`` reached
its gradient as one ``RowGrad`` with strictly increasing indices, each row
summed in arrival order, so scattering it into zeros gives the dense buffer
bit for bit; clipping and Adam read only its rows. A leaf that only
``matmul`` reached gets its factors stacked once, in arrival order, into
``Factors(A, G)`` of T rows, when T²·(K+N) ≤ K·N for a (K, N) parameter: the
Gram matrices ``AAᵀ`` and ``GGᵀ`` that give its norm then cost no more than
one pass over the dense gradient. Clipping scales ``G`` and nothing writes
``A``. Otherwise the leaf gets ``AᵀG`` from one GEMM over all the stacked
rows. A leaf that both forms, or a dense gradient, reach is densified in
arrival order. The dict form (no parameters given) always returns dense
gradients.

Every activation is a (rows, d) matrix, one row per query, state or token;
only parameters (biases and the like) and loss values have other shapes.

Every op validates that its output is finite, so a bad computation surfaces at
the op that produced it rather than as a NaN loss many steps later.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

Array = np.ndarray

_local = threading.local()

# Lower clamp applied to probabilities before taking their log, in
# ``cross_entropy`` and ``sigmoid_cross_entropy``.
PROB_FLOOR = 1e-12


class Tensor:
    """A float64 array, optionally marked as a trainable leaf."""

    __slots__ = ("data", "requires_grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._tracked = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


class TapeRecord:
    """One primitive application: inputs, output, and its local backward rule."""

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor,
                 backward_fn: Callable[[Array], Sequence[Array | None]]):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of primitive applications (a Wengert list).

    Entering the tape makes it the active recording target for the current
    thread; records are appended in execution order, so every record's inputs
    were produced earlier than the record itself.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []
        self._outer: Tape | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __enter__(self) -> "Tape":
        self._outer = active_tape()
        _local.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _local.tape = self._outer
        return False


def active_tape() -> Tape | None:
    return getattr(_local, "tape", None)


def _require_finite(values: Array, what: str) -> None:
    """Raise FloatingPointError if ``values`` holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} produced non-finite values")


def _needs_grad(t: Tensor) -> bool:
    """Whether a gradient can flow to ``t``: a leaf that requires one, or the
    output of a recorded op."""
    return t.requires_grad or t._tracked


def _finish(out_data, inputs: tuple[Tensor, ...],
            backward_fn: Callable[[Array], Sequence[Array | None]]) -> Tensor:
    out = Tensor(out_data)
    if not np.isfinite(out.data).all():
        # each primitive's closure is named <primitive>.<locals>.backward_fn
        shapes = ", ".join(str(t.data.shape) for t in inputs)
        raise FloatingPointError(f"{backward_fn.__qualname__.split('.')[0]} produced "
                                 f"non-finite values (inputs of shapes {shapes})")
    tape = active_tape()
    if tape is not None and any(_needs_grad(t) for t in inputs):
        out._tracked = True
        tape.records.append(TapeRecord(inputs, out, backward_fn))
    return out


class RowGrad(NamedTuple):
    """Row-sparse gradient of a table: ``rows[k]`` adds to row
    ``indices[k]``; an index may repeat."""

    indices: Array
    rows: Array


class Factors(NamedTuple):
    """Gradient ``aᵀ·g`` of a (K, N) matrix ``W`` used as ``matmul(a, W)``,
    kept as its factors: ``a`` (T, K) and ``g`` (T, N)."""

    a: Array
    g: Array

    def dense(self) -> Array:
        """``aᵀ·g`` as one fresh (K, N) array."""
        return self.a.T @ self.g


Pending = list[RowGrad | Factors]


def backward(loss: Tensor, tape: Tape, params: Sequence[Tensor] | None = None,
             ) -> dict[Tensor, Array] | list[Array | RowGrad | Factors]:
    """Reverse sweep over ``tape`` from a scalar ``loss``.

    Given distinct ``params``, returns one gradient per parameter, in order:
    a ``RowGrad`` with strictly increasing indices for a table that only
    ``lookup`` reached, an empty ``RowGrad`` for a parameter that nothing
    reached, ``Factors`` or a dense array, by the rule in the module
    docstring, for a matrix that only ``matmul`` reached, and a dense array
    otherwise.

    Without ``params``, returns the same gradients densified, keyed by tensor,
    for every requires_grad tensor that appears on the tape (zeros for those
    not reachable from the loss).

    No two returned gradients share memory, and none shares it with the
    tape's tensors.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    pending: dict[int, Pending] = {}  # leaves only compact gradients have reached so far
    for rec in reversed(tape.records):
        g_out = flowing.pop(id(rec.output), None)
        if g_out is None:
            continue
        for tensor, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is None or not _needs_grad(tensor):
                continue
            if (tensor.requires_grad and isinstance(g, (RowGrad, Factors))
                    and id(tensor) not in flowing):
                pending.setdefault(id(tensor), []).append(g)
            else:
                _densify(flowing, pending, tensor)
                _accumulate(flowing, tensor, g)
    leaves = params if params is not None else list(dict.fromkeys(
        t for rec in tape.records for t in rec.inputs if t.requires_grad))
    grads = [_leaf_grad(flowing, pending, t) for t in leaves]
    if params is not None:
        return grads
    result: dict[Tensor, Array] = {}
    for tensor, grad in zip(leaves, grads):
        if isinstance(grad, Factors):
            grad = grad.dense()
        elif isinstance(grad, RowGrad):
            dense = np.zeros_like(tensor.data)
            if grad.indices.size:
                dense[grad.indices] = grad.rows
            grad = dense
        result[tensor] = grad
    return result


def _densify(flowing: dict[int, Array], pending: dict[int, Pending], tensor: Tensor) -> None:
    """Add ``tensor``'s pending compact gradients, in arrival order, into its
    dense entry in ``flowing``."""
    for g in pending.pop(id(tensor), ()):
        _accumulate(flowing, tensor, g)


def _leaf_grad(flowing: dict[int, Array], pending: dict[int, Pending],
               leaf: Tensor) -> Array | RowGrad | Factors:
    parts = pending.get(id(leaf), ())
    if parts and all(isinstance(g, RowGrad) for g in parts):
        return _coalesce(parts)
    if parts and all(isinstance(g, Factors) for g in parts):
        return _stack_factors(parts)
    _densify(flowing, pending, leaf)
    if id(leaf) in flowing:
        return flowing[id(leaf)]
    return RowGrad(np.empty(0, dtype=np.intp), np.empty((0,) + leaf.data.shape[1:]))


def _coalesce(parts: list[RowGrad]) -> RowGrad:
    """One RowGrad with strictly increasing indices whose row for an index is
    zero plus that index's rows in arrival order, which is what scattering
    ``parts`` into a zero buffer sums."""
    indices = np.concatenate([g.indices for g in parts])
    rows = np.concatenate([g.rows for g in parts])
    if (indices[1:] > indices[:-1]).all():
        rows += 0.0  # 0 + r: a -0.0 entry becomes +0.0, as in the zero buffer
        return RowGrad(indices, rows)
    unique, inverse = np.unique(indices, return_inverse=True)
    summed = np.zeros((unique.size,) + rows.shape[1:])
    np.add.at(summed, inverse, rows)
    return RowGrad(unique, summed)


def _stack_factors(parts: list[Factors]) -> Factors | Array:
    """The leaf gradient of ``parts``, stacked in arrival order: ``Factors``
    of the stacked rows while T²·(K+N) ≤ K·N for T of them, the dense (K, N)
    product of one GEMM otherwise (a lone part's own product, which needs no
    stacked copy)."""
    rows = sum(f.a.shape[0] for f in parts)
    k, n = parts[0].a.shape[1], parts[0].g.shape[1]
    factored = rows * rows * (k + n) <= k * n
    if len(parts) == 1 and not factored:
        return parts[0].dense()
    a = np.concatenate([f.a for f in parts])
    g = np.concatenate([f.g for f in parts])
    return Factors(a, g) if factored else a.T @ g


def _accumulate(flowing: dict[int, Array], tensor: Tensor, g) -> None:
    """Add gradient ``g`` (dense, a RowGrad or Factors) to ``tensor``'s entry
    in ``flowing``."""
    key = id(tensor)
    current = flowing.get(key)
    if isinstance(g, Factors):
        g = g.dense()
    if isinstance(g, RowGrad):
        if current is None:
            flowing[key] = current = np.zeros_like(tensor.data)
        indices = g.indices
        if (indices[1:] > indices[:-1]).all():  # unique, so no row adds twice
            current[indices] += g.rows
        else:
            np.add.at(current, indices, g.rows)
    elif current is None:
        flowing[key] = np.asarray(g)  # a reduction to shape () gives a numpy scalar
    else:
        current += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ashape, bshape = a.data.shape, b.data.shape

    def backward_fn(g):
        ga, gb = _unbroadcast(g, ashape), _unbroadcast(g, bshape)
        return [ga, gb.copy() if gb is ga else gb]

    return _finish(a.data + b.data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ashape, bshape = a.data.shape, b.data.shape

    def backward_fn(g):
        return [_unbroadcast(g, ashape), _unbroadcast(-g, bshape)]

    return _finish(a.data - b.data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    adata, bdata = a.data, b.data
    need_a, need_b = _needs_grad(a), _needs_grad(b)

    def backward_fn(g):
        return [_unbroadcast(g * bdata, adata.shape) if need_a else None,
                _unbroadcast(g * adata, bdata.shape) if need_b else None]

    return _finish(adata * bdata, (a, b), backward_fn)


def scale(x, factor: float) -> Tensor:
    x = as_tensor(x)
    factor = float(factor)

    def backward_fn(g):
        return [g * factor]

    return _finish(x.data * factor, (x,), backward_fn)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    adata, bdata = a.data, b.data
    if adata.ndim != 2 or bdata.ndim != 2:
        raise ValueError(f"matmul needs two matrices, got shapes {adata.shape} and {bdata.shape}")
    out = adata @ bdata
    need_a, need_b = _needs_grad(a), _needs_grad(b)

    def backward_fn(g):
        return [_matmul_grad_a(g, adata, bdata) if need_a else None,
                _matmul_grad_b(g, adata, bdata) if need_b else None]

    return _finish(out, (a, b), backward_fn)


def _matmul_grad_a(g: Array, adata: Array, bdata: Array) -> Array:
    return g @ bdata.T


def _matmul_grad_b(g: Array, adata: Array, bdata: Array) -> Factors:
    return Factors(adata, g)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def concat(tensors: Iterable) -> Tensor:
    """Matrices of equal row count side by side: row i of the result is row
    i of each part, in order."""
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ValueError("concat needs at least one tensor")
    datas = [p.data for p in parts]
    if any(d.ndim != 2 for d in datas):
        raise ValueError(f"concat joins matrices, got shapes {[d.shape for d in datas]}")
    ends = np.cumsum([d.shape[1] for d in datas])[:-1]

    def backward_fn(g):
        return [part.copy() for part in np.split(g, ends, axis=1)]

    return _finish(np.concatenate(datas, axis=1), tuple(parts), backward_fn)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis)
    shape = x.data.shape

    def backward_fn(g):
        if axis is None:
            return [np.full(shape, float(g))]
        return [np.broadcast_to(np.expand_dims(g, axis), shape).copy()]

    return _finish(np.asarray(out), (x,), backward_fn)


def mean(xs: Iterable) -> Tensor:
    """The mean of a sequence of scalar tensors, in one record."""
    parts = [as_tensor(x) for x in xs]
    if not parts or any(p.data.shape != () for p in parts):
        raise ValueError(f"mean needs one or more scalars, "
                         f"got shapes {[p.data.shape for p in parts]}")
    count = len(parts)

    def backward_fn(g):
        return [np.full((), float(g) / count) for _ in parts]

    return _finish(np.asarray(np.mean([p.data for p in parts])), tuple(parts), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities and attention weights
# ---------------------------------------------------------------------------


def _sigmoid_stable(v: Array) -> Array:
    """1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) below, so no exp overflows."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def backward_fn(g):
        return [g * (1.0 - out * out)]

    return _finish(out, (x,), backward_fn)


def softplus(x) -> Tensor:
    x = as_tensor(x)
    xdata = x.data

    def backward_fn(g):
        return [g * _sigmoid_stable(xdata)]

    return _finish(np.logaddexp(0.0, xdata), (x,), backward_fn)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)

    def backward_fn(g):
        return [g * out]

    return _finish(out, (x,), backward_fn)


def _softmax(x: Array) -> Array:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: Array, out: Array) -> Array:
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def dot_attention_weights(query, keys) -> Tensor:
    """``softmax(query @ keysᵀ)`` in one record: the weights of each row of a
    (k, d) query over the rows of (n, d) ``keys``."""
    query, keys = as_tensor(query), as_tensor(keys)
    qdata, kdata = query.data, keys.data
    if qdata.ndim != 2 or kdata.ndim != 2 or qdata.shape[1] != kdata.shape[1]:
        raise ValueError(f"dot attention needs a (k, d) query and (n, d) keys, "
                         f"got {qdata.shape} and {kdata.shape}")
    scores = qdata @ kdata.T
    _require_finite(scores, "attention scores")
    out = _softmax(scores)

    def backward_fn(g):
        g_s = _softmax_grad(g, out)
        return [g_s @ kdata, (qdata.T @ g_s).T]

    return _finish(out, (query, keys), backward_fn)


def additive_attention_weights(query, keys, v) -> Tensor:
    """``softmax(tanh(query + keys) @ v)`` in one record: the weights of each
    row of a (k, a) query over the rows of (n, a) ``keys``, for an (a,) ``v``;
    the backward recomputes the tanh."""
    query, keys, v = as_tensor(query), as_tensor(keys), as_tensor(v)
    qdata, kdata, vdata = query.data, keys.data, v.data
    if qdata.ndim != 2 or not qdata.shape[1:] == kdata.shape[1:] == vdata.shape:
        raise ValueError(f"additive attention needs a (k, a) query, (n, a) keys and an (a,) v, "
                         f"got {qdata.shape}, {kdata.shape} and {vdata.shape}")
    pre = qdata[:, None, :] + kdata                     # (k, n, a)
    _require_finite(pre, "additive attention pre-activation")
    scores = np.tanh(pre).reshape(-1, vdata.size) @ vdata
    out = _softmax(scores.reshape(pre.shape[:2]))

    def backward_fn(g):
        g_s = _softmax_grad(g, out).ravel()
        act = np.tanh(qdata[:, None, :] + kdata)
        g_pre = np.outer(g_s, vdata).reshape(act.shape) * (1.0 - act * act)
        return [g_pre.sum(axis=1), g_pre.sum(axis=0), act.reshape(-1, vdata.size).T @ g_s]

    return _finish(out, (query, keys, v), backward_fn)


# ---------------------------------------------------------------------------
# row gather
# ---------------------------------------------------------------------------


def lookup(table, ids) -> Tensor:
    """The rows of a 2-D tensor, a parameter table or an op output alike, at
    a 1-D sequence of integer ids, as a matrix. The one row gather."""
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ValueError("lookup expects a 2-D table")
    idx = np.asarray(ids)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"lookup needs a 1-D sequence of integer ids, "
                         f"got {idx.dtype} ids of shape {idx.shape}")
    idx = idx.astype(np.intp)
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"lookup index out of range for table with {rows} rows")

    def backward_fn(g):
        return [RowGrad(idx, g)]

    return _finish(table.data[idx], (table,), backward_fn)


# ---------------------------------------------------------------------------
# likelihoods: one record per loss term
# ---------------------------------------------------------------------------


def _picks(record: str, rows: Array, index) -> Array:
    """``index`` as (k, m) strictly increasing in-range integer picks, a row
    per row of the (k, n) ``rows``; raises, naming ``record``, otherwise."""
    if rows.ndim != 2:
        raise ValueError(f"{record} needs a (k, n) matrix, one distribution per row, "
                         f"got shape {rows.shape}")
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"{record} needs integer indices, got {idx.dtype}")
    if idx.ndim != 2 or idx.shape[0] != rows.shape[0]:
        raise ValueError(f"{record} needs one row of indices per distribution, got "
                         f"index shape {idx.shape} for rows of shape {rows.shape}")
    if (idx[:, 1:] <= idx[:, :-1]).any():
        raise ValueError(f"{record} needs strictly increasing picks per distribution")
    if idx.size and (idx.min() < 0 or idx.max() >= rows.shape[1]):
        raise IndexError(f"target index out of range for distribution of size {rows.shape[1]}")
    return idx


def cross_entropy(p, index) -> Tensor:
    """Floored ``-log`` of picked probabilities, summed, in one record.

    ``p`` is a (k, n) matrix of k distributions, one per row, and the (k, m)
    ``index`` picks m strictly increasing entries per distribution; the
    result is the total of the k·m terms ``-log p[i, index[i, j]]``.
    Probabilities are clamped below at ``PROB_FLOOR``; a clamped entry gets
    no gradient.
    """
    p = as_tensor(p)
    pdata = p.data
    idx = _picks("cross_entropy", pdata, index)
    values = np.take_along_axis(pdata, idx, axis=1)
    terms = -np.log(np.maximum(values, PROB_FLOOR))

    def backward_fn(g):
        picked = np.zeros_like(values)
        np.divide(-g, values, out=picked, where=values >= PROB_FLOOR)
        grad = np.zeros_like(pdata)
        np.put_along_axis(grad, idx, picked, axis=1)
        return [grad]

    return _finish(terms.sum(axis=-1).sum(), (p,), backward_fn)


def softmax_cross_entropy(z, index, weights) -> Tensor:
    """Weighted ``-log softmax`` of picked logits, summed, in one record.

    ``z`` is a (k, n) matrix of logits, row i standing for the distribution
    ``softmax(z_i)``, and the (k, m) ``index`` picks m strictly increasing
    entries per row, scaled by ``weights`` of ``index``'s shape; the result
    is ``Σ w_ij (logsumexp(z_i) - z[i, index[i, j]])``. Nothing is floored,
    so a pick however unlikely gets its gradient: row i's is
    ``softmax(z_i)·Σ_j w_ij``, less ``w_ij`` at the picks.
    """
    z = as_tensor(z)
    zdata = z.data
    idx = _picks("softmax_cross_entropy", zdata, index)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != idx.shape:
        raise ValueError(f"weights have shape {w.shape}, index {idx.shape}")
    shifted = zdata - zdata.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    terms = w * (np.log(total) - np.take_along_axis(shifted, idx, axis=1))

    def backward_fn(g):
        g = float(g)
        grad = e * (g * w.sum(axis=1, keepdims=True) / total)
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=1) - g * w, axis=1)
        return [grad]

    return _finish(terms.sum(axis=-1).sum(), (z,), backward_fn)


def sigmoid_cross_entropy(z, target) -> Tensor:
    """Mean over entries of ``-(t log q + (1 - t) log(1 - q))``, with ``q``
    the sigmoid of ``z`` clamped to [PROB_FLOOR, 1 - PROB_FLOOR], in one
    record. Targets outside [0, 1] are taken as written. The gradient is
    ``(q - t) / n`` for n entries, zero where ``q`` is clamped.
    """
    z = as_tensor(z)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != z.data.shape:
        raise ValueError(f"targets have shape {t.shape}, logits {z.data.shape}")
    s = _sigmoid_stable(z.data)
    q = np.clip(s, PROB_FLOOR, 1.0 - PROB_FLOOR)
    inside = (s >= PROB_FLOOR) & (s <= 1.0 - PROB_FLOOR)

    def backward_fn(g):
        return [np.where(inside, (q - t) * (float(g) / t.size), 0.0)]

    return _finish(-(t * np.log(q) + (1.0 - t) * np.log(1.0 - q)).mean(), (z,), backward_fn)
