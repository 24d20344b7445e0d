"""Float64 tensors with reverse-mode automatic differentiation.

Ops execute eagerly on numpy arrays. When a ``Tape`` is active (entered as a
context manager), each op appends a record holding its input tensors and a
closure mapping the output gradient to input gradients; ``backward`` walks the
records in reverse. With no active tape nothing is recorded, so inference and
finite-difference probes run at plain numpy speed.

Every op validates that its output is finite, so a bad computation surfaces at
the op that produced it rather than as a NaN loss many steps later.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

_local = threading.local()

_check_finite = True

# Lower clamp applied to probabilities before taking their log.
PROB_FLOOR = 1e-12


def set_finite_checks(enabled: bool) -> bool:
    """Toggle per-op NaN/Inf validation; returns the previous setting."""
    global _check_finite
    previous = _check_finite
    _check_finite = bool(enabled)
    return previous


class Tensor:
    """A float64 array, optionally marked as a trainable leaf."""

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._tracked = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}{flag})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, key):
        return slice_(self, key)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape))


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


def _finish(out_data, inputs: tuple[Tensor, ...],
            backward_fn: Callable[[Array], Sequence[Array | None]]) -> Tensor:
    out = Tensor(out_data)
    if _check_finite and not np.isfinite(out.data).all():
        raise FloatingPointError("primitive produced non-finite values")
    tape = active_tape()
    if tape is not None and any(t.requires_grad or t._tracked for t in inputs):
        out._tracked = True
        tape.records.append(TapeRecord(inputs, out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, Array]:
    """Reverse sweep over ``tape`` from a scalar ``loss``.

    Returns gradient arrays keyed by tensor for every requires_grad tensor
    that appears on the tape (zeros for those not reachable from the loss),
    and stores the same arrays on each tensor's ``grad`` attribute.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(tape.records):
        g_out = flowing.pop(id(rec.output), None)
        if g_out is None:
            continue
        for tensor, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is None:
                continue
            key = id(tensor)
            if key in flowing:
                flowing[key] = flowing[key] + g
            else:
                flowing[key] = g
    result: dict[Tensor, Array] = {}
    for rec in tape.records:
        for tensor in rec.inputs:
            if tensor.requires_grad and tensor not in result:
                grad = flowing.get(id(tensor))
                if grad is None:
                    grad = np.zeros_like(tensor.data)
                else:
                    grad = np.asarray(grad, dtype=np.float64)
                result[tensor] = grad
                tensor.grad = grad
    return result


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
        return [_unbroadcast(g, ashape), _unbroadcast(g, bshape)]

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

    def backward_fn(g):
        return [_unbroadcast(g * bdata, adata.shape), _unbroadcast(g * adata, bdata.shape)]

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
    if not (1 <= adata.ndim <= 2 and 1 <= bdata.ndim <= 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {adata.ndim}-D @ {bdata.ndim}-D")
    out = adata @ bdata

    def backward_fn(g):
        if adata.ndim == 1 and bdata.ndim == 1:
            return [g * bdata, g * adata]
        if adata.ndim == 2 and bdata.ndim == 1:
            return [np.outer(g, bdata), adata.T @ g]
        if adata.ndim == 1 and bdata.ndim == 2:
            return [bdata @ g, np.outer(adata, g)]
        return [g @ bdata.T, adata.T @ g]

    return _finish(np.asarray(out), (a, b), backward_fn)


def dot(a, b) -> Tensor:
    """Inner product of two vectors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dot expects two vectors")
    return matmul(a, b)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ValueError("concat needs at least one tensor")
    datas = [p.data for p in parts]
    out = np.concatenate(datas, axis=axis)
    axis_n = axis % out.ndim
    sizes = [d.shape[axis_n] for d in datas]

    def backward_fn(g):
        grads = []
        start = 0
        for size in sizes:
            index = [slice(None)] * g.ndim
            index[axis_n] = slice(start, start + size)
            grads.append(g[tuple(index)].copy())
            start += size
        return grads

    return _finish(out, tuple(parts), backward_fn)


def stack(tensors: Iterable) -> Tensor:
    """Stack equal-shape tensors along a new leading axis (scalars give a vector)."""
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ValueError("stack needs at least one tensor")
    out = np.stack([p.data for p in parts], axis=0)

    def backward_fn(g):
        return [g[i].copy() for i in range(len(parts))]

    return _finish(out, tuple(parts), backward_fn)


def slice_(x, key) -> Tensor:
    """Basic indexing (ints and slices); use lookup for index arrays."""
    x = as_tensor(x)
    _validate_basic_key(key)
    out = np.array(x.data[key])
    shape = x.data.shape

    def backward_fn(g):
        full = np.zeros(shape)
        full[key] += g
        return [full]

    return _finish(out, (x,), backward_fn)


def _validate_basic_key(key) -> None:
    parts = key if isinstance(key, tuple) else (key,)
    for part in parts:
        if not isinstance(part, (int, np.integer, slice)):
            raise TypeError(f"slice_ supports ints and slices only, got {type(part).__name__}")


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


def mean(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis)
    shape = x.data.shape
    count = x.data.size if axis is None else shape[axis]

    def backward_fn(g):
        if axis is None:
            return [np.full(shape, float(g) / count)]
        return [np.broadcast_to(np.expand_dims(g / count, axis), shape).copy()]

    return _finish(np.asarray(out), (x,), backward_fn)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def _sigmoid_stable(v: Array) -> Array:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def backward_fn(g):
        return [g * (1.0 - out * out)]

    return _finish(out, (x,), backward_fn)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = _sigmoid_stable(x.data)

    def backward_fn(g):
        return [g * out * (1.0 - out)]

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


def log(x) -> Tensor:
    x = as_tensor(x)
    xdata = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(xdata)

    def backward_fn(g):
        return [g / xdata]

    return _finish(out, (x,), backward_fn)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through only inside the range."""
    x = as_tensor(x)
    xdata = x.data
    mask = (xdata >= lo) & (xdata <= hi)

    def backward_fn(g):
        return [g * mask]

    return _finish(np.clip(xdata, lo, hi), (x,), backward_fn)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return [out * (g - inner)]

    return _finish(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# indexing ops over parameter tables and distributions
# ---------------------------------------------------------------------------


def lookup(table, ids) -> Tensor:
    """Row lookup into a 2-D table: an int gives a vector, a sequence a matrix."""
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ValueError("lookup expects a 2-D table")
    single = isinstance(ids, (int, np.integer))
    idx = np.asarray([ids] if single else list(ids), dtype=np.intp)
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"lookup index out of range for table with {rows} rows")
    gathered = table.data[idx]
    out = gathered[0] if single else gathered

    def backward_fn(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g[None, :] if single else g)
        return [full]

    return _finish(out, (table,), backward_fn)


def cross_entropy(p, index: int, floor: float = PROB_FLOOR) -> Tensor:
    """-log p[index] with the probability clamped below at ``floor``."""
    p = as_tensor(p)
    if p.data.ndim != 1:
        raise ValueError("cross_entropy expects a 1-D distribution")
    i = int(index)
    if not 0 <= i < p.data.shape[0]:
        raise IndexError(f"target index {i} out of range for distribution of size {p.data.shape[0]}")
    value = float(p.data[i])
    clamped = value if value > floor else floor

    def backward_fn(g):
        grad = np.zeros_like(p.data)
        if value >= floor:
            grad[i] = -float(g) / value
        return [grad]

    return _finish(np.asarray(-np.log(clamped)), (p,), backward_fn)
