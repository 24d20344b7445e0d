"""Float64 tensors with reverse-mode automatic differentiation.

Ops execute eagerly on numpy arrays. When a ``Tape`` is active (entered as a
context manager), each op appends a record holding its input tensors and a
closure mapping the output gradient to input gradients; ``backward`` walks the
records in reverse. With no active tape nothing is recorded, so inference and
finite-difference probes run at plain numpy speed.

Gradient ownership: for each input, a backward rule returns either its
upstream gradient ``g_out`` itself (``add`` hands it to both operands) or a
value it allocated, which shares no memory with ``g_out`` or with the rule's
other results (``lookup``'s ``RowGrad`` rows may be ``g_out``; they are only
read). ``backward`` owns, and later adds into in place, every gradient a rule
allocated; a ``g_out`` passed through is copied once, before its first write
or when it reaches a leaf. Each leaf gradient returned is an array owned by
``backward`` alone: no two parameters share one, and none aliases an
intermediate gradient, so callers may scale them in place.

Row-sparse lookups: the backward rule of ``lookup`` returns ``RowGrad(indices,
rows)`` rather than a dense table-size array. ``backward`` scatter-adds those
rows into one owned table-size buffer per table, which dense gradients of the
same table (say, from a ``matmul``) accumulate into as well; the gradients it
returns are always dense.

Every op validates that its output is finite, so a bad computation surfaces at
the op that produced it rather than as a NaN loss many steps later.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, NamedTuple, Sequence

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


def _require_finite(values: Array, what: str) -> None:
    """Raise FloatingPointError if per-op checks are on and ``values`` holds a
    NaN or an infinity."""
    if _check_finite and not np.isfinite(values).all():
        raise FloatingPointError(f"{what} produced non-finite values")


def _finish(out_data, inputs: tuple[Tensor, ...],
            backward_fn: Callable[[Array], Sequence[Array | None]]) -> Tensor:
    out = Tensor(out_data)
    _require_finite(out.data, "primitive")
    tape = active_tape()
    if tape is not None and any(t.requires_grad or t._tracked for t in inputs):
        out._tracked = True
        tape.records.append(TapeRecord(inputs, out, backward_fn))
    return out


class RowGrad(NamedTuple):
    """Row-sparse gradient of a 2-D table: ``rows[k]`` adds to row
    ``indices[k]``; an index may repeat."""

    indices: Array
    rows: Array


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, Array]:
    """Reverse sweep over ``tape`` from a scalar ``loss``.

    Returns gradient arrays keyed by tensor for every requires_grad tensor
    that appears on the tape (zeros for those not reachable from the loss),
    and stores the same arrays on each tensor's ``grad`` attribute. Every
    returned array is a fresh one that no other tensor's gradient shares.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()
    for rec in reversed(tape.records):
        g_out = flowing.pop(id(rec.output), None)
        if g_out is None:
            continue
        for tensor, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is not None:
                _accumulate(flowing, owned, tensor, g, g is not g_out)
    result: dict[Tensor, Array] = {}
    for rec in tape.records:
        for tensor in rec.inputs:
            if tensor.requires_grad and tensor not in result:
                key = id(tensor)
                grad = flowing.get(key)
                if grad is None:
                    grad = np.zeros_like(tensor.data)
                elif key not in owned:
                    grad = np.array(grad, dtype=np.float64)
                result[tensor] = grad
                tensor.grad = grad
    return result


def _accumulate(flowing: dict[int, Array], owned: set[int], tensor: Tensor, g,
                fresh: bool) -> None:
    """Add gradient ``g`` (dense, or a RowGrad) to ``tensor``'s entry in
    ``flowing``; ``owned`` holds the keys whose arrays ``backward`` may write
    into, and ``fresh`` says that a rule allocated ``g``."""
    key = id(tensor)
    current = flowing.get(key)
    if isinstance(g, RowGrad):
        if key not in owned:
            flowing[key] = current = (np.zeros_like(tensor.data) if current is None
                                      else np.array(current, dtype=np.float64))
            owned.add(key)
        np.add.at(current, g.indices, g.rows)
    elif current is None:
        flowing[key] = np.asarray(g)  # a reduction to shape () gives a numpy scalar
        if fresh:
            owned.add(key)
    elif key in owned:
        current += g
    else:
        flowing[key] = np.asarray(current + g)
        owned.add(key)


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
    """1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) below, so no exp overflows."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


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
        return [RowGrad(idx, g[None, :] if single else g)]

    return _finish(out, (table,), backward_fn)


def cross_entropy(p, index, floor: float = PROB_FLOOR) -> Tensor:
    """-log p[index] with the probability clamped below at ``floor``.

    A 1-D distribution takes one index and gives a scalar; a 2-D ``p`` holds
    one distribution per row, takes one index per row and gives the vector of
    per-row values, all in one record.
    """
    p = as_tensor(p)
    pdata = p.data
    if pdata.ndim not in (1, 2):
        raise ValueError("cross_entropy expects a 1-D distribution or a 2-D batch of them")
    idx = np.asarray(index, dtype=np.intp)
    if idx.shape != pdata.shape[:-1]:
        raise ValueError(f"cross_entropy needs one target index per distribution, got "
                         f"index shape {idx.shape} for distributions of shape {pdata.shape}")
    size = pdata.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise IndexError(f"target index out of range for distribution of size {size}")
    at = idx[..., None]
    values = np.take_along_axis(pdata, at, axis=-1)[..., 0]
    clamped = np.maximum(values, floor)

    def backward_fn(g):
        picked = np.zeros_like(values)
        np.divide(-g, values, out=picked, where=values >= floor)
        grad = np.zeros_like(pdata)
        np.put_along_axis(grad, at, picked[..., None], axis=-1)
        return [grad]

    return _finish(-np.log(clamped), (p,), backward_fn)
