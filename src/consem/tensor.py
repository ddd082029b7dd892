"""Dense float tensors with reverse-mode automatic differentiation.

The model code in this package is written against a deliberately small
operation set.  Each operation computes its forward value eagerly with
numpy and, when a :class:`Tape` is active and the result requires a
gradient, records a node on the tape.  Nodes are stored in execution
order, so replaying them in reverse visits every consumer of a value
before its producer and plain accumulation into ``Tensor.grad`` yields
correct reverse-mode gradients, including for shared subexpressions
and tied parameters.

Default precision is float32.  Operations propagate the dtype of their
inputs, and :func:`precision` temporarily switches the dtype used for
newly constructed tensors; gradient-checking code uses this to run the
identical formulas in float64, where central differences are meaningful.

Reductions rely on numpy's fixed row-major traversal, so forward values
are reproducible bit-for-bit for identical inputs on the same platform.
Recording on a tape is not thread-safe; evaluation without a tape is.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Tape",
    "Tensor",
    "add",
    "attention",
    "backward",
    "concat",
    "constant",
    "cosine_similarity",
    "cross_entropy",
    "dropout",
    "gather_rows",
    "gelu",
    "layer_norm",
    "linear",
    "logsumexp",
    "matmul",
    "mean",
    "mul",
    "normalize_rows",
    "precision",
    "reduce_sum",
    "reshape",
    "scale",
    "softmax",
    "sub",
    "transpose",
]

_DEFAULT_DTYPE: np.dtype = np.dtype(np.float32)
_TAPE_STACK: list["Tape"] = []

LAYER_NORM_EPS = 1e-5
# Elements per row from which ``gather_rows``' backward adds row by row
# instead of through np.add.at, which costs about 13 ns per element.
SCATTER_ROW_LOOP = 128


@contextlib.contextmanager
def precision(dtype) -> Iterator[None]:
    """Temporarily construct new tensors with ``dtype`` (e.g. float64 for gradient checks)."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Attributes:
        data: the forward value, a C-contiguous numpy float array.
        grad: accumulated gradient of the most recent backward pass,
            or ``None`` if the tensor took no part in it.
        requires_grad: whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        # asarray with order="C" keeps 0-d shapes, unlike ascontiguousarray.
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @staticmethod
    def _result(data: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal constructor for op outputs: keeps the computed dtype.
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires_grad
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def constant(data, dtype=None) -> Tensor:
    """A tensor that never receives gradients (masks, fixed weights)."""
    return Tensor(data, requires_grad=False, dtype=dtype)


# A node is (output, inputs, backward_fn); backward_fn maps the output
# gradient to one gradient array (or None) per input, in input order.
_BackwardFn = Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of operations for one backward pass; :func:`backward` spends it."""

    __slots__ = ("_nodes", "__weakref__")

    def __init__(self):
        # backward replaces each node it has run with None.
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], _BackwardFn] | None] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def __len__(self) -> int:
        return len(self._nodes)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: _BackwardFn) -> None:
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1]._nodes.append((out, inputs, backward_fn))


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(tensor) into ``grad`` for every tensor on the tape.

    ``loss`` must be a scalar produced while ``tape`` was active.  Existing
    ``grad`` buffers on leaves are added to, so callers should clear
    parameter gradients between steps.

    The walk spends the tape: each node is dropped from it before its
    backward runs, so an activation, a saved array or an intermediate
    gradient is freed as soon as no later node and no caller holds it, and
    a step's memory only falls from the end of its forward.  Gradients
    land on every tensor the caller still holds.  ``len(tape)`` still
    counts the recorded nodes; a second walk of the tape is a ContractError.

    A tensor's first incoming gradient becomes its ``grad`` without a copy
    when nothing else can hold the array: it is not the node's own output
    gradient, not a view, not already handed to another input of the node,
    and it has the input's dtype.  Otherwise it is copied first.  Every
    later gradient is added into that buffer in place.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    nodes = tape._nodes
    if None in nodes:
        raise ContractError("backward over a spent tape: each tape can be walked once")
    loss.grad = np.ones_like(loss.data)
    for i in range(len(nodes) - 1, -1, -1):
        out, inputs, backward_fn = nodes[i]
        nodes[i] = None
        gout = out.grad
        if gout is None:
            continue
        grads = backward_fn(gout)
        handed: list[np.ndarray] = []
        for inp, gin in zip(inputs, grads):
            if gin is None or not inp.requires_grad:
                continue
            if gin.shape != inp.data.shape:
                raise ContractError(
                    f"gradient shape {gin.shape} does not match input shape {inp.data.shape}"
                )
            if inp.grad is not None:
                inp.grad += gin
                continue
            if (
                gin is gout
                or gin.base is not None
                or gin.dtype != inp.data.dtype
                or any(gin is h for h in handed)
            ):
                gin = gin.astype(inp.data.dtype)
            inp.grad = gin
            handed.append(gin)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _requires(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    out = Tensor._result(a.data + b.data, _requires(a, b))

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    _record(out, (a, b), backward_fn)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference with numpy broadcasting."""
    out = Tensor._result(a.data - b.data, _requires(a, b))

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    _record(out, (a, b), backward_fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    out = Tensor._result(a.data * b.data, _requires(a, b))

    def backward_fn(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    _record(out, (a, b), backward_fn)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (no gradient for the scalar)."""
    f = a.data.dtype.type(factor)
    out = Tensor._result(a.data * f, a.requires_grad)

    def backward_fn(g):
        return (g * f,)

    _record(out, (a,), backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading dimensions follow numpy broadcasting."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects at least 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = Tensor._result(a.data @ b.data, _requires(a, b))

    def backward_fn(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    _record(out, (a, b), backward_fn)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of the last axis, recorded as one node.

    ``x`` may have any leading dims.  The backward flattens them, so the
    weight gradient is one GEMM over every row instead of a per-batch stack
    summed afterwards.
    """
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear expects (..., n) @ (n, m) + (m,), got {x.shape}, {w.shape} and {b.shape}"
        )
    y = x.data @ w.data
    y += b.data
    out = Tensor._result(y, _requires(x, w, b))
    n_in, n_out = w.data.shape

    def backward_fn(g):
        g2 = g.reshape(-1, n_out)
        gx = gw = gb = None
        if x.requires_grad:
            gx = np.empty(x.data.shape, dtype=x.data.dtype)
            np.matmul(g2, w.data.T, out=gx.reshape(-1, n_in))
        if w.requires_grad:
            gw = x.data.reshape(-1, n_in).T @ g2
        if b.requires_grad:
            gb = g2.sum(axis=0)
        return gx, gw, gb

    _record(out, (x, w, b), backward_fn)
    return out


def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """(batch, seq, d) -> C-contiguous (batch, heads, seq, d / heads)."""
    batch, seq, d = t.shape
    return np.ascontiguousarray(t.reshape(batch, seq, heads, d // heads).transpose(0, 2, 1, 3))


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """(batch, heads, seq, head_dim) -> a new C-contiguous (batch, seq, heads * head_dim)."""
    batch, heads, seq, head_dim = t.shape
    merged = np.empty((batch, seq, heads * head_dim), dtype=t.dtype)
    merged.reshape(batch, seq, heads, head_dim)[...] = t.transpose(0, 2, 1, 3)
    return merged


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, mask_bias: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention, recorded as one node.

    ``k`` and ``v`` are (batch, seq, d) projections and ``q`` is
    (batch, queries, d) with at most ``seq`` queries, such as the [CLS] row
    alone; ``mask_bias`` broadcasts against the (batch, heads, queries, seq)
    scores and is added before the softmax.  Returns the merged
    (batch, queries, d) context and the (batch, heads, queries, seq) softmax
    maps as a plain array.  The backward is written out from the saved maps,
    splitting the inputs' heads again rather than keeping split copies.
    """
    if (
        q.ndim != 3
        or k.ndim != 3
        or v.shape != k.shape
        or q.shape[0] != k.shape[0]
        or q.shape[2] != k.shape[2]
        or q.shape[1] > k.shape[1]
    ):
        raise ShapeError(
            "attention expects (batch, queries, d) queries, queries <= seq, and equal (batch, seq, d) "
            f"keys and values, got {q.shape}, {k.shape} and {v.shape}"
        )
    if q.shape[-1] % heads != 0:
        raise ShapeError(f"width {q.shape[-1]} is not divisible by {heads} heads")
    # The numpy operations of the composed matmul, scale, mask add and softmax
    # ops, in their order and with their contiguous copies, so outputs are
    # bit-equal to theirs.  In-place steps keep the large temporaries to one.
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    scale = q.data.dtype.type(1.0 / np.sqrt(q.shape[-1] // heads))
    probs = qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    probs *= scale
    probs += mask_bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = Tensor._result(_merge_heads(probs @ vh), _requires(q, k, v))

    def backward_fn(g):
        qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
        gh = _split_heads(g, heads)
        gscores = gh @ vh.swapaxes(-1, -2)
        gscores -= (gscores * probs).sum(axis=-1, keepdims=True)
        gscores *= probs
        gscores *= scale
        gq = _merge_heads(gscores @ kh) if q.requires_grad else None
        gk = _merge_heads(gscores.swapaxes(-1, -2) @ qh) if k.requires_grad else None
        gv = _merge_heads(probs.swapaxes(-1, -2) @ gh) if v.requires_grad else None
        return gq, gk, gv

    _record(out, (q, k, v), backward_fn)
    return out, probs


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute axes."""
    axes = tuple(axes)
    out = Tensor._result(np.ascontiguousarray(a.data.transpose(axes)), a.requires_grad)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    _record(out, (a,), backward_fn)
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Row-major reshape."""
    shape = tuple(shape)
    out = Tensor._result(a.data.reshape(shape), a.requires_grad)
    original = a.data.shape

    def backward_fn(g):
        return (g.reshape(original),)

    _record(out, (a,), backward_fn)
    return out


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``."""
    if not parts:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([p.data for p in parts], axis=axis)
    out = Tensor._result(data, _requires(*parts))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    _record(out, tuple(parts), backward_fn)
    return out


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows ``table[ids]``; ids may have any shape, output gains a trailing row dim.

    Gradients scatter-add back into the table, so repeated ids accumulate.
    """
    idx = np.asarray(ids, dtype=np.intp)
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"row index out of range for table with {n} rows")
    out = Tensor._result(np.ascontiguousarray(table.data[idx]), table.requires_grad)

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        if idx.ndim == 1 and g[0].size >= SCATTER_ROW_LOOP:
            # np.add.at adds one element at a time.  Adding whole rows in id
            # order makes the same additions in the same order, vectorized.
            for j, i in enumerate(idx):
                gt[i] += g[j]
        else:
            np.add.at(gt, idx, g)
        return (gt,)

    _record(out, (table,), backward_fn)
    return out


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    out = Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad)
    shape = a.data.shape

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    _record(out, (a,), backward_fn)
    return out


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis`` (all axes when None)."""
    count = a.data.size if axis is None else a.data.shape[axis]
    if count == 0:
        raise DegenerateInputError("mean over an empty axis")
    out = Tensor._result(a.data.mean(axis=axis, keepdims=keepdims), a.requires_grad)
    shape = a.data.shape
    inv = a.data.dtype.type(1.0 / count)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g * inv, shape).copy(),)

    _record(out, (a,), backward_fn)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``; rows sum to one."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._result(y, a.requires_grad)

    def backward_fn(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    _record(out, (a,), backward_fn)
    return out


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Stable log-sum-exp along ``axis`` (axis is removed from the result)."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.asarray(np.squeeze(np.log(s) + m, axis=axis), order="C")
    out = Tensor._result(out_data, a.requires_grad)
    soft = e / s

    def backward_fn(g):
        return (soft * np.expand_dims(g, axis),)

    _record(out, (a,), backward_fn)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply gain and bias.

    Uses population variance with ``LAYER_NORM_EPS`` added under the square root, so a
    constant row maps to the bias vector rather than dividing by zero.
    """
    if gain.data.shape != x.data.shape[-1:] or bias.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm gain/bias must have shape {x.data.shape[-1:]}, "
            f"got {gain.data.shape} and {bias.data.shape}"
        )
    # The unfused formula's operations in its order, written into two owned
    # full-size buffers: ``xhat`` (kept for the backward) and the output.
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x.data, mu)
    y = np.multiply(xhat, xhat)
    var = y.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor._result(y, _requires(x, gain, bias))
    lead = tuple(range(x.data.ndim - 1))

    def backward_fn(g):
        # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain, with
        # ``gx`` built in place from gh and one scratch buffer.
        scratch = np.multiply(g, xhat)
        ggain = scratch.sum(axis=lead)
        gbias = g.sum(axis=lead)
        gx = np.multiply(g, gain.data)
        gh_mean = gx.mean(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=scratch)
        np.multiply(xhat, scratch.mean(axis=-1, keepdims=True), out=scratch)
        gx -= gh_mean
        gx -= scratch
        gx *= inv
        return gx, ggain, gbias

    _record(out, (x, gain, bias), backward_fn)
    return out


_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# The normal upper tail from Abramowitz & Stegun 7.1.26 for erfc, with
# x / sqrt(2) folded into ``p`` and the 1/2 of Phi into the coefficients:
# 1 - Phi(|x|) = t * P(t) * exp(-x^2 / 2), t = 1 / (1 + p |x|).  The
# absolute error is 7.5e-8 in exact arithmetic and 3e-7 in float32.
_CDF_P = 0.3275911 / float(np.sqrt(2.0))
_CDF_COEFFS = tuple(0.5 * a for a in (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
# Past this |x| the tail's exp(-x^2 / 2) is 0 in float32 and float64 alike,
# so clipping there changes no value and keeps x^2 from overflowing.
_CDF_CLIP = 40.0
# Elements per pass of the CDF kernel: its four float32 blocks (x, Phi, two
# scratch) take 512 KB, which stays in a 2 MB L2.
GELU_BLOCK = 1 << 15


def _normal_cdf(x: np.ndarray, times_x: bool = False) -> np.ndarray:
    """Phi(x) in ``x``'s dtype, as ``0.5 + copysign(0.5 - tail, x)``.

    Works through flat blocks of ``GELU_BLOCK`` elements, every step in
    place, so its 21 elementwise passes run over cache-resident data.  With
    ``times_x`` each block is then multiplied by ``x``, giving GELU itself.
    """
    kind = x.dtype.type
    p, clip, half = kind(_CDF_P), kind(_CDF_CLIP), kind(0.5)
    *inner, last = (kind(c) for c in _CDF_COEFFS)
    cdf = np.empty(x.shape, dtype=x.dtype)
    flat_x, flat_cdf = x.reshape(-1), cdf.reshape(-1)
    a = np.empty(min(GELU_BLOCK, x.size), dtype=x.dtype)
    t = np.empty_like(a)
    for start in range(0, x.size, GELU_BLOCK):
        xb = flat_x[start : start + GELU_BLOCK]
        q = flat_cdf[start : start + GELU_BLOCK]
        ab, tb = a[: xb.size], t[: xb.size]
        np.abs(xb, out=ab)
        np.minimum(ab, clip, out=ab)
        np.multiply(ab, p, out=tb)
        tb += 1
        np.reciprocal(tb, out=tb)
        np.multiply(ab, ab, out=ab)
        ab *= -half
        np.exp(ab, out=ab)
        np.multiply(tb, last, out=q)  # t * P(t) by Horner's rule
        for c in reversed(inner):
            q += c
            q *= tb
        q *= ab
        np.subtract(half, q, out=q)
        np.copysign(q, xb, out=q)
        q += half
        if times_x:
            q *= xb
    return cdf


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, ``x * Phi(x)`` with the normal CDF.

    Phi comes from :func:`_normal_cdf`, within 3e-7 of the exact CDF in
    float32.  Only a recording tape keeps Phi, for the backward; otherwise
    the kernel multiplies by ``x`` while each block is still in cache.
    """
    if not (_TAPE_STACK and x.requires_grad):
        return Tensor._result(_normal_cdf(x.data, times_x=True), x.requires_grad)
    cdf = _normal_cdf(x.data)
    out = Tensor._result(x.data * cdf, True)

    def backward_fn(g):
        return (_gelu_grad(x.data, cdf, g),)

    _record(out, (x,), backward_fn)
    return out


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g * (Phi(x) + x * phi(x))`` in ``x``'s dtype, over blocks of ``GELU_BLOCK``.

    Each block takes the unblocked formula's steps in its order,
    ``g * (cdf + x * (exp((-0.5 * x) * x) * c))``, in place in the output,
    so the result is bit-equal to it and no full-size temporary is made.
    """
    kind = x.dtype.type
    neg_half, c = kind(-0.5), kind(_INV_SQRT_2PI)
    gx = np.empty(x.shape, dtype=x.dtype)
    flat_x, flat_cdf, flat_g, flat_gx = (a.reshape(-1) for a in (x, cdf, g, gx))
    for start in range(0, x.size, GELU_BLOCK):
        block = slice(start, start + GELU_BLOCK)
        xb, ob = flat_x[block], flat_gx[block]
        np.multiply(xb, neg_half, out=ob)
        ob *= xb
        np.exp(ob, out=ob)
        ob *= c
        ob *= xb
        ob += flat_cdf[block]
        ob *= flat_g[block]
    return gx


def normalize_rows(x: Tensor) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm."""
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("cannot normalize a zero-norm row")
    y = x.data / norms
    out = Tensor._result(y, x.requires_grad)

    def backward_fn(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner * y) / norms,)

    _record(out, (x,), backward_fn)
    return out


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between two vectors, differentiable in both.

    Scale-invariant: multiplying either input by a positive scalar leaves
    the value unchanged.  Zero-norm inputs are rejected.
    """
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"cosine_similarity expects two equal-length vectors, got {a.shape} and {b.shape}")
    na = float(np.sqrt(np.dot(a.data, a.data)))
    nb = float(np.sqrt(np.dot(b.data, b.data)))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero-norm vector is undefined")
    sim = np.dot(a.data, b.data) / (na * nb)
    out = Tensor._result(np.asarray(sim, dtype=a.data.dtype), _requires(a, b))

    def backward_fn(g):
        ga = g * (b.data / (na * nb) - (sim / (na * na)) * a.data)
        gb = g * (a.data / (na * nb) - (sim / (nb * nb)) * b.data)
        return ga.astype(a.data.dtype, copy=False), gb.astype(b.data.dtype, copy=False)

    _record(out, (a, b), backward_fn)
    return out


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under row softmaxes."""
    idx = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    n, k = logits.shape
    if idx.shape != (n,):
        raise ShapeError(f"cross_entropy expects {n} targets, got shape {idx.shape}")
    if n == 0:
        raise DegenerateInputError("cross_entropy over zero rows")
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ShapeError(f"target class out of range for {k} classes")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    nll = lse - logits.data[np.arange(n), idx]
    out = Tensor._result(np.asarray(nll.mean(), dtype=logits.data.dtype), logits.requires_grad)

    def backward_fn(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), idx] -= 1.0
        return (p * (g / logits.data.dtype.type(n)),)

    _record(out, (logits,), backward_fn)
    return out


def dropout(
    x: Tensor, rate: float, rng: np.random.Generator, grid: tuple | None = None, slots=None
) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate``, rescale the rest.

    The mask is that of noise drawn over ``grid`` (default ``x.shape``) and
    cut to its leading ``x.shape`` corner.  Given ``slots``, a pair of
    equal-length index arrays ``(rows, positions)`` into a (batch, seq, d)
    ``grid``, ``x`` is (len(rows), d) and its row i takes the noise at
    ``grid[rows[i], positions[i]]``.  Either way ``rng`` is left as the full
    draw leaves it.  Intended for training mode only; evaluation code should
    simply not call it.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    shape = x.data.shape
    grid = tuple(grid or shape)
    if slots is None:
        if len(grid) != len(shape) or any(g < n for g, n in zip(grid, shape)):
            raise ShapeError(f"dropout grid {grid} does not contain the input shape {shape}")
        noise = _corner_noise(rng, shape, grid)
    else:
        rows, positions = slots
        if len(grid) != 3 or shape != (len(rows), grid[2]) or np.shape(positions) != np.shape(rows):
            raise ShapeError(f"dropout slots of a {grid} grid do not match the input shape {shape}")
        if not np.all((0 <= rows) & (rows < grid[0]) & (0 <= positions) & (positions < grid[1])):
            raise ShapeError(f"dropout slots lie outside the {grid} grid")
        # Draw every grid row up to the last position a slot reads, then pick the slots.
        corner = (grid[0], int(positions.max(initial=-1)) + 1, grid[2])
        noise = _corner_noise(rng, corner, grid)[rows, positions]
    kind = x.data.dtype.type
    keep = np.where(noise >= rate, kind(1) / kind(1.0 - rate), kind(0))
    out = Tensor._result(x.data * keep, x.requires_grad)

    def backward_fn(g):
        return (g * keep,)

    _record(out, (x,), backward_fn)
    return out


def _corner_noise(rng: np.random.Generator, shape: tuple, grid: tuple) -> np.ndarray:
    """``rng.random(grid)`` cut to its leading ``shape`` corner, drawing only that corner.

    When only the first two axes are cut, each row's corner is the first
    ``prod(shape[1:])`` values of its grid row.  One float64 draw takes
    exactly one PCG64 output, so drawing those values and then advancing
    the generator past the rest of the row (and past the grid rows beyond
    ``shape[0]``) yields the same values and the same final state as the
    full draw.  Other generators and cuts take the full draw.
    """
    if grid == shape or grid[2:] != shape[2:] or not isinstance(rng.bit_generator, np.random.PCG64):
        return rng.random(grid)[tuple(map(slice, shape))]
    rows, used = shape[0], int(np.prod(shape[1:]))
    row_size = int(np.prod(grid[1:]))
    noise = np.empty((rows, used))
    for r in range(rows):
        rng.random(used, out=noise[r])
        rng.bit_generator.advance(row_size - used)
    rng.bit_generator.advance((grid[0] - rows) * row_size)
    return noise.reshape(shape)
