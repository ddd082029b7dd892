"""Adam with decoupled weight decay, and the settings, batch schedule and epoch loop both trainers share.

Every step cuts its batch into :data:`_STEP_SHARDS` shards (see
:func:`train_epochs`).  A shard runs its forward, publishes a block (the
pooled vectors a coupled loss needs from the other shards; nothing for
fine-tuning), then computes its share of the batch's loss from every
shard's block and backpropagates it.  The step's gradient is the sum, in
shard order, of each shard's gradient, made in AdamW's flat gradient
buffer.  Where ``workers.worker_count`` allows a second process, the last
shard runs in one ``workers.Helper`` started for the whole loop over
shared parameters.  Each shard's result depends only on its rows, its
place in the batch, the batch's fresh dropout generator and the blocks,
so the bytes do not depend on the number of processes.
"""

from __future__ import annotations

import copy
import functools
import mmap
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import workers
from .errors import ConfigError, ContractError, TrainingDivergedError
from .tensor import Tape, Tensor, backward

__all__ = ["BETA1", "BETA2", "EPS", "QUIET_FLOAT_ERRORS", "AdamW", "TrainingConfig", "minibatches", "train_epochs"]

# AdamW's fixed moment decay rates, and the epsilon added to the root of the second moment.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# ``np.errstate`` settings for a training run.  Overflow on the way to a
# non-finite loss or gradient is expected when a run diverges;
# ``train_epochs``' loss check and ``AdamW.step``'s gradient check report it
# as one TrainingDivergedError, so numpy's warnings would only repeat it.
QUIET_FLOAT_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@dataclass
class TrainingConfig:
    """The batch schedule and optimizer settings both training stages share; a range error names the field."""

    batch_size: int = 8
    epochs: int = 10
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name, low, bound in (("batch_size", 1, ">= 1"), ("epochs", 1, ">= 1"), ("seed", 0, "non-negative")):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be {bound}, got {value}")
        # Each range is written so that NaN and inf fail it.
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")


def minibatches(order: np.ndarray, batch_size: int, seed: int, stream: int, epoch: int):
    """Yield ``(rows, rng)`` for each consecutive block ``b`` of ``order`` (the last may be short).

    ``rng`` is ``default_rng([seed, stream, epoch, b])``, the block's dropout generator.
    """
    for batch_no, start in enumerate(range(0, len(order), batch_size)):
        yield order[start : start + batch_size], np.random.default_rng([seed, stream, epoch, batch_no])


# Each training step's batch is cut into this many shards: the first
# ceil(n / 2) rows and the rest.  A constant, not the worker count, so the
# bytes do not depend on how many processes run them.
_STEP_SHARDS = 2


def _shards(rows: np.ndarray) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """``rows`` cut into :data:`_STEP_SHARDS` consecutive shards (one for a single row), the first
    ``ceil(n / 2)`` rows and the rest, each with its place ``(first row, batch rows)``."""
    parts = np.array_split(rows, min(_STEP_SHARDS, len(rows)))
    firsts = np.cumsum([0, *(len(part) for part in parts[:-1])])
    return [(part, (int(first), len(rows))) for part, first in zip(parts, firsts)]


def _check_loss(value, optimizer: AdamW, epoch: int) -> None:
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss at step {optimizer.step_count + 1} (epoch {epoch})")


class _Shard:
    """One shard of a step between its two stages: its forward is taped, its loss is not yet.

    ``batch_loss(rows, rng, epoch, place)`` runs the forward and returns ``(block,
    loss)``: ``block`` is what the shard publishes to the step's other shards, and
    ``loss(blocks)``, given every shard's block in shard order (this shard's own
    among them, as the same object), returns the shard's loss tensor.
    """

    def __init__(self, batch_loss: Callable, rows: np.ndarray, place: tuple[int, int], rng, epoch: int):
        self.tape = Tape()
        with self.tape:
            self.block, self._loss = batch_loss(rows, rng, epoch, place)

    def finish(self, blocks: list) -> float:
        """The shard's loss value, backpropagated into the parameters' ``grad`` if it is finite."""
        loss_fn, self._loss = self._loss, None
        with self.tape:
            loss = loss_fn(blocks)
        value = float(loss.data)
        if np.isfinite(value):
            backward(loss, self.tape)
        return value


def train_epochs(
    items: np.ndarray,
    config: TrainingConfig,
    optimizer: AdamW,
    batch_loss: Callable[[np.ndarray, np.random.Generator, int, tuple[int, int]], tuple[Any, Callable]],
    shuffle_stream: int,
    dropout_stream: int,
):
    """Run ``config.epochs`` epochs over ``items``; yield each epoch number after its steps.

    Epoch ``e`` visits ``items`` permuted by ``default_rng([seed, shuffle_stream, e])`` in
    :func:`minibatches` from ``dropout_stream``.  Each block is cut into
    :data:`_STEP_SHARDS` consecutive shards (:func:`_shards`; a block of one row stays one
    shard), and each shard runs in two stages (:class:`_Shard`), each under the shard's
    own tape.  First every shard's ``batch_loss(rows, rng, e, place)`` runs its forward
    and returns its block, ``place`` being ``(first row, block rows)`` and ``rng`` a copy
    of the block's fresh dropout generator.  Then each shard's loss, given every shard's
    block in shard order, is backpropagated from zero gradients.  A shard's loss is its
    share of the block's loss, so the block's gradient is the sum of the shards'
    gradients: shard 0's is gathered into AdamW's flat ``_grad`` and the last shard's
    into a second buffer of that layout in a shared mapping, one whole-buffer add sums
    them, and AdamW updates from ``_grad``.  A non-finite shard loss raises
    TrainingDivergedError before anything changes; with several failing shards the
    first one's error is raised.

    Where ``workers.worker_count`` allows two processes, AdamW's parameters move into a
    shared mapping and the last shard of each block runs in one helper started then
    (:func:`_serve_shard`), which fills the second buffer; if none can start, the caller
    runs it and fills the buffer, as a one-process loop does.  Each step sends the
    helper its shard, receives the helper's block once the caller's own forwards are
    done, and only then sends the caller's blocks: each side's blocks may be more than
    a pipe holds, so the caller that sent first would wait on a helper waiting on it.
    The helper is closed when the loop ends, raises or is closed: a caller that may
    stop early closes the generator.
    """
    second = _shared_zeros(optimizer._grad.size, optimizer._grad.dtype)
    grads = (optimizer._grads, optimizer._views(second))
    helper = None
    if min(config.batch_size, len(items)) > 1 and workers.worker_count(_STEP_SHARDS) > 1:
        optimizer._bind(_shared_zeros(optimizer._flat.size, optimizer._flat.dtype))
        helper = workers.Helper.start(functools.partial(_serve_shard, optimizer, batch_loss, grads[1], []))
    try:
        for epoch in range(1, config.epochs + 1):
            order = items[np.random.default_rng([config.seed, shuffle_stream, epoch]).permutation(len(items))]
            for rows, rng in minibatches(order, config.batch_size, config.seed, dropout_stream, epoch):
                parts = _shards(rows)
                rngs = [rng, *(copy.deepcopy(rng) for _ in parts[1:])]
                remote = helper is not None and len(parts) > 1
                if remote:
                    helper.send((*parts[-1], rngs[-1], epoch))
                local = [_Shard(batch_loss, part, place, shard_rng, epoch)
                         for (part, place), shard_rng in zip(parts[: len(parts) - remote], rngs)]
                blocks = [shard.block for shard in local]
                if remote:
                    blocks.append(helper.receive())
                    helper.send(blocks[:-1])
                for shard, views in zip(local, grads):
                    _check_loss(shard.finish(blocks), optimizer, epoch)
                    optimizer._gather(views)
                    optimizer.zero_grad()
                if remote:
                    _check_loss(helper.receive(), optimizer, epoch)
                # The shards and blocks are freed before the next step's forward.
                local = blocks = shard = None
                if len(parts) > 1:
                    optimizer._grad += second
                optimizer._apply()
            yield epoch
    finally:
        if helper is not None:
            helper.close()


def _shared_zeros(size: int, dtype: np.dtype) -> np.ndarray:
    """A zeroed 1-d array of ``size`` elements in an anonymous shared mapping, page aligned.

    A process forked after it is made shares its pages: each sees the other's writes.
    """
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * dtype.itemsize), dtype=dtype, count=size)


def _serve_shard(optimizer: AdamW, batch_loss: Callable, grads: list[np.ndarray], held: list, request):
    """The shard helper's handler, called twice per step, once per stage of its shard.

    The first request is the shard's rows and place, the block's fresh dropout
    generator and the epoch: the shard's forward runs, is held, and its block is the
    reply.  The second is the caller's blocks, in shard order: the held shard's loss
    runs, its gradients are gathered into ``grads``, the views of the loop's second
    gradient buffer (:meth:`AdamW._gather`), and its loss value is the reply.  A
    non-finite loss is returned without a backward.
    """
    if not held:
        rows, place, rng, epoch = request
        held.append(_Shard(batch_loss, rows, place, rng, epoch))
        return held[0].block
    shard = held.pop()
    try:
        value = shard.finish([*request, shard.block])
        optimizer._gather(grads)
    finally:
        optimizer.zero_grad()
    return value


# Each parameter's slot in the flat buffer starts on a 64-byte boundary,
# the width of a cache line and of an AVX-512 register.
_ALIGN_BYTES = 64


def _aligned_zeros(size: int, dtype: np.dtype) -> np.ndarray:
    """A zeroed 1-d array of ``size`` elements whose first element is 64-byte aligned."""
    pad = _ALIGN_BYTES // dtype.itemsize
    raw = np.zeros(size + pad, dtype=dtype)
    skip = (-raw.ctypes.data % _ALIGN_BYTES) // dtype.itemsize
    return raw[skip : skip + size]


class AdamW:
    """First/second-moment adaptive steps plus decoupled weight decay.

    The parameters, which must share one dtype, are packed into one flat
    buffer in insertion order: construction copies each parameter's
    ``data`` into its own 64-byte aligned slot and rebinds ``data`` to a
    view of that slot, so arrays held from before construction are no
    longer the parameters.  A shard helper's start moves them once more,
    into a shared mapping (see :func:`train_epochs`).  The moments, the gradient and the update live in
    flat buffers of the same layout, so the update (:meth:`_apply`) is a fixed number of
    whole-buffer ufunc calls however many parameters there are; the zero
    padding between slots stays zero.  Each element takes the same
    float operations as a per-parameter update, so two optimizers built
    from the same parameter mapping evolve identically.  The decay term is
    applied directly to the parameter, outside the adaptive update.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float, weight_decay: float = 0.01):
        # Each range is written so that NaN and inf fail it.
        if not 0.0 < learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {learning_rate}")
        if not 0.0 <= weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be non-negative and finite, got {weight_decay}")
        dtypes = sorted({str(p.data.dtype) for p in params.values()})
        if len(dtypes) > 1:
            raise ContractError(f"AdamW needs parameters of one dtype, got {', '.join(dtypes)}")
        self.params = dict(params)
        # Python floats, so every constant enters the update in the buffer's dtype.
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        dtype = np.dtype(dtypes[0] if dtypes else np.float32)
        align = _ALIGN_BYTES // dtype.itemsize
        starts, size = [], 0
        for p in self.params.values():
            starts.append(size)
            size += -(-p.data.size // align) * align
        self._slots = [(slice(start, start + p.data.size), p.data.shape)
                       for p, start in zip(self.params.values(), starts)]
        flat, self._m, self._v, self._grad, self._update, self._scratch = (
            _aligned_zeros(size, dtype) for _ in range(6)
        )
        self._bind(flat)
        self._grads = self._views(self._grad)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's slot of ``flat``, a buffer with the flat layout, shaped like the parameter."""
        return [flat[slot].reshape(shape) for slot, shape in self._slots]

    def _bind(self, flat: np.ndarray) -> None:
        """Copy the parameters into ``flat``, a zeroed buffer with the flat layout, and make it theirs."""
        for p, view in zip(self.params.values(), self._views(flat)):
            view[...] = p.data
            p.data = view
        self._flat = flat

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the parameters:
        gather them into ``_grad`` (:meth:`_gather`), then :meth:`_apply`.

        Parameters whose ``grad`` is ``None`` are treated as having a zero
        gradient (their moments still decay and weight decay still applies).
        A non-finite gradient raises an error naming the first such
        parameter, before any parameter or moment changes.
        """
        self._gather(self._grads)
        self._apply()

    def _gather(self, grads: list[np.ndarray]) -> None:
        """Copy each parameter's ``grad`` into its view in ``grads`` (see :meth:`_views`), zero for None."""
        for p, g in zip(self.params.values(), grads):
            if p.grad is None:
                g.fill(0)
            else:
                np.copyto(g, p.grad)

    def _apply(self) -> None:
        """:meth:`step`'s update from the gradient already in ``_grad``, where
        :func:`train_epochs` sums its shards' gradients."""
        t = self.step_count + 1
        g = self._grad
        # The sum is finite unless a gradient is not (or the sum overflows);
        # only then is each parameter checked on its own.
        if not np.isfinite(g.sum()):
            for name, pg in zip(self.params, self._grads):
                if not np.isfinite(pg).all():
                    raise TrainingDivergedError(f"non-finite gradient for parameter '{name}' at step {t}")
        self.step_count = t
        m, v, update, scratch = self._m, self._v, self._update, self._scratch
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=scratch)
        m += scratch
        v *= BETA2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - BETA2
        v += scratch
        np.divide(m, 1.0 - BETA1**t, out=update)
        np.divide(v, 1.0 - BETA2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        update /= scratch
        if self.weight_decay:
            np.multiply(self._flat, self.weight_decay, out=scratch)
            update += scratch
        update *= self.learning_rate
        self._flat -= update
