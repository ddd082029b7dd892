"""A small bidirectional transformer encoder with pluggable sentence pooling.

The encoder is the post-norm variant: each block applies multi-head
self-attention and a GELU feed-forward network, with dropout on each
sublayer output before its residual addition and a layer norm after it.
Padding positions are excluded from attention by adding a large negative
bias to their key columns, so padding never changes the states at real
positions.  One pass serves both modes: ``forward_batch`` reads the
architecture from the weights and runs in train mode, with dropout,
exactly when it is given a dropout generator; without one it is the
deterministic evaluation pass that embeddings and predictions come from.

``forward_batch`` is the only code that pads: it pads a ragged batch to
its longest sequence and keeps the padding mask with every layer's
(batch, seq, d) hidden states, which the pooling strategies consume, and
with the last block's attention maps, which the attention export reads.
Hidden state index 0 is the embedding output; index L is the last block.

A caller that reads only some slots of the last layer passes them as
``reads``, a pair of (row, position) index arrays, and reads their
states from ``hidden[-1]`` itself: the fine-tuning head and CLS
embeddings read every row's [CLS] (``cls_slots``), and CLS pretraining
also the MLM-masked positions.  The last block then computes its
queries, output projection, layer norms, feed-forward network and
dropout at those slots alone, as (n_slots, d) rows; its keys and values
still span every position, and each slot attends over its own row's.
A slot's state is the full pass's up to float noise of the GEMM shapes
(a few 1e-7), and in train mode the dropout masks and the generator
state are the full pass's.

Every eval-mode caller (``embed_sentences`` and fine-tuned prediction)
batches through ``eval_rows``: it runs each distinct sequence once and
cuts the distinct sequences, stably sorted by length, into batches of
``EVAL_BATCH``, so each batch pads little and equal inputs get equal
rows.  A row may differ from the one an input-order batch would give by
about 2e-7, the float noise of a different padded width; a call that
fits in one batch is unchanged.  Training batches are never reordered:
in-batch negatives depend on a batch's members.

``eval_rows`` splits its batches between the caller and at most one
helper started for the call, where ``workers.worker_count`` allows a
second process (see ``consem.workers``).  A batch keeps its members and
its padded shape whichever process runs it, so the bytes do not depend
on the number of processes.

A training batch may run as shards: ``forward_batch``'s ``place`` gives
a shard's first row and its batch's size, so its dropout masks are the
whole batch's masks for its rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from . import workers
from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError, VocabularyError
from .tensor import Tensor
from .text import PAD_ID, TokenSequence, Vocabulary, encode_single

__all__ = [
    "EVAL_BATCH",
    "EncoderConfig",
    "EncoderWeights",
    "LayerOutputs",
    "PoolingStrategy",
    "cls_slots",
    "embed_sentences",
    "eval_rows",
    "forward_batch",
    "parameter_names",
    "pool",
    "slot_states",
]

ATTENTION_MASK_BIAS = -1e9
INIT_STD = 0.02
EVAL_BATCH = 32  # rows per eval-mode forward pass, in eval_rows


class PoolingStrategy(enum.Enum):
    """How a sequence of hidden states becomes one sentence vector."""

    CLS = "CLS"
    MEAN = "Mean"
    FIRST_LAST = "FirstLast"
    TOP2 = "Top2"

    @classmethod
    def parse(cls, name: str) -> "PoolingStrategy":
        for strategy in cls:
            if strategy.value == name:
                return strategy
        valid = ", ".join(s.value for s in cls)
        raise ConfigError(f"unknown pooling strategy {name!r}; expected one of: {valid}")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters; immutable once training starts."""

    vocab_size: int
    num_layers: int = 4
    num_heads: int = 4
    hidden_size: int = 64
    ff_size: int = 256
    max_len: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "num_layers", "num_heads", "hidden_size", "ff_size", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} is not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


def _parameter_table(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in the canonical order that serialization writes weight blobs in."""
    d, f = config.hidden_size, config.ff_size
    block = {
        "attn.wq": (d, d), "attn.bq": (d,), "attn.wk": (d, d), "attn.bk": (d,),
        "attn.wv": (d, d), "attn.bv": (d,), "attn.wo": (d, d), "attn.bo": (d,),
        "ln1.gain": (d,), "ln1.bias": (d,),
        "ff.w1": (d, f), "ff.b1": (f,), "ff.w2": (f, d), "ff.b2": (d,),
        "ln2.gain": (d,), "ln2.bias": (d,),
    }
    table = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d)}
    for i in range(config.num_layers):
        table.update({f"layer{i}.{leaf}": shape for leaf, shape in block.items()})
    return table


def parameter_names(config: EncoderConfig) -> list[str]:
    """Canonical parameter order; serialization writes weight blobs in this order."""
    return list(_parameter_table(config))


class EncoderWeights:
    """Named parameter tensors in the canonical order for one encoder."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        table = _parameter_table(config)
        if list(params) != list(table):
            raise ShapeError("parameter names or order do not match the encoder configuration")
        for name, p in params.items():
            want = table[name]
            if p.data.shape != want:
                raise ShapeError(f"parameter {name!r} has shape {p.data.shape}, expected {want}")
        self.config = config
        self._params = params

    @classmethod
    def initialize(cls, config: EncoderConfig, seed: int) -> "EncoderWeights":
        """Draw matrices and embeddings from N(0, 0.02^2); zero biases; unit gains."""
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        for name, shape in _parameter_table(config).items():
            if name.endswith((".gain",)):
                data = np.ones(shape)
            elif len(shape) == 1:
                data = np.zeros(shape)
            else:
                data = rng.normal(0.0, INIT_STD, size=shape)
            params[name] = Tensor(data, requires_grad=True)
        return cls(config, params)

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: dict[str, np.ndarray]) -> "EncoderWeights":
        names = parameter_names(config)
        for name in names:
            if name not in arrays:
                raise ShapeError(f"parameter {name!r} is missing")
        # Copies, so training never writes back into the caller's arrays.
        params = {name: Tensor(np.array(arrays[name], copy=True), requires_grad=True) for name in names}
        return cls(config, params)

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data, copy=True) for name, p in self._params.items()}

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self._params)


@dataclass
class LayerOutputs:
    """Per-layer states from one forward pass.

    ``hidden`` has num_layers + 1 entries (embedding output first), each of
    shape (batch, seq, d).  ``last_attention`` is the last block's
    post-softmax maps, a (batch, heads, seq, seq) array.  ``mask`` is
    (batch, seq), 1 on real tokens and 0 on the padding up to the batch's
    longest sequence.  After a forward given ``reads`` the last layer holds
    those slots alone, in their order: ``hidden[-1]`` is (n_slots, d) and
    ``last_attention`` is (n_slots, heads, 1, seq).
    """

    hidden: list[Tensor]
    last_attention: np.ndarray
    mask: np.ndarray


def cls_slots(batch: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``reads`` that name the [CLS] slot of each of ``batch`` rows."""
    return np.arange(batch, dtype=np.intp), np.zeros(batch, dtype=np.intp)


def slot_states(states: Tensor, rows: np.ndarray, positions: np.ndarray) -> Tensor:
    """The (n, d) states at the (row, position) slots of (batch, seq, d) ``states``."""
    batch, seq, d = states.shape
    return T.gather_rows(T.reshape(states, (batch * seq, d)), rows * seq + positions)


def _attention_block(query, x, mask_bias, weights, prefix, slots=None):
    """Self-attention over ``x`` for the rows of ``query``: ``x`` itself, or the (n, d) states at ``slots``."""
    w = lambda name: weights[f"{prefix}.attn.{name}"]
    q = T.linear(query, w("wq"), w("bq"))
    k = T.linear(x, w("wk"), w("bk"))
    v = T.linear(x, w("wv"), w("bv"))
    if slots is not None:
        # The slot rows stay 2-D for the GEMMs: a (n, 1, d) operand makes
        # numpy run one product per row.  Only attention sees them as 3-D,
        # each query against its own row's keys, values and mask bias.
        q = T.reshape(q, (q.shape[0], 1, q.shape[1]))
        rows = slots[0]
        if not np.array_equal(rows, np.arange(x.shape[0])):
            k, v, mask_bias = T.gather_rows(k, rows), T.gather_rows(v, rows), mask_bias[rows]
    context, probs = T.attention(q, k, v, weights.config.num_heads, mask_bias)
    if slots is not None:
        context = T.reshape(context, query.shape)
    return T.linear(context, w("wo"), w("bo")), probs


def _feed_forward(x, weights, prefix):
    w = lambda name: weights[f"{prefix}.ff.{name}"]
    return T.linear(T.gelu(T.linear(x, w("w1"), w("b1"))), w("w2"), w("b2"))


def _check_reads(reads, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, positions = (np.asarray(a, dtype=np.intp) for a in reads)
    if rows.ndim != 1 or rows.shape != positions.shape or not len(rows):
        raise ShapeError(
            "reads must be two equal-length, non-empty 1-D index arrays, "
            f"got shapes {rows.shape} and {positions.shape}"
        )
    if rows.min() < 0 or rows.max() >= len(lengths):
        raise ShapeError(f"reads names a row outside the batch of {len(lengths)}")
    if positions.min() < 0 or np.any(positions >= lengths[rows]):
        raise ShapeError("reads names a padding position")
    return rows, positions


def forward_batch(
    seqs: Sequence[TokenSequence],
    weights: EncoderWeights,
    rng: np.random.Generator | None = None,
    reads: tuple[np.ndarray, np.ndarray] | None = None,
    place: tuple[int, int] | None = None,
) -> LayerOutputs:
    """Encode sequences of any lengths together; see :class:`LayerOutputs` for shapes.

    The architecture is ``weights.config``.  The batch is padded with
    ``PAD_ID`` to its longest sequence.  Given ``rng`` the pass is in train
    mode, with dropout drawn from it; without one it is the deterministic
    evaluation pass.  ``reads``, a pair of equal-length index arrays
    ``(rows, positions)``, names the last-layer slots the caller reads, and
    the last block computes those alone; ``None`` reads every position.
    ``place``, ``(first row, batch rows)``, says that ``seqs`` are the rows
    from ``first row`` on of a training batch of ``batch rows``: dropout
    then gives them exactly the masks that batch's forward gives them, from
    the same generator state.  ``None`` is the whole batch, ``(0, len(seqs))``.
    Only the last block's attention maps are kept.
    """
    config = weights.config
    if not seqs:
        raise ShapeError("forward_batch needs at least one sequence")
    lengths = np.array([s.length for s in seqs], dtype=np.intp)
    if lengths.min() < 1:
        raise ShapeError("cannot encode an empty sequence")
    seq_len = int(lengths.max())
    if seq_len > config.max_len:
        raise ConfigError(f"sequence length {seq_len} exceeds max_len {config.max_len}")
    if reads is not None:
        reads = _check_reads(reads, lengths)
    first, rows = (0, len(seqs)) if place is None else place
    if not 0 <= first <= rows - len(seqs):
        raise ShapeError(f"{len(seqs)} rows from row {first} do not fit a batch of {rows}")
    mask = (np.arange(seq_len) < lengths[:, None]).astype(np.intp)
    ids = np.full(mask.shape, PAD_ID, dtype=np.intp)
    ids[mask == 1] = np.concatenate([s.ids for s in seqs])
    if ids.max() >= config.vocab_size:
        raise VocabularyError(
            f"token id {int(ids.max())} out of range for vocab_size {config.vocab_size}"
        )
    # A dropout mask is that of noise over the fixed (batch, max_len, d) grid,
    # cut to these rows and this batch's length or, in a cut last block, read
    # at each slot's (row, position).  So a real position's mask depends only
    # on the seed, its row in the whole batch and its position, not on how
    # long its batch-mates are, which positions are computed or how the batch
    # is sharded.  ``tensor.dropout`` draws only the noise it uses and leaves
    # the generator where the full draw leaves it.
    grid = (rows, config.max_len, config.hidden_size)

    def drop(t: Tensor, slots=None) -> Tensor:
        if rng is None or config.dropout == 0.0:
            return t
        return T.dropout(t, config.dropout, rng, grid, slots, first)

    x = T.add(
        T.gather_rows(weights["tok_emb"], ids),
        T.gather_rows(weights["pos_emb"], np.arange(seq_len, dtype=np.intp)),
    )
    x = drop(x)
    # (batch, 1, 1, seq): masked key columns get a large negative score bias.
    bias = ((1.0 - mask)[:, None, None, :] * ATTENTION_MASK_BIAS).astype(x.data.dtype)
    hidden = [x]
    for i in range(config.num_layers):
        prefix = f"layer{i}"
        slots = reads if i == config.num_layers - 1 else None
        query = x if slots is None else slot_states(x, *slots)
        attn_out, probs = _attention_block(query, x, bias, weights, prefix, slots)
        x = T.layer_norm(
            T.add(query, drop(attn_out, slots)), weights[f"{prefix}.ln1.gain"], weights[f"{prefix}.ln1.bias"]
        )
        ff_out = drop(_feed_forward(x, weights, prefix), slots)
        x = T.layer_norm(
            T.add(x, ff_out), weights[f"{prefix}.ln2.gain"], weights[f"{prefix}.ln2.bias"]
        )
        hidden.append(x)
    return LayerOutputs(hidden=hidden, last_attention=probs, mask=mask)


def _masked_mean(states: Tensor, mask: np.ndarray) -> Tensor:
    """Average over non-padding positions via a constant weight matmul."""
    counts = mask.sum(axis=-1, keepdims=True)
    weights_row = (mask / counts).astype(states.data.dtype)
    batch, seq, d = states.shape
    pooled = T.matmul(T.constant(weights_row[:, None, :], dtype=states.data.dtype), states)
    return T.reshape(pooled, (batch, d))


def pool(outputs: LayerOutputs, strategy: PoolingStrategy) -> Tensor:
    """Reduce (batch, seq, d) layer states to (batch, d) sentence vectors.

    CLS takes the last layer's first position.  Mean averages the last
    layer over the real positions of ``outputs.mask``.  FirstLast averages
    block 1 with the last block before the masked mean, Top2 the last two
    blocks; both are symmetric in the two layers they combine.  Only a
    full forward can be pooled: a forward given ``reads`` computed the last
    layer at its slots alone, and its caller reads them from ``hidden[-1]``.
    """
    mask = outputs.mask
    if np.any(mask.sum(axis=-1) == 0):
        raise DegenerateInputError("cannot pool a fully padded sequence")
    if outputs.hidden[-1].ndim != 3:
        raise ContractError(
            f"{strategy.value} pooling reads the last layer at every position, but this forward "
            f"computed it only at {outputs.hidden[-1].shape[0]} slots (reads)"
        )
    if strategy is PoolingStrategy.CLS:
        return slot_states(outputs.hidden[-1], *cls_slots(len(mask)))
    if strategy is PoolingStrategy.MEAN:
        return _masked_mean(outputs.hidden[-1], mask)
    if strategy is PoolingStrategy.FIRST_LAST:
        if len(outputs.hidden) < 2:
            raise ConfigError("FirstLast pooling needs at least one block")
        combined = T.scale(T.add(outputs.hidden[1], outputs.hidden[-1]), 0.5)
        return _masked_mean(combined, mask)
    if strategy is PoolingStrategy.TOP2:
        if len(outputs.hidden) < 3:
            raise ConfigError("Top2 pooling needs at least two blocks")
        combined = T.scale(T.add(outputs.hidden[-2], outputs.hidden[-1]), 0.5)
        return _masked_mean(combined, mask)
    raise ConfigError(f"unhandled pooling strategy {strategy!r}")


def _share(batches: list, run: Callable, first: int, put: Callable) -> tuple | None:
    """``put(i, run(batches[i]))`` for ``i = first, first + 2, ...``, up to the first batch that raises.

    Returns ``(its index, the exception)`` if a batch raised, else None.
    """
    for i in range(first, len(batches), 2):
        try:
            rows = run(batches[i])
        except Exception as exc:
            return i, exc
        put(i, rows)
    return None


def _run_batches(batches: list, run: Callable, put: Callable) -> None:
    """``put(i, run(batches[i]))`` for every batch, the odd ones in a helper where two processes may share them.

    Where ``workers.worker_count`` allows more than one process, one
    :class:`workers.Helper` started for this call, so it inherits ``run``,
    runs batches 1, 3, 5, ... and replies once with their rows and its first
    error, while the caller runs batches 0, 2, 4, ..., putting each as it
    runs, then puts the helper's rows.  Otherwise, or if no helper starts,
    the caller runs every batch in order.  An error is the one the serial
    loop raises: that of the first failing batch.
    """

    def odd_batches(first: int) -> tuple[list, tuple | None]:
        rows: list[np.ndarray] = []
        error = _share(batches, run, first, lambda i, r: rows.append(r))
        return rows, None if error is None else (error[0], workers.portable_error(error[1]))

    helper = workers.Helper.start(odd_batches) if workers.worker_count(len(batches)) > 1 else None
    if helper is None:
        for i, batch in enumerate(batches):
            put(i, run(batch))
        return
    try:
        helper.send(1)
        mine = _share(batches, run, 0, put)
        rows, theirs = helper.receive()
    finally:
        helper.close()
    for j, batch_rows in enumerate(rows):
        put(1 + 2 * j, batch_rows)
    errors = [error for error in (mine, theirs) if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


def eval_rows(
    seqs: Sequence[TokenSequence], width: int, run: Callable[[list[TokenSequence]], np.ndarray]
) -> np.ndarray:
    """``run``'s rows for ``seqs``, an (n, width) float32 array in input order.

    Each distinct token sequence runs once, as its first copy, so equal
    inputs get bit-equal rows.  The distinct sequences are stably sorted
    by length and cut into batches of ``EVAL_BATCH``, the last of which
    may be short, so no row of a batch is shorter than any row of an
    earlier one.  Within a batch they keep their input order: a batch's
    padding depends only on its members, and a call whose sequences fit
    in one batch runs them unchanged.  ``run(batch)`` returns one
    (len(batch), width) row per sequence.  Half the batches may run in a
    helper process started for the call (``consem.workers``), so ``run`` must
    not rely on side effects in the caller's process.
    """
    unique: dict[tuple[int, ...], TokenSequence] = {}
    for seq in seqs:
        unique.setdefault(tuple(seq.ids), seq)
    row = {ids: i for i, ids in enumerate(unique)}
    distinct = list(unique.values())
    out = np.zeros((len(distinct), width), dtype=np.float32)
    order = np.argsort([s.length for s in distinct], kind="stable")
    batches = [np.sort(order[start : start + EVAL_BATCH]) for start in range(0, len(order), EVAL_BATCH)]

    def put(i: int, rows: np.ndarray) -> None:
        out[batches[i]] = rows

    _run_batches([[distinct[i] for i in b] for b in batches], run, put)
    return out[[row[tuple(seq.ids)] for seq in seqs]]


def embed_sentences(
    texts: Sequence[str],
    weights: EncoderWeights,
    config: EncoderConfig,
    vocab: Vocabulary,
    strategy: PoolingStrategy = PoolingStrategy.CLS,
) -> np.ndarray:
    """Encode (eval mode) and pool sentences into an (n, d) float32 array in input order.

    ``config`` must equal ``weights.config``.  Sentences are batched by
    :func:`eval_rows`; see the module docstring for the float drift that
    its length sort allows.  CLS vectors are the [CLS] states of a forward
    cut to those slots.
    """
    if config != weights.config:
        raise ConfigError("encoder config does not match the weights' architecture")

    def vectors(batch: list[TokenSequence]) -> np.ndarray:
        if strategy is PoolingStrategy.CLS:
            return forward_batch(batch, weights, reads=cls_slots(len(batch))).hidden[-1].data
        return pool(forward_batch(batch, weights), strategy).data

    seqs = [encode_single(text, vocab, config.max_len) for text in texts]
    return eval_rows(seqs, config.hidden_size, vectors)
