"""Contrastive pretraining with an optional masked-language auxiliary loss.

The objective treats, for each anchor in a batch of N triples, its own
positive as the target among all 2N in-batch candidates (every positive
and every hard negative), scored by cosine similarity over a temperature:

    loss_i = -log( exp(s(a_i, p_i)/tau)
                   / sum_j [ exp(s(a_i, p_j)/tau) + exp(s(a_i, n_j)/tau) ] )

and the batch loss is the mean over i.  That is a softmax cross-entropy
over the (N, 2N) score matrix whose column i holds anchor i's own
positive, with targets 0..N-1.  The auxiliary loss masks anchor tokens
(fresh draws every epoch) and predicts the originals at the masked
positions through a projection tied to the token embedding matrix; the
combined objective is ``contrastive + mlm_weight * mlm``.

Each training step runs as the two shards of ``optim.train_epochs``: the
first ``ceil(n / 2)`` triples and the rest.  The in-batch negatives couple
a batch's rows only through its (3n, d) pooled vectors and its masked-token
count, so each shard runs its own forward and publishes those; each then
builds the whole (N, 2N) loss from every shard's vectors, its own taped and
the others' as constants, adds its MLM cross-entropy times its share of
the batch's masked tokens, and backpropagates.  The shards' gradients sum
to the batch's up to float noise (each shard pads to its own width), a
deliberate drift that tests bound; the bytes do not depend on whether one
process or two run the shards.

All randomness (subsampling, splits, shuffles, dropout, masking) derives
from the run seed through fixed-purpose streams, so repeated runs produce
identical loss records and weights.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    PoolingStrategy,
    forward_batch,
    pool,
    slot_states,
)
from .errors import ConfigError, ContractError, DataError, ShapeError
from .files import write_csv
from .optim import QUIET_FLOAT_ERRORS, AdamW, TrainingConfig, train_epochs
from .tensor import Tensor
from .text import (
    CLS_ID,
    MASK_ID,
    SEP_ID,
    ContrastiveTriple,
    TokenSequence,
    Vocabulary,
    encode_single,
)

__all__ = [
    "LossRecord",
    "PretrainConfig",
    "contrastive_loss",
    "contrastive_scores",
    "mask_for_mlm",
    "mlm_loss",
    "select_fraction",
    "train",
    "write_loss_csv",
]

LOSS_CSV_HEADER = ["epoch", "step", "split", "contrastive", "mlm", "combined"]

# Stream tags for seed derivation; never reorder, it would change every run.
_STREAM_FRACTION = 1
_STREAM_SPLIT = 2
_STREAM_SHUFFLE = 3
_STREAM_DROPOUT = 4
_STREAM_MLM_TRAIN = 5
_STREAM_MLM_VAL = 6


@dataclass
class PretrainConfig(TrainingConfig):
    """Hyperparameters of one pretraining run: :class:`TrainingConfig`, with its defaults, plus the objective's."""

    tau: float = 0.05
    mlm_weight: float = 0.0
    mask_rate: float = 0.15
    pooling: PoolingStrategy = PoolingStrategy.CLS
    data_fraction: float = 1.0
    validation_fraction: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        # Each range is written so that NaN fails it; the unbounded ones also reject inf.
        if not 0.0 < self.tau < np.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.mlm_weight < np.inf:
            raise ConfigError(f"mlm_weight must be non-negative and finite, got {self.mlm_weight}")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigError(f"mask_rate must be in (0, 1), got {self.mask_rate}")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ConfigError(f"data_fraction must be in (0, 1], got {self.data_fraction}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )
        if isinstance(self.pooling, str):
            self.pooling = PoolingStrategy.parse(self.pooling)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["pooling"] = self.pooling.value
        return payload


@dataclass
class LossRecord:
    """Per-epoch average losses for one split."""

    epoch: int
    step: int
    split: str
    contrastive: float
    mlm: float
    combined: float


def contrastive_scores(anchors: Tensor, positives: Tensor, negatives: Tensor, tau: float) -> Tensor:
    """Temperature-scaled cosine score matrix (N, 2N).

    Columns 0..N-1 score each anchor against every positive, columns N..2N-1
    against every hard negative, so anchor i's own positive is column i.
    Exposed separately so properties of the scores (argmax stability under
    tau, for one) can be tested directly.
    """
    if anchors.ndim != 2 or anchors.shape != positives.shape or anchors.shape != negatives.shape:
        raise ShapeError(
            f"expected three equal (N, d) matrices, got {anchors.shape}, "
            f"{positives.shape}, {negatives.shape}"
        )
    if anchors.shape[0] < 1:
        raise ShapeError("contrastive batch must contain at least one triple")
    if not 0.0 < tau < np.inf:
        raise ConfigError(f"tau must be positive and finite, got {tau}")
    normed = T.normalize_rows(anchors)
    candidates = T.normalize_rows(T.concat([positives, negatives], axis=0))
    return T.scale(T.matmul(normed, T.transpose(candidates, (1, 0))), 1.0 / tau)


def contrastive_loss(anchors: Tensor, positives: Tensor, negatives: Tensor, tau: float) -> Tensor:
    """Mean in-batch classification loss over the triples; see the module docstring."""
    scores = contrastive_scores(anchors, positives, negatives, tau)
    return T.cross_entropy(scores, np.arange(scores.shape[0]))


def mask_for_mlm(
    seq: TokenSequence, rate: float, rng: np.random.Generator
) -> tuple[TokenSequence, np.ndarray]:
    """Replace each maskable token with [MASK] independently with probability ``rate``.

    Returns the corrupted sequence and the masked positions, ascending.
    Special tokens are never selected.  One uniform draw is consumed per
    position regardless of eligibility, so the selection for a given
    (seed, sequence) is stable.  Every selected position becomes the
    [MASK] id; there is no keep-or-random branch.
    """
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"mask rate must be in (0, 1), got {rate}")
    ids = np.array(seq.ids, dtype=np.intp)
    draws = rng.random(len(ids))
    positions = np.flatnonzero((draws < rate) & (ids != CLS_ID) & (ids != SEP_ID))
    ids[positions] = MASK_ID
    return TokenSequence(ids=ids.tolist()), positions


def mlm_loss(states: Tensor, token_ids: np.ndarray, token_embedding: Tensor) -> Tensor:
    """Mean cross-entropy of the original ``token_ids`` from the (n, d) last-layer states of the masked slots.

    Logits are tied to the token embeddings; the loss is zero when nothing
    is masked.
    """
    if not len(token_ids):
        return Tensor(0.0)
    logits = T.matmul(states, T.transpose(token_embedding, (1, 0)))
    return T.cross_entropy(logits, token_ids)


def select_fraction(n: int, fraction: float, seed: int) -> np.ndarray:
    """Indices of a seeded subset of size max(1, round(fraction * n)).

    Subsets are prefixes of one fixed permutation, so for the same seed a
    smaller fraction always selects a subset of a larger one.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if n < 1:
        raise ContractError("cannot subsample an empty dataset")
    rng = np.random.default_rng([seed, _STREAM_FRACTION])
    order = rng.permutation(n)
    keep = max(1, int(round(fraction * n)))
    return np.sort(order[:keep])


def _split_validation(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, _STREAM_SPLIT])
    order = rng.permutation(n)
    n_val = min(int(n * fraction), n - 1)
    return np.sort(order[n_val:]), np.sort(order[:n_val])


def _epoch_masking(seqs, indices, rate, seed, stream, epoch):
    """Masked copies of ``seqs[indices]`` plus (batch row, position, original id) index arrays."""
    corrupted, rows, cols, ids = [], [], [], []
    for batch_row, global_row in enumerate(indices):
        rng = np.random.default_rng([seed, stream, epoch, int(global_row)])
        seq, positions = mask_for_mlm(seqs[global_row], rate, rng)
        corrupted.append(seq)
        rows.append(np.full(len(positions), batch_row, dtype=np.intp))
        cols.append(positions)
        ids.append(np.asarray(seqs[global_row].ids, dtype=np.intp)[positions])
    return corrupted, np.concatenate(rows), np.concatenate(cols), np.concatenate(ids)


def _shard_forward(
    seq_lists: tuple[list[TokenSequence], list[TokenSequence], list[TokenSequence]],
    mlm_batch,
    weights: EncoderWeights,
    config: PretrainConfig,
    rng: np.random.Generator | None,
    place: tuple[int, int] | None = None,
) -> tuple[Tensor, Tensor | None]:
    """The pooled vectors and (if ``mlm_batch``) the MLM loss of some triples; dropout on exactly when ``rng`` is given.

    One forward runs over each triple's rows in turn, [anchor, positive,
    negative, (MLM-corrupted anchor)], so each dropout site draws one grid
    for all of them and a shard of a batch's triples is one contiguous
    block of the batch's rows.  ``place``, ``(first triple, batch triples)``,
    places the triples in their batch, as ``forward_batch``'s ``place``
    places rows.  Returns the (3n, d) vectors, triple-major, and the mean
    cross-entropy over the masked tokens, or None without ``mlm_batch``.
    With CLS pooling the losses read only the last layer's [CLS] slots of
    the contrastive rows and the masked slots of the MLM rows, so the
    forward computes its last block at those slots alone.
    """
    n = len(seq_lists[0])
    lists = seq_lists if mlm_batch is None else (*seq_lists, mlm_batch[0])
    width = len(lists)
    stacked = [seq for row in zip(*lists) for seq in row]
    contrastive_rows = (width * np.arange(n)[:, None] + np.arange(3)).ravel()
    rows_place = None if place is None else (width * place[0], width * place[1])
    if config.pooling is PoolingStrategy.CLS:
        reads = (contrastive_rows, np.zeros(3 * n, dtype=np.intp))
        if mlm_batch is not None:
            reads = (np.concatenate([reads[0], width * mlm_batch[1] + 3]), np.concatenate([reads[1], mlm_batch[2]]))
        states = forward_batch(stacked, weights, rng, reads=reads, place=rows_place).hidden[-1]
        if mlm_batch is None:
            return states, None
        vectors = T.gather_rows(states, np.arange(3 * n))
        masked = T.gather_rows(states, np.arange(3 * n, len(reads[0])))
    else:
        outputs = forward_batch(stacked, weights, rng, place=rows_place)
        vectors = T.gather_rows(pool(outputs, config.pooling), contrastive_rows)
        if mlm_batch is None:
            return vectors, None
        masked = slot_states(outputs.hidden[-1], width * mlm_batch[1] + 3, mlm_batch[2])
    return vectors, mlm_loss(masked, mlm_batch[3], weights["tok_emb"])


def _triples_loss(vectors: Tensor, tau: float) -> Tensor:
    """The contrastive loss of (3n, d) triple-major vectors: rows anchor, positive, negative of each triple."""
    return contrastive_loss(*(T.gather_rows(vectors, np.arange(k, vectors.shape[0], 3)) for k in range(3)), tau)


@np.errstate(**QUIET_FLOAT_ERRORS)
def train(
    triples: Sequence[ContrastiveTriple],
    config: PretrainConfig,
    vocab: Vocabulary,
    encoder_config: EncoderConfig,
    init: Checkpoint | None = None,
) -> tuple[Checkpoint, list[LossRecord]]:
    """Run contrastive pretraining and return the final checkpoint and loss log.

    Data-fraction subsampling happens first, then a seeded validation split.
    One loss record per epoch and split is produced; validation records are
    omitted when the split is empty.  ``init`` warm-starts from a checkpoint of
    ``vocab`` and ``encoder_config``, left untouched; the optimizer starts fresh.
    A non-finite loss or gradient raises TrainingDivergedError; numpy's float
    warnings are off for the whole run, so that error is the only report.
    """
    if not triples:
        raise DataError("no training triples were provided")
    if encoder_config.vocab_size != vocab.size:
        raise ConfigError(
            f"encoder vocab_size {encoder_config.vocab_size} does not match vocabulary size {vocab.size}"
        )
    weights = EncoderWeights.initialize(encoder_config, config.seed) if init is None else init.encoder_weights(vocab)
    if weights.config != encoder_config:
        raise ConfigError("warm-start checkpoint has a different encoder architecture")
    optimizer = AdamW(weights.as_dict(), learning_rate=config.learning_rate, weight_decay=config.weight_decay)

    selected = select_fraction(len(triples), config.data_fraction, config.seed)
    train_idx, val_idx = _split_validation(len(selected), config.validation_fraction, config.seed)
    chosen = [triples[i] for i in selected]

    max_len = encoder_config.max_len
    anchors = [encode_single(t.sentence1, vocab, max_len) for t in chosen]
    positives = [encode_single(t.sentence2, vocab, max_len) for t in chosen]
    negatives = [encode_single(t.hard_neg, vocab, max_len) for t in chosen]
    # (contrastive, mlm, rows) of each batch since the last loss record.
    parts: list[tuple[float, float, int]] = []

    def shard_loss(rows: np.ndarray, rng: np.random.Generator | None, epoch: int, place=None):
        """The forward of triples ``rows``, a training shard (dropout on) exactly when ``rng`` is given.

        Returns the shard's block, (vectors, masked tokens, MLM loss), and its
        loss given every shard's block in shard order: the batch's contrastive
        loss over all the blocks' vectors, this shard's taped and the others'
        constant, plus its MLM loss times its share of the batch's masked
        tokens.  So the shards' gradients sum to the batch's.  The first shard
        (or a whole batch, ``place`` None) adds the batch's losses to ``parts``.
        """
        batch = ([anchors[i] for i in rows], [positives[i] for i in rows], [negatives[i] for i in rows])
        mlm_batch = None
        if config.mlm_weight > 0.0:
            stream = _STREAM_MLM_TRAIN if rng is not None else _STREAM_MLM_VAL
            mlm_batch = _epoch_masking(anchors, rows, config.mask_rate, config.seed, stream, epoch)
        vectors, ml = _shard_forward(batch, mlm_batch, weights, config, rng, place)
        masked = 0 if ml is None else len(mlm_batch[3])
        block = (vectors.data, masked, 0.0 if ml is None else float(ml.data))

        def loss(blocks: list) -> Tensor:
            every = [vectors if b is block else T.constant(b[0], vectors.dtype) for b in blocks]
            cl = _triples_loss(T.concat(every, axis=0), config.tau)
            batch_masked = sum(b[1] for b in blocks)
            if place is None or place[0] == 0:
                batch_ml = 0.0
                for _, count, value in blocks:
                    batch_ml += value * count
                parts.append((float(cl.data), batch_ml / max(batch_masked, 1), sum(len(b[0]) for b in blocks) // 3))
            if not masked:
                return cl
            return T.add(cl, T.scale(ml, config.mlm_weight * (masked / batch_masked)))

        return block, loss

    def record(epoch: int, split: str) -> LossRecord:
        # Row-weighted means, summed with += in batch order: sum() over floats
        # is compensated since Python 3.12 and would change loss_log.csv bytes.
        total_cl = total_ml = 0.0
        for cl, ml, n in parts:
            total_cl += cl * n
            total_ml += ml * n
        count = sum(n for _, _, n in parts)
        parts.clear()
        mean_cl, mean_ml = total_cl / count, total_ml / count
        return LossRecord(epoch, optimizer.step_count, split, mean_cl, mean_ml, mean_cl + config.mlm_weight * mean_ml)

    records: list[LossRecord] = []
    for epoch in train_epochs(train_idx, config, optimizer, shard_loss, _STREAM_SHUFFLE, _STREAM_DROPOUT):
        records.append(record(epoch, "train"))
        if len(val_idx):
            for start in range(0, len(val_idx), config.batch_size):
                block, loss = shard_loss(val_idx[start : start + config.batch_size], None, epoch)
                loss([block])
            records.append(record(epoch, "validation"))

    final = Checkpoint(
        encoder_config=encoder_config,
        pretrain_config=config.to_dict(),
        vocab_hash=vocab.content_hash(),
        step=optimizer.step_count,
        params=weights.to_arrays(),
    )
    return final, records


def write_loss_csv(records: Sequence[LossRecord], path: str | Path) -> None:
    """Write the loss log with a fixed header and fixed float formatting, atomically."""
    rows = [
        [r.epoch, r.step, r.split, f"{r.contrastive:.8f}", f"{r.mlm:.8f}", f"{r.combined:.8f}"]
        for r in records
    ]
    write_csv(path, [LOSS_CSV_HEADER, *rows])
