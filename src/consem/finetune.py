"""Task fine-tuning on top of a pretrained encoder.

Three task shapes are supported.  Pair classification encodes
``[CLS] a [SEP] b [SEP]``, single-sentence classification encodes
``[CLS] a [SEP]``, and multiple-choice reading comprehension is reduced
to pair classification: each choice is appended to the question to form
a statement, encoded as ``[CLS] question choice [SEP] context [SEP]`` in
one place for training and scoring alike.  Training targets entailment
for the correct choice and contradiction otherwise, and at prediction
time the choice with the highest entailment probability wins (ties go to
the lowest index).

In every case a linear head reads the last layer's [CLS] state, so the
encoder computes its last block at each row's [CLS] slot alone
(``reads``), in training and in prediction, and the head reads those
states directly.  Prediction runs the eval pass through
``encoder.eval_rows``; MRC evaluation scores every choice of every
question in one such call (``mrc_scores``).  A
:class:`FinetunedModel` holds the encoder and that head; its parameter
mapping (``from_arrays`` in, ``to_arrays`` out) is what ``model.bin``
stores.  The model from the best epoch by dev accuracy (macro F1 breaking
ties) is returned, so a longer schedule can never return a worse dev model.

Each training step runs its batch as two shards (``optim._STEP_SHARDS``):
the first ``ceil(n / 2)`` rows and the rest, a batch of one row staying one
shard.  A shard's loss is its mean cross-entropy times its share of the
batch, ``len(shard) / len(batch)``, so the step's gradient is the sum of
the two shards' gradients; each shard draws the dropout masks the whole
batch gives its rows.  That sum differs from the one-pass gradient by
float noise (the shards pad to their own widths), a deliberate drift
that tests bound.  A shard needs nothing from the other, so it publishes
no block.  ``optim.train_epochs`` runs the second shard in a helper
process (``consem.workers``) started once per call where two processes
are allowed, and in this process otherwise, with the same bytes.
"""

from __future__ import annotations

import enum
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .encoder import INIT_STD, EncoderConfig, EncoderWeights, cls_slots, eval_rows, forward_batch
from .errors import ConfigError, DataError, FormatError, ShapeError
from .metrics import ConfusionMatrix, MetricsReport, accuracy, macro_f1, mrc_accuracy
from .optim import QUIET_FLOAT_ERRORS, AdamW, TrainingConfig, train_epochs
from .tensor import Tensor
from .text import TokenSequence, Vocabulary, encode_pair, encode_single, json_field, load_jsonl

__all__ = [
    "FinetuneConfig",
    "FinetunedModel",
    "TaskKind",
    "TaskSpec",
    "evaluate",
    "evaluate_classifier",
    "evaluate_mrc",
    "finetune_classifier",
    "load_model",
    "load_task_records",
    "mrc_scores",
    "save_model",
]

ENTAILMENT_LABEL = "entailment"
CONTRADICTION_LABEL = "contradiction"
MRC_LABELS = sorted([CONTRADICTION_LABEL, ENTAILMENT_LABEL])

_STREAM_HEAD_INIT = 101
_STREAM_SHUFFLE = 102
_STREAM_DROPOUT = 103


class TaskKind(enum.Enum):
    PAIR = "pair"
    SINGLE = "single"
    MRC = "mrc"

    @classmethod
    def parse(cls, name: str) -> "TaskKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ConfigError(f"unknown task kind {name!r}; expected one of: pair, single, mrc")


@dataclass
class TaskSpec:
    """What to fine-tune on: task shape and label set.

    ``labels`` may be left empty to infer the sorted set of labels seen in
    the training split; a label listed twice is rejected.  The MRC task
    always classifies ``MRC_LABELS``, so it takes no other list.
    """

    kind: TaskKind
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        for i, label in enumerate(self.labels):
            if label in self.labels[:i]:
                raise ConfigError(f"label {label!r} is listed more than once in {self.labels}")
        if self.kind is TaskKind.MRC and self.labels and self.labels != MRC_LABELS:
            raise ConfigError(f"the mrc task classifies {MRC_LABELS}; it cannot take the labels {self.labels}")


@dataclass
class FinetuneConfig(TrainingConfig):
    """Hyperparameters of one fine-tuning run: :class:`TrainingConfig` with a larger batch and fewer epochs."""

    batch_size: int = 16
    epochs: int = 7


def load_task_records(path: str | Path, task: TaskSpec) -> list[dict]:
    """Read task JSON lines into canonical records; each keeps its ``<path>:<line>`` as ``where``.

    A label may be a JSON string or integer; an integer becomes its decimal string.
    """
    records: list[dict] = []
    for where, obj in load_jsonl(path):
        if task.kind is TaskKind.MRC:
            record = {key: json_field(obj, key, where) for key in ("context", "question")}
            choices = json_field(obj, "choices", where, (list,))
            answer = json_field(obj, "answer_index", where, (int,))
            if not choices:
                raise DataError(f"{where}: field 'choices' must be a non-empty list")
            if not 0 <= answer < len(choices):
                raise DataError(f"{where}: field 'answer_index' {answer} is out of range for {len(choices)} choices")
            record.update(choices=choices, answer_index=answer)
        else:
            keys = ("text_a", "text_b") if task.kind is TaskKind.PAIR else ("text",)
            record = {key: json_field(obj, key, where) for key in keys}
            record["label"] = str(json_field(obj, "label", where, (str, int)))
        record["where"] = where
        records.append(record)
    return records


def _mrc_sequences(records: Sequence[dict], vocab: Vocabulary, max_len: int) -> list[TokenSequence]:
    """``[CLS] question choice [SEP] context [SEP]`` for every choice of every record, in record and choice order.

    Training and scoring both encode MRC choices here, so the two see the same statement.
    """
    return [
        encode_pair(f"{rec['question']} {choice}", rec["context"], vocab, max_len)
        for rec in records
        for choice in rec["choices"]
    ]


@dataclass
class FinetunedModel:
    """A tuned encoder plus its classification head and label set.

    Its parameter mapping, which ``model.bin`` stores, is the encoder's in
    ``parameter_names`` order, then ``head.weight`` and ``head.bias``.
    ``model.bin`` also keeps ``pretrain_config``, the settings of the
    pretraining run the encoder came from, whose pooling ``analyze`` and
    ``retrieve`` read.
    """

    weights: EncoderWeights
    head_weight: Tensor
    head_bias: Tensor
    labels: list[str]
    kind: TaskKind
    vocab_hash: str
    pretrain_config: dict | None

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: dict, labels: list[str], kind: TaskKind, vocab_hash: str,
                    pretrain_config: dict | None):
        """A model over copies of ``arrays``, so training never writes back into them.

        The head must have one column per label: ``head.weight`` is
        (hidden_size, len(labels)) and ``head.bias`` is (len(labels),).
        """
        for name, want in (("head.weight", (config.hidden_size, len(labels))), ("head.bias", (len(labels),))):
            if name not in arrays:
                raise ShapeError(f"parameter {name!r} is missing")
            if np.shape(arrays[name]) != want:
                raise ShapeError(
                    f"parameter {name!r} has shape {np.shape(arrays[name])}, expected {want} for {len(labels)} labels"
                )
        head = lambda name: Tensor(np.array(arrays[name], copy=True), requires_grad=True)
        return cls(EncoderWeights.from_arrays(config, arrays), head("head.weight"), head("head.bias"), labels, kind,
                   vocab_hash, pretrain_config)

    def parameters(self) -> dict[str, Tensor]:
        """The parameter mapping over the model's own tensors, which training updates in place."""
        return {**self.weights.as_dict(), "head.weight": self.head_weight, "head.bias": self.head_bias}

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data, copy=True) for name, p in self.parameters().items()}


def _encode_record(rec: dict, kind: TaskKind, vocab: Vocabulary, max_len: int) -> TokenSequence:
    if kind is TaskKind.SINGLE:
        return encode_single(rec["text"], vocab, max_len)
    return encode_pair(rec["text_a"], rec["text_b"], vocab, max_len)


def _gold_indices(records: Sequence[dict], labels: list[str]) -> np.ndarray:
    index = {label: i for i, label in enumerate(labels)}
    gold = np.zeros(len(records), dtype=np.intp)
    for i, rec in enumerate(records):
        if rec["label"] not in index:
            where = rec.get("where") or f"record {i + 1}"
            raise DataError(f"{where}: unknown label {rec['label']!r}; expected one of {labels}")
        gold[i] = index[rec["label"]]
    return gold


def _logits(model: FinetunedModel, seqs, rng: np.random.Generator | None = None, place=None) -> Tensor:
    """Head logits over the [CLS] states; train mode (dropout from ``rng``) exactly when ``rng`` is given.

    ``place`` is the rows' place in their training batch, as ``forward_batch`` takes it.
    """
    cls = forward_batch(seqs, model.weights, rng, reads=cls_slots(len(seqs)), place=place).hidden[-1]
    return T.linear(cls, model.head_weight, model.head_bias)


def _predict_probs(model: FinetunedModel, seqs) -> np.ndarray:
    """Eval-mode label probabilities, an (n, labels) float32 array in input order, batched by ``eval_rows``."""
    return eval_rows(seqs, len(model.labels), lambda batch: T.softmax(_logits(model, batch), axis=1).data)


@np.errstate(**QUIET_FLOAT_ERRORS)
def finetune_classifier(
    checkpoint: Checkpoint,
    task: TaskSpec,
    train_records: Sequence[dict],
    dev_records: Sequence[dict],
    config: FinetuneConfig,
    vocab: Vocabulary,
) -> tuple[FinetunedModel, MetricsReport]:
    """Fine-tune encoder and head; return the best-dev-epoch model and its report.

    The checkpoint object and file are left untouched; all weights are
    copied before any update.  MRC tasks train on every choice's statement,
    entailment at ``answer_index`` and contradiction elsewhere.  Each step
    runs as two shards (see the module docstring).  Divergence is reported
    as in pretraining: one TrainingDivergedError, no numpy float warnings.
    The shard helper, if one was started, is reaped before this returns or
    raises, whatever the error.
    """
    weights = checkpoint.encoder_weights(vocab)
    if not train_records:
        raise DataError("no training records were provided")
    if not dev_records:
        raise DataError("no dev records were provided")
    encoder_config = weights.config
    max_len = encoder_config.max_len

    if task.kind is TaskKind.MRC:
        labels = list(MRC_LABELS)
        train_seqs = _mrc_sequences(train_records, vocab, max_len)
        train_gold = np.array([
            labels.index(ENTAILMENT_LABEL if k == rec["answer_index"] else CONTRADICTION_LABEL)
            for rec in train_records
            for k in range(len(rec["choices"]))
        ], dtype=np.intp)
    else:
        labels = list(task.labels) if task.labels else sorted({r["label"] for r in train_records})
        if len(labels) < 2:
            raise ConfigError(f"need at least two labels to classify, got {labels}")
        train_seqs = [_encode_record(r, task.kind, vocab, max_len) for r in train_records]
        train_gold = _gold_indices(train_records, labels)
        # Each epoch's evaluation reads these; an unknown dev label fails before the first step.
        _gold_indices(dev_records, labels)

    head_rng = np.random.default_rng([config.seed, _STREAM_HEAD_INIT])
    head_weight = Tensor(head_rng.normal(0.0, INIT_STD, (encoder_config.hidden_size, len(labels))), requires_grad=True)
    head_bias = Tensor(np.zeros(len(labels)), requires_grad=True)
    provenance = (checkpoint.vocab_hash, checkpoint.pretrain_config)
    model = FinetunedModel(weights, head_weight, head_bias, labels, task.kind, *provenance)
    optimizer = AdamW(model.parameters(), learning_rate=config.learning_rate, weight_decay=config.weight_decay)

    def shard_loss(rows: np.ndarray, rng: np.random.Generator, epoch: int, place: tuple[int, int]):
        """No block, and the mean cross-entropy of ``rows`` times their share of the batch.

        The shards' losses sum to the batch's.
        """
        logits = _logits(model, [train_seqs[i] for i in rows], rng, place)
        return None, lambda blocks: T.scale(T.cross_entropy(logits, train_gold[rows]), len(rows) / place[1])

    best: tuple[tuple[float, float], dict[str, np.ndarray], MetricsReport] | None = None
    epochs = train_epochs(np.arange(len(train_seqs)), config, optimizer, shard_loss, _STREAM_SHUFFLE, _STREAM_DROPOUT)
    # Closed on every exit, so the shard helper never outlives this call.
    with closing(epochs):
        for _ in epochs:
            # An MRC report's accuracy is its question-level accuracy.
            _, report = evaluate(model, vocab, dev_records)
            score = (report.accuracy, report.macro_f1)
            if best is None or score > best[0]:
                best = (score, model.to_arrays(), report)

    assert best is not None
    _, arrays, report = best
    return FinetunedModel.from_arrays(encoder_config, arrays, labels, task.kind, *provenance), report


def evaluate(model: FinetunedModel, vocab: Vocabulary, records: Sequence[dict]) -> tuple[list[dict], MetricsReport]:
    """Predictions and metrics for records of the model's task: MRC questions or classifier records."""
    if model.kind is TaskKind.MRC:
        return evaluate_mrc(model, vocab, records)
    return evaluate_classifier(model, vocab, records)


def evaluate_classifier(
    model: FinetunedModel, vocab: Vocabulary, records: Sequence[dict]
) -> tuple[list[dict], MetricsReport]:
    """Predict labels for pair or single records; returns predictions and metrics."""
    vocab.require_hash(model.vocab_hash, "model")
    seqs = [_encode_record(r, model.kind, vocab, model.weights.config.max_len) for r in records]
    gold = _gold_indices(records, model.labels)
    probs = _predict_probs(model, seqs)
    preds = probs.argmax(axis=1)
    predictions = [
        {
            "id": i,
            "gold": model.labels[gold[i]],
            "pred": model.labels[preds[i]],
            "scores": [float(p) for p in probs[i]],
        }
        for i in range(len(records))
    ]
    cm = ConfusionMatrix.from_pairs(model.labels, gold.tolist(), preds.tolist())
    macro, per_class = macro_f1(cm)
    report = MetricsReport(accuracy=accuracy(cm), macro_f1=macro, per_class=per_class)
    return predictions, report


def mrc_scores(model: FinetunedModel, vocab: Vocabulary, records: Sequence[dict]) -> list[np.ndarray]:
    """Each record's float32 entailment probability per choice, one array per record.

    Every statement of every record goes through one ``_predict_probs``
    call, so the length-sorted batches mix questions, and equal choices
    tie exactly.
    """
    vocab.require_hash(model.vocab_hash, "model")
    if ENTAILMENT_LABEL not in model.labels:
        raise ConfigError("model has no entailment class to score choices with")
    if any(not rec["choices"] for rec in records):
        raise DataError("cannot score an empty choice list")
    if not records:
        return []
    probs = _predict_probs(model, _mrc_sequences(records, vocab, model.weights.config.max_len))
    scores = probs[:, model.labels.index(ENTAILMENT_LABEL)]
    return np.split(scores, np.cumsum([len(rec["choices"]) for rec in records])[:-1])


def evaluate_mrc(
    model: FinetunedModel, vocab: Vocabulary, records: Sequence[dict]
) -> tuple[list[dict], MetricsReport]:
    """Answer each question and report question-level accuracy.

    All choices of all questions are scored in one pass.  Each
    prediction's ``pred`` is the index of the best-scoring choice; ties
    resolve to the lowest index.  The report's accuracy fields all carry
    the question-level value; the per-pair confusion is not meaningful at
    prediction time because only the relative order of entailment scores
    matters.
    """
    predictions = []
    chosen: list[int] = []
    gold: list[int] = []
    for i, (rec, scores) in enumerate(zip(records, mrc_scores(model, vocab, records))):
        pick = int(np.argmax(scores))
        chosen.append(pick)
        gold.append(rec["answer_index"])
        predictions.append(
            {
                "id": i,
                "gold": rec["answer_index"],
                "pred": pick,
                "scores": [float(s) for s in scores],
            }
        )
    value = mrc_accuracy(chosen, gold)
    report = MetricsReport(accuracy=value, macro_f1=value, per_class=[], mrc_accuracy=value)
    return predictions, report


def save_model(model: FinetunedModel, path: str | Path) -> None:
    """Serialize a fine-tuned model, its pretraining configuration included, in the checkpoint container format."""
    ckpt = Checkpoint(
        encoder_config=model.weights.config,
        pretrain_config=model.pretrain_config,
        vocab_hash=model.vocab_hash,
        step=0,
        params=model.to_arrays(),
        extra={"task": model.kind.value, "labels": model.labels},
    )
    save_checkpoint(ckpt, path)


def load_model(path: str | Path) -> FinetunedModel:
    """Load a fine-tuned model saved by :func:`save_model`."""
    ckpt = load_checkpoint(path)
    if "task" not in ckpt.extra or "labels" not in ckpt.extra:
        raise FormatError(f"{path}: checkpoint does not contain a fine-tuned model")
    if "head.weight" not in ckpt.params or "head.bias" not in ckpt.params:
        raise FormatError(f"{path}: fine-tuned model is missing its head parameters")
    labels, task = ckpt.extra["labels"], ckpt.extra["task"]
    kinds = [k.value for k in TaskKind]
    # Checked, not coerced: a coerced field would save back to other bytes.
    for key, want, ok in (
        ("task", f"one of {kinds}", task in kinds),
        ("labels", "a list of distinct strings",
         isinstance(labels, list) and all(isinstance(x, str) for x in labels) and len(set(labels)) == len(labels)),
    ):
        if not ok:
            raise FormatError(f"{path}: extra field {key!r} must be {want}, got {ckpt.extra[key]!r}")
    return FinetunedModel.from_arrays(
        ckpt.encoder_config, ckpt.params, labels, TaskKind(task), ckpt.vocab_hash, ckpt.pretrain_config
    )
