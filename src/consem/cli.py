"""Command-line entry points.

Subcommands mirror the workflow: ``prepare`` mines triples from labeled
pairs, ``build-vocab`` fits the tokenizer, ``pretrain`` runs the
contrastive stage, ``finetune`` and ``evaluate`` handle downstream tasks,
``analyze`` and ``retrieve`` probe the embedding space, and ``sweep``
runs each value of a hyperparameter grid through the same pretraining and
fine-tuning code as ``pretrain`` and ``finetune``.

Every command writes deterministic artifacts under ``--out``.  The
commands that take settings (``build-vocab``, ``pretrain``, ``finetune``
and ``sweep``) read an optional ``--config`` file and apply explicit flags,
input paths included, on top; all but ``build-vocab`` archive the resolved
configuration next to their artifacts, as does every sweep leg.  Commands
exit 0 only when they fully succeed (for ``prepare``, also only when no
leakage was found).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    AnalysisReport,
    EmbeddingSet,
    accuracy_at_topk,
    alignment,
    export_attention,
    save_embeddings,
    uniformity,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import SHARED_KEYS, RunConfig, section_keys
from .encoder import EncoderConfig, EncoderWeights, PoolingStrategy, embed_sentences
from .errors import ConfigError, ConsemError, DataError
from .files import write_atomic, write_csv
from .finetune import (
    FinetuneConfig,
    TaskKind,
    TaskSpec,
    evaluate,
    finetune_classifier,
    load_model,
    load_task_records,
    save_model,
)
from .pretrain import PretrainConfig, train, write_loss_csv
from .text import (
    Vocabulary,
    build_vocab,
    json_field,
    leakage_guard,
    load_jsonl,
    load_nli_jsonl,
    load_triples_jsonl,
    prepare_contrastive,
    save_triples_jsonl,
    write_jsonl,
)

__all__ = ["build_parser", "entrypoint", "main"]

# Flags per command; ``--seed`` is a flag of every command that resolves a RunConfig,
# so no tuple holds it.
_ENCODER_KEYS = tuple(section_keys(EncoderConfig).values())
_PRETRAIN_KEYS = tuple(k for k in section_keys(PretrainConfig).values() if k != "seed")
_FINETUNE_KEYS = tuple(k for k in section_keys(FinetuneConfig).values() if k not in SHARED_KEYS)
_TASK_KEYS = ("task", "labels")
_SWEEP_KEYS = _ENCODER_KEYS + _PRETRAIN_KEYS + _FINETUNE_KEYS + _TASK_KEYS

SWEEP_GRIDS = {
    "tau": ("0.001", "0.01", "0.05", "0.1", "0.5", "1"),
    "lambda": ("w/o", "0.001", "0.01", "0.05", "0.1", "0.5", "1"),
    "mask_rate": ("0.1", "0.15", "0.2", "0.3", "0.4", "0.5"),
    "pooling": ("CLS", "Mean", "FirstLast", "Top2"),
    "data_fraction": ("0.25", "0.5", "0.75", "1.0"),
}

# The sweep axis is named for the symbol it varies; "lambda" writes the
# mlm_weight configuration key.
_AXIS_CONFIG_KEY = {"lambda": "mlm_weight"}


def _add_config_keys(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, metavar="V")


def _resolve_config(args: argparse.Namespace, encoder: EncoderConfig | None = None) -> RunConfig:
    """``encoder``'s keys, the ``--config`` file, then every key the parsed flags carry, input paths included."""
    config = RunConfig()
    if encoder is not None:
        config.update({key: getattr(encoder, name) for name, key in section_keys(EncoderConfig).items()})
    if args.config:
        config.update_from_file(args.config)
    keys = RunConfig.field_types()
    config.update({key: value for key, value in vars(args).items() if key in keys})
    return config


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_artifact(path: Path, payload) -> None:
    """Write an object as indented sorted-key JSON plus a newline, atomically."""
    write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _strings_in(value) -> list[str]:
    """Every string in a JSON value, depth first in document order; a stack, not recursion,
    so no nesting depth ``json.loads`` accepts can exhaust Python's."""
    strings, stack = [], [value]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            strings.append(value)
        elif isinstance(value, (list, dict)):
            stack.extend(reversed(value.values() if isinstance(value, dict) else value))
    return strings


def _encoder_for(args) -> tuple[EncoderWeights, Vocabulary, PoolingStrategy]:
    """The ``--checkpoint`` encoder over ``--vocab``, and ``--pooling`` or else the pooling it was pretrained with."""
    ckpt = load_checkpoint(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    weights = ckpt.encoder_weights(vocab)
    name = args.pooling if args.pooling is not None else (ckpt.pretrain_config or {}).get("pooling", "CLS")
    return weights, vocab, PoolingStrategy.parse(name)


def cmd_prepare(args: argparse.Namespace) -> int:
    examples = load_nli_jsonl(args.nli)
    triples, stats = prepare_contrastive(examples)
    out = _out_dir(args.out)
    save_triples_jsonl(triples, out / "triples.jsonl")
    _write_artifact(out / "stats.json", stats.to_dict())
    print(f"prepared {len(triples)} triples from {len(examples)} labeled pairs")
    if args.held_out:
        held = [s for _, obj in load_jsonl(args.held_out) for s in _strings_in(obj)]
        violations = leakage_guard(triples, held)
        for v in violations:
            print(
                f"leakage: triple {v.triple_index} field {v.fieldname} appears in held-out data: {v.sentence!r}",
                file=sys.stderr,
            )
        if violations:
            return 1
    return 0


def cmd_build_vocab(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    triples = load_triples_jsonl(config.triples)
    corpus = [text for t in triples for text in (t.sentence1, t.sentence2, t.hard_neg)]
    vocab = build_vocab(corpus, min_count=config.min_count)
    out = _out_dir(args.out)
    vocab.save(out / "vocab.txt")
    print(f"built vocabulary of {vocab.size} tokens (min_count={config.min_count})")
    return 0


def _pretrain_run(config: RunConfig, triples, vocab: Vocabulary, init, out: Path):
    """Pretrain, then write ``checkpoint.bin``, ``loss_log.csv`` and ``run_config.txt`` to ``out``."""
    encoder_config = config.build(EncoderConfig, vocab_size=vocab.size)
    ckpt, records = train(triples, config.build(PretrainConfig), vocab, encoder_config, init)
    out = _out_dir(out)
    save_checkpoint(ckpt, out / "checkpoint.bin")
    write_loss_csv(records, out / "loss_log.csv")
    config.write(out / "run_config.txt")
    return ckpt, records


def _finetune_run(config: RunConfig, finetune_config, ckpt, vocab, task, train_records, dev_records, out: Path):
    """Fine-tune, then write ``model.bin``, ``dev_metrics.json`` and ``run_config.txt`` to ``out``."""
    model, report = finetune_classifier(ckpt, task, train_records, dev_records, finetune_config, vocab)
    out = _out_dir(out)
    save_model(model, out / "model.bin")
    _write_artifact(out / "dev_metrics.json", report.to_dict())
    config.write(out / "run_config.txt")
    return report


def cmd_pretrain(args: argparse.Namespace) -> int:
    # A warm start keeps the checkpoint's architecture unless the file or a flag says otherwise.
    init = load_checkpoint(args.init) if args.init else None
    config = _resolve_config(args, init.encoder_config if init else None)
    triples = load_triples_jsonl(config.triples)
    vocab = Vocabulary.load(config.vocab)
    ckpt, records = _pretrain_run(config, triples, vocab, init, args.out)
    last_train = [r for r in records if r.split == "train"][-1]
    print(
        f"pretrained for {last_train.epoch} epochs ({ckpt.step} steps); "
        f"final train loss {last_train.combined:.6f}"
    )
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    task = TaskSpec(kind=TaskKind.parse(config.task), labels=config.label_list())
    train_records = load_task_records(config.train_data, task)
    dev_records = load_task_records(config.dev_data, task)
    report = _finetune_run(
        config, config.build(FinetuneConfig), ckpt, vocab, task, train_records, dev_records, args.out
    )
    print(f"fine-tuned on {len(train_records)} records; dev accuracy {report.accuracy:.4f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    vocab = Vocabulary.load(args.vocab)
    task = TaskSpec(kind=model.kind, labels=model.labels)
    records = load_task_records(args.data, task)
    if not records:
        raise DataError(f"{args.data}: no records to evaluate")
    predictions, report = evaluate(model, vocab, records)
    out = _out_dir(args.out)
    write_jsonl(out / "predictions.jsonl", predictions)
    _write_artifact(out / "metrics.json", report.to_dict())
    print(f"evaluated {len(records)} records; accuracy {report.accuracy:.4f}")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    weights, vocab, pooling = _encoder_for(args)
    claims = []
    for where, obj in load_jsonl(args.claims):
        claims.append((json_field(obj, "claim", where), json_field(obj, "gold_index", where, (int,)), where))
    if not claims:
        raise DataError(f"{args.claims}: no claims found")
    contexts = [json_field(obj, "text", where) for where, obj in load_jsonl(args.contexts)]
    if not contexts:
        raise DataError(f"{args.contexts}: no candidate contexts found")
    for _, gold, where in claims:
        if not 0 <= gold < len(contexts):
            raise DataError(f"{where}: field 'gold_index' {gold} is out of range for {len(contexts)} contexts")
    claim_vectors = embed_sentences([c for c, _, _ in claims], weights, weights.config, vocab, pooling)
    context_vectors = embed_sentences(contexts, weights, weights.config, vocab, pooling)
    gold = np.array([gold for _, gold, _ in claims], dtype=np.intp)
    accuracies = accuracy_at_topk(claim_vectors, context_vectors, gold)
    out = _out_dir(args.out)
    payload = {
        "accuracy_at_k": {str(k): v for k, v in accuracies.items()},
        "claims": len(gold),
        "pool_size": len(contexts),
    }
    _write_artifact(out / "retrieval.json", payload)
    summary = ", ".join(f"@{k}={v:.4f}" for k, v in accuracies.items())
    print(f"retrieval accuracy over {len(gold)} claims: {summary}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.attention_a is None) != (args.attention_b is None):
        raise ConfigError("--attention-a and --attention-b must be given together")
    weights, vocab, pooling = _encoder_for(args)
    examples = load_nli_jsonl(args.pairs)
    for label in ("entailment", "contradiction"):
        if not any(ex.label == label for ex in examples):
            raise DataError(f"{args.pairs}: no {label} pairs to measure alignment over")
    sentences: list[str] = []
    seen = set()
    for ex in examples:
        for text in (ex.premise, ex.hypothesis):
            if text not in seen:
                seen.add(text)
                sentences.append(text)
    vectors = embed_sentences(sentences, weights, weights.config, vocab, pooling)
    row = {text: i for i, text in enumerate(sentences)}

    def aligned(label):
        premises = [row[ex.premise] for ex in examples if ex.label == label]
        hypotheses = [row[ex.hypothesis] for ex in examples if ex.label == label]
        return alignment(vectors[premises], vectors[hypotheses])

    report = AnalysisReport(
        alignment_entailment=aligned("entailment"),
        alignment_contradiction=aligned("contradiction"),
        uniformity=uniformity(vectors),
    )
    out = _out_dir(args.out)
    _write_artifact(out / "analysis.json", report.to_dict())
    if args.attention_a is not None:
        dump = export_attention(weights, vocab, args.attention_a, args.attention_b)
        _write_artifact(out / "attention.json", dump)
    if args.save_embeddings:
        save_embeddings(out / "embeddings.bin", EmbeddingSet(vectors=vectors, texts=sentences))
    print(
        f"analysis over {len(sentences)} sentences: "
        f"alignment(entailment)={report.alignment_entailment:.4f}, "
        f"alignment(contradiction)={report.alignment_contradiction:.4f}, "
        f"uniformity={report.uniformity:.4f}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _resolve_config(args)
    if args.axis not in SWEEP_GRIDS:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; expected one of {sorted(SWEEP_GRIDS)}")
    values = [v.strip() for v in args.values.split(",")] if args.values is not None else list(SWEEP_GRIDS[args.axis])
    for i, value in enumerate(values):
        if not value:
            raise ConfigError(f"sweep values {args.values!r} hold an empty item")
        if value in values[:i]:
            raise ConfigError(f"sweep value {value!r} is listed more than once in {values}")
    for key in ("triples", "vocab", "train_data", "dev_data"):
        if not getattr(base, key):
            raise ConfigError(f"sweep needs a {key} file (flag or configuration)")
    triples = load_triples_jsonl(base.triples)
    vocab = Vocabulary.load(base.vocab)
    task = TaskSpec(kind=TaskKind.parse(base.task), labels=base.label_list())
    train_records = load_task_records(base.train_data, task)
    dev_records = load_task_records(base.dev_data, task)
    # No sweep axis is a fine-tuning key, so every leg shares one fine-tuning config.
    finetune_config = base.build(FinetuneConfig)
    # Every leg's pretraining and encoder settings are built before the first
    # leg runs.  A bad axis value fails its own leg; when every leg fails, a
    # bad base value most likely, the sweep stops with the first leg's error.
    legs = []
    for raw in values:
        leg_config, error = replace(base), None
        try:
            # "w/o" is the tables' shorthand for turning the auxiliary objective off.
            leg_config.update({_AXIS_CONFIG_KEY.get(args.axis, args.axis): 0.0 if raw == "w/o" else raw})
            leg_config.build(PretrainConfig)
            leg_config.build(EncoderConfig, vocab_size=vocab.size)
        except ConsemError as exc:
            error = exc
        legs.append((raw, leg_config, error))
    if all(error is not None for _, _, error in legs):
        raise legs[0][2]

    out = _out_dir(args.out)
    rows = []
    for raw, leg_config, error in legs:
        if error is None:
            leg_dir = out / "legs" / f"{args.axis}={raw.replace('/', '_')}"
            try:
                ckpt, _ = _pretrain_run(leg_config, triples, vocab, None, leg_dir)
                report = _finetune_run(
                    leg_config, finetune_config, ckpt, vocab, task, train_records, dev_records, leg_dir
                )
            except ConsemError as exc:
                error = exc
        if error is None:
            rows.append([raw, f"{report.accuracy:.6f}", f"{report.macro_f1:.6f}", "ok"])
            print(f"sweep {args.axis}={raw}: dev accuracy {report.accuracy:.4f}")
        else:
            rows.append([raw, "", "", f"error: {type(error).__name__}"])
            print(f"sweep {args.axis}={raw} failed: {error}", file=sys.stderr)
    write_csv(out / "sweep.csv", [["value", "dev_accuracy", "dev_macro_f1", "status"], *rows])
    base.write(out / "run_config.txt")
    return 1 if any(row[3] != "ok" for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consem",
        description="Contrastive sentence embeddings at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(sp, config=False, seed=False):
        # --config goes to the commands that resolve a RunConfig, --seed to those of them that read the seed.
        if config:
            sp.add_argument("--config", default=None, metavar="PATH", help="key = value configuration file")
        if seed:
            sp.add_argument("--seed", type=int, default=None, metavar="N", help="override the run seed")
        sp.add_argument("--out", required=True, metavar="DIR", help="artifact directory")

    p = sub.add_parser("prepare", help="mine contrastive triples from labeled NLI pairs")
    p.add_argument("--nli", required=True, metavar="PATH", help="JSONL with premise/hypothesis/label")
    p.add_argument("--held-out", default=None, metavar="PATH", help="JSONL whose strings must not leak into triples")
    common(p)
    p.set_defaults(handler=cmd_prepare)

    p = sub.add_parser("build-vocab", help="fit a vocabulary over a triples file")
    p.add_argument("--triples", required=True, metavar="PATH")
    _add_config_keys(p, ("min_count",))
    common(p, config=True)
    p.set_defaults(handler=cmd_build_vocab)

    p = sub.add_parser("pretrain", help="contrastive pretraining over triples")
    p.add_argument("--triples", required=True, metavar="PATH")
    p.add_argument("--vocab", required=True, metavar="PATH")
    p.add_argument("--init", default=None, metavar="PATH", help="warm-start from this checkpoint and its architecture")
    _add_config_keys(p, _ENCODER_KEYS + _PRETRAIN_KEYS)
    common(p, config=True, seed=True)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a classifier head on a task")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--vocab", required=True, metavar="PATH")
    p.add_argument("--train", dest="train_data", required=True, metavar="PATH")
    p.add_argument("--dev", dest="dev_data", required=True, metavar="PATH")
    _add_config_keys(p, _FINETUNE_KEYS + _TASK_KEYS)
    common(p, config=True, seed=True)
    p.set_defaults(handler=cmd_finetune)

    p = sub.add_parser("evaluate", help="run a fine-tuned model over a dataset")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--vocab", required=True, metavar="PATH")
    p.add_argument("--data", required=True, metavar="PATH")
    common(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("analyze", help="alignment, uniformity, and attention diagnostics")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--vocab", required=True, metavar="PATH")
    p.add_argument("--pairs", required=True, metavar="PATH", help="labeled pairs for alignment statistics")
    p.add_argument("--attention-a", default=None, metavar="TEXT")
    p.add_argument("--attention-b", default=None, metavar="TEXT")
    p.add_argument("--pooling", default=None, metavar="NAME")
    p.add_argument("--save-embeddings", action="store_true")
    common(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("retrieve", help="evidence retrieval accuracy at top K")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--vocab", required=True, metavar="PATH")
    p.add_argument("--claims", required=True, metavar="PATH")
    p.add_argument("--contexts", required=True, metavar="PATH")
    p.add_argument("--pooling", default=None, metavar="NAME")
    common(p)
    p.set_defaults(handler=cmd_retrieve)

    p = sub.add_parser("sweep", help="grid over one hyperparameter, pretrain + finetune per value")
    p.add_argument("--axis", required=True, metavar="KEY")
    p.add_argument("--values", default=None, metavar="V1,V2,...")
    p.add_argument("--triples", default=None, metavar="PATH")
    p.add_argument("--vocab", default=None, metavar="PATH")
    p.add_argument("--train", dest="train_data", default=None, metavar="PATH")
    p.add_argument("--dev", dest="dev_data", default=None, metavar="PATH")
    _add_config_keys(p, _SWEEP_KEYS)
    common(p, config=True, seed=True)
    p.set_defaults(handler=cmd_sweep)

    return parser


# glibc's mallopt parameters, and the values main sets.  By default glibc
# serves large blocks by mmap and hands free heap top back to the OS, both
# from 128 KB up (the thresholds rise as freed blocks grow), so a training
# step's activations were paged in anew on nearly every op.  Keeping them
# costs little peak RSS, since the heap stays near the size of one step.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed memory in the process; a no-op where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConsemError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate; Python's has no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
