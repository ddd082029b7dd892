"""The training step's fused kernels give the unfused kernels' bits, end to end.

A micro pretraining run (MLM on, dropout on, ``max_len`` above every batch's
length, a short last batch) and a fine-tuning run from its checkpoint are
made twice: with the package's kernels, and with the unfused reference
kernels of ``oracles`` patched in for dropout, layer norm, the GELU backward
and AdamW.  Every float the kernels produce reaches the checkpoint and
model bytes, so one moved bit fails the comparison.  The fine-tuning
batches of 8 run as two shards of 4, so dropout's row offset is compared
too.
"""

import numpy as np

import consem.finetune as finetune_module
import consem.pretrain as pretrain_module
from conftest import force_workers, make_pair_task, make_topic_triples, micro_encoder_config
from oracles import PerTensorAdamW, full_grid_dropout, unfused_gelu, unfused_layer_norm

from consem import tensor as T
from consem.checkpoint import save_checkpoint
from consem.finetune import FinetuneConfig, TaskKind, TaskSpec, finetune_classifier, save_model
from consem.pretrain import PretrainConfig, train
from consem.text import build_vocab, encode_single


def _pretrain_and_finetune(out):
    triples = make_topic_triples(23, num_topics=6)
    train_records, dev_records = make_pair_task(21, num_topics=6), make_pair_task(6, start=21, num_topics=6)
    texts = [s for t in triples for s in (t.sentence1, t.sentence2, t.hard_neg)]
    texts += [r[k] for r in train_records + dev_records for k in ("text_a", "text_b")]
    vocab = build_vocab(texts)
    encoder_config = micro_encoder_config(vocab.size, max_len=40, dropout=0.1)
    assert max(encode_single(t, vocab, 40).length for t in texts) < 30
    config = PretrainConfig(
        batch_size=8, epochs=2, learning_rate=2e-3, mlm_weight=0.2, seed=17, validation_fraction=0.1
    )
    ckpt, _ = train(triples, config, vocab, encoder_config)
    save_checkpoint(ckpt, out / "checkpoint.bin")
    model, _ = finetune_classifier(
        ckpt, TaskSpec(TaskKind.PAIR), train_records, dev_records,
        FinetuneConfig(batch_size=8, epochs=2, learning_rate=2e-3, seed=17), vocab,
    )
    save_model(model, out / "model.bin")
    return (out / "checkpoint.bin").read_bytes(), (out / "model.bin").read_bytes()


def test_unfused_kernels_give_the_same_artifact_bytes(tmp_path, monkeypatch):
    # The per-tensor oracle keeps its parameters in private arrays, which a
    # forked shard worker would not see it update, so every shard runs here.
    force_workers(monkeypatch, 1)
    (tmp_path / "fused").mkdir()
    (tmp_path / "unfused").mkdir()
    fused = _pretrain_and_finetune(tmp_path / "fused")
    monkeypatch.setattr(T, "dropout", full_grid_dropout)
    monkeypatch.setattr(T, "layer_norm", unfused_layer_norm)
    monkeypatch.setattr(T, "gelu", unfused_gelu)
    monkeypatch.setattr(pretrain_module, "AdamW", PerTensorAdamW)
    monkeypatch.setattr(finetune_module, "AdamW", PerTensorAdamW)
    unfused = _pretrain_and_finetune(tmp_path / "unfused")
    assert fused[0] == unfused[0], "checkpoint.bin differs"
    assert fused[1] == unfused[1], "model.bin differs"
