"""End-to-end command-line workflow on a small synthetic corpus.

Commands run in-process through ``main(argv)``; the module fixture chains
prepare, build-vocab, pretrain, finetune, and evaluate once and the tests
inspect the artifacts each stage wrote.
"""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import die_mid_reply, force_workers, make_pair_task, make_single_task, make_topic_nli, no_child_left

from consem import encoder as encoder_module
from consem import finetune as finetune_module
from consem import pretrain as pretrain_module
from consem.checkpoint import load_checkpoint, save_checkpoint
from consem.cli import SWEEP_GRIDS, main
from consem.config import SHARED_KEYS, RunConfig, section_keys
from consem.encoder import EVAL_BATCH, EncoderConfig, EncoderWeights, PoolingStrategy, embed_sentences, forward_batch
from consem.errors import ContractError
from consem.finetune import MRC_LABELS, FinetuneConfig, FinetunedModel, TaskKind, load_model, save_model
from consem.pretrain import LOSS_CSV_HEADER, PretrainConfig
from consem.text import Vocabulary, build_vocab, load_triples_jsonl

_SMALL = [
    "--num-layers", "2", "--num-heads", "2", "--hidden-size", "32",
    "--ff-size", "64", "--max-len", "20",
]


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def _nli_rows(examples):
    return [
        {"premise": ex.premise, "hypothesis": ex.hypothesis, "label": ex.label}
        for ex in examples
    ]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    nli = root / "nli.jsonl"
    _write_jsonl(nli, _nli_rows(make_topic_nli(24, per_group=1)))
    train = root / "train.jsonl"
    dev = root / "dev.jsonl"
    _write_jsonl(train, make_pair_task(32))
    _write_jsonl(dev, make_pair_task(8, start=32))

    assert main(["prepare", "--nli", str(nli), "--out", str(root / "prep")]) == 0
    triples = root / "prep" / "triples.jsonl"
    assert main(["build-vocab", "--triples", str(triples), "--out", str(root / "vv")]) == 0
    vocab = root / "vv" / "vocab.txt"
    assert (
        main(
            ["pretrain", "--triples", str(triples), "--vocab", str(vocab),
             "--out", str(root / "pre"), "--epochs", "2", "--batch-size", "8"] + _SMALL
        )
        == 0
    )
    checkpoint = root / "pre" / "checkpoint.bin"
    assert (
        main(
            ["finetune", "--checkpoint", str(checkpoint), "--vocab", str(vocab),
             "--train", str(train), "--dev", str(dev), "--task", "pair",
             "--ft-epochs", "2", "--out", str(root / "ft")]
        )
        == 0
    )
    model = root / "ft" / "model.bin"
    assert (
        main(["evaluate", "--model", str(model), "--vocab", str(vocab),
              "--data", str(dev), "--out", str(root / "eval")])
        == 0
    )
    return SimpleNamespace(
        root=root, nli=nli, train=train, dev=dev, triples=triples,
        vocab=vocab, checkpoint=checkpoint, model=model,
    )


class TestPrepare:
    def test_triples_and_stats_written(self, workspace):
        triples = load_triples_jsonl(workspace.triples)
        assert len(triples) == 24
        stats = json.loads((workspace.root / "prep" / "stats.json").read_text())
        assert stats["total"]["triples"] == 24

    def test_triples_pair_entailment_with_contradiction(self, workspace):
        examples = make_topic_nli(24, per_group=1)
        triples = load_triples_jsonl(workspace.triples)
        assert triples[0].sentence1 == examples[0].premise
        assert triples[0].sentence2 == examples[0].hypothesis
        assert triples[0].hard_neg == examples[1].hypothesis

    def test_neutral_only_corpus_yields_empty_file(self, tmp_path):
        nli = tmp_path / "neutral.jsonl"
        rows = [r for r in _nli_rows(make_topic_nli(6)) if r["label"] == "neutral"]
        _write_jsonl(nli, rows)
        assert main(["prepare", "--nli", str(nli), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "triples.jsonl").read_text() == ""

    def test_leakage_fails_and_reports(self, workspace, tmp_path, capsys):
        leaked = load_triples_jsonl(workspace.triples)[2].sentence2
        held = tmp_path / "held.jsonl"
        _write_jsonl(held, [{"text": leaked}])
        rc = main(
            ["prepare", "--nli", str(workspace.nli), "--held-out", str(held),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "leakage" in err and "sentence2" in err

    def test_malformed_input_names_line(self, tmp_path, capsys):
        nli = tmp_path / "bad.jsonl"
        nli.write_text('{"premise": "a", "hypothesis": "b", "label": "entailment"}\n{broken\n')
        assert main(["prepare", "--nli", str(nli), "--out", str(tmp_path / "out")]) == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("escaped", [True, False], ids=["escaped", "raw"])
    def test_line_separator_characters_round_trip(self, tmp_path, escaped):
        # U+2028, U+2029 and U+0085 end a line for str.splitlines() but may sit
        # raw inside a JSON string; triples.jsonl carries them raw.
        odd = "a river\u2028runs\u2029past the\u0085mill"
        rows = [{"premise": odd, "hypothesis": "the river runs", "label": "entailment"},
                {"premise": odd, "hypothesis": "the desert is dry", "label": "contradiction"}]
        nli = tmp_path / "nli.jsonl"
        nli.write_text("".join(json.dumps(r, ensure_ascii=escaped) + "\n" for r in rows), encoding="utf-8")
        assert main(["prepare", "--nli", str(nli), "--out", str(tmp_path / "prep")]) == 0
        triples_path = tmp_path / "prep" / "triples.jsonl"
        assert "\u2028" in triples_path.read_text(encoding="utf-8")
        assert main(["build-vocab", "--triples", str(triples_path), "--out", str(tmp_path / "vv")]) == 0
        [triple] = load_triples_jsonl(triples_path)
        assert triple.sentence1 == odd
        assert {"river", "runs", "past", "mill", "desert"} <= set(Vocabulary.load(tmp_path / "vv" / "vocab.txt").tokens)


class TestBuildVocab:
    def test_vocabulary_loads_with_reserved_prefix(self, workspace):
        vocab = Vocabulary.load(workspace.vocab)
        assert vocab.id_for("[PAD]") == 0
        assert vocab.size > 5

    def test_min_count_flag_shrinks_vocabulary(self, workspace, tmp_path):
        assert (
            main(["build-vocab", "--triples", str(workspace.triples),
                  "--min-count", "50", "--out", str(tmp_path)])
            == 0
        )
        pruned = Vocabulary.load(tmp_path / "vocab.txt")
        assert pruned.size < Vocabulary.load(workspace.vocab).size


class TestPretrain:
    def test_checkpoint_and_logs_written(self, workspace):
        ckpt = load_checkpoint(workspace.checkpoint)
        assert ckpt.encoder_config.hidden_size == 32
        assert ckpt.pretrain_config["epochs"] == 2
        lines = (workspace.root / "pre" / "loss_log.csv").read_text().splitlines()
        assert lines[0] == ",".join(LOSS_CSV_HEADER)
        assert len(lines) == 1 + 2 * 2  # train and validation rows per epoch

    def test_mlm_column_zero_when_weight_off(self, workspace):
        with open(workspace.root / "pre" / "loss_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["mlm"]) == 0.0 for r in rows)
        assert all(r["combined"] == r["contrastive"] for r in rows)

    def test_run_config_archived_with_overrides(self, workspace):
        text = (workspace.root / "pre" / "run_config.txt").read_text()
        assert "epochs = 2" in text and "hidden_size = 32" in text

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        argv = ["pretrain", "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--epochs", "2", "--batch-size", "8"] + _SMALL
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.bin", "loss_log.csv", "run_config.txt"):
            assert (tmp_path / "b" / name).read_bytes() == (workspace.root / "pre" / name).read_bytes()

    def test_warm_start_resumes_training(self, workspace, tmp_path, capsys):
        argv = ["pretrain", "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--init", str(workspace.checkpoint), "--epochs", "1", "--batch-size", "8",
                "--out", str(tmp_path)] + _SMALL
        assert main(argv) == 0
        resumed = load_checkpoint(tmp_path / "checkpoint.bin")
        base = load_checkpoint(workspace.checkpoint)
        assert any(
            resumed.params[n].tobytes() != base.params[n].tobytes() for n in resumed.params
        )

    def test_warm_start_keeps_the_checkpoint_architecture(self, workspace, tmp_path):
        base = ["pretrain", "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--epochs", "1", "--batch-size", "8"]
        assert main(base + ["--num-layers", "1", "--hidden-size", "8", "--out", str(tmp_path / "small")]) == 0
        small = load_checkpoint(tmp_path / "small" / "checkpoint.bin")
        # No architecture flag: the checkpoint's settings, not the defaults, are used and archived.
        assert main(base + ["--init", str(tmp_path / "small" / "checkpoint.bin"), "--out", str(tmp_path / "warm")]) == 0
        assert load_checkpoint(tmp_path / "warm" / "checkpoint.bin").encoder_config == small.encoder_config
        archived = dict(
            line.split(" = ", 1) for line in (tmp_path / "warm" / "run_config.txt").read_text().splitlines()
        )
        for name, key in section_keys(EncoderConfig).items():
            assert archived[key] == str(getattr(small.encoder_config, name)), key
        assert archived["num_layers"] == "1" and archived["hidden_size"] == "8"

    def test_warm_start_architecture_mismatch_fails(self, workspace, tmp_path, capsys):
        argv = ["pretrain", "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--init", str(workspace.checkpoint), "--epochs", "1",
                "--num-layers", "1", "--num-heads", "2", "--hidden-size", "32",
                "--ff-size", "64", "--max-len", "20", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "architecture" in capsys.readouterr().err


class TestFinetuneEvaluate:
    def test_model_loads_with_inferred_labels(self, workspace):
        model = load_model(workspace.model)
        assert model.labels == ["contradiction", "entailment"]
        metrics = json.loads((workspace.root / "ft" / "dev_metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_predictions_cover_every_record(self, workspace):
        lines = (workspace.root / "eval" / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert set(first) == {"id", "gold", "pred", "scores"}
        metrics = json.loads((workspace.root / "eval" / "metrics.json").read_text())
        assert set(metrics) >= {"accuracy", "macro_f1", "per_class"}

    def test_wrong_vocabulary_fails(self, workspace, tmp_path, capsys):
        assert (
            main(["evaluate", "--model", str(workspace.model), "--vocab", str(workspace.vocab),
                  "--data", str(workspace.dev), "--out", str(tmp_path)])
            == 0
        )
        other_dir = tmp_path / "other"
        other_triples = tmp_path / "other.jsonl"
        _write_jsonl(
            other_triples,
            [{"sentence1": "an unrelated corpus", "sentence2": "entirely new words", "hard_neg": "nothing shared"}],
        )
        assert main(["build-vocab", "--triples", str(other_triples), "--out", str(other_dir)]) == 0
        rc = main(["evaluate", "--model", str(workspace.model), "--vocab", str(other_dir / "vocab.txt"),
                   "--data", str(workspace.dev), "--out", str(tmp_path)])
        assert rc == 1
        assert "vocabulary" in capsys.readouterr().err

    def test_duplicate_labels_fail_cleanly(self, workspace, tmp_path, capsys):
        rc = main(["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--train", str(workspace.train), "--dev", str(workspace.dev), "--task", "pair",
                   "--labels", "entailment,entailment,contradiction", "--ft-epochs", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: label 'entailment' is listed more than once") and err.count("\n") == 1
        assert not (tmp_path / "model.bin").exists()

    def test_head_wider_than_labels_fails_cleanly(self, workspace, tmp_path, capsys):
        ckpt = load_checkpoint(workspace.model)
        d = ckpt.encoder_config.hidden_size
        ckpt.params["head.weight"] = np.zeros((d, 3), dtype=np.float32)
        ckpt.params["head.bias"] = np.array([0.0, 0.0, 5.0], dtype=np.float32)
        save_checkpoint(ckpt, tmp_path / "model.bin")
        rc = main(["evaluate", "--model", str(tmp_path / "model.bin"), "--vocab", str(workspace.vocab),
                   "--data", str(workspace.dev), "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "head.weight" in err and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.fixture(scope="class")
    def single_model(self, workspace):
        root = workspace.root / "single"
        root.mkdir()
        _write_jsonl(root / "train.jsonl", make_single_task(8))
        _write_jsonl(root / "dev.jsonl", make_single_task(4, start=8))
        assert main(["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                     "--train", str(root / "train.jsonl"), "--dev", str(root / "dev.jsonl"),
                     "--task", "single", "--ft-epochs", "1", "--out", str(root)]) == 0
        return root / "model.bin"

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("task", ["pair", "single"])
    def test_empty_data_file_fails_cleanly(self, workspace, request, tmp_path, capsys, content, task):
        model = workspace.model if task == "pair" else request.getfixturevalue("single_model")
        empty = tmp_path / "empty.jsonl"
        empty.write_text(content, encoding="utf-8")
        rc = main(["evaluate", "--model", str(model), "--vocab", str(workspace.vocab),
                   "--data", str(empty), "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{empty}: no records" in err
        assert "Traceback" not in err
        assert not (tmp_path / "eval" / "metrics.json").exists()


class TestRetrieve:
    @staticmethod
    def _argv(workspace, claims, contexts, out):
        return ["retrieve", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                "--claims", str(claims), "--contexts", str(contexts), "--out", str(out)]

    def test_identical_claim_ranks_first(self, workspace, tmp_path):
        contexts = [t.sentence1 for t in load_triples_jsonl(workspace.triples)[:6]]
        _write_jsonl(tmp_path / "contexts.jsonl", [{"text": t} for t in contexts])
        _write_jsonl(
            tmp_path / "claims.jsonl",
            [{"claim": t, "gold_index": i} for i, t in enumerate(contexts)],
        )
        rc = main(self._argv(workspace, tmp_path / "claims.jsonl", tmp_path / "contexts.jsonl", tmp_path))
        assert rc == 0
        payload = json.loads((tmp_path / "retrieval.json").read_text())
        assert payload["accuracy_at_k"]["1"] == 1.0
        assert payload["pool_size"] == 6 and payload["claims"] == 6

    def test_gold_index_out_of_range_fails(self, workspace, tmp_path, capsys):
        _write_jsonl(tmp_path / "contexts.jsonl", [{"text": "the river report"}])
        _write_jsonl(tmp_path / "claims.jsonl", [{"claim": "the river", "gold_index": 9}])
        rc = main(self._argv(workspace, tmp_path / "claims.jsonl", tmp_path / "contexts.jsonl", tmp_path))
        assert rc == 1
        assert "out of range" in capsys.readouterr().err
        # Only a JSON integer is an index: no string, null, fraction or boolean.
        for gold in ("abc", None, 1.7, True, False):
            _write_jsonl(tmp_path / "claims.jsonl", [{"claim": "the river", "gold_index": gold}])
            assert main(self._argv(workspace, tmp_path / "claims.jsonl", tmp_path / "contexts.jsonl", tmp_path)) == 1
            err = capsys.readouterr().err
            assert "claims.jsonl:1:" in err and "gold_index" in err, gold

    def test_matches_brute_force_recount_with_duplicate_contexts(self, workspace, tmp_path):
        triples = load_triples_jsonl(workspace.triples)[:8]
        premises = [t.sentence1 for t in triples]
        # Premises 0-3 appear twice, at i and 16 + i, so a gold can sit before or after its twin.
        contexts = premises + [t.hard_neg for t in triples] + premises[:4]
        claims = (
            [{"claim": t.sentence2, "gold_index": i} for i, t in enumerate(triples)]
            + [{"claim": t.sentence2, "gold_index": 16 + i} for i, t in enumerate(triples[:4])]
            + [{"claim": p, "gold_index": g} for i, p in enumerate(premises[:4]) for g in (i, 16 + i)]
        )
        _write_jsonl(tmp_path / "contexts.jsonl", [{"text": t} for t in contexts])
        _write_jsonl(tmp_path / "claims.jsonl", claims)
        assert main(self._argv(workspace, tmp_path / "claims.jsonl", tmp_path / "contexts.jsonl", tmp_path)) == 0
        retrieved = json.loads((tmp_path / "retrieval.json").read_text())["accuracy_at_k"]

        ckpt = load_checkpoint(workspace.checkpoint)
        vocab = Vocabulary.load(workspace.vocab)
        weights = EncoderWeights.from_arrays(ckpt.encoder_config, ckpt.params)
        pooling = PoolingStrategy.parse(ckpt.pretrain_config["pooling"])

        def unit_rows(texts):
            v = embed_sentences(texts, weights, ckpt.encoder_config, vocab, pooling).astype(np.float64)
            return v / np.sqrt((v * v).sum(axis=1, keepdims=True))

        claim_vectors = unit_rows([c["claim"] for c in claims])
        context_vectors = unit_rows(contexts)
        ranks = []
        for row, claim in zip(claim_vectors, claims):
            sims = context_vectors @ row
            gold = claim["gold_index"]
            # Candidates ahead of gold: strictly more similar, or equal with a lower index.
            ranks.append(int((sims > sims[gold]).sum() + (sims[:gold] == sims[gold]).sum()))
        recount = {str(k): sum(r < k for r in ranks) / len(claims) for k in (1, 3, 5, 10)}
        assert retrieved == recount
        values = [recount[str(k)] for k in (1, 3, 5, 10)]
        assert values == sorted(values)

    @pytest.mark.parametrize("pooling", ["", "Bogus"])
    @pytest.mark.parametrize("command", ["retrieve", "analyze"])
    def test_unknown_pooling_fails_cleanly(self, workspace, tmp_path, capsys, command, pooling):
        # An empty name is given, so it is checked, not read as "use the checkpoint's".
        _write_jsonl(tmp_path / "contexts.jsonl", [{"text": "the river report"}])
        _write_jsonl(tmp_path / "claims.jsonl", [{"claim": "the river", "gold_index": 0}])
        if command == "retrieve":
            argv = self._argv(workspace, tmp_path / "claims.jsonl", tmp_path / "contexts.jsonl", tmp_path / "out")
        else:
            argv = ["analyze", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                    "--pairs", str(workspace.nli), "--out", str(tmp_path / "out")]
        assert main(argv + ["--pooling", pooling]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown pooling strategy {pooling!r}; expected one of") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("command", ["retrieve"])
    def test_empty_claims_file_fails_cleanly(self, workspace, tmp_path, capsys, command, content):
        claims = tmp_path / "claims.jsonl"
        claims.write_text(content, encoding="utf-8")
        _write_jsonl(tmp_path / "contexts.jsonl", [{"text": "the river report"}])
        assert main(self._argv(workspace, claims, tmp_path / "contexts.jsonl", tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"error: {claims}: no claims found" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "out").glob("*.json"))

    def test_empty_retrieval_paths_are_read_not_skipped(self, workspace, tmp_path, capsys):
        assert main(self._argv(workspace, "", "", tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "retrieval.json").exists()


class TestAnalyze:
    def test_report_attention_and_embeddings(self, workspace, tmp_path):
        rc = main(["analyze", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--pairs", str(workspace.nli), "--attention-a", "the river report",
                   "--attention-b", "people visit the river", "--save-embeddings",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["uniformity"] < 0.0
        assert report["alignment_entailment"] > 0.0
        attention = json.loads((tmp_path / "attention.json").read_text())
        assert attention["tokens"][0] == "[CLS]"
        for head in attention["heads"]:
            np.testing.assert_allclose(np.array(head).sum(axis=1), 1.0, atol=1e-5)
        from consem.analysis import load_embeddings

        embedded = load_embeddings(tmp_path / "embeddings.bin")
        assert embedded.vectors.shape[1] == 32
        assert len(embedded.texts) == len(set(embedded.texts))

    def test_unpaired_attention_flags_fail(self, workspace, tmp_path, capsys):
        rc = main(["analyze", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--pairs", str(workspace.nli), "--attention-a", "only one side",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "together" in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("missing", ["entailment", "contradiction"])
    def test_pairs_without_a_label_name_it(self, workspace, tmp_path, capsys, missing):
        pairs = tmp_path / "pairs.jsonl"
        _write_jsonl(pairs, [row for row in _nli_rows(make_topic_nli(6, per_group=1)) if row["label"] != missing])
        rc = main(["analyze", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--pairs", str(pairs), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {pairs}: no {missing} pairs to measure alignment over\n"
        assert not (tmp_path / "out" / "analysis.json").exists()

    @pytest.mark.parametrize("text_a,text_b", [("", "people visit the river"), ("", "")])
    def test_empty_attention_text_is_still_given(self, workspace, tmp_path, text_a, text_b):
        rc = main(["analyze", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--pairs", str(workspace.nli), "--attention-a", text_a, "--attention-b", text_b,
                   "--out", str(tmp_path)])
        assert rc == 0
        tokens = json.loads((tmp_path / "attention.json").read_text())["tokens"]
        assert tokens[:2] == ["[CLS]", "[SEP]"] and tokens[-1] == "[SEP]"


# The input files each command needs; a test swaps one of them for a bad file.
_REQUIRED_FILES = {
    "prepare": ["--nli"],
    "build-vocab": ["--triples"],
    "pretrain": ["--triples", "--vocab"],
    "finetune": ["--checkpoint", "--vocab", "--train", "--dev"],
    "evaluate": ["--model", "--vocab", "--data"],
    "analyze": ["--checkpoint", "--vocab", "--pairs"],
    "retrieve": ["--checkpoint", "--vocab", "--claims", "--contexts"],
}


def _argv_with(workspace, command, flag, path, out):
    """``command`` with every file it needs from ``workspace``, except ``path`` for ``flag``."""
    files = {
        "--nli": workspace.nli, "--triples": workspace.triples, "--vocab": workspace.vocab,
        "--checkpoint": workspace.checkpoint, "--model": workspace.model,
        "--train": workspace.train, "--dev": workspace.dev, "--data": workspace.dev,
        "--pairs": workspace.nli,
        "--claims": workspace.root / "claims.jsonl", "--contexts": workspace.root / "contexts.jsonl",
    }
    _write_jsonl(files["--claims"], [{"claim": "the river", "gold_index": 0}])
    _write_jsonl(files["--contexts"], [{"text": "the river report"}])
    argv = [command, flag, str(path), "--out", str(out)]
    for other in _REQUIRED_FILES[command]:
        if other != flag:
            argv += [other, str(files[other])]
    return argv


# (command, the flag that takes the bad file, a JSON line that is no object).
_NON_OBJECT_INPUTS = [
    ("prepare", "--nli", "[1, 2]"),
    ("prepare", "--held-out", "null"),
    ("build-vocab", "--triples", "7"),
    ("finetune", "--train", '"str"'),
    ("evaluate", "--data", "true"),
    ("retrieve", "--claims", "[]"),
    ("retrieve", "--contexts", "3.5"),
]


@pytest.mark.parametrize(
    "command,flag,line", _NON_OBJECT_INPUTS, ids=[f"{c}{f}" for c, f, _ in _NON_OBJECT_INPUTS]
)
def test_non_object_json_line_fails_cleanly(workspace, tmp_path, capsys, command, flag, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n" + line + "\n", encoding="utf-8")
    assert main(_argv_with(workspace, command, flag, bad, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: expected a JSON object" in err
    assert "Traceback" not in err


# (command, a flag that names an input file).
_FILE_FLAGS = [
    ("prepare", "--nli"), ("prepare", "--held-out"), ("build-vocab", "--triples"),
    ("build-vocab", "--config"), ("pretrain", "--triples"), ("pretrain", "--vocab"),
    ("pretrain", "--init"), ("finetune", "--checkpoint"), ("finetune", "--vocab"),
    ("finetune", "--train"), ("finetune", "--dev"), ("evaluate", "--model"),
    ("evaluate", "--data"), ("analyze", "--checkpoint"), ("analyze", "--pairs"),
    ("retrieve", "--claims"), ("retrieve", "--contexts"),
]


@pytest.mark.parametrize("command,flag", _FILE_FLAGS, ids=[c + f for c, f in _FILE_FLAGS])
def test_missing_input_file_fails_cleanly(workspace, tmp_path, capsys, command, flag):
    missing = tmp_path / "missing.jsonl"
    assert main(_argv_with(workspace, command, flag, missing, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


# (command, a flag whose file is read as UTF-8 text).
_TEXT_FLAGS = [
    ("prepare", "--nli"), ("build-vocab", "--triples"), ("build-vocab", "--config"),
    ("finetune", "--vocab"), ("evaluate", "--data"), ("retrieve", "--contexts"),
]


@pytest.mark.parametrize("command,flag", _TEXT_FLAGS, ids=[c + f for c, f in _TEXT_FLAGS])
def test_undecodable_input_file_fails_cleanly(workspace, tmp_path, capsys, command, flag):
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes('{"premise": "caf\u00e9"}\n'.encode("latin-1"))
    assert main(_argv_with(workspace, command, flag, latin1, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"error: {latin1}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def task_models(workspace):
    """An untrained model file per task kind, for commands that fail before a forward pass."""
    ckpt = load_checkpoint(workspace.checkpoint)
    labels = {"pair": ["contradiction", "entailment"], "single": ["inland", "waterside"], "mrc": MRC_LABELS}
    paths = {}
    for kind, names in labels.items():
        head = {"head.weight": np.zeros((ckpt.encoder_config.hidden_size, len(names))),
                "head.bias": np.zeros(len(names))}
        model = FinetunedModel.from_arrays(
            ckpt.encoder_config, {**ckpt.params, **head}, list(names), TaskKind.parse(kind), ckpt.vocab_hash,
            ckpt.pretrain_config,
        )
        paths[kind] = workspace.root / f"{kind}-model.bin"
        save_model(model, paths[kind])
    return paths


# A valid record of each JSON-lines shape; a test spoils one field of it.
_VALID_RECORDS = {
    "nli": {"premise": "the river is wide", "hypothesis": "the river is broad", "label": "entailment",
            "source": "news"},
    "triples": {"sentence1": "the river is wide", "sentence2": "the river is broad", "hard_neg": "no river"},
    "pair": {"text_a": "the river report", "text_b": "indeed the river", "label": "entailment"},
    "single": {"text": "the river report", "label": "waterside"},
    "mrc": {"context": "the river report", "question": "which place ?", "choices": ["the river", "the glacier"],
            "answer_index": 0},
    "claims": {"claim": "the river", "gold_index": 0},
    "contexts": {"text": "the river report"},
}
_NOT_TEXT = [None, 3, ["x"], {}]
_BLANK = ["", " \t"]
_NOT_INTEGER = _NOT_TEXT + [True, "1"]
_NOT_LABEL = [None, ["x"], {}, True, 2.5]
_NOT_CHOICES = [None, 3, {}, "x", [], [None], [["x"]]]
_TASK_READERS = [("finetune", "--train"), ("evaluate", "--data")]
_NOT_UTF8 = ["a \ud800"]  # a lone surrogate: valid JSON, but no UTF-8 file can hold it

# (command, flag, record shape, field, bad values): every field every reader reads.
_FIELD_CASES = [
    *[(c, f, "nli", k, _NOT_TEXT + _BLANK)
      for c, f in (("prepare", "--nli"), ("analyze", "--pairs")) for k in ("premise", "hypothesis")],
    *[(c, f, "nli", k, _NOT_TEXT) for c, f in (("prepare", "--nli"), ("analyze", "--pairs")) for k in ("label", "source")],
    *[("build-vocab", "--triples", "triples", k, _NOT_TEXT + _BLANK) for k in ("sentence1", "sentence2", "hard_neg")],
    *[(c, f, shape, k, _NOT_TEXT) for c, f in _TASK_READERS
      for shape, k in (("pair", "text_a"), ("pair", "text_b"), ("single", "text"), ("mrc", "context"), ("mrc", "question"))],
    *[(c, f, shape, "label", _NOT_LABEL) for c, f in _TASK_READERS for shape in ("pair", "single")],
    *[(c, f, "mrc", "choices", _NOT_CHOICES) for c, f in _TASK_READERS],
    *[(c, f, "mrc", "answer_index", _NOT_INTEGER) for c, f in _TASK_READERS],
    ("retrieve", "--claims", "claims", "claim", _NOT_TEXT),
    ("retrieve", "--claims", "claims", "gold_index", _NOT_INTEGER),
    ("retrieve", "--contexts", "contexts", "text", _NOT_TEXT),
    *[("prepare", "--nli", "nli", k, _NOT_UTF8) for k in ("premise", "hypothesis", "label", "source")],
    *[(c, f, "pair", k, _NOT_UTF8) for c, f in _TASK_READERS for k in ("text_a", "text_b")],
    *[(c, f, "mrc", "choices", [["the river", "a \udfff"]]) for c, f in _TASK_READERS],
]


@pytest.mark.parametrize(
    "command,flag,shape,field,value",
    [
        pytest.param(c, f, shape, k, v, id=f"{c}{f}-{shape}-{k}-{json.dumps(v)}")
        for c, f, shape, k, values in _FIELD_CASES
        for v in values
    ],
)
def test_bad_field_is_one_error_line(workspace, task_models, tmp_path, capsys, command, flag, shape, field, value):
    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [_VALID_RECORDS[shape], dict(_VALID_RECORDS[shape], **{field: value})])
    argv = _argv_with(workspace, command, flag, bad, tmp_path / "out")
    if command == "finetune":
        argv += ["--task", shape, "--ft-epochs", "1"]
    if command == "evaluate":
        argv[argv.index("--model") + 1] = str(task_models[shape])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ") and err.count("\n") == 1, err
    assert f"'{field}'" in err and "Traceback" not in err, err


@pytest.mark.parametrize("command,flag", [("finetune", "--dev"), ("evaluate", "--data")])
def test_unknown_label_names_the_file(workspace, tmp_path, capsys, command, flag):
    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [dict(_VALID_RECORDS["pair"], label="neutral")])
    argv = _argv_with(workspace, command, flag, bad, tmp_path / "out")
    if command == "finetune":
        argv += ["--task", "pair", "--ft-epochs", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:1: unknown label 'neutral'; expected one of ['contradiction', 'entailment']\n"


@pytest.mark.parametrize("command", ["retrieve", "analyze", "pretrain", "finetune"])
def test_checkpoint_with_another_vocabulary_is_one_error_line(workspace, tmp_path, capsys, command):
    other = tmp_path / "other_vocab.txt"
    build_vocab(["an unrelated corpus", "entirely new words"]).save(other)
    claims, contexts = tmp_path / "claims.jsonl", tmp_path / "contexts.jsonl"
    _write_jsonl(claims, [{"claim": "the river", "gold_index": 0}])
    _write_jsonl(contexts, [{"text": "stays calm"}])
    checkpoint = ["--checkpoint", str(workspace.checkpoint)]
    argv = {
        "retrieve": ["retrieve", *checkpoint, "--claims", str(claims), "--contexts", str(contexts)],
        "analyze": ["analyze", *checkpoint, "--pairs", str(workspace.nli)],
        "pretrain": ["pretrain", "--init", str(workspace.checkpoint), "--triples", str(workspace.triples),
                     "--epochs", "1"],
        "finetune": ["finetune", *checkpoint, "--train", str(workspace.train), "--dev", str(workspace.dev),
                     "--task", "pair", "--ft-epochs", "1"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--vocab", str(other), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint was built with a different vocabulary\n", err
    assert not out.exists()


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, consem, consem.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # eval_rows forks with os alone; a pool module would add to every command's start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, consem; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_error_in_a_forked_eval_batch_is_one_error_line(workspace, tmp_path, capsys, monkeypatch):
    triples = load_triples_jsonl(workspace.triples)
    contexts = sorted({t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)})
    assert len(contexts) > 2 * EVAL_BATCH
    _write_jsonl(tmp_path / "contexts.jsonl", [{"text": t} for t in contexts])
    _write_jsonl(tmp_path / "claims.jsonl", [{"claim": contexts[0], "gold_index": 0}])
    caller = os.getpid()

    def forward_failing_in_a_child(seqs, *args, **kwargs):
        if os.getpid() != caller:
            raise ContractError("a worker's batch failed")
        return forward_batch(seqs, *args, **kwargs)

    monkeypatch.setattr(encoder_module, "forward_batch", forward_failing_in_a_child)
    force_workers(monkeypatch, 2)
    rc = main(["retrieve", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
               "--claims", str(tmp_path / "claims.jsonl"), "--contexts", str(tmp_path / "contexts.jsonl"),
               "--out", str(tmp_path / "ret")])
    assert rc == 1
    assert capsys.readouterr().err == "error: a worker's batch failed\n"
    assert not (tmp_path / "ret" / "retrieval.json").exists()



def test_error_in_a_worker_training_shard_is_one_error_line(workspace, tmp_path, capsys, monkeypatch):
    caller = os.getpid()

    def forward_failing_in_a_child(seqs, *args, **kwargs):
        if os.getpid() != caller:
            raise ContractError("a worker's shard failed")
        return forward_batch(seqs, *args, **kwargs)

    monkeypatch.setattr(finetune_module, "forward_batch", forward_failing_in_a_child)
    force_workers(monkeypatch, 2)
    rc = main(["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
               "--train", str(workspace.train), "--dev", str(workspace.dev), "--task", "pair",
               "--ft-epochs", "1", "--out", str(tmp_path / "ft")])
    assert rc == 1
    assert capsys.readouterr().err == "error: a worker's shard failed\n"
    assert not (tmp_path / "ft" / "model.bin").exists()
    no_child_left()

@pytest.mark.usefixtures("time_bound")
def test_a_pretraining_helper_that_dies_between_the_exchanges_is_one_error_line(workspace, tmp_path, capsys,
                                                                                monkeypatch):
    # The helper sends its pooled vectors whole, then exits partway through its loss reply.
    caller, triples_loss = os.getpid(), pretrain_module._triples_loss

    def cutting_loss(vectors, tau):
        if os.getpid() != caller:
            die_mid_reply()
        return triples_loss(vectors, tau)

    monkeypatch.setattr(pretrain_module, "_triples_loss", cutting_loss)
    force_workers(monkeypatch, 2)
    rc = main(["pretrain", "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
               "--epochs", "1", "--batch-size", "8", "--out", str(tmp_path / "pre")] + _SMALL)
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: worker \d+ exited before sending its reply\n", err), err
    assert not (tmp_path / "pre" / "checkpoint.bin").exists()
    no_child_left()


_NLI_TEXTS = st.one_of(st.sampled_from(["the river", "a glacier"]), st.text(alphabet=" \t\u2028ab.", max_size=3))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.fixed_dictionaries(
            {
                "premise": _NLI_TEXTS,
                "hypothesis": _NLI_TEXTS,
                "label": st.sampled_from(["entailment", "contradiction", "neutral"]),
            }
        ),
        min_size=1,
        max_size=8,
    )
)
def test_prepared_triples_always_build_a_vocabulary(rows):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_jsonl(root / "nli.jsonl", rows)
        if main(["prepare", "--nli", str(root / "nli.jsonl"), "--out", str(root / "prep")]) == 0:
            triples = root / "prep" / "triples.jsonl"
            assert main(["build-vocab", "--triples", str(triples), "--out", str(root / "vv")]) == 0


def test_integer_pair_labels_train_and_evaluate(workspace, tmp_path):
    def numbered(rows):
        return [dict(r, label=int(r["label"] == "entailment")) for r in rows]

    _write_jsonl(tmp_path / "train.jsonl", numbered(make_pair_task(16)))
    _write_jsonl(tmp_path / "dev.jsonl", numbered(make_pair_task(4, start=16)))
    assert main(["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                 "--train", str(tmp_path / "train.jsonl"), "--dev", str(tmp_path / "dev.jsonl"),
                 "--task", "pair", "--ft-epochs", "1", "--out", str(tmp_path / "ft")]) == 0
    assert load_model(tmp_path / "ft" / "model.bin").labels == ["0", "1"]
    assert main(["evaluate", "--model", str(tmp_path / "ft" / "model.bin"), "--vocab", str(workspace.vocab),
                 "--data", str(tmp_path / "dev.jsonl"), "--out", str(tmp_path / "eval")]) == 0
    lines = (tmp_path / "eval" / "predictions.jsonl").read_text().splitlines()
    assert [json.loads(line)["gold"] for line in lines] == ["1", "0", "1", "0"]


@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_mrc_rejects_other_labels(workspace, tmp_path, capsys, command):
    files = ["--vocab", str(workspace.vocab), "--train", str(workspace.train), "--dev", str(workspace.dev)]
    if command == "finetune":
        argv = ["finetune", "--checkpoint", str(workspace.checkpoint), *files]
    else:
        argv = ["sweep", "--axis", "tau", "--values", "0.05", "--triples", str(workspace.triples), *files, *_SMALL]
    argv += ["--task", "mrc", "--labels", "yes,no,maybe", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the mrc task classifies") and err.count("\n") == 1, err
    assert "['yes', 'no', 'maybe']" in err
    assert not (tmp_path / "out" / "run_config.txt").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_divergence_is_one_error_line(workspace, tmp_path, command):
    # A separate process, so the interpreter's own warning printer is what
    # would write any numpy RuntimeWarning to stderr.
    if command == "pretrain":
        one = tmp_path / "one.jsonl"
        one.write_text(workspace.triples.read_text(encoding="utf-8").splitlines()[0] + "\n")
        argv = ["pretrain", "--triples", str(one), "--vocab", str(workspace.vocab),
                "--learning-rate", "1e6", "--epochs", "5"] + _SMALL
    else:
        argv = ["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev), "--task", "pair",
                "--ft-learning-rate", "1e6", "--ft-epochs", "5"]
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "consem.cli", *argv, "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite"), result.stderr
    assert " at step " in lines[0] and "(epoch " in lines[0]


def _settings_argv(workspace, command, out):
    """A ``command`` argv over the workspace's inputs that would run as it stands."""
    inputs = {
        "pretrain": ["--triples", workspace.triples, "--vocab", workspace.vocab, *_SMALL],
        "finetune": ["--checkpoint", workspace.checkpoint, "--vocab", workspace.vocab,
                     "--train", workspace.train, "--dev", workspace.dev],
        "sweep": ["--axis", "tau", "--values", "0.05", "--triples", workspace.triples,
                  "--vocab", workspace.vocab, "--train", workspace.train, "--dev", workspace.dev, *_SMALL],
    }
    return [command, *map(str, inputs[command]), "--out", str(out)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["pretrain", "finetune", "sweep"])
def test_negative_seed_is_one_error_line(workspace, tmp_path, capsys, command, source):
    argv = _settings_argv(workspace, command, tmp_path / "out")
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def _with_setting(argv, tmp_path, command, key, value):
    """``argv`` plus ``key = value``: a flag, or a configuration file where finetune has no flag."""
    if command == "finetune" and key in SHARED_KEYS:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        return argv + ["--config", str(cfg)]
    return argv + [f"--{key.replace('_', '-')}={value}"]  # one token, so "-inf" is not read as a flag


# (command, configuration key, field name) for every float setting pretrain and finetune read.
_FLOAT_SETTINGS = [
    (command, key, name)
    for command, sections in (("pretrain", (EncoderConfig, PretrainConfig)), ("finetune", (FinetuneConfig,)))
    for section in sections
    for name, key in section_keys(section).items()
    if RunConfig.field_types()[key] is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,key,name", _FLOAT_SETTINGS, ids=[f"{c}-{k}" for c, k, _ in _FLOAT_SETTINGS])
def test_non_finite_setting_is_one_error_line(workspace, tmp_path, capsys, command, key, name, value):
    out = tmp_path / "out"
    assert main(_with_setting(_settings_argv(workspace, command, out), tmp_path, command, key, value)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err, err
    for artifact in ("checkpoint.bin", "model.bin", "run_config.txt"):
        assert not (out / artifact).exists()


# (command, configuration key, value, message) for each count or rate whose
# section field is named differently from its key, or shares a check with another.
_RANGE_CASES = [
    ("finetune", "ft_learning_rate", "nan", "ft_learning_rate must be positive and finite, got nan"),
    ("finetune", "ft_epochs", "0", "ft_epochs must be >= 1, got 0"),
    ("finetune", "ft_batch_size", "0", "ft_batch_size must be >= 1, got 0"),
    ("pretrain", "epochs", "0", "epochs must be >= 1, got 0"),
    ("pretrain", "batch_size", "0", "batch_size must be >= 1, got 0"),
    ("pretrain", "weight_decay", "-1", "weight_decay must be non-negative and finite, got -1.0"),
    ("finetune", "weight_decay", "-0.5", "weight_decay must be non-negative and finite, got -0.5"),
]


# A shared key has a case per command, so its id names the command.
_RANGE_IDS = [f"{command}-{key}" if key in SHARED_KEYS else key for command, key, _, _ in _RANGE_CASES]


@pytest.mark.parametrize("command,key,value,message", _RANGE_CASES, ids=_RANGE_IDS)
def test_range_error_names_the_configuration_key(workspace, tmp_path, capsys, command, key, value, message):
    out = tmp_path / "out"
    assert main(_with_setting(_settings_argv(workspace, command, out), tmp_path, command, key, value)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    for artifact in ("checkpoint.bin", "model.bin", "run_config.txt"):
        assert not (out / artifact).exists()


class TestConfigHandling:
    def test_flag_overrides_file(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nhidden_size = 32\nff_size = 64\nmax_len = 20\n"
                       "num_layers = 2\nnum_heads = 2\n# a comment\n")
        rc = main(["pretrain", "--config", str(cfg), "--triples", str(workspace.triples),
                   "--vocab", str(workspace.vocab), "--epochs", "1", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "epochs = 1" in (tmp_path / "out" / "run_config.txt").read_text()

    def test_archived_config_reads_back_with_line_separators(self, workspace, tmp_path):
        # --labels is archived raw in run_config.txt; U+2028 must not end its line.
        labels = "contradiction,entailment,odd\u2028label"
        rc = main(["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--train", str(workspace.train), "--dev", str(workspace.dev), "--task", "pair",
                   "--labels", labels, "--ft-epochs", "1", "--out", str(tmp_path / "ft")])
        assert rc == 0
        archived = RunConfig()
        archived.update_from_file(tmp_path / "ft" / "run_config.txt")
        assert archived.labels == labels

    def test_value_with_a_line_break_fails_before_training(self, workspace, tmp_path, capsys):
        rc = main(["finetune", "--checkpoint", str(workspace.checkpoint), "--vocab", str(workspace.vocab),
                   "--train", str(workspace.train), "--dev", str(workspace.dev), "--task", "pair",
                   "--labels", "contradiction,entailment\nodd", "--out", str(tmp_path / "ft")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: configuration key 'labels'") and err.count("\n") == 1
        assert not (tmp_path / "ft").exists()

    def test_archived_config_names_the_inputs_read(self, workspace, tmp_path):
        # The file names other inputs; each command archives the ones its flags made it read.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("triples = /nonexistent/triples.jsonl\nvocab = /nonexistent/vocab.txt\n"
                       "train_data = /nonexistent/train.jsonl\ndev_data = /nonexistent/dev.jsonl\n")
        assert main(["pretrain", "--config", str(cfg), "--triples", str(workspace.triples),
                     "--vocab", str(workspace.vocab), "--epochs", "1", "--out", str(tmp_path / "pre")] + _SMALL) == 0
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(tmp_path / "pre" / "checkpoint.bin"),
                     "--vocab", str(workspace.vocab), "--train", str(workspace.train), "--dev", str(workspace.dev),
                     "--ft-epochs", "1", "--out", str(tmp_path / "ft")]) == 0
        pre, ft = RunConfig(), RunConfig()
        pre.update_from_file(tmp_path / "pre" / "run_config.txt")
        ft.update_from_file(tmp_path / "ft" / "run_config.txt")
        assert (pre.triples, pre.vocab) == (str(workspace.triples), str(workspace.vocab))
        assert (ft.vocab, ft.train_data, ft.dev_data) == (str(workspace.vocab), str(workspace.train), str(workspace.dev))

    def test_unknown_config_key_fails(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed = 9\n")
        rc = main(["build-vocab", "--config", str(cfg), "--triples", str(workspace.triples),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--config", "/nonexistent.cfg"), ("--seed", "3")])
    @pytest.mark.parametrize("command", ["prepare", "evaluate", "analyze", "retrieve"])
    def test_settings_flags_only_where_read(self, workspace, tmp_path, capsys, command, flag, value):
        # argparse rejects the flag before the command reads any input file.
        argv = _argv_with(workspace, command, _REQUIRED_FILES[command][0], tmp_path / "unread", tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_unknown_flag_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--warp-speed", "9"])
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("prepare", "build-vocab", "pretrain", "finetune", "evaluate",
                     "analyze", "retrieve", "sweep"):
            assert name in out


class TestSweep:
    def test_custom_values_write_legs_and_csv(self, workspace, tmp_path):
        argv = ["sweep", "--axis", "tau", "--values", "0.05,0.1",
                "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev),
                "--task", "pair", "--epochs", "1", "--batch-size", "8", "--ft-epochs", "1",
                "--out", str(tmp_path)] + _SMALL
        assert main(argv) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "dev_accuracy", "dev_macro_f1", "status"]
        assert [r[0] for r in rows[1:]] == ["0.05", "0.1"]
        assert all(r[3] == "ok" for r in rows[1:])
        for value in ("0.05", "0.1"):
            leg = tmp_path / "legs" / f"tau={value}"
            for name in ("checkpoint.bin", "loss_log.csv", "model.bin", "dev_metrics.json"):
                assert (leg / name).exists()
            assert load_checkpoint(leg / "checkpoint.bin").pretrain_config["tau"] == float(value)

    def test_leg_reproduces_from_its_run_config(self, workspace, tmp_path):
        files = ["--vocab", str(workspace.vocab), "--train", str(workspace.train), "--dev", str(workspace.dev)]
        argv = ["sweep", "--axis", "tau", "--values", "0.1", "--triples", str(workspace.triples), *files,
                "--task", "pair", "--epochs", "1", "--batch-size", "8", "--ft-epochs", "1",
                "--out", str(tmp_path / "sweep")] + _SMALL
        assert main(argv) == 0
        leg = tmp_path / "sweep" / "legs" / "tau=0.1"
        cfg = str(leg / "run_config.txt")
        assert main(["pretrain", "--config", cfg, "--triples", str(workspace.triples),
                     "--vocab", str(workspace.vocab), "--out", str(tmp_path / "pre")]) == 0
        assert main(["finetune", "--config", cfg, "--checkpoint", str(tmp_path / "pre" / "checkpoint.bin"),
                     *files, "--out", str(tmp_path / "ft")]) == 0
        for rerun, name in (("pre", "checkpoint.bin"), ("pre", "run_config.txt"),
                            ("ft", "model.bin"), ("ft", "run_config.txt")):
            assert (tmp_path / rerun / name).read_bytes() == (leg / name).read_bytes(), (rerun, name)

    def test_repeated_value_rejected_before_any_leg(self, workspace, tmp_path, capsys):
        argv = ["sweep", "--axis", "tau", "--values", "0.1, 0.05,0.1 ",
                "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev),
                "--task", "pair", "--epochs", "1", "--out", str(tmp_path / "out")] + _SMALL
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: sweep value '0.1' is listed more than once in ['0.1', '0.05', '0.1']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_weight_decay_fails_before_any_leg(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "out"
        argv = _with_setting(_settings_argv(workspace, "sweep", out), tmp_path, "sweep", "weight_decay", value)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: weight_decay must be non-negative and finite, got {float(value)}\n"
        assert not (out / "sweep.csv").exists() and not (out / "legs").exists()

    @pytest.mark.parametrize(
        "extra,values,error",
        [
            (["--mask-rate", "2"], "0.1,0.5", "mask_rate must be in (0, 1), got 2.0"),
            (["--num-heads", "3"], "0.1,0.5", "hidden_size 32 is not divisible by num_heads 3"),
            ([], "0,-1", "tau must be positive and finite, got 0.0"),
        ],
    )
    def test_every_leg_failing_stops_before_any_leg(self, workspace, tmp_path, capsys, extra, values, error):
        # A bad base value the axis does not override fails every leg alike.
        out = tmp_path / "out"
        argv = ["sweep", "--axis", "tau", "--values", values,
                "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev),
                "--task", "pair", "--epochs", "1", "--out", str(out)] + _SMALL + extra
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_lambda_axis_accepts_without_marker(self, workspace, tmp_path):
        argv = ["sweep", "--axis", "lambda", "--values", "w/o,0.1",
                "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev),
                "--task", "pair", "--epochs", "1", "--batch-size", "8", "--ft-epochs", "1",
                "--out", str(tmp_path)] + _SMALL
        assert main(argv) == 0
        assert (tmp_path / "legs" / "lambda=w_o" / "checkpoint.bin").exists()
        off = load_checkpoint(tmp_path / "legs" / "lambda=w_o" / "checkpoint.bin")
        on = load_checkpoint(tmp_path / "legs" / "lambda=0.1" / "checkpoint.bin")
        assert off.pretrain_config["mlm_weight"] == 0.0
        assert on.pretrain_config["mlm_weight"] == 0.1

    def test_failed_leg_recorded_and_exit_nonzero(self, workspace, tmp_path, capsys):
        argv = ["sweep", "--axis", "tau", "--values", "0.05,oops",
                "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev),
                "--task", "pair", "--epochs", "1", "--batch-size", "8", "--ft-epochs", "1",
                "--out", str(tmp_path)] + _SMALL
        assert main(argv) == 1
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == "ok"
        assert rows[2][0] == "oops" and rows[2][3] == "error: ConfigError"

    @pytest.mark.parametrize("values", ["", "0.1,,0.5", "0.1, "])
    def test_empty_value_rejected_before_any_leg(self, workspace, tmp_path, capsys, values):
        argv = ["sweep", "--axis", "tau", "--values", values,
                "--triples", str(workspace.triples), "--vocab", str(workspace.vocab),
                "--train", str(workspace.train), "--dev", str(workspace.dev),
                "--task", "pair", "--epochs", "1", "--out", str(tmp_path / "out")] + _SMALL
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: sweep values {values!r} hold an empty item\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_axis_fails(self, workspace, tmp_path, capsys):
        rc = main(["sweep", "--axis", "bogus", "--triples", str(workspace.triples),
                   "--vocab", str(workspace.vocab), "--train", str(workspace.train),
                   "--dev", str(workspace.dev), "--task", "pair", "--out", str(tmp_path)])
        assert rc == 1
        assert "axis" in capsys.readouterr().err

    def test_default_grids_match_reported_tables(self):
        assert SWEEP_GRIDS["tau"] == ("0.001", "0.01", "0.05", "0.1", "0.5", "1")
        assert SWEEP_GRIDS["lambda"] == ("w/o", "0.001", "0.01", "0.05", "0.1", "0.5", "1")
        assert SWEEP_GRIDS["mask_rate"] == ("0.1", "0.15", "0.2", "0.3", "0.4", "0.5")
        assert SWEEP_GRIDS["pooling"] == ("CLS", "Mean", "FirstLast", "Top2")
