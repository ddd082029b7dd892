"""Fine-tuning on synthetic separable tasks built from the topic corpus."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    BOUNDARY_TWINS,
    boundary_twin_texts,
    count_shard_helper_starts,
    die_mid_reply,
    fail_os_call,
    force_workers,
    make_mrc_task,
    make_pair_task,
    make_single_task,
    no_child_left,
    topic_sentence,
)
from oracles import full_logits, input_order_predict_probs, per_question_mrc

from consem import finetune as finetune_module
from consem import optim as optim_module
from consem import tensor as T
from consem import workers as workers_module
from consem.checkpoint import load_checkpoint, save_checkpoint
from consem.encoder import EVAL_BATCH, EncoderConfig, EncoderWeights, forward_batch, parameter_names
from consem.errors import (
    ConfigError, ContractError, DataError, FormatError, ShapeError, TrainingDivergedError, VocabularyError,
)
from consem.finetune import (
    CONTRADICTION_LABEL,
    ENTAILMENT_LABEL,
    MRC_LABELS,
    FinetuneConfig,
    FinetunedModel,
    TaskKind,
    TaskSpec,
    evaluate,
    evaluate_classifier,
    evaluate_mrc,
    finetune_classifier,
    load_model,
    load_task_records,
    mrc_scores,
    save_model,
)
from consem.tensor import Tape, backward
from consem.text import Vocabulary, build_vocab, encode_pair, split_text


@pytest.fixture(scope="module")
def pair_run(micro_checkpoint):
    ckpt, _, vocab = micro_checkpoint
    train = make_pair_task(64)
    dev = make_pair_task(16, start=64)
    model, report = finetune_classifier(
        ckpt,
        TaskSpec(TaskKind.PAIR),
        train,
        dev,
        FinetuneConfig(batch_size=8, learning_rate=2e-3, seed=5),
        vocab,
    )
    return model, report, train, dev, vocab


class TestPairTask:
    def test_separable_task_is_learned(self, pair_run):
        _, report, _, _, _ = pair_run
        assert report.accuracy >= 0.95

    def test_labels_inferred_sorted(self, pair_run):
        model, _, _, _, _ = pair_run
        assert model.labels == [CONTRADICTION_LABEL, ENTAILMENT_LABEL]

    def test_predictions_carry_scores(self, pair_run):
        model, _, _, dev, vocab = pair_run
        predictions, _ = evaluate_classifier(model, vocab, dev)
        assert len(predictions) == len(dev)
        for p in predictions:
            assert set(p) == {"id", "gold", "pred", "scores"}
            assert sum(p["scores"]) == pytest.approx(1.0, abs=1e-5)

    def test_rerun_is_deterministic(self, pair_run, micro_checkpoint):
        model, report, train, dev, vocab = pair_run
        ckpt, _, _ = micro_checkpoint
        again, report2 = finetune_classifier(
            ckpt,
            TaskSpec(TaskKind.PAIR),
            train,
            dev,
            FinetuneConfig(batch_size=8, learning_rate=2e-3, seed=5),
            vocab,
        )
        assert report2.to_dict() == report.to_dict()
        assert again.head_weight.data.tobytes() == model.head_weight.data.tobytes()
        for name, arr in again.weights.items():
            np.testing.assert_array_equal(arr.data, model.weights[name].data)

    def test_longer_schedule_never_returns_a_worse_dev_model(self, micro_checkpoint):
        # At this size dev accuracy dips in epoch 3, so the 3-epoch run must return epoch 2's model.
        ckpt, _, vocab = micro_checkpoint
        train, dev = make_pair_task(16), make_pair_task(8, start=16)
        scores = []
        for epochs in range(1, 5):
            config = FinetuneConfig(batch_size=4, epochs=epochs, learning_rate=2e-3, seed=3)
            model, report = finetune_classifier(ckpt, TaskSpec(TaskKind.PAIR), train, dev, config, vocab)
            assert evaluate(model, vocab, dev)[1].to_dict() == report.to_dict(), epochs
            scores.append((report.accuracy, report.macro_f1))
        assert scores == sorted(scores)

    def test_checkpoint_params_not_mutated(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        before = {name: arr.tobytes() for name, arr in ckpt.params.items()}
        finetune_classifier(
            ckpt,
            TaskSpec(TaskKind.PAIR),
            make_pair_task(8),
            make_pair_task(4, start=8),
            FinetuneConfig(epochs=1),
            vocab,
        )
        assert {name: arr.tobytes() for name, arr in ckpt.params.items()} == before

    def test_one_class_training_predicts_that_class(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        train = [dict(r, label="entailment") for r in make_pair_task(16)]
        dev = [dict(r, label="entailment") for r in make_pair_task(8, start=16)]
        task = TaskSpec(TaskKind.PAIR, labels=["contradiction", "entailment"])
        model, report = finetune_classifier(
            ckpt, task, train, dev, FinetuneConfig(batch_size=4, epochs=4, learning_rate=3e-3), vocab
        )
        predictions, _ = evaluate_classifier(model, vocab, dev)
        assert all(p["pred"] == "entailment" for p in predictions)
        assert report.accuracy == 1.0

    def test_single_inferred_label_rejected(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        train = [dict(r, label="entailment") for r in make_pair_task(8)]
        with pytest.raises(ConfigError):
            finetune_classifier(
                ckpt, TaskSpec(TaskKind.PAIR), train, make_pair_task(4), FinetuneConfig(), vocab
            )

    def test_duplicate_labels_rejected(self):
        # A repeated label would add a phantom class to the head and to macro-F1.
        with pytest.raises(ConfigError, match="label 'x' is listed more than once"):
            TaskSpec(TaskKind.PAIR, labels=["x", "x", "y"])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            FinetuneConfig(seed=-1)

    def test_unknown_dev_label_names_line(self, pair_run):
        model, _, _, _, vocab = pair_run
        bad = [{"text_a": "a river", "text_b": "a river", "label": "maybe", "where": "dev.jsonl:17"}]
        with pytest.raises(DataError, match="^dev.jsonl:17: unknown label 'maybe'"):
            evaluate_classifier(model, vocab, bad)
        del bad[0]["where"]
        with pytest.raises(DataError, match="^record 1: unknown label 'maybe'"):
            evaluate_classifier(model, vocab, bad)

    @pytest.mark.parametrize("kind", [TaskKind.PAIR, TaskKind.SINGLE])
    def test_unknown_dev_label_fails_before_the_first_step(self, micro_checkpoint, monkeypatch, kind):
        ckpt, _, vocab = micro_checkpoint
        make = make_pair_task if kind is TaskKind.PAIR else make_single_task
        dev = make(4, start=64)
        dev[-1] = dict(dev[-1], label="maybe", where="dev.jsonl:4")
        steps = []
        step = finetune_module.AdamW.step

        def counting_step(self, *args):
            steps.append(args)
            return step(self, *args)

        monkeypatch.setattr(finetune_module.AdamW, "step", counting_step)
        with pytest.raises(DataError, match="^dev.jsonl:4: unknown label 'maybe'"):
            finetune_classifier(ckpt, TaskSpec(kind), make(16), dev, FinetuneConfig(epochs=1), vocab)
        assert steps == []

    def test_divergence_detected(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        before = {name: array.tobytes() for name, array in ckpt.params.items()}
        config = FinetuneConfig(batch_size=4, epochs=2, learning_rate=1e30, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"^non-finite loss at step 2 \(epoch 1\)$"):
            finetune_classifier(ckpt, TaskSpec(TaskKind.PAIR), make_pair_task(16), make_pair_task(4, start=64),
                                config, vocab)
        assert {name: array.tobytes() for name, array in ckpt.params.items()} == before

    def test_evaluate_rejects_another_vocabulary(self, pair_run):
        model, _, _, dev, _ = pair_run
        other = build_vocab(["completely different words here"])
        with pytest.raises(VocabularyError, match="^model was built with a different vocabulary$"):
            evaluate(model, other, dev)

    @pytest.mark.parametrize("score", ["evaluate_classifier", "evaluate_mrc", "mrc_scores"])
    def test_public_scorers_reject_a_vocabulary_with_one_token_swapped(self, pair_run, score):
        model, _, _, dev, vocab = pair_run
        tokens = list(vocab.tokens)
        tokens[-1], tokens[-2] = tokens[-2], tokens[-1]
        records = dev if score == "evaluate_classifier" else make_mrc_task(2)
        with pytest.raises(VocabularyError, match="^model was built with a different vocabulary$"):
            getattr(finetune_module, score)(model, Vocabulary(tokens), records)

    def test_wrong_vocabulary_rejected(self, micro_checkpoint):
        ckpt, _, _ = micro_checkpoint
        other = build_vocab(["completely different words here"])
        with pytest.raises(VocabularyError):
            finetune_classifier(
                ckpt, TaskSpec(TaskKind.PAIR), make_pair_task(8), make_pair_task(4), FinetuneConfig(), other
            )

    def test_empty_splits_rejected(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        with pytest.raises(DataError):
            finetune_classifier(ckpt, TaskSpec(TaskKind.PAIR), [], make_pair_task(4), FinetuneConfig(), vocab)
        with pytest.raises(DataError):
            finetune_classifier(ckpt, TaskSpec(TaskKind.PAIR), make_pair_task(4), [], FinetuneConfig(), vocab)


class TestSingleTask:
    def test_topic_group_task_is_learned(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        train = make_single_task(96)
        dev = make_single_task(16, start=96)
        _, report = finetune_classifier(
            ckpt,
            TaskSpec(TaskKind.SINGLE),
            train,
            dev,
            FinetuneConfig(batch_size=8, learning_rate=2e-3, seed=7),
            vocab,
        )
        assert report.accuracy >= 0.95


class TestMrc:
    def test_sequences_in_record_and_choice_order(self):
        records = make_mrc_task(3, choices=4)
        vocab = build_vocab([text for r in records for text in (r["context"], r["question"], *r["choices"])])
        seqs = finetune_module._mrc_sequences(records, vocab, 64)
        expected = [
            ["[CLS]", *split_text(f"{r['question']} {choice}"), "[SEP]", *split_text(r["context"]), "[SEP]"]
            for r in records
            for choice in r["choices"]
        ]
        assert len(expected) == 12
        assert [[vocab.token_for(i) for i in seq.ids] for seq in seqs] == expected

    def test_targets_mark_each_answer_as_entailment(self, micro_checkpoint, monkeypatch, one_worker):
        ckpt, _, vocab = micro_checkpoint
        records = make_mrc_task(6, choices=3)
        max_len = ckpt.encoder_config.max_len
        want = {
            tuple(encode_pair(f"{r['question']} {choice}", r["context"], vocab, max_len).ids):
                ENTAILMENT_LABEL if k == r["answer_index"] else CONTRADICTION_LABEL
            for r in records
            for k, choice in enumerate(r["choices"])
        }
        assert len(want) == 18
        batches, targets = [], []
        logits, cross_entropy = finetune_module._logits, finetune_module.T.cross_entropy

        def training_logits(model, seqs, rng=None, place=None):
            if rng is not None:
                batches.append(seqs)
            return logits(model, seqs, rng, place)

        def recorded_cross_entropy(z, gold):
            targets.append(gold)
            return cross_entropy(z, gold)

        monkeypatch.setattr(finetune_module, "_logits", training_logits)
        monkeypatch.setattr(finetune_module.T, "cross_entropy", recorded_cross_entropy)
        finetune_classifier(ckpt, TaskSpec(TaskKind.MRC), records, records[:2], FinetuneConfig(epochs=1, batch_size=4),
                            vocab)
        # 18 statements in batches of 4, 4, 4, 4 and 2, each cut into two shards.
        assert len(batches) == len(targets) == 10
        got = {tuple(seq.ids): MRC_LABELS[t] for seqs, gold in zip(batches, targets) for seq, t in zip(seqs, gold)}
        assert got == want

    def test_no_records_score_to_no_arrays(self, pair_run):
        model, _, _, _, vocab = pair_run
        assert mrc_scores(model, vocab, []) == []

    def test_learns_above_chance(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        train = make_mrc_task(96, choices=4)
        dev = make_mrc_task(16, start=96, choices=4)
        model, report = finetune_classifier(
            ckpt,
            TaskSpec(TaskKind.MRC),
            train,
            dev,
            FinetuneConfig(batch_size=8, learning_rate=1e-3, seed=9),
            vocab,
        )
        assert model.labels == MRC_LABELS
        assert report.mrc_accuracy is not None
        assert report.mrc_accuracy >= 0.25 + 0.2

    def test_identical_choices_tie_to_first(self, pair_run):
        model, _, _, _, vocab = pair_run
        record = {
            "context": topic_sentence("river", 9000),
            "question": "which place appears ?",
            "choices": ["the river appears"] * 3,
            "answer_index": 2,
        }
        predictions, _ = evaluate_mrc(model, vocab, [record])
        assert len(set(predictions[0]["scores"])) == 1
        assert predictions[0]["pred"] == 0

    def test_identical_choices_tie_across_batches(self):
        # Shorter statements fill most of the first length-sorted batch, so the
        # tied copies fall into two batches that pad to different widths.  The
        # weights are scaled up from the init so float noise would show.
        vocab = build_vocab(["which place appears the river glows at dawn near a glacier and morning light"])
        config = EncoderConfig(vocab_size=vocab.size, num_layers=2, num_heads=2, hidden_size=16, ff_size=32,
                               max_len=40, dropout=0.0)
        rng = np.random.default_rng(1)
        arrays = {name: a + rng.normal(0.0, 0.3, a.shape) for name, a in
                  EncoderWeights.initialize(config, seed=0).to_arrays().items()}
        arrays.update({"head.weight": rng.normal(0.0, 1.0, (16, 2)), "head.bias": np.zeros(2)})
        model = FinetunedModel.from_arrays(config, arrays, list(MRC_LABELS), TaskKind.MRC, vocab.content_hash(), None)
        question = "which place appears"
        records = [
            {"context": "the river", "question": "which", "choices": ["glows"] * 20, "answer_index": 0},
            {"context": "the river glows at dawn", "question": question, "choices": ["the glacier"] * 20,
             "answer_index": 5},
            {"context": "the river glows at dawn near a glacier and morning light", "question": question,
             "choices": ["the glacier glows"] * 20, "answer_index": 0},
        ]
        predictions, _ = evaluate_mrc(model, vocab, records)
        assert len(set(predictions[1]["scores"])) == 1
        assert predictions[1]["pred"] == 0

    def test_predict_matches_score_argmax(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        train = make_mrc_task(16, choices=3)
        model, _ = finetune_classifier(
            ckpt, TaskSpec(TaskKind.MRC), train, make_mrc_task(4, start=16, choices=3),
            FinetuneConfig(epochs=2), vocab,
        )
        records = make_mrc_task(6, start=20, choices=3)
        predictions, _ = evaluate_mrc(model, vocab, records)
        for rec, prediction in zip(records, predictions):
            scores = mrc_scores(model, vocab, [rec])[0]
            assert scores.shape == (3,)
            assert np.all((scores > 0.0) & (scores < 1.0))
            assert prediction["pred"] == int(np.argmax(scores))

    def test_evaluate_reports_question_level_accuracy(self, micro_checkpoint, pair_run):
        model, _, _, _, vocab = pair_run
        dev = make_mrc_task(5, choices=2)
        predictions, report = evaluate_mrc(model, vocab, dev)
        expected = sum(p["pred"] == p["gold"] for p in predictions) / len(predictions)
        assert report.mrc_accuracy == pytest.approx(expected, abs=1e-12)
        assert report.accuracy == report.mrc_accuracy

    def test_labels_other_than_mrc_labels_rejected(self):
        assert TaskSpec(TaskKind.MRC).labels == []
        assert TaskSpec(TaskKind.MRC, labels=list(MRC_LABELS)).labels == MRC_LABELS
        for labels in (["yes", "no", "maybe"], ["entailment", "contradiction"], ["entailment"]):
            with pytest.raises(ConfigError, match="the mrc task classifies"):
                TaskSpec(TaskKind.MRC, labels=labels)

    def test_empty_choices_rejected(self, pair_run):
        model, _, _, _, vocab = pair_run
        with pytest.raises(DataError):
            mrc_scores(model, vocab, [{"context": "a river", "question": "which ?", "choices": []}])

    def test_empty_choices_rejected_by_evaluate(self, pair_run):
        model, _, _, _, vocab = pair_run
        records = make_mrc_task(2, choices=2)
        records[1] = dict(records[1], choices=[])
        with pytest.raises(DataError, match="empty choice list"):
            evaluate_mrc(model, vocab, records)

    def test_model_without_entailment_class_rejected(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        arrays = {n: ckpt.params[n] for n in parameter_names(ckpt.encoder_config)}
        arrays.update({"head.weight": np.zeros((ckpt.encoder_config.hidden_size, 2)), "head.bias": np.zeros(2)})
        model = FinetunedModel.from_arrays(
            ckpt.encoder_config, arrays, ["negative", "positive"], TaskKind.PAIR, ckpt.vocab_hash, ckpt.pretrain_config
        )
        with pytest.raises(ConfigError, match="entailment"):
            mrc_scores(model, vocab, [{"context": "a river", "question": "which ?", "choices": ["the river"]}])
        with pytest.raises(ConfigError, match="entailment"):
            evaluate_mrc(model, vocab, make_mrc_task(2, choices=2))


class TestPrediction:
    def test_drift_from_input_order_is_bounded(self, pair_run):
        model, _, train, dev, vocab = pair_run
        records = train + dev + make_pair_task(70, start=200)
        # Some records are cut short, so the batches mix lengths.
        records = [dict(r, text_b=" ".join(r["text_b"].split()[: 1 + i % 6])) for i, r in enumerate(records)]
        seqs = [encode_pair(r["text_a"], r["text_b"], vocab, model.weights.config.max_len) for r in records]
        assert len({s.length for s in seqs}) > 3 and len(seqs) > 2 * EVAL_BATCH
        probs = finetune_module._predict_probs(model, seqs)
        reference = input_order_predict_probs(model, seqs, EVAL_BATCH)
        assert probs.shape == reference.shape
        assert np.abs(probs - reference).max() <= 1e-6
        predictions, _ = evaluate_classifier(model, vocab, records)
        assert [p["scores"] for p in predictions] == probs.tolist()

    @pytest.mark.parametrize("text_b", ["indeed the river report stays near", "instead people visit the river"])
    def test_equal_records_across_a_batch_boundary_score_equal(self, pair_run, text_b):
        model, _, _, _, vocab = pair_run
        labels = [CONTRADICTION_LABEL, ENTAILMENT_LABEL]
        records = [
            {"text_a": text, "text_b": text_b, "label": labels[i % 2]} for i, text in enumerate(boundary_twin_texts())
        ]
        predictions, _ = evaluate_classifier(model, vocab, records)
        first, second = (predictions[i] for i in BOUNDARY_TWINS)
        assert first["scores"] == second["scores"]

    def test_one_question_is_bit_equal_to_input_order(self, pair_run):
        model, _, _, _, vocab = pair_run
        column = model.labels.index(ENTAILMENT_LABEL)
        for rec in make_mrc_task(6, start=30, choices=4):
            scores = mrc_scores(model, vocab, [rec])[0]
            seqs = [encode_pair(f"{rec['question']} {c}", rec["context"], vocab, model.weights.config.max_len)
                    for c in rec["choices"]]
            reference = input_order_predict_probs(model, seqs)[:, column]
            assert scores.tolist() == reference.tolist()

    def test_batched_mrc_within_bound_of_the_per_question_loop(self, pair_run, monkeypatch, one_worker):
        # The old path: one forward per question, each over the full last block.
        model, _, _, _, vocab = pair_run
        records = make_mrc_task(24, start=40, choices=4)
        records = [dict(r, context=" ".join(r["context"].split()[: 2 + i % 7])) for i, r in enumerate(records)]
        forwards = []

        def counting_forward(seqs, *args, **kwargs):
            forwards.append(len(seqs))
            return forward_batch(seqs, *args, **kwargs)

        monkeypatch.setattr(finetune_module, "forward_batch", counting_forward)
        predictions, _ = evaluate_mrc(model, vocab, records)
        # 96 statements in three length-sorted batches, not 24 forwards of 4.
        assert forwards == [EVAL_BATCH] * 3
        monkeypatch.setattr(finetune_module, "_logits", full_logits)
        reference = per_question_mrc(model, vocab, records)
        for prediction, ref in zip(predictions, reference, strict=True):
            assert np.abs(np.array(prediction["scores"]) - ref).max() <= 1e-6
            assert prediction["pred"] == int(np.argmax(ref))

    def test_probabilities_within_bound_of_the_full_pass(self, pair_run, monkeypatch):
        model, _, train, dev, vocab = pair_run
        seqs = [encode_pair(r["text_a"], r["text_b"], vocab, model.weights.config.max_len) for r in train + dev]
        probs = finetune_module._predict_probs(model, seqs)
        monkeypatch.setattr(finetune_module, "_logits", full_logits)
        reference = finetune_module._predict_probs(model, seqs)
        assert np.abs(probs - reference).max() <= 1e-6

    def test_finetune_run_within_bound_of_the_full_pass(self, micro_checkpoint, monkeypatch):
        # Dropout on, so training draws the [CLS] rows' masks from the full grid.
        ckpt, _, vocab = micro_checkpoint
        ckpt = replace(ckpt, encoder_config=replace(ckpt.encoder_config, dropout=0.1))
        train, dev = make_mrc_task(16, choices=3), make_mrc_task(8, start=16, choices=3)

        def run():
            return finetune_classifier(ckpt, TaskSpec(TaskKind.MRC), train, dev, FinetuneConfig(epochs=2, seed=3), vocab)

        model, report = run()
        monkeypatch.setattr(finetune_module, "_logits", full_logits)
        ref_model, ref_report = run()
        assert report == ref_report
        arrays, ref = model.to_arrays(), ref_model.to_arrays()
        # Absolute bounds.  The attention key biases get only float-noise
        # gradients (softmax is shift invariant), which AdamW scales up to
        # steps of the learning rate; here layer 1's moved 1.4e-5.
        for name in ref:
            bound = 1e-4 if name.endswith(".attn.bk") else 5e-6
            assert np.abs(arrays[name] - ref[name]).max() <= bound, name

    def test_scores_do_not_depend_on_the_worker_count(self, pair_run, monkeypatch):
        model, _, train, dev, vocab = pair_run
        max_len = model.weights.config.max_len
        seqs = [encode_pair(r["text_a"], r["text_b"], vocab, max_len) for r in train + dev]
        records = make_mrc_task(24, start=40, choices=4)
        probs, scores = {}, {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            probs[workers] = finetune_module._predict_probs(model, seqs)
            scores[workers] = [s.tobytes() for s in mrc_scores(model, vocab, records)]
        assert len(seqs) > 2 * EVAL_BATCH and 4 * len(records) > 2 * EVAL_BATCH
        assert probs[1].tobytes() == probs[2].tobytes()
        assert scores[1] == scores[2]

    def test_no_sequences_give_an_empty_matrix(self, pair_run):
        model = pair_run[0]
        assert finetune_module._predict_probs(model, []).shape == (0, len(model.labels))


class TestHeadShape:
    @pytest.mark.parametrize("weight_cols,bias_len", [(3, 2), (2, 3), (1, 1)])
    def test_head_must_have_one_column_per_label(self, micro_checkpoint, weight_cols, bias_len):
        ckpt, _, _ = micro_checkpoint
        d = ckpt.encoder_config.hidden_size
        arrays = {**ckpt.params, "head.weight": np.zeros((d, weight_cols)), "head.bias": np.zeros(bias_len)}
        with pytest.raises(ShapeError, match="head"):
            FinetunedModel.from_arrays(
                ckpt.encoder_config, arrays, ["a", "b"], TaskKind.PAIR, ckpt.vocab_hash, ckpt.pretrain_config
            )

    def test_missing_head_named(self, micro_checkpoint):
        ckpt, _, _ = micro_checkpoint
        arrays = EncoderWeights.initialize(ckpt.encoder_config, seed=0).to_arrays()
        with pytest.raises(ShapeError, match="'head.weight' is missing"):
            FinetunedModel.from_arrays(
                ckpt.encoder_config, arrays, ["a", "b"], TaskKind.PAIR, ckpt.vocab_hash, ckpt.pretrain_config
            )


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, pair_run, tmp_path):
        model, _, _, dev, vocab = pair_run
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.kind is model.kind
        assert loaded.vocab_hash == model.vocab_hash
        np.testing.assert_array_equal(loaded.head_weight.data, model.head_weight.data)
        before, _ = evaluate_classifier(model, vocab, dev)
        after, _ = evaluate_classifier(loaded, vocab, dev)
        assert [p["pred"] for p in before] == [p["pred"] for p in after]

    def test_save_load_save_is_byte_identical(self, pair_run, micro_checkpoint, tmp_path):
        # The model file keeps the pretraining configuration, so a resave needs nothing more.
        model = pair_run[0]
        save_model(model, tmp_path / "a.bin")
        loaded = load_model(tmp_path / "a.bin")
        assert loaded.pretrain_config == micro_checkpoint[0].pretrain_config
        assert loaded.pretrain_config["pooling"] == "CLS"
        save_model(loaded, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize(
        "field,value",
        # ["x", "x"] has a label per head column, so only the repeat is wrong.
        [("labels", [0, 1]), ("labels", ["a", 1]), ("labels", "ab"), ("labels", None),
         ("task", 7), ("task", None), ("task", ["pair"]), ("task", "foo"), ("labels", ["x", "x"]),
         ("labels", ["x", "\ud800"])],
    )
    def test_extra_fields_are_checked_not_coerced(self, pair_run, tmp_path, field, value):
        model = pair_run[0]
        save_model(model, tmp_path / "model.bin")
        ckpt = load_checkpoint(tmp_path / "model.bin")
        ckpt.extra[field] = value
        save_checkpoint(ckpt, tmp_path / "edited.bin")
        with pytest.raises(FormatError, match=f"extra field '{field}'"):
            load_model(tmp_path / "edited.bin")

    def test_plain_checkpoint_is_not_a_model(self, micro_checkpoint, tmp_path):
        ckpt, _, _ = micro_checkpoint
        path = tmp_path / "plain.bin"
        save_checkpoint(ckpt, path)
        with pytest.raises(FormatError):
            load_model(path)


class TestLoadTaskRecords:
    def test_pair_records(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        rows = [
            {"text_a": "a", "text_b": "b", "label": "entailment"},
            {"text_a": "c", "text_b": "d", "label": "contradiction"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records = load_task_records(path, TaskSpec(TaskKind.PAIR))
        assert records[0]["text_a"] == "a" and records[0]["where"] == f"{path}:1"
        assert records[1]["label"] == "contradiction" and records[1]["where"] == f"{path}:2"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "label": "a"}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            load_task_records(path, TaskSpec(TaskKind.SINGLE))

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"text_a": "x", "label": "a"}\n')
        with pytest.raises(DataError, match=":1:.*text_b"):
            load_task_records(path, TaskSpec(TaskKind.PAIR))

    def test_mrc_answer_index_validated(self, tmp_path):
        path = tmp_path / "mrc.jsonl"
        # true is a bool, which Python counts as the int 1; it is no index.
        for answer in (5, True, 1.0, "1", None):
            rec = {"context": "c", "question": "q", "choices": ["a", "b"], "answer_index": answer}
            path.write_text(json.dumps(rec) + "\n")
            with pytest.raises(DataError, match="answer_index"):
                load_task_records(path, TaskSpec(TaskKind.MRC))

    def test_mrc_empty_choices_rejected(self, tmp_path):
        path = tmp_path / "mrc.jsonl"
        rec = {"context": "c", "question": "q", "choices": [], "answer_index": 0}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataError, match="choices"):
            load_task_records(path, TaskSpec(TaskKind.MRC))


def _with_dropout(ckpt):
    return replace(ckpt, encoder_config=replace(ckpt.encoder_config, dropout=0.1))


@pytest.mark.usefixtures("time_bound")
class TestShardedSteps:
    """Each step as two shards: one worker or two give the same bytes, the drift is bounded, no child is left."""

    @staticmethod
    def _pair_run(ckpt, vocab, **config):
        config = FinetuneConfig(**{"epochs": 2, "seed": 4, **config})
        return finetune_classifier(ckpt, TaskSpec(TaskKind.PAIR), make_pair_task(40), make_pair_task(8, start=40),
                                   config, vocab)

    @pytest.mark.parametrize("kind", [TaskKind.PAIR, TaskKind.MRC])
    def test_model_bytes_do_not_depend_on_the_worker_count(self, micro_checkpoint, monkeypatch, tmp_path, kind):
        ckpt, _, vocab = micro_checkpoint
        ckpt = _with_dropout(ckpt)
        if kind is TaskKind.MRC:
            train, dev = make_mrc_task(13, choices=3), make_mrc_task(6, start=13, choices=3)
        else:
            train, dev = make_pair_task(37), make_pair_task(8, start=40)
        started = count_shard_helper_starts(monkeypatch)
        saved = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            # Batches of 16 rows and a short last batch: shards of 8 + 8, then uneven halves.
            model, _ = finetune_classifier(ckpt, TaskSpec(kind), train, dev, FinetuneConfig(epochs=2, seed=8), vocab)
            save_model(model, tmp_path / f"model-{workers}.bin")
            saved[workers] = (tmp_path / f"model-{workers}.bin").read_bytes()
        assert started == [True]
        assert saved[1] == saved[2]
        no_child_left()

    def test_two_shard_gradient_within_bound_of_one_pass(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        config = replace(ckpt.encoder_config, dropout=0.1)
        rng = np.random.default_rng(6)
        arrays = {**ckpt.params, "head.weight": rng.normal(0.0, 0.5, (config.hidden_size, 2)), "head.bias": np.zeros(2)}
        model = FinetunedModel.from_arrays(config, arrays, MRC_LABELS, TaskKind.PAIR, ckpt.vocab_hash, None)
        records = make_pair_task(8, start=3)
        # Short rows first, so the halves pad to different widths.
        short = lambda text, words: " ".join(text.split()[:words])
        records[:4] = [dict(r, text_a=short(r["text_a"], 3), text_b=short(r["text_b"], 2 + i))
                       for i, r in enumerate(records[:4])]
        seqs = [encode_pair(r["text_a"], r["text_b"], vocab, config.max_len) for r in records]
        assert max(s.length for s in seqs[:4]) != max(s.length for s in seqs[4:])
        gold = np.array([MRC_LABELS.index(r["label"]) for r in records])
        params = model.parameters()

        def gradient(shards):
            total = {name: np.zeros_like(p.data) for name, p in params.items()}
            for rows, place in shards:
                with Tape() as tape:
                    logits = finetune_module._logits(model, [seqs[i] for i in rows], np.random.default_rng(3), place)
                    backward(T.scale(T.cross_entropy(logits, gold[rows]), len(rows) / len(seqs)), tape)
                for name, p in params.items():
                    total[name] += p.grad
                    p.grad = None
            return total

        one = gradient([(np.arange(8), (0, 8))])
        two = gradient([(np.arange(4), (0, 8)), (np.arange(4, 8), (4, 8))])
        norm = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in one.values()))
        assert norm > 0.1
        for name in one:
            assert np.abs(two[name] - one[name]).max() <= 1e-5, name

    def test_sharded_run_outputs_within_bound_of_one_pass_steps(self, micro_checkpoint, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        ckpt = _with_dropout(ckpt)
        model, _ = self._pair_run(ckpt, vocab, epochs=8)
        monkeypatch.setattr(optim_module, "_STEP_SHARDS", 1)
        ref_model, _ = self._pair_run(ckpt, vocab, epochs=8)
        # Outputs, not parameters: the attention key biases get only float-noise
        # gradients, which AdamW scales up to steps of the learning rate.
        seqs = [encode_pair(r["text_a"], r["text_b"], vocab, ckpt.encoder_config.max_len) for r in make_pair_task(48)]
        probs, ref = finetune_module._predict_probs(model, seqs), finetune_module._predict_probs(ref_model, seqs)
        assert probs.tobytes() != ref.tobytes()
        assert np.abs(probs - ref).max() <= 1e-5

    def test_no_child_outlives_a_diverged_run(self, micro_checkpoint, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        force_workers(monkeypatch, 2)
        started = count_shard_helper_starts(monkeypatch)
        with pytest.raises(TrainingDivergedError, match="^non-finite "):
            self._pair_run(ckpt, vocab, learning_rate=1e6)
        assert started == [True]
        no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", ["worker", "both"])
    def test_a_shard_error_is_the_serial_runs(self, micro_checkpoint, monkeypatch, workers, failing):
        ckpt, _, vocab = micro_checkpoint
        logits = finetune_module._logits

        def failing_logits(model, seqs, rng=None, place=None):
            if rng is not None and (failing == "both" or place[0] > 0):
                raise ContractError(f"shard from row {place[0]} failed")
            return logits(model, seqs, rng, place)

        monkeypatch.setattr(finetune_module, "_logits", failing_logits)
        force_workers(monkeypatch, workers)
        expected = "^shard from row 0 failed$" if failing == "both" else "^shard from row 8 failed$"
        with pytest.raises(ContractError, match=expected):
            self._pair_run(ckpt, vocab)
        no_child_left()

    def test_a_worker_that_dies_is_an_error(self, micro_checkpoint, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        caller, logits = os.getpid(), finetune_module._logits

        def dying_logits(model, seqs, rng=None, place=None):
            if os.getpid() != caller:
                os._exit(3)
            return logits(model, seqs, rng, place)

        monkeypatch.setattr(finetune_module, "_logits", dying_logits)
        force_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=r"^worker \d+ exited before sending its reply$"):
            self._pair_run(ckpt, vocab)
        no_child_left()

    def test_a_worker_that_dies_mid_reply_is_an_error(self, micro_checkpoint, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        caller, logits, write = os.getpid(), finetune_module._logits, workers_module._write

        def cutting_logits(model, seqs, rng=None, place=None):
            if os.getpid() != caller:  # only the helper sends a cut-off reply
                die_mid_reply()
            return logits(model, seqs, rng, place)

        monkeypatch.setattr(finetune_module, "_logits", cutting_logits)
        force_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=r"^worker \d+ exited before sending its reply$"):
            self._pair_run(ckpt, vocab)
        assert workers_module._write is write
        no_child_left()

    @pytest.mark.parametrize("error", [ValueError("dev failed"), KeyboardInterrupt()])
    def test_no_child_outlives_an_error_in_the_epoch_evaluation(self, micro_checkpoint, monkeypatch, error):
        ckpt, _, vocab = micro_checkpoint
        force_workers(monkeypatch, 2)
        started = count_shard_helper_starts(monkeypatch)

        def failing_evaluate(*args):
            raise error

        monkeypatch.setattr(finetune_module, "evaluate", failing_evaluate)
        with pytest.raises(type(error)):
            self._pair_run(ckpt, vocab)
        assert started == [True]
        no_child_left()

    @pytest.mark.parametrize("name,at", [("pipe", 1), ("pipe", 2), ("fork", 1)])
    def test_caller_runs_the_last_shard_when_no_worker_can_start(self, micro_checkpoint, monkeypatch, name, at):
        ckpt, _, vocab = micro_checkpoint
        ckpt = _with_dropout(ckpt)
        force_workers(monkeypatch, 1)
        expected = self._pair_run(ckpt, vocab)[0].to_arrays()
        force_workers(monkeypatch, 2)
        started = count_shard_helper_starts(monkeypatch)
        fds = len(os.listdir("/proc/self/fd"))
        fail_os_call(monkeypatch, name, at)
        model, _ = self._pair_run(ckpt, vocab)
        assert started == [False]
        assert len(os.listdir("/proc/self/fd")) == fds
        got = model.to_arrays()
        assert all(got[name].tobytes() == expected[name].tobytes() for name in expected)
        no_child_left()
