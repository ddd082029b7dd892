"""Contrastive loss, dynamic masking, subsampling, and the training loop."""

import math
import os

import numpy as np
import pytest

from conftest import (
    check_gradients,
    count_shard_helper_starts,
    die_mid_reply,
    fail_os_call,
    force_workers,
    make_topic_triples,
    micro_encoder_config,
    no_child_left,
)
from oracles import composed_contrastive_loss, contrastive_loss_reference, full_forward_batch, masking_reference

import consem.pretrain as pretrain_module
from consem import optim as optim_module
from consem import tensor as T
from consem import workers as workers_module
from consem.checkpoint import Checkpoint, save_checkpoint
from consem.encoder import EncoderConfig, EncoderWeights, PoolingStrategy, forward_batch, pool, slot_states
from consem.errors import (
    ConfigError,
    ContractError,
    DataError,
    ShapeError,
    TrainingDivergedError,
    VocabularyError,
)
from consem.pretrain import (
    LOSS_CSV_HEADER,
    LossRecord,
    PretrainConfig,
    contrastive_loss,
    contrastive_scores,
    mask_for_mlm,
    mlm_loss,
    select_fraction,
    train,
    write_loss_csv,
)
from consem.optim import AdamW
from consem.tensor import Tape, Tensor, backward
from consem.text import (
    CLS_ID,
    MASK_ID,
    SEP_ID,
    ContrastiveTriple,
    TokenSequence,
    Vocabulary,
    build_vocab,
    encode_single,
)


def _unit_rows(rows):
    data = np.asarray(rows, dtype=np.float64)
    return Tensor(data / np.linalg.norm(data, axis=1, keepdims=True))


class TestContrastiveLoss:
    @pytest.mark.parametrize("tau", [0.001, 0.05, 1.0])
    def test_single_symmetric_triple_gives_ln2(self, tau, f64):
        # The positive and the hard negative are equally similar to the
        # anchor, so the two-way softmax is exactly even.
        anchors = _unit_rows([[1.0, 0.0]])
        positives = _unit_rows([[0.0, 1.0]])
        negatives = _unit_rows([[0.0, -1.0]])
        loss = contrastive_loss(anchors, positives, negatives, tau)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_small_temperature_sharp_separation(self, f64):
        anchors = _unit_rows([[1.0, 0.0]])
        positives = _unit_rows([[0.9, math.sqrt(1 - 0.81)]])
        negatives = _unit_rows([[0.1, math.sqrt(1 - 0.01)]])
        loss = contrastive_loss(anchors, positives, negatives, 0.05)
        expected = math.log1p(math.exp((0.1 - 0.9) / 0.05))
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(1.13e-7, rel=0.005)

    @pytest.mark.parametrize("tau", [0.001, 0.05, 1.0])
    def test_matches_scalar_reference(self, tau, f64):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 17))
            a, p, g = (rng.uniform(-1, 1, size=(n, d)) for _ in range(3))
            loss = contrastive_loss(Tensor(a), Tensor(p), Tensor(g), tau)
            expected = contrastive_loss_reference(a, p, g, tau)
            assert loss.item() == pytest.approx(expected, abs=1e-6)

    def test_loss_is_nonnegative(self, f64):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, p, g = (rng.uniform(-1, 1, size=(4, 6)) for _ in range(3))
            assert contrastive_loss(Tensor(a), Tensor(p), Tensor(g), 0.1).item() >= 0.0

    def test_loss_vanishes_with_perfect_separation(self, f64):
        a = _unit_rows([[1.0, 0.0]])
        loss = contrastive_loss(a, _unit_rows([[1.0, 0.0]]), _unit_rows([[-1.0, 0.0]]), 0.05)
        assert 0.0 <= loss.item() < 1e-12

    def test_scale_invariance_per_row(self, f64):
        rng = np.random.default_rng(3)
        a, p, g = (rng.uniform(-1, 1, size=(3, 5)) for _ in range(3))
        base = contrastive_loss(Tensor(a), Tensor(p), Tensor(g), 0.05).item()
        a2 = a.copy()
        a2[1] *= 7.3
        p2 = p.copy()
        p2[0] *= 0.002
        scaled = contrastive_loss(Tensor(a2), Tensor(p2), Tensor(g), 0.05).item()
        assert scaled == pytest.approx(base, abs=1e-5)

    def test_gradient_matches_finite_difference(self, f64):
        rng = np.random.default_rng(11)
        a = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        p = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        g = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        err = check_gradients(lambda: contrastive_loss(a, p, g, 0.1), [a, p, g])
        assert err < 1e-3

    def test_argmax_invariant_under_temperature(self, f64):
        rng = np.random.default_rng(19)
        a, p, g = (rng.uniform(-1, 1, size=(5, 8)) for _ in range(3))
        argmaxes = []
        for tau in (0.001, 0.01, 0.05, 0.1, 0.5, 1.0):
            scores = contrastive_scores(Tensor(a), Tensor(p), Tensor(g), tau)
            argmaxes.append(scores.data.argmax(axis=1))
        for later in argmaxes[1:]:
            np.testing.assert_array_equal(argmaxes[0], later)

    def test_scores_layout(self, f64):
        a = _unit_rows([[1.0, 0.0], [0.0, 1.0]])
        scores = contrastive_scores(a, a, _unit_rows([[-1.0, 0.0], [0.0, -1.0]]), 1.0)
        assert scores.shape == (2, 4)
        # Anchor i's own positive is column i.
        np.testing.assert_allclose(np.diag(scores.data[:, :2]), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(scores.data[:, 2:], [[-1.0, 0.0], [0.0, -1.0]], atol=1e-12)

    def test_shape_and_tau_validation(self):
        a = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            contrastive_loss(a, Tensor(np.ones((3, 3))), a, 0.05)
        with pytest.raises(ConfigError):
            contrastive_loss(a, a, a, 0.0)

    def test_seven_tape_nodes(self):
        a, p, g = (Tensor(np.eye(3), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            contrastive_loss(a, p, g, 0.05)
        # Two normalisations, concat, transpose, matmul, scale, cross_entropy.
        assert len(tape) == 7


class TestContrastiveDrift:
    """``contrastive_loss`` is one cross_entropy; bound its drift from the composed 16-op path."""

    @staticmethod
    def _loss_and_grads(loss_fn, a, p, g, tau):
        leaves = [Tensor(x, requires_grad=True) for x in (a, p, g)]
        with Tape() as tape:
            loss = loss_fn(*leaves, tau)
            backward(loss, tape)
        return loss.item(), [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("tau", [0.001, 0.05, 1.0])
    def test_float64_loss_and_gradients_agree(self, tau, f64):
        rng = np.random.default_rng(2104)
        worst = 0.0
        for n in range(1, 33):
            a, p, g = (rng.normal(size=(n, 64)) for _ in range(3))
            loss, grads = self._loss_and_grads(contrastive_loss, a, p, g, tau)
            ref_loss, ref_grads = self._loss_and_grads(composed_contrastive_loss, a, p, g, tau)
            worst = max(worst, abs(loss - ref_loss), *(np.abs(x - y).max() for x, y in zip(grads, ref_grads)))
        assert worst < 1e-10

    @pytest.mark.parametrize("tau", [0.001, 0.05, 1.0])
    def test_float32_loss_agrees(self, tau):
        rng = np.random.default_rng(8)
        for n in (1, 2, 8, 32):
            a, p, g = (rng.normal(size=(n, 64)).astype(np.float32) for _ in range(3))
            loss, _ = self._loss_and_grads(contrastive_loss, a, p, g, tau)
            ref_loss, _ = self._loss_and_grads(composed_contrastive_loss, a, p, g, tau)
            assert loss == pytest.approx(ref_loss, rel=1e-5)


class TestMasking:
    @pytest.fixture()
    def seq(self):
        # [CLS] t t t t t t [SEP]
        return TokenSequence(ids=[CLS_ID, 7, 8, 9, 10, 11, 12, SEP_ID])

    def test_specials_never_masked(self, seq):
        for seed in range(50):
            corrupted, positions = mask_for_mlm(seq, 0.9, np.random.default_rng(seed))
            assert corrupted.ids[0] == CLS_ID
            assert corrupted.ids[7] == SEP_ID
            assert corrupted.length == seq.length
            assert all(1 <= position <= 6 for position in positions)

    def test_selected_positions_become_mask(self, seq):
        corrupted, positions = mask_for_mlm(seq, 0.5, np.random.default_rng(0))
        assert len(positions) and list(positions) == sorted(positions)
        for position in positions:
            assert corrupted.ids[position] == MASK_ID
        untouched = set(range(len(seq.ids))) - set(positions.tolist())
        for i in untouched:
            assert corrupted.ids[i] == seq.ids[i]

    def test_vanishing_rate_masks_nothing(self, seq):
        corrupted, positions = mask_for_mlm(seq, 1e-12, np.random.default_rng(123))
        assert positions.size == 0
        assert corrupted.ids == seq.ids

    def test_near_certain_rate_masks_everything_eligible(self, seq):
        corrupted, positions = mask_for_mlm(seq, 0.999999, np.random.default_rng(5))
        assert positions.tolist() == [1, 2, 3, 4, 5, 6]
        assert corrupted.ids[1:7] == [MASK_ID] * 6

    def test_empirical_rate_concentrates(self):
        total, masked = 0, 0
        seq = TokenSequence(ids=[CLS_ID] + list(range(5, 25)) + [SEP_ID])
        for row in range(500):
            _, positions = mask_for_mlm(seq, 0.15, np.random.default_rng([77, row]))
            total += 20
            masked += len(positions)
        assert 0.13 <= masked / total <= 0.17

    def test_rate_bounds_enforced(self, seq):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            mask_for_mlm(seq, 0.0, rng)
        with pytest.raises(ConfigError):
            mask_for_mlm(seq, 1.0, rng)

    def test_same_seed_same_selection(self, seq):
        a = mask_for_mlm(seq, 0.3, np.random.default_rng(9))
        b = mask_for_mlm(seq, 0.3, np.random.default_rng(9))
        assert a[0].ids == b[0].ids and np.array_equal(a[1], b[1])

    def test_epoch_masking_matches_per_position_loop(self):
        # The index arrays hold what a per-position loop over the same draws
        # selects; specials and [MASK] also appear mid-sequence here.
        rng = np.random.default_rng(31)
        seqs = [
            TokenSequence(ids=[CLS_ID, *rng.integers(1, 40, size=int(rng.integers(0, 12))).tolist(), SEP_ID])
            for _ in range(40)
        ]
        for seed, stream, epoch, rate in [(0, 5, 1, 0.15), (401, 5, 2, 0.3), (7, 6, 3, 0.5)]:
            indices = rng.permutation(len(seqs))[:16]
            corrupted, rows, cols, ids = pretrain_module._epoch_masking(seqs, indices, rate, seed, stream, epoch)
            expected = []
            for batch_row, global_row in enumerate(indices):
                seq = seqs[global_row]
                draws = np.random.default_rng([seed, stream, epoch, int(global_row)]).random(seq.length)
                ref_ids, targets = masking_reference(seq.ids, draws, rate, (CLS_ID, SEP_ID), MASK_ID)
                assert corrupted[batch_row].ids == ref_ids
                expected += [(batch_row, position, token_id) for position, token_id in targets]
            assert expected
            assert list(zip(rows.tolist(), cols.tolist(), ids.tolist())) == expected
            assert rows.dtype == cols.dtype == ids.dtype == np.intp


class TestMlmLoss:
    def test_no_targets_is_zero(self):
        loss = mlm_loss(Tensor(np.zeros((0, 8))), np.zeros(0, dtype=np.intp), Tensor(np.zeros((10, 8))))
        assert loss.item() == 0.0

    def test_zero_states_give_uniform_logits(self, f64):
        # Zero hidden states make every vocabulary logit zero, so the loss
        # is exactly log(V) per masked position.
        v, d = 13, 8
        states = Tensor(np.zeros((2, d)))
        tok_emb = Tensor(np.random.default_rng(0).normal(size=(v, d)))
        loss = mlm_loss(states, np.array([5, 12]), tok_emb)
        assert loss.item() == pytest.approx(math.log(v), abs=1e-12)

    def test_gradient_matches_finite_difference(self, f64):
        rng = np.random.default_rng(4)
        states = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        tok_emb = Tensor(rng.uniform(-1, 1, size=(9, 6)), requires_grad=True)
        token_ids = np.array([3, 8, 0, 5])

        def fn():
            return mlm_loss(states, token_ids, tok_emb)

        assert check_gradients(fn, [states, tok_emb]) < 1e-3


class TestSelectFraction:
    def test_full_fraction_keeps_everything(self):
        np.testing.assert_array_equal(select_fraction(10, 1.0, 0), np.arange(10))

    def test_size_rule(self):
        assert len(select_fraction(10, 0.25, 3)) == 2  # round(2.5) banker's -> 2
        assert len(select_fraction(10, 0.5, 3)) == 5
        assert len(select_fraction(3, 0.01, 3)) == 1

    def test_nested_subsets(self):
        for seed in range(10):
            previous = None
            for fraction in (0.25, 0.5, 0.75, 1.0):
                current = set(select_fraction(200, fraction, seed).tolist())
                if previous is not None:
                    assert previous <= current
                previous = current

    def test_sorted_and_deterministic(self):
        a = select_fraction(50, 0.4, 9)
        b = select_fraction(50, 0.4, 9)
        np.testing.assert_array_equal(a, b)
        assert list(a) == sorted(a)

    def test_seed_changes_selection(self):
        a = select_fraction(100, 0.3, 0)
        b = select_fraction(100, 0.3, 1)
        assert set(a.tolist()) != set(b.tolist())

    def test_validation(self):
        with pytest.raises(ConfigError):
            select_fraction(10, 0.0, 0)
        with pytest.raises(ContractError):
            select_fraction(0, 0.5, 0)


@pytest.fixture(scope="module")
def tiny_world():
    triples = make_topic_triples(16, num_topics=4)
    corpus = [t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)]
    vocab = build_vocab(corpus)
    encoder_config = micro_encoder_config(vocab.size, max_len=14)
    return triples, vocab, encoder_config


def _warm_start_checkpoint(encoder_config, vocab):
    weights = EncoderWeights.initialize(encoder_config, seed=8)
    return Checkpoint(encoder_config, None, vocab.content_hash(), 0, weights.to_arrays())


class TestTrain:
    def test_records_and_checkpoint_structure(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=2, batch_size=4, seed=1, validation_fraction=0.25)
        ckpt, records = train(triples, config, vocab, encoder_config)
        train_records = [r for r in records if r.split == "train"]
        val_records = [r for r in records if r.split == "validation"]
        assert [r.epoch for r in train_records] == [1, 2]
        assert [r.epoch for r in val_records] == [1, 2]
        assert ckpt.vocab_hash == vocab.content_hash()
        assert ckpt.encoder_config == encoder_config
        assert ckpt.pretrain_config == config.to_dict()
        # 12 training triples in batches of 4 over 2 epochs.
        assert ckpt.step == 6
        assert set(ckpt.params) == set(
            name for name, _ in EncoderWeights.initialize(encoder_config, 0).items()
        )

    def test_mlm_column_zero_without_auxiliary_loss(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=2, batch_size=8, seed=2, mlm_weight=0.0)
        _, records = train(triples, config, vocab, encoder_config)
        assert all(r.mlm == 0.0 for r in records)
        assert all(r.combined == r.contrastive for r in records)

    def test_combined_is_contrastive_plus_weighted_mlm(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=2, batch_size=4, seed=3, mlm_weight=0.25)
        _, records = train(triples, config, vocab, encoder_config)
        assert any(r.mlm > 0.0 for r in records)
        for r in records:
            assert r.combined == pytest.approx(r.contrastive + 0.25 * r.mlm, abs=1e-6)

    def test_identical_seeds_identical_runs(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=2, batch_size=4, seed=5, mlm_weight=0.1)
        ckpt_a, records_a = train(triples, config, vocab, encoder_config)
        ckpt_b, records_b = train(triples, config, vocab, encoder_config)
        assert records_a == records_b
        for name in ckpt_a.params:
            assert ckpt_a.params[name].tobytes() == ckpt_b.params[name].tobytes()

    def test_different_seed_differs(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        ckpt_a, _ = train(triples, PretrainConfig(epochs=1, seed=0), vocab, encoder_config)
        ckpt_b, _ = train(triples, PretrainConfig(epochs=1, seed=1), vocab, encoder_config)
        assert ckpt_a.params["tok_emb"].tobytes() != ckpt_b.params["tok_emb"].tobytes()

    def test_warm_start_does_not_mutate_the_checkpoint_params(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        init = _warm_start_checkpoint(encoder_config, vocab)
        before = {name: array.copy() for name, array in init.params.items()}
        ckpt, _ = train(triples, PretrainConfig(epochs=1, batch_size=8, seed=8), vocab, encoder_config, init=init)
        assert ckpt.step == 2
        for name, array in init.params.items():
            assert array.tobytes() == before[name].tobytes(), name

    def test_no_validation_records_when_disabled(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=1, validation_fraction=0.0, seed=0)
        _, records = train(triples, config, vocab, encoder_config)
        assert all(r.split == "train" for r in records)

    def test_single_triple_trains_without_validation(self, tiny_world):
        _, vocab, encoder_config = tiny_world
        triples = make_topic_triples(1)
        config = PretrainConfig(epochs=1, seed=0, validation_fraction=0.5)
        _, records = train(triples, config, vocab, encoder_config)
        assert [r.split for r in records] == ["train"]

    def test_divergence_detected(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=2, batch_size=8, seed=0, learning_rate=1e30)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(triples, config, vocab, encoder_config)

    def test_empty_triples_rejected(self, tiny_world):
        _, vocab, encoder_config = tiny_world
        with pytest.raises(DataError):
            train([], PretrainConfig(), vocab, encoder_config)

    def test_vocab_size_mismatch_rejected(self, tiny_world):
        triples, vocab, _ = tiny_world
        bad = micro_encoder_config(vocab.size + 3)
        with pytest.raises(ConfigError):
            train(triples, PretrainConfig(), vocab, bad)

    def test_warm_start_config_mismatch_rejected(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        init = _warm_start_checkpoint(micro_encoder_config(vocab.size, num_layers=1), vocab)
        with pytest.raises(ConfigError, match="architecture"):
            train(triples, PretrainConfig(), vocab, encoder_config, init=init)

    def test_warm_start_from_another_vocabulary_rejected(self, tiny_world):
        # Same size, other tokens: the vocabulary hash, not its size, decides.
        triples, vocab, encoder_config = tiny_world
        other = Vocabulary(vocab.tokens[:5] + vocab.tokens[:4:-1])
        assert other.size == vocab.size and other.content_hash() != vocab.content_hash()
        init = _warm_start_checkpoint(encoder_config, other)
        with pytest.raises(VocabularyError, match="different vocabulary"):
            train(triples, PretrainConfig(), vocab, encoder_config, init=init)

    def test_data_fraction_uses_fewer_triples(self, tiny_world):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(
            epochs=1, batch_size=100, seed=4, data_fraction=0.5, validation_fraction=0.0
        )
        ckpt, _ = train(triples, config, vocab, encoder_config)
        assert ckpt.step == 1  # 8 triples in one oversized batch


# (pooling, mlm_weight, warm start) of each recipe the shard tests run.
_RECIPES = {
    "cls-mlm": (PoolingStrategy.CLS, 0.3, False),
    "cls": (PoolingStrategy.CLS, 0.0, False),
    "mean": (PoolingStrategy.MEAN, 0.0, False),
    "warm-start": (PoolingStrategy.CLS, 0.3, True),
}


def _recipe_run(tiny_world, recipe, out, **config):
    """Train ``recipe`` on the tiny world; return its checkpoint.bin and loss_log.csv bytes."""
    triples, vocab, encoder_config = tiny_world
    pooling, mlm_weight, warm = _RECIPES[recipe]
    config = PretrainConfig(**{"epochs": 2, "batch_size": 5, "seed": 5, "validation_fraction": 0.25,
                               "pooling": pooling, "mlm_weight": mlm_weight, **config})
    init = _warm_start_checkpoint(encoder_config, vocab) if warm else None
    ckpt, records = train(triples, config, vocab, encoder_config, init=init)
    out.mkdir()
    save_checkpoint(ckpt, out / "checkpoint.bin")
    write_loss_csv(records, out / "loss_log.csv")
    return (out / "checkpoint.bin").read_bytes(), (out / "loss_log.csv").read_bytes()


@pytest.mark.usefixtures("time_bound")
class TestShardedSteps:
    """Each step as two shards that swap their pooled vectors: one process or two give the same
    bytes, the drift from a one-pass step is bounded, and no helper outlives the run."""

    @pytest.mark.parametrize("recipe", list(_RECIPES))
    def test_bytes_do_not_depend_on_the_worker_count(self, tiny_world, monkeypatch, tmp_path, recipe):
        started = count_shard_helper_starts(monkeypatch)
        saved = {}
        for leg in ("one", "two", "no-fork"):
            force_workers(monkeypatch, 1 if leg == "one" else 2)
            if leg == "no-fork":
                fail_os_call(monkeypatch, "fork", 1)
            # 12 training triples in batches of 5, 5 and 2: shards of 3 + 2, then 1 + 1.
            saved[leg] = _recipe_run(tiny_world, recipe, tmp_path / leg)
        # The no-fork leg's caller ran the helper's shard itself.
        assert started == [True, False]
        assert saved["one"] == saved["two"] == saved["no-fork"]
        no_child_left()

    @pytest.mark.parametrize("recipe", ["cls-mlm", "mean"])
    def test_two_shard_gradient_within_bound_of_one_pass(self, tiny_world, monkeypatch, recipe):
        # One step over all 16 triples: shards of 8 + 8 against one shard of 16,
        # both with the triple-major layout.
        triples, vocab, encoder_config = tiny_world
        pooling, mlm_weight, _ = _RECIPES[recipe]
        config = PretrainConfig(epochs=1, batch_size=16, seed=3, validation_fraction=0.0, pooling=pooling,
                                mlm_weight=mlm_weight)
        seen = []

        class RecordingAdamW(AdamW):
            # The step's gradient, read where the update reads it.
            def _apply(self):
                seen.append({name: g.copy() for name, g in zip(self.params, self._grads)})
                super()._apply()

        monkeypatch.setattr(pretrain_module, "AdamW", RecordingAdamW)
        force_workers(monkeypatch, 1)
        train(triples, config, vocab, encoder_config)
        monkeypatch.setattr(optim_module, "_STEP_SHARDS", 1)
        train(triples, config, vocab, encoder_config)
        two, one = seen
        # One bound for all parameters, as the stacked-forward check: some
        # gradients (the attention key biases) are about zero.
        largest = max(np.abs(g).max() for g in one.values())
        assert largest > 0.1
        assert any(two[name].tobytes() != one[name].tobytes() for name in one)
        for name in one:
            assert np.abs(two[name] - one[name]).max() <= 1e-5 * largest, name

    def test_loss_log_within_bound_of_one_pass_steps_after_three_epochs(self, tiny_world, monkeypatch):
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=3, batch_size=4, seed=2, validation_fraction=0.25, mlm_weight=0.3)
        _, records = train(triples, config, vocab, encoder_config)
        monkeypatch.setattr(optim_module, "_STEP_SHARDS", 1)
        _, ref_records = train(triples, config, vocab, encoder_config)
        assert [(r.epoch, r.step, r.split) for r in records] == [(r.epoch, r.step, r.split) for r in ref_records]
        assert records != ref_records
        # Over seeds 2-11 the records drifted at most 1.4e-6.
        for record, ref in zip(records, ref_records):
            for field in ("contrastive", "mlm", "combined"):
                assert getattr(record, field) == pytest.approx(getattr(ref, field), abs=1e-5), field

    def test_no_child_outlives_a_diverged_run(self, tiny_world, monkeypatch, tmp_path):
        force_workers(monkeypatch, 2)
        started = count_shard_helper_starts(monkeypatch)
        with pytest.raises(TrainingDivergedError, match="^non-finite "):
            _recipe_run(tiny_world, "cls-mlm", tmp_path / "run", learning_rate=1e6)
        assert started == [True]
        no_child_left()

    def test_no_child_outlives_a_keyboard_interrupt(self, tiny_world, monkeypatch, tmp_path):
        caller, calls = os.getpid(), []

        def interrupted_forward(*args, **kwargs):
            if os.getpid() == caller:
                calls.append(1)
                if len(calls) == 3:
                    raise KeyboardInterrupt
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(pretrain_module, "forward_batch", interrupted_forward)
        force_workers(monkeypatch, 2)
        started = count_shard_helper_starts(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            _recipe_run(tiny_world, "cls-mlm", tmp_path / "run")
        assert started == [True]
        no_child_left()

    def test_a_helper_that_dies_between_the_exchanges_is_an_error(self, tiny_world, monkeypatch, tmp_path):
        # The helper's block arrives whole; its loss reply is cut short.
        caller, write, triples_loss = os.getpid(), workers_module._write, pretrain_module._triples_loss

        def cutting_loss(vectors, tau):
            if os.getpid() != caller:
                die_mid_reply()
            return triples_loss(vectors, tau)

        monkeypatch.setattr(pretrain_module, "_triples_loss", cutting_loss)
        force_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=r"^worker \d+ exited before sending its reply$"):
            _recipe_run(tiny_world, "cls-mlm", tmp_path / "run")
        assert workers_module._write is write
        no_child_left()

    def test_blocks_bigger_than_a_pipe_are_exchanged(self, monkeypatch, tmp_path):
        # Batch 180 at d = 64: each shard's vectors are 90 * 3 * 64 float32s,
        # more than a pipe holds, so a caller that sent its block before
        # receiving the helper's would wait on a helper waiting on it.
        triples = make_topic_triples(180, num_topics=8)
        vocab = build_vocab([t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)])
        encoder_config = micro_encoder_config(vocab.size, hidden_size=64, ff_size=64, max_len=14)
        assert 90 * 3 * 64 * 4 > 64 * 1024
        config = PretrainConfig(epochs=1, batch_size=180, seed=1, validation_fraction=0.0, mlm_weight=0.1)
        started = count_shard_helper_starts(monkeypatch)
        saved = []
        for workers in (2, 1):
            force_workers(monkeypatch, workers)
            ckpt, records = train(triples, config, vocab, encoder_config)
            assert ckpt.step == 1
            saved.append((records, {name: a.tobytes() for name, a in ckpt.params.items()}))
        assert started == [True]
        assert saved[0] == saved[1]
        no_child_left()


def _per_list_losses(seq_lists, mlm_batch, weights, config, rng):
    """The path the stacked forward replaced: one forward per list, then one for MLM."""
    pooled = [pool(forward_batch(seqs, weights, rng), config.pooling) for seqs in seq_lists]
    cl = contrastive_loss(*pooled, config.tau)
    if mlm_batch is None:
        return cl, None
    corrupted, rows, cols, ids = mlm_batch
    outputs = forward_batch(corrupted, weights, rng)
    return cl, mlm_loss(slot_states(outputs.hidden[-1], rows, cols), ids, weights["tok_emb"])


def _one_shard_losses(seq_lists, mlm_batch, weights, config, rng):
    """The contrastive and MLM losses of a whole batch run as one shard."""
    vectors, ml = pretrain_module._shard_forward(seq_lists, mlm_batch, weights, config, rng)
    return pretrain_module._triples_loss(vectors, config.tau), ml


class TestStackedForward:
    """``_shard_forward`` runs one forward over all rows; bound its drift from per-list forwards."""

    @staticmethod
    def _batch(tiny_world, mlm, dropout=0.1):
        triples, vocab, _ = tiny_world
        # max_len 14 truncates the longest patterns, so the rows have mixed lengths.
        encoder_config = micro_encoder_config(vocab.size, max_len=14, dropout=dropout)
        lists = tuple(
            [encode_single(text, vocab, encoder_config.max_len) for text in texts]
            for texts in zip(*[(t.sentence1, t.sentence2, t.hard_neg) for t in triples[:6]])
        )
        assert len({s.length for seqs in lists for s in seqs}) > 1
        mlm_batch = None
        if mlm:
            mlm_batch = pretrain_module._epoch_masking(lists[0], np.arange(6), 0.3, 0, 5, 1)
            assert len(mlm_batch[3])
        return lists, mlm_batch, encoder_config

    @pytest.mark.parametrize("mlm", [False, True])
    @pytest.mark.parametrize("pooling", list(PoolingStrategy))
    def test_eval_matches_per_list_forwards(self, tiny_world, pooling, mlm):
        lists, mlm_batch, encoder_config = self._batch(tiny_world, mlm)
        weights = EncoderWeights.initialize(encoder_config, seed=3)
        config = PretrainConfig(pooling=pooling, tau=0.1)
        args = (lists, mlm_batch, weights, config, None)
        cl, ml = _one_shard_losses(*args)
        ref_cl, ref_ml = _per_list_losses(*args)
        assert cl.item() == pytest.approx(ref_cl.item(), abs=1e-5)
        if mlm:
            assert ml.item() == pytest.approx(ref_ml.item(), abs=1e-5)
        else:
            assert ml is None and ref_ml is None

    @pytest.mark.parametrize("mlm", [False, True])
    def test_train_mode_gradients_match_without_dropout(self, tiny_world, mlm):
        lists, mlm_batch, encoder_config = self._batch(tiny_world, mlm, dropout=0.0)
        config = PretrainConfig(pooling=PoolingStrategy.MEAN, tau=0.1, mlm_weight=0.5)

        def run(losses_fn):
            weights = EncoderWeights.initialize(encoder_config, seed=3)
            with Tape() as tape:
                cl, ml = losses_fn(lists, mlm_batch, weights, config, np.random.default_rng(0))
                loss = cl if ml is None else T.add(cl, T.scale(ml, config.mlm_weight))
                backward(loss, tape)
            return loss.item(), {name: p.grad for name, p in weights.items()}

        loss, grads = run(_one_shard_losses)
        ref_loss, ref_grads = run(_per_list_losses)
        assert loss == pytest.approx(ref_loss, abs=1e-5)
        # One bound for all parameters: some gradients (the attention key
        # biases) are about zero, where a per-parameter relative bound fails.
        bound = 1e-5 * max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= bound, name

    @pytest.mark.parametrize("mlm_weight", [0.0, 0.3])
    def test_one_forward_per_shard_and_per_validation_batch(self, tiny_world, monkeypatch, one_worker, mlm_weight):
        triples, vocab, encoder_config = tiny_world
        places = {True: [], False: []}
        cuts = set()

        def counting_forward(seqs, weights, rng=None, reads=None, place=None):
            places[rng is not None].append(place)
            cuts.add(reads is not None)
            return forward_batch(seqs, weights, rng, reads=reads, place=place)

        monkeypatch.setattr(pretrain_module, "forward_batch", counting_forward)
        config = PretrainConfig(
            epochs=2, batch_size=4, seed=1, validation_fraction=0.25, mlm_weight=mlm_weight
        )
        ckpt, _ = train(triples, config, vocab, encoder_config)
        # 12 training triples in 3 batches of two shards of 2 and 4 validation
        # triples in 1 batch, per epoch.  A shard's rows are 3 or, with MLM, 4
        # per triple, so it is one contiguous block of its batch's rows.
        assert ckpt.step == 6
        width = 4 if mlm_weight else 3
        assert places == {True: [(0, 4 * width), (2 * width, 4 * width)] * 6, False: [None] * 2}
        # CLS pooling (the default) reads only the last layer's [CLS] and
        # masked slots, with MLM on or off.
        assert cuts == {True}

    def test_default_recipe_within_bound_of_the_full_pass(self, tiny_world, monkeypatch):
        # CLS pooling and no MLM: the last block runs at [CLS] alone, with dropout.
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=3, batch_size=4, seed=2, validation_fraction=0.25)
        ckpt, records = train(triples, config, vocab, encoder_config)
        monkeypatch.setattr(pretrain_module, "forward_batch", full_forward_batch)
        ref_ckpt, ref_records = train(triples, config, vocab, encoder_config)
        assert [(r.epoch, r.step, r.split) for r in records] == [(r.epoch, r.step, r.split) for r in ref_records]
        for record, ref in zip(records, ref_records):
            assert record.contrastive == pytest.approx(ref.contrastive, abs=1e-5)
        # Absolute bounds, as in fine-tuning: the attention key biases get only
        # float-noise gradients; here layer 1's moved 3.1e-6.
        for name, want in ref_ckpt.params.items():
            bound = 1e-4 if name.endswith(".attn.bk") else 5e-6
            assert np.abs(ckpt.params[name] - want).max() <= bound, name


    def test_mlm_recipe_within_bound_of_the_full_pass(self, tiny_world, monkeypatch):
        # CLS pooling with MLM: the last block runs at the contrastive rows'
        # [CLS] and the masked slots alone, with dropout.
        triples, vocab, encoder_config = tiny_world
        config = PretrainConfig(epochs=3, batch_size=4, seed=2, validation_fraction=0.25, mlm_weight=0.3)
        ckpt, records = train(triples, config, vocab, encoder_config)
        monkeypatch.setattr(pretrain_module, "forward_batch", full_forward_batch)
        ref_ckpt, ref_records = train(triples, config, vocab, encoder_config)
        assert [(r.epoch, r.step, r.split) for r in records] == [(r.epoch, r.step, r.split) for r in ref_records]
        assert all(r.mlm > 0.0 for r in records)
        for record, ref in zip(records, ref_records):
            for field in ("contrastive", "mlm", "combined"):
                assert getattr(record, field) == pytest.approx(getattr(ref, field), abs=1e-5), field
        # Measured at this seed: layer 1's attention key bias moved 7.1e-6
        # and every other parameter at most 1.2e-7.  Over seeds 2-11 the key
        # biases moved up to 1.3e-5 (their gradient is float noise, which
        # AdamW scales up to a full step), one seed moved layer0.ff.w2 by
        # 2.2e-5 the same way, and the rest stayed under 7.5e-7.  The bounds
        # are the default recipe's: 1e-4 on the key biases, 5e-6 elsewhere.
        for name, want in ref_ckpt.params.items():
            bound = 1e-4 if name.endswith(".attn.bk") else 5e-6
            assert np.abs(ckpt.params[name] - want).max() <= bound, name

    @pytest.mark.parametrize("pooling", list(PoolingStrategy))
    @pytest.mark.parametrize("mlm", [False, True])
    def test_cut_exactly_when_pooling_is_cls(self, tiny_world, monkeypatch, pooling, mlm):
        lists, mlm_batch, encoder_config = self._batch(tiny_world, mlm)
        seen = []

        def recording_forward(seqs, weights, rng=None, reads=None, place=None):
            seen.append(reads)
            return forward_batch(seqs, weights, rng, reads=reads, place=place)

        monkeypatch.setattr(pretrain_module, "forward_batch", recording_forward)
        weights = EncoderWeights.initialize(encoder_config, seed=3)
        pretrain_module._shard_forward(lists, mlm_batch, weights, PretrainConfig(pooling=pooling), None)
        (reads,) = seen
        if pooling is not PoolingStrategy.CLS:
            assert reads is None
            return
        rows, positions = reads
        # Triple-major rows: anchor, positive, negative and (with MLM) the
        # corrupted anchor of each triple in turn.
        n, width = len(lists[0]), 4 if mlm else 3
        contrastive = [width * i + k for i in range(n) for k in range(3)]
        masked_rows, masked_cols = (width * mlm_batch[1] + 3, mlm_batch[2]) if mlm else ([], [])
        np.testing.assert_array_equal(rows, np.concatenate([contrastive, masked_rows]))
        np.testing.assert_array_equal(positions, np.concatenate([np.zeros(3 * n), masked_cols]))


class TestPretrainConfig:
    def test_round_trips_through_dict(self):
        config = PretrainConfig(tau=0.1, pooling="Mean", mlm_weight=0.2)
        assert PretrainConfig(**config.to_dict()) == config

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            PretrainConfig(seed=-1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PretrainConfig(tau=0.0)
        with pytest.raises(ConfigError):
            PretrainConfig(mask_rate=1.0)
        with pytest.raises(ConfigError):
            PretrainConfig(data_fraction=0.0)
        with pytest.raises(ConfigError):
            PretrainConfig(pooling="Everything")


class TestLossCsv:
    def test_header_format_and_determinism(self, tmp_path):
        records = [
            LossRecord(1, 2, "train", 0.656, 0.25, 0.681),
            LossRecord(1, 2, "validation", 0.7, 0.0, 0.7),
        ]
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_loss_csv(records, path_a)
        write_loss_csv(records, path_b)
        lines = path_a.read_text().splitlines()
        assert lines[0].split(",") == LOSS_CSV_HEADER
        assert lines[1] == "1,2,train,0.65600000,0.25000000,0.68100000"
        # csv's own line ends, as when the file was written through csv.writer directly.
        assert path_a.read_bytes().endswith(b"0.70000000\r\n") and path_a.read_bytes().count(b"\r\n") == 3
        assert path_a.read_bytes() == path_b.read_bytes()
