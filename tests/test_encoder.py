"""Encoder forward pass, attention masking, and pooling strategies."""

import os
import signal
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import (
    BOUNDARY_TWINS,
    TOPICS,
    TwoArgError,
    analytic_gradients,
    blas_env,
    boundary_twin_texts,
    die_mid_reply,
    fail_os_call,
    fd_at,
    force_workers,
    no_child_left,
    open_fds,
    relative_error,
    topic_sentence,
)
from gradcases import micro_encoder_case
from oracles import composed_forward_batch, full_forward_batch, input_order_embed_sentences

from consem import encoder as encoder_module
from consem import finetune as finetune_module
from consem import pretrain as pretrain_module
from consem import tensor as T
from consem import workers as workers_module

from consem.encoder import (
    EncoderConfig,
    EncoderWeights,
    LayerOutputs,
    PoolingStrategy,
    cls_slots,
    embed_sentences,
    eval_rows,
    forward_batch,
    parameter_names,
    pool,
    slot_states,
)
from consem.errors import ConfigError, ConsemError, ContractError, DegenerateInputError, ShapeError, VocabularyError
from consem.pretrain import PretrainConfig
from consem.tensor import Tape, Tensor, backward
from consem.text import PAD_ID, TokenSequence, build_vocab, encode_single


@pytest.fixture(scope="module")
def setup():
    vocab = build_vocab(["the river glows", "a glacier rests", "morning light covers everything"])
    config = EncoderConfig(
        vocab_size=vocab.size, num_layers=3, num_heads=2,
        hidden_size=12, ff_size=20, max_len=10, dropout=0.1,
    )
    weights = EncoderWeights.initialize(config, seed=3)
    return vocab, config, weights


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, num_heads=3, hidden_size=16)

    def test_positive_sizes_enforced(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=0)
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, num_layers=0)

    def test_dropout_range_enforced(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, dropout=1.0)

    def test_defaults(self):
        config = EncoderConfig(vocab_size=100)
        assert (config.num_layers, config.num_heads, config.hidden_size) == (4, 4, 64)
        assert (config.ff_size, config.max_len, config.dropout) == (256, 64, 0.1)
        assert config.head_dim == 16


class TestWeights:
    def test_parameter_names_cover_all_shapes(self):
        config = EncoderConfig(vocab_size=7, num_layers=2, num_heads=2, hidden_size=8, ff_size=12, max_len=5)
        weights = EncoderWeights.initialize(config, seed=0)
        names = parameter_names(config)
        assert list(dict(weights.items())) == names
        assert weights["tok_emb"].shape == (7, 8)
        assert weights["pos_emb"].shape == (5, 8)
        assert weights["layer1.ff.w1"].shape == (8, 12)

    def test_one_layer_parameter_table_is_pinned(self):
        # Checkpoint blobs follow this order, so it is part of the file format.
        config = EncoderConfig(vocab_size=7, num_layers=1, num_heads=1, hidden_size=4, ff_size=6, max_len=5)
        expected = [
            ("tok_emb", (7, 4)), ("pos_emb", (5, 4)),
            ("layer0.attn.wq", (4, 4)), ("layer0.attn.bq", (4,)), ("layer0.attn.wk", (4, 4)), ("layer0.attn.bk", (4,)),
            ("layer0.attn.wv", (4, 4)), ("layer0.attn.bv", (4,)), ("layer0.attn.wo", (4, 4)), ("layer0.attn.bo", (4,)),
            ("layer0.ln1.gain", (4,)), ("layer0.ln1.bias", (4,)),
            ("layer0.ff.w1", (4, 6)), ("layer0.ff.b1", (6,)), ("layer0.ff.w2", (6, 4)), ("layer0.ff.b2", (4,)),
            ("layer0.ln2.gain", (4,)), ("layer0.ln2.bias", (4,)),
        ]
        assert parameter_names(config) == [name for name, _ in expected]
        weights = EncoderWeights.initialize(config, seed=0)
        assert [(name, p.shape) for name, p in weights.items()] == expected

    def test_initialization_statistics(self):
        config = EncoderConfig(vocab_size=50, num_layers=2, num_heads=4, hidden_size=32, ff_size=64, max_len=8)
        weights = EncoderWeights.initialize(config, seed=1)
        assert np.all(weights["layer0.attn.bq"].data == 0.0)
        assert np.all(weights["layer0.ln1.gain"].data == 1.0)
        w = weights["layer0.attn.wq"].data
        assert abs(w.std() - 0.02) < 0.005

    def test_from_arrays_copies(self):
        config = EncoderConfig(vocab_size=7, num_layers=1, num_heads=1, hidden_size=4, ff_size=6, max_len=5)
        arrays = EncoderWeights.initialize(config, seed=0).to_arrays()
        weights = EncoderWeights.from_arrays(config, arrays)
        weights["tok_emb"].data[0, 0] = 99.0
        assert arrays["tok_emb"][0, 0] != 99.0

    def test_shape_mismatch_rejected(self):
        config = EncoderConfig(vocab_size=7, num_layers=1, num_heads=1, hidden_size=4, ff_size=6, max_len=5)
        arrays = EncoderWeights.initialize(config, seed=0).to_arrays()
        arrays["tok_emb"] = arrays["tok_emb"][:, :2]
        with pytest.raises(ShapeError):
            EncoderWeights.from_arrays(config, arrays)


class TestForward:
    def test_output_shapes(self, setup):
        vocab, config, weights = setup
        texts = ["the river glows", "a glacier", "the river glows", "morning light covers everything"]
        seqs = [encode_single(t, vocab, 8) for t in texts]
        out = forward_batch(seqs, weights)
        assert len(out.hidden) == config.num_layers + 1
        # Padded to the longest sequence (6 ids), not to max_len.
        assert out.hidden[0].shape == (4, 6, 12)
        assert out.mask.shape == (4, 6)

    @pytest.mark.parametrize("cut", [False, True])
    def test_one_attention_map_array_of_the_last_block(self, setup, cut):
        vocab, config, weights = setup
        texts = ["the river glows", "a glacier", "morning light covers everything"]
        seqs = [encode_single(t, vocab, 8) for t in texts]
        reads = (np.array([2, 0, 2, 1]), np.array([0, 1, 4, 0])) if cut else None
        out = forward_batch(seqs, weights, reads=reads)
        assert [f.name for f in fields(out)] == ["hidden", "last_attention", "mask"]
        maps = out.last_attention
        assert type(maps) is np.ndarray
        assert maps.shape == ((4, config.num_heads, 1, 6) if cut else (3, config.num_heads, 6, 6))

    def test_ragged_batch_is_padded_to_longest(self, setup):
        vocab, config, weights = setup
        seqs = [TokenSequence(ids=[1, 5, 2]), TokenSequence(ids=[1, 6, 7, 8, 2]), TokenSequence(ids=[1])]
        out = forward_batch(seqs, weights)
        np.testing.assert_array_equal(out.mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]])
        # Padding goes in as PAD_ID: the embedding output at a padded slot is
        # the PAD row plus that position's embedding.
        expected = weights["tok_emb"].data[PAD_ID] + weights["pos_emb"].data[4]
        np.testing.assert_allclose(out.hidden[0].data[0, 4], expected, atol=1e-6)

    def test_attention_rows_sum_to_one(self, setup):
        vocab, config, weights = setup
        seqs = [encode_single("the river glows", vocab, 8)]
        sums = forward_batch(seqs, weights).last_attention.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-5)

    def test_padding_positions_get_no_attention(self, setup):
        vocab, config, weights = setup
        seqs = [encode_single("the river", vocab, 9), encode_single("morning light covers everything", vocab, 9)]
        out = forward_batch(seqs, weights)
        pad_columns = np.flatnonzero(out.mask[0] == 0)
        assert len(pad_columns) == 2
        assert out.last_attention[0, :, :, pad_columns].max() < 1e-6

    def test_padding_invariance_of_pooling(self, setup):
        vocab, config, weights = setup
        seq = encode_single("the river glows", vocab, 10)
        longer = encode_single("morning light covers everything", vocab, 10)
        for strategy in PoolingStrategy:
            alone = pool(forward_batch([seq], weights), strategy).data[0]
            padded = pool(forward_batch([seq, longer], weights), strategy).data[0]
            np.testing.assert_allclose(alone, padded, atol=1e-5)

    def test_batch_matches_single(self, setup):
        vocab, config, weights = setup
        texts = ["the river glows", "a glacier rests"]
        seqs = [encode_single(t, vocab, 7) for t in texts]
        batched = forward_batch(seqs, weights)
        for i, seq in enumerate(seqs):
            single = forward_batch([seq], weights)
            np.testing.assert_allclose(
                batched.hidden[-1].data[i], single.hidden[-1].data[0], atol=1e-5
            )

    def test_eval_forward_is_bitwise_deterministic(self, setup):
        vocab, config, weights = setup
        seqs = [encode_single("morning light covers everything", vocab, 9)]
        runs = [forward_batch(seqs, weights).hidden[-1].data.tobytes() for _ in range(2)]
        assert runs[0] == runs[1]

    def test_train_dropout_is_seed_deterministic(self, setup):
        vocab, config, weights = setup
        seqs = [encode_single("the river glows", vocab, 7)]

        def run(seed):
            rng = np.random.default_rng(seed)
            return forward_batch(seqs, weights, rng).hidden[-1].data

        np.testing.assert_array_equal(run(5), run(5))
        assert not np.array_equal(run(5), run(6))

    def test_zeroed_blocks_reduce_to_normalized_embeddings(self):
        vocab = build_vocab(["x y z"])
        config = EncoderConfig(
            vocab_size=vocab.size, num_layers=2, num_heads=2,
            hidden_size=8, ff_size=12, max_len=6, dropout=0.0,
        )
        weights = EncoderWeights.initialize(config, seed=2)
        for name, p in weights.items():
            if name in ("tok_emb", "pos_emb") or name.endswith(".gain"):
                continue
            p.data = np.zeros_like(p.data)
        seq = encode_single("x y", vocab, 5)
        out = forward_batch([seq], weights)
        expected = weights["tok_emb"].data[np.array(seq.ids)] + weights["pos_emb"].data[: seq.length]
        # Both sublayers contribute zero, so each block just renormalizes.
        for _ in range(2 * config.num_layers):
            mu = expected.mean(axis=-1, keepdims=True)
            var = ((expected - mu) ** 2).mean(axis=-1, keepdims=True)
            expected = (expected - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(out.hidden[-1].data[0], expected, atol=1e-5)

    def test_overlong_sequence_rejected(self, setup):
        vocab, config, weights = setup
        fits = TokenSequence(ids=[1] * config.max_len)
        forward_batch([fits], weights)
        with pytest.raises(ConfigError):
            forward_batch([fits, TokenSequence(ids=[1] * (config.max_len + 1))], weights)

    def test_empty_sequence_and_batch_rejected(self, setup):
        vocab, config, weights = setup
        with pytest.raises(ShapeError):
            forward_batch([TokenSequence(ids=[1, 2]), TokenSequence(ids=[])], weights)
        with pytest.raises(ShapeError):
            forward_batch([], weights)

    def test_out_of_vocabulary_id_rejected(self, setup):
        vocab, config, weights = setup
        seqs = [TokenSequence(ids=[1, 2]), TokenSequence(ids=[1, config.vocab_size, 2])]
        with pytest.raises(VocabularyError):
            forward_batch(seqs, weights)


class TestPaddingDrift:
    """Per-batch padding against padding every sequence to ``max_len``."""

    def test_full_width_batch_matches_sequences_alone(self, setup):
        # A max_len-long batch-mate pads every other sequence to the full
        # max_len; each must still pool as it does unpadded.
        vocab, config, weights = setup
        full = TokenSequence(ids=[1] + [vocab.id_for("river")] * (config.max_len - 2) + [2])
        texts = ["the river glows", "a glacier rests", "morning light covers everything", ""]
        seqs = [encode_single(t, vocab, config.max_len) for t in texts]
        batch = forward_batch(seqs + [full], weights)
        assert batch.mask.shape == (len(seqs) + 1, config.max_len)
        for strategy in PoolingStrategy:
            pooled = pool(batch, strategy).data
            for row, seq in enumerate(seqs):
                alone = pool(forward_batch([seq], weights), strategy).data[0]
                np.testing.assert_allclose(pooled[row], alone, atol=1e-5, err_msg=strategy.value)

    def test_train_mode_states_ignore_batch_mate_length(self, setup):
        vocab, config, weights = setup
        seq = encode_single("the river", vocab, config.max_len)
        n = seq.length
        states = []
        for mate in ("a glacier rests", "morning light covers everything the river glows"):
            rng = np.random.default_rng(17)
            out = forward_batch([seq, encode_single(mate, vocab, config.max_len)], weights, rng)
            states.append([h.data[0, :n] for h in out.hidden])
        assert states[0][0].shape == (n, config.hidden_size)
        for short_mate, long_mate in zip(*states):
            np.testing.assert_allclose(short_mate, long_mate, atol=1e-5)


def _one_sequence(*layers, mask=None):
    """LayerOutputs for a batch of one from (seq, d) arrays, first layer first.

    ``mask`` is the (seq,) padding mask; every position is real by default.
    """
    hidden = [Tensor(np.asarray(states, dtype=np.float32)[None]) for states in layers]
    mask = np.ones(hidden[0].shape[1], dtype=int) if mask is None else np.asarray(mask)
    return LayerOutputs(hidden=hidden, last_attention=np.empty(0), mask=mask[None])


def _constant_outputs(vector, layers, tokens):
    return _one_sequence(*[np.tile(vector, (tokens, 1)) for _ in range(layers + 1)])


class TestPooling:
    def test_constant_states_return_that_vector(self):
        v = np.array([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
        outputs = _constant_outputs(v, layers=3, tokens=5)
        for strategy in PoolingStrategy:
            np.testing.assert_allclose(pool(outputs, strategy).data, [v], atol=1e-6)

    def test_mean_of_two_basis_tokens(self):
        states = [[1.0, 0.0], [0.0, 1.0]]
        outputs = _one_sequence(states, states)
        pooled = pool(outputs, PoolingStrategy.MEAN)
        np.testing.assert_allclose(pooled.data, [[0.5, 0.5]], atol=1e-7)

    def test_mean_ignores_padding(self):
        states = [[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]]
        outputs = _one_sequence(states, states, mask=[1, 1, 0])
        pooled = pool(outputs, PoolingStrategy.MEAN)
        np.testing.assert_allclose(pooled.data, [[0.5, 0.5]], atol=1e-7)

    def test_first_last_hand_computed(self):
        first = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        last = np.array([[0.0, 4.0], [4.0, 0.0]], dtype=np.float32)
        outputs = _one_sequence(np.zeros((2, 2)), first, last)
        pooled = pool(outputs, PoolingStrategy.FIRST_LAST)
        # Per-token average of layers 1 and 2, then mean over tokens.
        expected = ((first + last) / 2).mean(axis=0)
        np.testing.assert_allclose(pooled.data, [expected], atol=1e-6)

    def test_cls_reads_position_zero_of_last_layer(self):
        last = np.array([[7.0, -1.0], [0.0, 0.0]], dtype=np.float32)
        outputs = _one_sequence(np.zeros((2, 2)), last)
        np.testing.assert_array_equal(
            pool(outputs, PoolingStrategy.CLS).data, [last[0]]
        )

    def test_cls_ignores_earlier_layers(self):
        last = np.array([[7.0, -1.0]], dtype=np.float32)
        for first_layer_scale in (1.0, 100.0):
            outputs = _one_sequence(first_layer_scale * np.ones((1, 2)), last)
            np.testing.assert_array_equal(
                pool(outputs, PoolingStrategy.CLS).data, [last[0]]
            )

    def test_first_last_and_top2_differ_with_depth(self, setup):
        vocab, config, weights = setup
        seq = encode_single("the river glows", vocab, 7)
        out = forward_batch([seq], weights)
        a = pool(out, PoolingStrategy.FIRST_LAST).data
        b = pool(out, PoolingStrategy.TOP2).data
        assert np.abs(a - b).max() > 1e-6

    def test_fully_padded_sequence_rejected(self):
        states = np.ones((2, 3), dtype=np.float32)
        outputs = _one_sequence(states, states, mask=[0, 0])
        with pytest.raises(DegenerateInputError):
            pool(outputs, PoolingStrategy.MEAN)

    def test_parse_strategy(self):
        assert PoolingStrategy.parse("FirstLast") is PoolingStrategy.FIRST_LAST
        with pytest.raises(ConfigError):
            PoolingStrategy.parse("Last")


def _eval_batches(lengths, batch_size, monkeypatch) -> list[np.ndarray]:
    """The input rows of each batch ``eval_rows`` runs over distinct sequences of ``lengths``."""
    monkeypatch.setattr(encoder_module, "EVAL_BATCH", batch_size)
    force_workers(monkeypatch, 1)  # ``run`` records the batches in this process
    seqs = [TokenSequence(ids=[row] * length) for row, length in enumerate(lengths)]
    batches = []

    def run(batch):
        batches.append(np.array([seq.ids[0] for seq in batch]))
        return batches[-1][:, None]

    rows = eval_rows(seqs, 1, run)
    assert rows.dtype == np.float32 and rows[:, 0].tolist() == list(range(len(lengths)))
    return batches


class TestLengthBatches:
    """The length-sorted batches that ``eval_rows`` hands its ``run``."""

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 64])
    def test_every_row_once_in_length_order(self, batch_size, monkeypatch):
        lengths = np.random.default_rng(batch_size).integers(1, 20, size=50)
        batches = _eval_batches(lengths.tolist(), batch_size, monkeypatch)
        rows = np.concatenate(batches)
        assert sorted(rows.tolist()) == list(range(50))
        assert all(1 <= len(b) <= batch_size for b in batches)
        assert all(len(b) == batch_size for b in batches[:-1])
        # No row of a batch is shorter than a row of an earlier batch.
        assert all(lengths[a].max() <= lengths[b].min() for a, b in zip(batches, batches[1:]))
        # Within a batch rows keep their input order.
        assert all((np.diff(b) > 0).all() for b in batches)

    def test_one_batch_keeps_input_order(self, monkeypatch):
        batches = _eval_batches([5, 2, 9, 1], 4, monkeypatch)
        assert len(batches) == 1 and batches[0].tolist() == [0, 1, 2, 3]

    def test_equal_lengths_keep_input_order(self, monkeypatch):
        assert [b.tolist() for b in _eval_batches([3, 3, 3, 3, 3], 2, monkeypatch)] == [[0, 1], [2, 3], [4]]

    def test_no_rows_no_batches(self, monkeypatch):
        assert _eval_batches([], 4, monkeypatch) == []
        assert eval_rows([], 3, None).shape == (0, 3)

    def test_equal_sequences_run_once_as_their_first_copy(self, monkeypatch, one_worker):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        seqs = [TokenSequence(ids=ids) for ids in ([7, 7], [5], [7, 7], [5], [9, 9, 9], [7, 7])]
        ran = []

        def run(batch):
            ran.extend(batch)
            return np.arange(len(ran) - len(batch), len(ran))[:, None]

        rows = eval_rows(seqs, 1, run)
        assert [id(seq) for seq in ran] == [id(seqs[i]) for i in (0, 1, 4)]
        # Each row is the value its sequence's one run wrote.
        assert rows[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0, 2.0, 0.0]


def _mixed_length_texts(n: int) -> list[str]:
    """Topic sentences cut to 1..8 words or doubled past max_len, in scrambled order."""
    texts = []
    for i in range(n):
        words = topic_sentence(TOPICS[i % 8], 300 + i).split()
        cut = (i * 7) % 10
        texts.append(" ".join(words[: cut + 1]) if cut < 8 else " ".join(words + words + words))
    return texts


class TestEmbedSentences:
    def test_shape_dtype_and_batch_independence(self, setup, monkeypatch):
        vocab, config, weights = setup
        texts = ["the river glows", "a glacier rests", "morning light", "covers everything"]
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        small = embed_sentences(texts, weights, config, vocab)
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 100)
        big = embed_sentences(texts, weights, config, vocab)
        assert small.shape == (4, 12) and small.dtype == np.float32
        np.testing.assert_allclose(small, big, atol=1e-6)

    @pytest.mark.parametrize("strategy", list(PoolingStrategy))
    def test_drift_from_input_order_is_bounded(self, micro_checkpoint, strategy, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = _mixed_length_texts(70)
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 8)
        sorted_path = embed_sentences(texts, weights, config, vocab, strategy)
        reference = input_order_embed_sentences(texts, weights, config, vocab, strategy, batch_size=8)
        assert np.abs(sorted_path - reference).max() <= 1e-6

    def test_vector_does_not_depend_on_position(self, micro_checkpoint, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = _mixed_length_texts(70)
        perm = np.random.default_rng(4).permutation(len(texts))
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 8)
        base = embed_sentences(texts, weights, config, vocab, PoolingStrategy.MEAN)
        shuffled = embed_sentences([texts[i] for i in perm], weights, config, vocab, PoolingStrategy.MEAN)
        unshuffled = np.empty_like(shuffled)
        unshuffled[perm] = shuffled
        assert np.abs(unshuffled - base).max() <= 1e-6

    @pytest.mark.parametrize("strategy", list(PoolingStrategy))
    def test_one_batch_is_bit_equal_to_input_order(self, micro_checkpoint, strategy):
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = _mixed_length_texts(32)
        vectors = embed_sentences(texts, weights, config, vocab, strategy)
        reference = input_order_embed_sentences(texts, weights, config, vocab, strategy)
        assert vectors.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("strategy", list(PoolingStrategy))
    def test_equal_texts_across_a_batch_boundary_are_bit_equal(self, micro_checkpoint, strategy):
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = boundary_twin_texts()
        vectors = embed_sentences(texts, weights, config, vocab, strategy)
        assert vectors[BOUNDARY_TWINS[0]].tobytes() == vectors[BOUNDARY_TWINS[1]].tobytes()

    def test_sorted_batches_pad_less(self, micro_checkpoint, monkeypatch, one_worker):
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = _mixed_length_texts(70)
        slots = []

        def counting_forward(seqs, *args, **kwargs):
            outputs = forward_batch(seqs, *args, **kwargs)
            slots.append(outputs.mask.size)
            return outputs

        monkeypatch.setattr(encoder_module, "forward_batch", counting_forward)
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 8)
        embed_sentences(texts, weights, config, vocab)
        lengths = [encode_single(t, vocab, config.max_len).length for t in texts]
        input_order = sum(len(lengths[s : s + 8]) * max(lengths[s : s + 8]) for s in range(0, 70, 8))
        assert len(slots) == 9 and sum(slots) < input_order

    def test_no_texts_give_an_empty_matrix(self, setup):
        vocab, config, weights = setup
        vectors = embed_sentences([], weights, config, vocab)
        assert vectors.shape == (0, config.hidden_size) and vectors.dtype == np.float32

    def test_cls_vectors_within_bound_of_the_full_pass(self, micro_checkpoint, monkeypatch):
        # CLS embedding computes the last block at [CLS] alone.
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = _mixed_length_texts(70)
        vectors = embed_sentences(texts, weights, config, vocab, PoolingStrategy.CLS)
        monkeypatch.setattr(encoder_module, "forward_batch", full_forward_batch)
        reference = embed_sentences(texts, weights, config, vocab, PoolingStrategy.CLS)
        assert np.abs(vectors - reference).max() <= 1e-6

    @pytest.mark.parametrize("change", [{"hidden_size": 8}, {"num_heads": 3}, {"max_len": 12}, {"dropout": 0.0}])
    def test_config_other_than_the_weights_rejected(self, setup, change):
        vocab, config, weights = setup
        with pytest.raises(ConfigError, match="architecture"):
            embed_sentences(["the river glows"], weights, replace(config, **change), vocab)


def _ids(batch) -> np.ndarray:
    return np.array([[seq.ids[0]] for seq in batch])


def _no_fork():
    raise AssertionError("eval_rows forked")


def _counting_fork(monkeypatch) -> list[int]:
    """The child pids that ``os.fork`` returns in this process from now on."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


class TestEvalWorkers:
    """``eval_rows``' batches over forked processes: how many, the same bytes, errors and cleanup."""

    @pytest.mark.parametrize("cpus,n", [(1, 100), (2, 2), (2, 0), (10_000, 1)])
    def test_one_worker_never_forks(self, cpus, n, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.setattr(os, "fork", _no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        assert eval_rows([TokenSequence(ids=[i]) for i in range(n)], 1, _ids)[:, 0].tolist() == list(range(n))

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_or_affinity_runs_serially(self, missing, monkeypatch):
        blas_env(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.setattr(os, "fork", _no_fork)
        monkeypatch.delattr(os, missing)
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        assert eval_rows([TokenSequence(ids=[i]) for i in range(9)], 1, _ids)[:, 0].tolist() == list(range(9))

    @pytest.mark.parametrize(
        "env",
        [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"},
         {"GOTO_NUM_THREADS": "8", "OMP_NUM_THREADS": "1"}, {"MKL_NUM_THREADS": "0"}, {"OMP_NUM_THREADS": ""}],
    )
    def test_blas_not_held_to_one_thread_runs_serially(self, env, monkeypatch):
        blas_env(monkeypatch, **env)
        monkeypatch.setattr(os, "fork", _no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        assert eval_rows([TokenSequence(ids=[i]) for i in range(9)], 1, _ids)[:, 0].tolist() == list(range(9))

    @pytest.mark.parametrize(
        "env",
        [{"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1"}, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}],
    )
    def test_blas_held_to_one_thread_forks_one_child_per_call(self, env, monkeypatch):
        blas_env(monkeypatch, **env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10_000)))
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        forks = _counting_fork(monkeypatch)
        assert eval_rows([TokenSequence(ids=[i]) for i in range(9)], 1, _ids)[:, 0].tolist() == list(range(9))
        assert len(forks) == 1
        no_child_left()

    @pytest.mark.parametrize("workers", [2, 3, 64])
    def test_a_call_forks_at_most_once_whatever_the_worker_count(self, workers, monkeypatch):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        force_workers(monkeypatch, workers)
        forks = _counting_fork(monkeypatch)
        assert eval_rows([TokenSequence(ids=[i]) for i in range(9)], 1, _ids)[:, 0].tolist() == list(range(9))
        assert len(forks) == 1
        no_child_left()

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_caller_runs_the_even_batches_and_the_helper_the_odd_ones(self, n, monkeypatch):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 1)
        force_workers(monkeypatch, 2)
        caller = os.getpid()

        def in_caller(batch):
            return np.full((len(batch), 1), os.getpid() == caller, dtype=np.float32)

        rows = eval_rows([TokenSequence(ids=[i]) for i in range(n)], 1, in_caller)[:, 0]
        assert rows.tolist() == [float(i % 2 == 0) for i in range(n)]
        no_child_left()

    @pytest.mark.parametrize("strategy", list(PoolingStrategy))
    def test_vectors_do_not_depend_on_the_worker_count(self, micro_checkpoint, strategy, monkeypatch):
        ckpt, _, vocab = micro_checkpoint
        config = ckpt.encoder_config
        weights = EncoderWeights.from_arrays(config, ckpt.params)
        texts = boundary_twin_texts() + _mixed_length_texts(70)
        forks = _counting_fork(monkeypatch)
        vectors = {}
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            vectors[workers] = embed_sentences(texts, weights, config, vocab, strategy)
        assert len(forks) == 2  # one per multi-process call
        assert vectors[1].tobytes() == vectors[2].tobytes() == vectors[3].tobytes()
        assert vectors[2][BOUNDARY_TWINS[0]].tobytes() == vectors[2][BOUNDARY_TWINS[1]].tobytes()
        no_child_left()

    @pytest.mark.parametrize("failing", [{1}, {1, 2}, {2, 3}, {0, 5}, {4, 5}])
    def test_error_is_the_serial_loops_first(self, failing, monkeypatch):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)

        def run(batch):
            index = batch[0].ids[0] // 2
            if index in failing:
                raise (ShapeError if index % 2 else ConfigError)(f"batch {index} failed")
            return _ids(batch)

        raised = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(ConsemError) as info:
                eval_rows([TokenSequence(ids=[i]) for i in range(12)], 1, run)
            raised[workers] = (type(info.value), str(info.value))
        first = min(failing)
        assert raised[1] == (ShapeError if first % 2 else ConfigError, f"batch {first} failed")
        assert raised[2] == raised[1]
        no_child_left()

    @pytest.mark.parametrize("error", [ShapeError("batch 0 failed"), KeyboardInterrupt("batch 0 failed")])
    def test_callers_error_while_children_hold_full_pipes(self, error, monkeypatch):
        width = 1 << 15  # one float32 row is 128 KB, twice a Linux pipe's buffer
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 1)
        force_workers(monkeypatch, 2)

        def run(batch):
            if batch[0].ids[0] == 0:  # batch 0 is the caller's own
                raise error
            return np.ones((len(batch), width), dtype=np.float32)

        def hung(signum, frame):
            raise TimeoutError("eval_rows hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(type(error), match="batch 0 failed"):
                eval_rows([TokenSequence(ids=[i]) for i in range(2)], width, run)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        no_child_left()

    @pytest.mark.parametrize("name,at", [("pipe", 1), ("pipe", 2), ("fork", 1)])
    def test_caller_runs_the_share_of_a_worker_it_could_not_fork(self, name, at, monkeypatch):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 2)
        force_workers(monkeypatch, 2)
        seqs = [TokenSequence(ids=[i]) for i in range(13)]
        fds = open_fds()
        fail_os_call(monkeypatch, name, at)
        assert eval_rows(seqs, 1, _ids).tobytes() == np.arange(13, dtype=np.float32)[:, None].tobytes()
        assert open_fds() == fds
        no_child_left()

    @pytest.mark.parametrize("failing", [{2, 4}, {1, 2}, {5}])
    def test_share_run_for_an_unforked_worker_keeps_the_serial_loops_error(self, failing, monkeypatch):
        # 2 workers, the only fork fails: the caller runs every batch in order.
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 1)
        force_workers(monkeypatch, 2)
        fail_os_call(monkeypatch, "fork", 1)

        def run(batch):
            if batch[0].ids[0] in failing:
                raise ShapeError(f"batch {batch[0].ids[0]} failed")
            return _ids(batch)

        with pytest.raises(ShapeError, match=f"^batch {min(failing)} failed$"):
            eval_rows([TokenSequence(ids=[i]) for i in range(6)], 1, run)
        no_child_left()

    @pytest.mark.parametrize(
        "error,shown",
        [
            (lambda: ContractError(lambda: None), r"^ContractError\(<function "),
            (lambda: TwoArgError(1, 2), r"^TwoArgError\('1 and 2'\)$"),
        ],
    )
    def test_child_error_that_does_not_pickle_arrives_as_its_repr(self, error, shown, monkeypatch):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 1)
        force_workers(monkeypatch, 2)

        def run(batch):
            if batch[0].ids[0] == 1:  # batch 1 runs in the child
                raise error()
            return _ids(batch)

        with pytest.raises(RuntimeError, match=shown):
            eval_rows([TokenSequence(ids=[0]), TokenSequence(ids=[1])], 1, run)
        no_child_left()

    def test_truncated_rows_are_an_error(self, monkeypatch, time_bound):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 1)
        force_workers(monkeypatch, 2)
        caller, write = os.getpid(), workers_module._write

        def run(batch):
            if os.getpid() != caller:  # only the helper sends a cut-off reply
                die_mid_reply()
            return _ids(batch)

        with pytest.raises(ChildProcessError, match=r"^worker \d+ exited before sending its reply$"):
            eval_rows([TokenSequence(ids=[0]), TokenSequence(ids=[1])], 1, run)
        assert workers_module._write is write
        no_child_left()

    def test_child_that_exits_without_rows_is_an_error(self, monkeypatch):
        monkeypatch.setattr(encoder_module, "EVAL_BATCH", 1)
        force_workers(monkeypatch, 2)

        def run(batch):
            if batch[0].ids[0] == 1:  # batch 1 runs in the child
                os._exit(3)
            return _ids(batch)

        with pytest.raises(ChildProcessError, match=r"^worker \d+ exited before sending its reply$"):
            eval_rows([TokenSequence(ids=[0]), TokenSequence(ids=[1])], 1, run)
        no_child_left()


class TestEncoderGradients:
    def test_sampled_coordinates_match_finite_difference(self, f64):
        rng = np.random.default_rng(99)
        fn, params, names = micro_encoder_case(rng)
        grads = analytic_gradients(fn, params)
        worst = 0.0
        coord_rng = np.random.default_rng(100)
        for _ in range(60):
            pi = int(coord_rng.integers(len(params)))
            ci = int(coord_rng.integers(params[pi].data.size))
            numeric = fd_at(fn, params[pi], ci)
            analytic = float(grads[pi].reshape(-1)[ci])
            err = relative_error(np.array(analytic), np.array(numeric))
            worst = max(worst, err)
        assert worst < 1e-3


class TestFusedOps:
    """``linear`` and ``attention`` against the encoder composed from elementary ops."""

    @staticmethod
    def _world(dropout=0.0):
        config = EncoderConfig(
            vocab_size=30, num_layers=3, num_heads=4,
            hidden_size=16, ff_size=24, max_len=12, dropout=dropout,
        )
        weights = EncoderWeights.initialize(config, seed=4)
        rng = np.random.default_rng(8)
        # Larger than the init scale, so the attention maps are far from uniform.
        for _, p in weights.items():
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape).astype(np.float32)
        lengths = [1, 12, 5, 7, 3, 12, 9, 2, 6]
        seqs = [TokenSequence(ids=[int(i) for i in rng.integers(4, 30, size=n)]) for n in lengths]
        return config, weights, seqs

    @staticmethod
    def _gradients(weights, extra, loss_fn):
        params = dict(weights.items(), **extra)
        for p in params.values():
            p.grad = None
        with Tape() as tape:
            backward(loss_fn(), tape)
        return {name: p.grad for name, p in params.items()}

    @staticmethod
    def _assert_close(grads, ref_grads):
        # One bound for all parameters: the attention key biases have a zero
        # gradient in exact arithmetic, where a per-parameter bound fails.
        bound = 1e-5 * max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= bound, name

    def test_eval_outputs_equal_the_composed_encoder(self):
        config, weights, seqs = self._world()
        fused = forward_batch(seqs, weights)
        ref = composed_forward_batch(seqs, weights)
        np.testing.assert_array_equal(fused.mask, ref.mask)
        for got, want in zip(fused.hidden, ref.hidden, strict=True):
            assert np.array_equal(got.data, want.data)
        assert np.array_equal(fused.last_attention, ref.last_attention)
        for strategy in PoolingStrategy:
            assert np.array_equal(pool(fused, strategy).data, pool(ref, strategy).data), strategy

    def test_attention_maps_record_no_gradient(self):
        config, weights, seqs = self._world()
        with Tape():
            out = forward_batch(seqs, weights, np.random.default_rng(0))
        # A plain array, outside the tape.
        assert type(out.last_attention) is np.ndarray

    def test_pretraining_gradients_match_the_composed_encoder(self, monkeypatch):
        config, weights, seqs = self._world()
        lists = (seqs[:3], seqs[3:6], seqs[6:])
        mlm_batch = pretrain_module._epoch_masking(seqs[:3], np.arange(3), 0.5, 0, 5, 1)
        assert len(mlm_batch[3])
        pretrain_config = PretrainConfig(pooling=PoolingStrategy.MEAN, tau=0.1, mlm_weight=0.5)

        def loss():
            vectors, ml = pretrain_module._shard_forward(
                lists, mlm_batch, weights, pretrain_config, np.random.default_rng(0)
            )
            cl = pretrain_module._triples_loss(vectors, pretrain_config.tau)
            return T.add(cl, T.scale(ml, pretrain_config.mlm_weight))

        grads = self._gradients(weights, {}, loss)
        monkeypatch.setattr(pretrain_module, "forward_batch", composed_forward_batch)
        self._assert_close(grads, self._gradients(weights, {}, loss))

    def test_finetune_head_gradients_match_the_composed_encoder(self):
        config, weights, seqs = self._world()
        rng = np.random.default_rng(9)
        head_w = Tensor(rng.normal(0.0, 0.5, (config.hidden_size, 3)), requires_grad=True)
        head_b = Tensor(rng.normal(0.0, 0.5, 3), requires_grad=True)
        head = {"head.weight": head_w, "head.bias": head_b}
        gold = rng.integers(0, 3, size=len(seqs))

        labels = ["a", "b", "c"]
        model = finetune_module.FinetunedModel(
            weights, head_w, head_b, labels, finetune_module.TaskKind.PAIR, "", None
        )

        def fused():
            # dropout is 0, so the eval-mode forward is the train-mode one.
            logits = finetune_module._logits(model, seqs)
            return T.cross_entropy(logits, gold)

        def composed():
            cls = pool(composed_forward_batch(seqs, weights, np.random.default_rng(0)), PoolingStrategy.CLS)
            return T.cross_entropy(T.add(T.matmul(cls, head_w), head_b), gold)

        self._assert_close(
            self._gradients(weights, head, fused), self._gradients(weights, head, composed)
        )

    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_tape_node_budget(self, num_layers):
        # Two gathers, the embedding add and its dropout, then per layer six
        # linear maps, one attention, GELU, two residual adds, two layer
        # norms and two dropouts.  Splitting a fused op back up fails here.
        config = EncoderConfig(
            vocab_size=30, num_layers=num_layers, num_heads=2,
            hidden_size=8, ff_size=12, max_len=6, dropout=0.1,
        )
        weights = EncoderWeights.initialize(config, seed=0)
        seqs = [TokenSequence(ids=[1, 5, 6, 2]), TokenSequence(ids=[1, 7, 2])]
        with Tape() as tape:
            forward_batch(seqs, weights, np.random.default_rng(0))
        assert len(tape) == 4 + 14 * num_layers


class TestClsOnly:
    """``forward_batch`` reading every row's [CLS] slot against the full last block."""

    _world = staticmethod(TestFusedOps._world)

    def test_only_the_last_layer_is_cut_to_cls(self):
        config, weights, seqs = self._world()
        full = forward_batch(seqs, weights)
        cut = forward_batch(seqs, weights, reads=cls_slots(len(seqs)))
        batch, seq = full.mask.shape
        assert cut.hidden[-1].shape == (batch, config.hidden_size)
        assert cut.last_attention.shape == (batch, config.num_heads, 1, seq)
        np.testing.assert_array_equal(cut.mask, full.mask)
        for got, want in zip(cut.hidden[:-1], full.hidden[:-1], strict=True):
            assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_cls_state_within_bound_of_the_full_pass(self, dropout):
        # In train mode the [CLS] rows draw the full pass's masks, so the
        # states agree, and the generator ends where the full pass leaves it.
        config, weights, seqs = self._world(dropout)
        rngs = [np.random.default_rng(5), np.random.default_rng(5)] if dropout else [None, None]
        full = forward_batch(seqs, weights, rngs[0])
        cut = forward_batch(seqs, weights, rngs[1], reads=cls_slots(len(seqs)))
        full_cls = pool(full, PoolingStrategy.CLS).data
        assert np.abs(cut.hidden[-1].data - full_cls).max() <= 1e-6
        assert np.abs(cut.last_attention - full.last_attention[:, :, :1]).max() <= 1e-6
        if dropout:
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            eval_cls = pool(forward_batch(seqs, weights), PoolingStrategy.CLS).data
            assert np.abs(full_cls - eval_cls).max() > 1e-2

    def test_gradients_match_the_composed_encoder(self):
        config, weights, seqs = self._world()
        w_cls = np.random.default_rng(3).uniform(-1.0, 1.0, (len(seqs), config.hidden_size))

        def gradients(forward):
            for _, p in weights.items():
                p.grad = None
            with Tape() as tape:
                cls = forward(seqs, weights, np.random.default_rng(0), reads=cls_slots(len(seqs))).hidden[-1]
                backward(T.reduce_sum(T.mul(cls, Tensor(w_cls))), tape)
            return {name: p.grad for name, p in weights.items()}

        TestFusedOps._assert_close(gradients(forward_batch), gradients(composed_forward_batch))

    @pytest.mark.parametrize("strategy", list(PoolingStrategy))
    def test_pool_rejects_a_cut_forward(self, strategy):
        # Its caller reads the slot states from hidden[-1]; even every row's
        # [CLS] in order is not pooled.
        config, weights, seqs = self._world()
        rows, positions = cls_slots(len(seqs))
        for reads in ((rows, positions), (rows[::-1], positions), (rows[:-1], positions[:-1]), TestReads._slots()):
            cut = forward_batch(seqs, weights, reads=reads)
            with pytest.raises(ContractError, match=rf"{strategy.value} pooling .* only at {len(reads[0])} slots"):
                pool(cut, strategy)


class TestReads:
    """``forward_batch(..., reads=(rows, positions))`` at any slots against the full last block."""

    _world = staticmethod(TestFusedOps._world)

    @staticmethod
    def _slots():
        # Rows out of order and repeated, several slots in one row, [CLS]
        # and last real positions; lengths are [1, 12, 5, 7, 3, 12, 9, 2, 6].
        rows = np.array([5, 0, 5, 2, 8, 5, 1, 2, 7, 5], dtype=np.intp)
        positions = np.array([11, 0, 3, 4, 0, 3, 11, 0, 1, 0], dtype=np.intp)
        return rows, positions

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_slot_states_within_bound_of_the_full_pass(self, dropout):
        config, weights, seqs = self._world(dropout)
        rows, positions = self._slots()
        rngs = [np.random.default_rng(6), np.random.default_rng(6)] if dropout else [None, None]
        full = forward_batch(seqs, weights, rngs[0])
        cut = forward_batch(seqs, weights, rngs[1], reads=(rows, positions))
        assert cut.hidden[-1].shape == (len(rows), config.hidden_size)
        assert cut.last_attention.shape == (len(rows), config.num_heads, 1, full.mask.shape[1])
        want = slot_states(full.hidden[-1], rows, positions).data
        assert np.abs(cut.hidden[-1].data - want).max() <= 1e-6
        maps = full.last_attention[rows, :, positions][:, :, None]
        assert np.abs(cut.last_attention - maps).max() <= 1e-6
        for got, want in zip(cut.hidden[:-1], full.hidden[:-1], strict=True):
            assert got.data.tobytes() == want.data.tobytes()
        if dropout:
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            eval_states = slot_states(forward_batch(seqs, weights).hidden[-1], rows, positions).data
            assert np.abs(cut.hidden[-1].data - eval_states).max() > 1e-2

    def test_repeated_slots_get_equal_states(self):
        config, weights, seqs = self._world(0.3)
        rows, positions = self._slots()
        cut = forward_batch(seqs, weights, np.random.default_rng(2), reads=(rows, positions))
        # Slots 2 and 5 both name (5, 3): one dropout mask, one state.
        assert cut.hidden[-1].data[2].tobytes() == cut.hidden[-1].data[5].tobytes()

    def test_gradients_match_the_composed_encoder(self):
        config, weights, seqs = self._world()
        rows, positions = self._slots()
        w_slots = np.random.default_rng(4).uniform(-1.0, 1.0, (len(rows), config.hidden_size))

        def gradients(forward):
            for _, p in weights.items():
                p.grad = None
            with Tape() as tape:
                states = forward(seqs, weights, np.random.default_rng(0), reads=(rows, positions)).hidden[-1]
                backward(T.reduce_sum(T.mul(states, Tensor(w_slots))), tape)
            return {name: p.grad for name, p in weights.items()}

        TestFusedOps._assert_close(gradients(forward_batch), gradients(composed_forward_batch))

    @pytest.mark.parametrize(
        "rows,positions,message",
        [
            ([0, 1], [0], "equal-length"),
            ([[0, 1]], [[0, 0]], "equal-length"),
            ([], [], "non-empty"),
            ([9], [0], "outside the batch"),
            ([-1], [0], "outside the batch"),
            ([0], [1], "padding"),  # row 0 has one token
            ([2], [5], "padding"),  # row 2 has five
            ([3], [-1], "padding"),
        ],
    )
    def test_bad_reads_rejected(self, rows, positions, message):
        config, weights, seqs = self._world()
        with pytest.raises(ShapeError, match=message):
            forward_batch(seqs, weights, reads=(np.array(rows, dtype=np.intp), np.array(positions, dtype=np.intp)))

    def test_tape_node_budget(self):
        # A cut last block adds the reshape and gather of its query slots and
        # the two reshapes around attention; gathered keys and values add
        # two gathers, and [CLS] of every row in order needs none.
        config, weights, seqs = self._world(0.3)
        counts = {}
        for name, reads in (("full", None), ("cls", cls_slots(len(seqs))), ("slots", self._slots())):
            with Tape() as tape:
                forward_batch(seqs, weights, np.random.default_rng(0), reads=reads)
            counts[name] = len(tape)
        assert counts == {"full": 4 + 14 * 3, "cls": 4 + 14 * 3 + 4, "slots": 4 + 14 * 3 + 6}


class TestShardPlace:
    """A shard of a training batch, given its place, gets the whole batch's dropout masks for its rows."""

    @staticmethod
    def _batch():
        config = EncoderConfig(vocab_size=30, num_layers=2, num_heads=2, hidden_size=16, ff_size=32, max_len=12,
                               dropout=0.1)
        weights = EncoderWeights.initialize(config, seed=5)
        seqs = [TokenSequence(ids=[2 + (i * 7 + j) % 27 for j in range(n)]) for i, n in enumerate([4, 9, 3, 11, 6])]
        return weights, seqs

    @pytest.mark.parametrize("cut", [False, True])
    def test_shard_rows_match_the_whole_batch_forward(self, cut):
        weights, seqs = self._batch()
        reads = lambda n: cls_slots(n) if cut else None
        whole = forward_batch(seqs, weights, np.random.default_rng(9), reads(5)).hidden[-1].data
        for first, n in ((0, 3), (3, 2), (1, 1)):
            rng = np.random.default_rng(9)
            shard = forward_batch(seqs[first : first + n], weights, rng, reads(n), place=(first, 5)).hidden[-1].data
            want = whole[first : first + n] if cut else whole[first : first + n, : shard.shape[1]]
            for i, seq in enumerate(seqs[first : first + n]):
                # Padding positions differ with the padded width; real ones only by float noise.
                real = slice(None) if cut else slice(0, seq.length)
                assert np.abs(shard[i, real] - want[i, real]).max() <= 1e-6

    @pytest.mark.parametrize("place", [(-1, 5), (1, 2), (0, 1), (4, 5)])
    def test_place_must_fit_the_batch(self, place):
        weights, seqs = self._batch()
        with pytest.raises(ShapeError, match="do not fit a batch"):
            forward_batch(seqs[:2], weights, np.random.default_rng(0), place=place)
