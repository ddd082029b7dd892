"""Geometry diagnostics and retrieval scoring against brute-force oracles."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ortho_group

from conftest import BOUNDARY_TWINS, boundary_twin_texts, topic_sentence
from oracles import alignment_reference, topk_reference, uniformity_reference

from consem.analysis import (
    AnalysisReport,
    EmbeddingSet,
    accuracy_at_topk,
    alignment,
    export_attention,
    gold_ranks,
    load_embeddings,
    rank_candidates,
    save_embeddings,
    uniformity,
)
from consem.encoder import EVAL_BATCH, PoolingStrategy, embed_sentences
from consem.errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    FormatError,
    MetricError,
    ShapeError,
    VocabularyError,
)
from consem.text import build_vocab


def _random_cases(rng, n_cases):
    """(claim, candidates, gold index) triples, each claim with its own pool."""
    cases = []
    for _ in range(n_cases):
        pool = int(rng.integers(4, 21))
        d = int(rng.integers(3, 9))
        cases.append((rng.normal(size=d), rng.normal(size=(pool, d)), int(rng.integers(0, pool))))
    return cases


def _mean_accuracy(cases, k):
    """Accuracy at top K over per-claim pools: one call per claim, averaged."""
    return float(np.mean([accuracy_at_topk(c[None, :], m, [g], ks=(k,))[k] for c, m, g in cases]))


class TestRanking:
    def test_descending_cosine_order(self):
        order = rank_candidates(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
        assert order.tolist() == [1, 2, 0]

    def test_cosine_ignores_magnitude_and_ties_go_low(self):
        # Rows 0 and 1 point the same way at different lengths.
        order = rank_candidates(np.array([1.0, 0.0]), np.array([[5.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert order.tolist() == [0, 1, 2]


class TestTopK:
    def test_boundary_rank(self):
        # Gold sits at rank 4 exactly: three better candidates ahead of it.
        cosines = [0.9, 0.8, 0.7, 0.6]
        candidates = np.array([[c, np.sqrt(1 - c * c)] for c in cosines])
        assert accuracy_at_topk(np.array([[1.0, 0.0]]), candidates, [3], ks=(3, 4)) == {3: 0.0, 4: 1.0}

    def test_exact_duplicate_always_found(self):
        claim = np.array([0.3, -0.7, 0.2])
        candidates = np.vstack([claim, np.eye(3)])
        accuracies = accuracy_at_topk(claim[None, :], candidates, [0], ks=(1, 2, 3, 4))
        assert accuracies == {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}

    def test_monotone_in_k_and_saturates(self):
        cases = _random_cases(np.random.default_rng(3), 12)
        values = [_mean_accuracy(cases, k) for k in range(1, 22)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_k_beyond_pool_is_clamped(self):
        cases = _random_cases(np.random.default_rng(4), 6)
        assert _mean_accuracy(cases, 1000) == 1.0

    def test_random_cases_match_recount(self):
        rng = np.random.default_rng(5)
        cases = _random_cases(rng, 20)
        claims, pools, golds = zip(*cases)
        for k in (1, 3, 5, 10):
            assert _mean_accuracy(cases, k) == pytest.approx(
                topk_reference(claims, pools, golds, k), abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(ConfigError):
            accuracy_at_topk(np.array([[1.0, 0.0]]), np.eye(2), [0], ks=(0,))
        with pytest.raises(MetricError):
            accuracy_at_topk(np.empty((0, 2)), np.eye(2), np.empty(0, dtype=np.intp), ks=(1,))


def _full_order_rank(claim, candidates, gold):
    return rank_candidates(claim, candidates).tolist().index(gold)


class TestGoldRanks:
    def test_random_pools_match_full_order_and_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, m, d = (int(v) for v in rng.integers((1, 1, 2), (30, 40, 9)))
            claims = rng.normal(size=(n, d))
            candidates = rng.normal(size=(m, d))
            gold = rng.integers(0, m, size=n)
            ranks = gold_ranks(claims, candidates, gold)
            assert ranks.tolist() == [_full_order_rank(c, candidates, g) for c, g in zip(claims, gold)]
            for k in (1, 3, 5, 10):
                assert np.mean(ranks < min(k, m)) == pytest.approx(
                    topk_reference(claims, [candidates] * n, gold, k), abs=1e-12
                )

    def test_exact_ties_go_to_the_lower_index(self):
        # Against [1, 0]: rows 1, 3 and 4 tie at cosine 1 (row 4 repeats row 1,
        # row 3 is row 1 scaled down), row 2 scores 0.6 and row 0 scores 0.
        candidates = np.array([[0.0, 1.0], [5.0, 0.0], [3.0, 4.0], [1.0, 0.0], [5.0, 0.0]])
        claims = np.array([[1.0, 0.0]] * 5 + [[0.0, 2.0]] * 5)
        gold = np.array([1, 3, 4, 2, 0] * 2)
        ranks = gold_ranks(claims, candidates, gold)
        assert ranks[:5].tolist() == [0, 1, 2, 3, 4]
        assert ranks.tolist() == [_full_order_rank(c, candidates, g) for c, g in zip(claims, gold)]

    def test_duplicate_rows_rank_by_index(self):
        rng = np.random.default_rng(15)
        row = rng.normal(size=6)
        candidates = np.vstack([rng.normal(size=(3, 6)), row, rng.normal(size=(2, 6)), row])
        ranks = gold_ranks(np.vstack([row, row]), candidates, np.array([3, 6]))
        assert ranks.tolist() == [0, 1]

    def test_row_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(16)
        claims = rng.normal(size=(23, 5))
        candidates = np.vstack([rng.normal(size=(9, 5)), claims[:4]])
        gold = rng.integers(0, 13, size=23)
        whole = gold_ranks(claims, candidates, gold)
        # One row, two rows and five rows per block.
        for block in (1, 26, 65):
            monkeypatch.setattr("consem.analysis.SCORE_BLOCK", block)
            assert gold_ranks(claims, candidates, gold).tolist() == whole.tolist()

    def test_memory_stays_bounded(self):
        # The full 4000 x 4000 similarity matrix alone would be 128 MB.
        rng = np.random.default_rng(17)
        claims = rng.normal(size=(4000, 64))
        candidates = rng.normal(size=(4000, 64))
        gold = rng.integers(0, 4000, size=4000)
        tracemalloc.start()
        try:
            ranks = gold_ranks(claims, candidates, gold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert ranks.shape == (4000,) and 0 <= ranks.min() and ranks.max() < 4000

    def test_validation(self):
        with pytest.raises(ShapeError):
            gold_ranks(np.ones(2), np.eye(2), np.array([0]))
        with pytest.raises(ShapeError):
            gold_ranks(np.ones((1, 3)), np.eye(2), np.array([0]))
        with pytest.raises(ShapeError):
            gold_ranks(np.ones((1, 2)), np.ones((0, 2)), np.array([0]))
        with pytest.raises(ShapeError):
            gold_ranks(np.ones((2, 2)), np.eye(2), np.array([0]))
        for bad in ([2], [-1], [0.0]):
            with pytest.raises(ContractError):
                gold_ranks(np.ones((1, 2)), np.eye(2), np.array(bad))
        with pytest.raises(DegenerateInputError):
            gold_ranks(np.zeros((1, 2)), np.eye(2), np.array([0]))


class TestAlignment:
    def test_identical_pairs_score_zero(self):
        v = np.array([[0.3, 1.2, -0.5], [0.6, 2.4, -1.0]])
        assert alignment(v, v.copy()) == 0.0

    def test_orthonormal_pair_scores_two(self):
        assert alignment(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(2.0, abs=1e-12)

    def test_random_pairs_match_recount(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(2, 10))
            a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            assert alignment(a, b) == pytest.approx(alignment_reference(list(zip(a, b))), abs=1e-9)

    def test_symmetric_in_pair_order(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(8, 5)), rng.normal(size=(8, 5))
        assert alignment(b, a) == pytest.approx(alignment(a, b), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(10, 6)), rng.normal(size=(10, 6))
        rotation = ortho_group.rvs(dim=6, random_state=rng)
        assert alignment(a @ rotation.T, b @ rotation.T) == pytest.approx(alignment(a, b), abs=1e-9)

    def test_validation(self):
        with pytest.raises(MetricError):
            alignment(np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(ShapeError):
            alignment(np.ones((1, 2)), np.ones((1, 3)))
        with pytest.raises(ShapeError):
            alignment(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            alignment(np.ones(2), np.ones(2))


class TestUniformity:
    def test_identical_rows_score_zero(self):
        assert uniformity(np.tile([0.6, 0.8], (4, 1))) == pytest.approx(0.0, abs=1e-12)

    def test_two_orthogonal_unit_vectors(self):
        assert uniformity(np.eye(2)) == pytest.approx(-4.0, abs=1e-12)

    def test_random_sets_match_recount(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(2, 10))
            vectors = rng.normal(size=(n, d))
            assert uniformity(vectors) == pytest.approx(uniformity_reference(vectors), abs=1e-9)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(10)
        vectors = rng.normal(size=(6, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        assert uniformity(vectors * scales) == pytest.approx(uniformity(vectors), abs=1e-9)

    def test_rotation_and_permutation_invariance(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(7, 5))
        rotation = ortho_group.rvs(dim=5, random_state=rng)
        base = uniformity(vectors)
        assert uniformity(vectors @ rotation.T) == pytest.approx(base, abs=1e-9)
        assert uniformity(vectors[rng.permutation(7)]) == pytest.approx(base, abs=1e-9)

    def test_validation(self):
        with pytest.raises(MetricError):
            uniformity(np.ones((1, 3)))
        with pytest.raises(DegenerateInputError):
            uniformity(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_memory_stays_bounded(self):
        # The all-pairs difference tensor at this size alone would be 512 MB.
        vectors = np.random.default_rng(12).normal(size=(1000, 64))
        tracemalloc.start()
        try:
            value = uniformity(vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert np.isfinite(value) and value < 0.0

    def test_blocks_agree_with_recount(self, monkeypatch):
        # Blocks of one and two rows cover the same pairs as one block.
        rng = np.random.default_rng(13)
        vectors = rng.normal(size=(9, 4))
        reference = uniformity_reference(vectors)
        for block in (1, 18, 1 << 18):
            monkeypatch.setattr("consem.analysis.SCORE_BLOCK", block)
            assert uniformity(vectors) == pytest.approx(reference, abs=1e-9)


class TestContainers:
    def test_embedding_set_defaults_ids(self):
        es = EmbeddingSet(vectors=np.ones((3, 2)), texts=["a", "b", "c"])
        assert es.ids == [0, 1, 2]

    def test_embedding_set_validation(self):
        with pytest.raises(ShapeError):
            EmbeddingSet(vectors=np.ones(3), texts=["a"])
        with pytest.raises(ContractError):
            EmbeddingSet(vectors=np.ones((2, 2)), texts=["a"])
        with pytest.raises(DegenerateInputError):
            EmbeddingSet(vectors=np.array([[1.0, 0.0], [0.0, 0.0]]), texts=["a", "b"])

    def test_report_json(self):
        payload = AnalysisReport(0.5, 1.5, -2.0).to_dict()
        assert payload == {"alignment_entailment": 0.5, "alignment_contradiction": 1.5, "uniformity": -2.0}


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        es = EmbeddingSet(
            vectors=rng.normal(size=(5, 3)).astype(np.float32),
            texts=[f"sentence {i}" for i in range(5)],
            ids=[10, 11, 12, 13, 14],
        )
        path = tmp_path / "emb.bin"
        save_embeddings(path, es)
        loaded = load_embeddings(path)
        np.testing.assert_array_equal(loaded.vectors, es.vectors)
        assert loaded.texts == es.texts and loaded.ids == es.ids

    def test_line_separator_characters_round_trip(self, tmp_path):
        # The sidecar writes these raw; str.splitlines() would split a record at each.
        texts = ["one\u2028two", "three\u2029four", "five\u0085six"]
        es = EmbeddingSet(vectors=np.eye(3, dtype=np.float32), texts=texts)
        save_embeddings(tmp_path / "emb.bin", es)
        assert "\u2028" in (tmp_path / "emb.bin.jsonl").read_text(encoding="utf-8")
        loaded = load_embeddings(tmp_path / "emb.bin")
        assert loaded.texts == texts and loaded.ids == [0, 1, 2]

    def test_sidecar_is_json_lines(self, tmp_path):
        es = EmbeddingSet(vectors=np.ones((2, 2), dtype=np.float32), texts=["first", "second"])
        save_embeddings(tmp_path / "emb.bin", es)
        lines = (tmp_path / "emb.bin.jsonl").read_text().splitlines()
        assert [json.loads(line)["text"] for line in lines] == ["first", "second"]

    def test_truncated_file_rejected(self, tmp_path):
        es = EmbeddingSet(vectors=np.ones((2, 2), dtype=np.float32), texts=["a", "b"])
        path = tmp_path / "emb.bin"
        save_embeddings(path, es)
        blob = path.read_bytes()
        for keep in (0, 5, len(blob) - 3):
            path.write_bytes(blob[:keep])
            with pytest.raises(FormatError):
                load_embeddings(path)
        path.write_bytes(blob + b"x")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        es = EmbeddingSet(vectors=np.ones((2, 2), dtype=np.float32), texts=["a", "b"])
        path = tmp_path / "emb.bin"
        save_embeddings(path, es)
        (tmp_path / "emb.bin.jsonl").unlink()
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_sidecar_row_count_checked(self, tmp_path):
        es = EmbeddingSet(vectors=np.ones((2, 2), dtype=np.float32), texts=["a", "b"])
        path = tmp_path / "emb.bin"
        save_embeddings(path, es)
        (tmp_path / "emb.bin.jsonl").write_text('{"id": 0, "text": "a"}\n')
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_bad_sidecar_record_names_line(self, tmp_path):
        es = EmbeddingSet(vectors=np.ones((2, 2), dtype=np.float32), texts=["a", "b"])
        path = tmp_path / "emb.bin"
        save_embeddings(path, es)
        # An id is a JSON integer only: no string, fraction or boolean.
        bad_rows = [
            {"id": "x"}, {"id": "3", "text": "b"}, {"id": 2.5, "text": "b"}, {"id": True, "text": "b"},
            {"id": 1}, {"id": 1, "text": None}, {"id": 1, "text": 3},
        ]
        for row in bad_rows:
            (tmp_path / "emb.bin.jsonl").write_text('{"id": 0, "text": "a"}\n' + json.dumps(row) + "\n")
            with pytest.raises(DataError, match=r"emb\.bin\.jsonl:2: .*'(id|text)'"):
                load_embeddings(path)


class TestTrainedGeometry:
    def test_same_topic_pairs_align_better(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        from consem.encoder import EncoderWeights, parameter_names

        arrays = {n: ckpt.params[n] for n in parameter_names(ckpt.encoder_config)}
        weights = EncoderWeights.from_arrays(ckpt.encoder_config, arrays)
        topics = ("river", "glacier", "orchard", "harbor")
        a = embed_sentences([topic_sentence(t, 600) for t in topics], weights, ckpt.encoder_config, vocab)
        same = embed_sentences([topic_sentence(t, 601) for t in topics], weights, ckpt.encoder_config, vocab)
        other = embed_sentences(
            [topic_sentence(topics[(i + 1) % 4], 602) for i in range(4)], weights, ckpt.encoder_config, vocab
        )
        matched = alignment(a, same)
        mismatched = alignment(a, other)
        assert matched < mismatched

    def test_later_twin_context_ranks_behind_the_earlier(self, micro_checkpoint):
        # Retrieval as ``retrieve`` computes it, over a pool whose twin contexts
        # would fall into two length-sorted batches if each copy ran.
        ckpt, _, vocab = micro_checkpoint
        weights = ckpt.encoder_weights(vocab)
        pooling = PoolingStrategy.parse(ckpt.pretrain_config["pooling"])
        contexts = boundary_twin_texts()
        assert len(contexts) > EVAL_BATCH
        twin = contexts[BOUNDARY_TWINS[0]]
        claims = embed_sentences([twin, twin], weights, weights.config, vocab, pooling)
        pool = embed_sentences(contexts, weights, weights.config, vocab, pooling)
        earlier, later = gold_ranks(claims, pool, np.array(BOUNDARY_TWINS)).tolist()
        assert later == earlier + 1


class TestExportAttention:
    def test_structure_and_row_sums(self, micro_checkpoint):
        ckpt, _, vocab = micro_checkpoint
        out = export_attention(ckpt.encoder_weights(vocab), vocab, "the river report", "indeed the river")
        assert out["tokens"][0] == "[CLS]"
        assert out["tokens"].count("[SEP]") == 2
        assert "[PAD]" not in out["tokens"]
        n = len(out["tokens"])
        heads = np.array(out["heads"])
        assert heads.shape == (ckpt.encoder_config.num_heads, n, n)
        np.testing.assert_allclose(heads.sum(axis=2), 1.0, atol=1e-5)
        np.testing.assert_allclose(np.array(out["head_mean"]), heads.mean(axis=0), atol=1e-12)

    def test_wrong_vocabulary_rejected(self, micro_checkpoint):
        ckpt, _, _ = micro_checkpoint
        other = build_vocab(["completely unrelated words"])
        # Checked once, where the export's weights are built from the checkpoint.
        with pytest.raises(VocabularyError, match="checkpoint was built with a different vocabulary"):
            export_attention(ckpt.encoder_weights(other), other, "a", "b")
