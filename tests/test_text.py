"""Tokenization, vocabulary construction, and triple mining."""

import json
from pathlib import Path

import pytest

from conftest import make_topic_nli
from oracles import triple_counts_reference

from consem.errors import ConfigError, DataError, VocabularyError
from consem.text import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    ContrastiveTriple,
    NliExample,
    Vocabulary,
    build_vocab,
    encode_pair,
    encode_single,
    json_field,
    leakage_guard,
    load_jsonl,
    load_nli_jsonl,
    load_triples_jsonl,
    prepare_contrastive,
    save_triples_jsonl,
    split_text,
    write_jsonl,
)


class TestVocabulary:
    def test_split_lowercases_and_separates_punctuation(self):
        assert split_text("Hello, World!") == ["hello", ",", "world", "!"]

    def test_build_vocab_counting(self):
        vocab = build_vocab(["a b", "a"])
        assert vocab.tokens[5:] == ["a", "b"]
        assert vocab.id_for("a") == 5
        assert vocab.id_for("b") == 6

    def test_min_count_drops_rare_tokens(self):
        vocab = build_vocab(["a b", "a"], min_count=2)
        assert vocab.tokens[5:] == ["a"]
        assert vocab.id_for("b") == UNK_ID

    def test_frequency_then_alphabetical_order(self):
        vocab = build_vocab(["c c b b a"])
        assert vocab.tokens[5:] == ["b", "c", "a"]

    def test_rebuild_is_byte_identical(self, tmp_path):
        corpus = [f"token{i % 37} filler{i % 11} common" for i in range(1000)]
        paths = []
        for run in range(2):
            path = tmp_path / f"vocab{run}.txt"
            build_vocab(corpus).save(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["the quick brown fox"])
        vocab.save(tmp_path / "v.txt")
        loaded = Vocabulary.load(tmp_path / "v.txt")
        assert loaded.tokens == vocab.tokens
        assert loaded.content_hash() == vocab.content_hash()

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(tokens=["[PAD]", "[CLS]", "[SEP]", "[UNK]", "[MASK]", "a", "a"])

    def test_reserved_prefix_required(self):
        with pytest.raises(VocabularyError):
            Vocabulary(tokens=["a", "b", "c", "d", "e"])

    def test_content_hash_tracks_content(self):
        v1 = build_vocab(["a b"])
        v2 = build_vocab(["a b c"])
        assert v1.content_hash() != v2.content_hash()

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab(["a"], min_count=0)


class TestEncoding:
    @pytest.fixture()
    def vocab(self):
        return build_vocab(["alpha beta gamma delta epsilon zeta eta"])

    def test_encode_single_empty_string(self, vocab):
        seq = encode_single("", vocab, max_len=8)
        assert seq.ids == [CLS_ID, SEP_ID] and seq.length == seq.real_length == 2

    def test_encode_single_known_tokens_in_order(self, vocab):
        seq = encode_single("alpha beta", vocab, max_len=8)
        assert seq.ids == [CLS_ID, vocab.id_for("alpha"), vocab.id_for("beta"), SEP_ID]

    def test_encode_single_layout(self, vocab):
        # Unpadded: max_len only truncates, the encoder pads per batch.
        seq = encode_single("alpha", vocab, max_len=5)
        assert seq.ids == [CLS_ID, vocab.id_for("alpha"), SEP_ID]
        assert seq.length == seq.real_length == 3

    def test_encode_pair_layout(self, vocab):
        seq = encode_pair("alpha", "beta", vocab, max_len=7)
        a, b = vocab.id_for("alpha"), vocab.id_for("beta")
        assert seq.ids == [CLS_ID, a, SEP_ID, b, SEP_ID]
        assert seq.length == seq.real_length == 5

    def test_encode_pair_empty_first_segment(self, vocab):
        seq = encode_pair("", "beta", vocab, max_len=6)
        assert seq.ids[:4] == [CLS_ID, SEP_ID, vocab.id_for("beta"), SEP_ID]

    def test_encode_pair_truncates_longer_segment_first(self, vocab):
        # a has 5 tokens, b has 2; budget is 4, so a shrinks to 2.
        seq = encode_pair("alpha beta gamma delta epsilon", "zeta eta", vocab, max_len=7)
        a1, a2 = vocab.id_for("alpha"), vocab.id_for("beta")
        b1, b2 = vocab.id_for("zeta"), vocab.id_for("eta")
        assert seq.ids == [CLS_ID, a1, a2, SEP_ID, b1, b2, SEP_ID]

    def test_encode_pair_tie_truncates_first_segment(self, vocab):
        seq = encode_pair("alpha beta", "zeta eta", vocab, max_len=6)
        # Budget 3: the tie drops "beta", then b keeps both? No: 2+2=4 > 3
        # drops a (tie), then 1+2=3 fits.
        assert seq.ids == [
            CLS_ID, vocab.id_for("alpha"), SEP_ID,
            vocab.id_for("zeta"), vocab.id_for("eta"), SEP_ID,
        ]

    def test_encode_pair_never_exceeds_max_len(self, vocab):
        for max_len in range(4, 12):
            seq = encode_pair("alpha beta gamma delta", "epsilon zeta eta", vocab, max_len)
            # 4 + 3 tokens and 3 specials fill 10 slots before any truncation.
            assert seq.length == seq.real_length == min(max_len, 10)
            assert PAD_ID not in seq.ids

    def test_unknown_tokens_map_to_unk(self, vocab):
        seq = encode_single("alpha mystery", vocab, max_len=4)
        assert seq.ids == [CLS_ID, vocab.id_for("alpha"), UNK_ID, SEP_ID]

    def test_length_limits_enforced(self, vocab):
        with pytest.raises(ConfigError):
            encode_single("alpha", vocab, max_len=1)
        with pytest.raises(ConfigError):
            encode_pair("alpha", "beta", vocab, max_len=3)


class TestPrepareContrastive:
    def test_one_entailment_one_contradiction(self):
        examples = [
            NliExample("p", "h1", "entailment"),
            NliExample("p", "h2", "contradiction"),
        ]
        triples, stats = prepare_contrastive(examples)
        assert triples == [ContrastiveTriple("p", "h1", "h2")]
        assert stats.total.premises == 1 and stats.total.triples == 1

    def test_neutral_only_yields_nothing(self):
        triples, stats = prepare_contrastive([NliExample("p", "h", "neutral")])
        assert triples == []
        assert stats.total.triples == 0 and stats.total.premises == 1

    def test_neutral_never_appears_in_triples(self):
        examples = make_topic_nli(groups=12, per_group=2)
        neutral = {ex.hypothesis for ex in examples if ex.label == "neutral"}
        triples, _ = prepare_contrastive(examples)
        for t in triples:
            assert t.sentence2 not in neutral and t.hard_neg not in neutral

    def test_one_triple_per_premise_on_balanced_corpus(self):
        examples = make_topic_nli(groups=40, per_group=1)
        triples, stats = prepare_contrastive(examples)
        assert len(triples) == 40
        assert stats.total.premises == 40

    def test_counts_match_enumeration_oracle(self):
        import random

        rng = random.Random(5)
        examples = []
        for p in range(50):
            source = f"src{p % 3}"
            premise = f"premise number {p}"
            for label in ("entailment", "contradiction", "neutral"):
                for k in range(rng.randint(0, 3)):
                    examples.append(
                        NliExample(premise, f"{label} hyp {k} of {p}", label, source)
                    )
        rng.shuffle(examples)
        triples, stats = prepare_contrastive(examples)
        expected = triple_counts_reference(examples)
        assert len(triples) == sum(expected.values())
        per_source = {}
        for (source, _), count in expected.items():
            per_source[source] = per_source.get(source, 0) + count
        for source, count in per_source.items():
            assert stats.per_source[source].triples == count

    def test_kth_pairing_within_group(self):
        examples = [
            NliExample("p", "e0", "entailment"),
            NliExample("p", "c0", "contradiction"),
            NliExample("p", "e1", "entailment"),
            NliExample("p", "c1", "contradiction"),
            NliExample("p", "e2", "entailment"),
        ]
        triples, _ = prepare_contrastive(examples)
        assert [(t.sentence2, t.hard_neg) for t in triples] == [("e0", "c0"), ("e1", "c1")]

    def test_permuting_hypotheses_permutes_triples(self):
        base = [
            NliExample("p", f"e{k}", "entailment") for k in range(3)
        ] + [NliExample("p", f"c{k}", "contradiction") for k in range(3)]
        triples_base, _ = prepare_contrastive(base)
        perm = [2, 0, 1]
        permuted = [
            NliExample("p", f"e{k}", "entailment") for k in perm
        ] + [NliExample("p", f"c{k}", "contradiction") for k in perm]
        triples_perm, _ = prepare_contrastive(permuted)
        assert [triples_perm[i] for i in range(3)] == [
            ContrastiveTriple("p", f"e{k}", f"c{k}") for k in perm
        ]

    def test_premise_order_preserved(self):
        examples = []
        for name in ("zeta", "alpha", "mid"):
            examples.append(NliExample(f"premise {name}", f"e {name}", "entailment"))
            examples.append(NliExample(f"premise {name}", f"c {name}", "contradiction"))
        triples, _ = prepare_contrastive(examples)
        assert [t.sentence1 for t in triples] == ["premise zeta", "premise alpha", "premise mid"]

    def test_whitespace_normalized_grouping(self):
        examples = [
            NliExample("a  b", "e", "entailment"),
            NliExample("a b", "c", "contradiction"),
        ]
        triples, stats = prepare_contrastive(examples)
        assert len(triples) == 1 and stats.total.premises == 1

    def test_identical_positive_negative_dropped(self):
        examples = [
            NliExample("p", "same", "entailment"),
            NliExample("p", "same", "contradiction"),
        ]
        triples, stats = prepare_contrastive(examples)
        assert triples == [] and stats.total.triples == 0

    def test_sources_kept_separate(self):
        examples = [
            NliExample("p", "e", "entailment", source="one"),
            NliExample("p", "c", "contradiction", source="two"),
        ]
        triples, stats = prepare_contrastive(examples)
        assert triples == []
        assert stats.per_source["one"].premises == 1
        assert stats.per_source["two"].premises == 1

    def test_stats_json_shape(self):
        _, stats = prepare_contrastive(make_topic_nli(groups=4))
        payload = stats.to_dict()
        assert set(payload) == {"sources", "total"}
        assert payload["total"]["triples"] == stats.total.triples


class TestLeakageGuard:
    def test_disjoint_sets_are_clean(self):
        triples = [ContrastiveTriple("a", "b", "c")]
        assert leakage_guard(triples, ["x", "y"]) == []

    def test_single_overlap_named(self):
        triples = [ContrastiveTriple("a", "b", "c")]
        violations = leakage_guard(triples, ["b"])
        assert len(violations) == 1
        assert violations[0].fieldname == "sentence2"
        assert violations[0].sentence == "b"
        assert violations[0].triple_index == 0

    def test_three_planted_overlaps_found(self):
        triples = [
            ContrastiveTriple("anchor one", "pos one", "neg one"),
            ContrastiveTriple("anchor two", "pos two", "neg two"),
            ContrastiveTriple("anchor three", "pos three", "neg three"),
        ]
        held = ["anchor one", "neg two", "pos three", "unrelated"]
        violations = leakage_guard(triples, held)
        assert len(violations) == 3
        assert {(v.triple_index, v.fieldname) for v in violations} == {
            (0, "sentence1"), (1, "hard_neg"), (2, "sentence2"),
        }


class TestJsonlIO:
    def test_nli_round_trip(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        rows = [
            {"premise": "p1", "hypothesis": "h1", "label": "entailment"},
            {"premise": "p2", "hypothesis": "h2", "label": "neutral", "source": "newswire"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        examples = load_nli_jsonl(path)
        assert examples[0].source == "default" and examples[1].source == "newswire"

    def test_nli_malformed_line_numbered(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"premise": "p", "hypothesis": "h", "label": "entailment"}\n{bad\n')
        with pytest.raises(DataError, match=":2:"):
            load_nli_jsonl(path)

    def test_nli_missing_field_numbered(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"premise": "p", "label": "entailment"}\n')
        with pytest.raises(DataError, match=":1:.*hypothesis"):
            load_nli_jsonl(path)

    def test_nli_bad_label_numbered(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"premise": "p", "hypothesis": "h", "label": "maybe"}\n')
        with pytest.raises(DataError, match=":1:.*maybe"):
            load_nli_jsonl(path)

    def test_write_jsonl_round_trips_raw_text(self, tmp_path):
        # U+2028 is a line break to str.splitlines but legal raw inside a JSON string.
        rows = [{"text": "sông Hồng\u2028chảy", "id": 0}, {"b": ["é", "\u2029"], "a": None}]
        path = tmp_path / "f.jsonl"
        write_jsonl(path, rows)
        expected = "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert load_jsonl(path) == [(f"{path}:1", rows[0]), (f"{path}:2", rows[1])]

    def test_where_counts_blank_lines(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("f.jsonl").write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert load_jsonl("f.jsonl") == [("f.jsonl:1", {"a": 1}), ("f.jsonl:3", {"a": 2})]

    def test_triples_round_trip(self, tmp_path):
        triples = [ContrastiveTriple("a", "b", "c"), ContrastiveTriple("d", "e", "f")]
        path = tmp_path / "triples.jsonl"
        save_triples_jsonl(triples, path)
        assert load_triples_jsonl(path) == triples

    def test_triples_empty_field_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"sentence1": "a", "sentence2": "  ", "hard_neg": "c"}\n')
        with pytest.raises(DataError, match="sentence2"):
            load_triples_jsonl(path)

    def test_triples_identical_pair_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"sentence1": "a", "sentence2": "b", "hard_neg": "b"}\n')
        with pytest.raises(DataError, match=":1:"):
            load_triples_jsonl(path)

    @pytest.mark.parametrize(
        "record,kinds,message",
        [
            ({}, (str,), "missing field 'k'"),
            ({"k": None}, (str,), "field 'k' must be a string, got null"),
            ({"k": 3}, (str,), "field 'k' must be a string, got an integer"),
            ({"k": True}, (int,), "field 'k' must be an integer, got a boolean"),
            ({"k": "1"}, (int,), "field 'k' must be an integer, got a string"),
            ({"k": 2.0}, (str, int), "field 'k' must be a string or an integer, got a number"),
            ({"k": {}}, (list,), "field 'k' must be a list, got an object"),
            ({"k": ["a", 3]}, (list,), "field 'k' item 1 must be a string, got an integer"),
            ({"k": "a \ud800"}, (str,), "field 'k' must be UTF-8 text, got a lone surrogate at character 2"),
            ({"k": ["a", "\udfff"]}, (list,), "field 'k' item 1 must be UTF-8 text, got a lone surrogate at character 0"),
        ],
    )
    def test_json_field_errors_name_place_and_field(self, record, kinds, message):
        with pytest.raises(DataError) as info:
            json_field(record, "k", "f.jsonl:4", kinds)
        assert str(info.value) == f"f.jsonl:4: {message}"

    def test_json_field_returns_the_value(self):
        assert json_field({"k": " "}, "k", "f:1") == " "
        assert json_field({"k": 0}, "k", "f:1", (str, int)) == 0
        assert json_field({"k": ["a"]}, "k", "f:1", (list,)) == ["a"]
        with pytest.raises(DataError, match="^f:1: field 'k' must be a non-empty string$"):
            json_field({"k": " \u2028"}, "k", "f:1", nonblank=True)

    def test_unknown_label_rejected_at_construction(self):
        with pytest.raises(DataError):
            NliExample("p", "h", "synonym")
