"""Binary checkpoint format: round trips, validation, atomic writes, and warm-start resume."""

import builtins
import errno
import os

import numpy as np
import pytest

from conftest import make_topic_triples, micro_encoder_config

import consem.checkpoint
from consem.analysis import EmbeddingSet, save_embeddings
from consem.checkpoint import Checkpoint, MAGIC, load_checkpoint, save_checkpoint
from consem.encoder import EncoderConfig, EncoderWeights
from consem.errors import FormatError
from consem.pretrain import PretrainConfig, train
from consem.text import build_vocab


@pytest.fixture()
def sample(tmp_path):
    config = EncoderConfig(
        vocab_size=11, num_layers=1, num_heads=2, hidden_size=8, ff_size=12, max_len=6
    )
    weights = EncoderWeights.initialize(config, seed=6)
    ckpt = Checkpoint(
        encoder_config=config,
        pretrain_config=PretrainConfig(tau=0.1).to_dict(),
        vocab_hash="f" * 64,
        step=42,
        params=weights.to_arrays(),
        extra={"note": "fixture"},
    )
    path = tmp_path / "ckpt.bin"
    save_checkpoint(ckpt, path)
    return ckpt, path


class TestRoundTrip:
    def test_everything_survives(self, sample):
        ckpt, path = sample
        loaded = load_checkpoint(path)
        assert loaded.encoder_config == ckpt.encoder_config
        assert loaded.pretrain_config == ckpt.pretrain_config
        assert loaded.vocab_hash == ckpt.vocab_hash
        assert loaded.step == 42
        assert loaded.extra == {"note": "fixture"}
        assert list(loaded.params) == list(ckpt.params)
        for name in ckpt.params:
            assert loaded.params[name].dtype == np.float32
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()

    def test_save_load_save_is_byte_identical(self, sample, tmp_path):
        _, path = sample
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(load_checkpoint(path), resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_magic_prefix(self, sample):
        _, path = sample
        assert path.read_bytes()[:4] == MAGIC


class TestValidation:
    def test_bad_magic(self, sample, tmp_path):
        _, path = sample
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(bad)

    def test_unsupported_version(self, sample, tmp_path):
        _, path = sample
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("keep", [0, 3, 11, 40, -1])
    def test_truncation_rejected(self, sample, tmp_path, keep):
        _, path = sample
        blob = path.read_bytes()
        truncated = tmp_path / "trunc.bin"
        truncated.write_bytes(blob[: keep if keep >= 0 else len(blob) - 5])
        with pytest.raises(FormatError):
            load_checkpoint(truncated)

    def test_trailing_garbage_rejected(self, sample, tmp_path):
        _, path = sample
        bad = tmp_path / "long.bin"
        bad.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    def test_garbled_header_rejected(self, sample, tmp_path):
        _, path = sample
        blob = bytearray(path.read_bytes())
        blob[14] = 0xFF
        bad = tmp_path / "gar.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(bad)


class TestResume:
    def test_warm_start_continues_improving(self):
        triples = make_topic_triples(24, num_topics=4)
        corpus = [t for tr in triples for t in (tr.sentence1, tr.sentence2, tr.hard_neg)]
        vocab = build_vocab(corpus)
        encoder_config = micro_encoder_config(vocab.size, max_len=14, dropout=0.0)

        base_config = PretrainConfig(
            epochs=4, batch_size=8, seed=13, learning_rate=2e-3, validation_fraction=0.0
        )
        ckpt, base_records = train(triples, base_config, vocab, encoder_config)

        resume_config = PretrainConfig(
            epochs=2, batch_size=8, seed=13, learning_rate=2e-3, validation_fraction=0.0
        )
        weights = EncoderWeights.from_arrays(encoder_config, ckpt.params)
        _, resumed = train(
            triples, resume_config, vocab, encoder_config, init_weights=weights
        )
        _, fresh = train(triples, resume_config, vocab, encoder_config)

        base_last = base_records[-1].contrastive
        base_first = base_records[0].contrastive
        assert base_last < base_first
        # Resuming starts from the trained weights: its first epoch must sit
        # below the fresh run's first epoch and not regress past the base run.
        assert resumed[0].contrastive < fresh[0].contrastive
        assert resumed[-1].contrastive < base_first


class _TornFile:
    """A file whose first write stores half its bytes, then fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    @pytest.mark.parametrize("artifact", ["checkpoint", "embeddings"])
    def test_failed_write_keeps_previous_file(self, sample, monkeypatch, artifact):
        ckpt, path = sample
        if artifact == "embeddings":
            path = path.parent / "embeddings.bin"
            save_embeddings(path, EmbeddingSet(vectors=np.eye(3), texts=["a", "b", "c"]))

            def save_again():
                save_embeddings(path, EmbeddingSet(vectors=np.ones((2, 5)), texts=["d", "e"]))
        else:
            ckpt.step += 1

            def save_again():
                save_checkpoint(ckpt, path)

        before = {name: (path.parent / name).read_bytes() for name in os.listdir(path.parent)}
        monkeypatch.setattr(
            consem.checkpoint, "open", lambda *a, **k: _TornFile(builtins.open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            save_again()
        after = {name: (path.parent / name).read_bytes() for name in os.listdir(path.parent)}
        # The old artifact is byte-identical and no temp file is left behind.
        assert after == before
        monkeypatch.undo()
        save_again()
        assert path.read_bytes() != before[path.name]
        assert sorted(os.listdir(path.parent)) == sorted(before)
