"""Binary checkpoint format: round trips, validation, atomic writes, and warm-start resume."""

import builtins
import errno
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_topic_triples, micro_encoder_config

import consem.files
from consem.analysis import EmbeddingSet, save_embeddings
from consem.checkpoint import Checkpoint, MAGIC, load_checkpoint, save_checkpoint
from consem.cli import build_parser, main
from consem.config import RunConfig
from consem.encoder import EncoderConfig, EncoderWeights
from consem.errors import FormatError, ShapeError
from consem.pretrain import LossRecord, PretrainConfig, train, write_loss_csv
from consem.text import RESERVED_TOKENS, ContrastiveTriple, Vocabulary, build_vocab, save_triples_jsonl


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


# Malformed checkpoints: (header path, value) edits that keep the blobs, the
# error each one must end in, and the name its message must hold.  Manifest
# entry 0 is ``tok_emb``.  A field of the wrong type is an error, not coerced:
# a coerced value would save back to other bytes.
_HEADER_EDITS = {
    "renamed tok_emb": ((("params", 0, 0), "tok_embedding"), ShapeError, "'tok_emb'"),
    # The product of the real (11, 8) shape, so only the sign check can catch it.
    "negative dimension": ((("params", 0, 1), [-11, -8]), FormatError, "'tok_emb'"),
    "non-integer dimension": ((("params", 0, 1), [11.0, 8]), FormatError, "'tok_emb'"),
    "float num_layers": ((("encoder_config", "num_layers"), 1.0), FormatError, "num_layers"),
    "bool num_heads": ((("encoder_config", "num_heads"), True), FormatError, "num_heads"),
    "float step": ((("step",), 2.9), FormatError, "'step'"),
    "bool step": ((("step",), True), FormatError, "'step'"),
    "negative step": ((("step",), -1), FormatError, "'step'"),
    "integer vocab_hash": ((("vocab_hash",), 7), FormatError, "'vocab_hash'"),
    "list extra": ((("extra",), [["task", "pair"]]), FormatError, "'extra'"),
    "list pretrain_config": ((("pretrain_config",), [["tau", 0.1]]), FormatError, "'pretrain_config'"),
    "integer parameter name": ((("params", 0, 0), 5), FormatError, "'params'"),
    # Entry 1 is ``pos_emb``: a second ``tok_emb`` would replace the first's blob.
    "repeated parameter name": ((("params", 1, 0), "tok_emb"), FormatError, "'params'"),
}
_MALFORMED = sorted(_HEADER_EDITS) + ["missing tok_emb", "header nested too deeply"]


def _write_malformed(ckpt, path, case, out):
    """Write checkpoint ``path`` to ``out`` with the malformation ``case``.

    Returns the error it must raise and a name that error's message must hold.
    """
    if case == "missing tok_emb":
        save_checkpoint(replace(ckpt, params={n: a for n, a in ckpt.params.items() if n != "tok_emb"}), out)
        return ShapeError, "'tok_emb'"
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    if case == "header nested too deeply":
        # More levels than json.loads recurses through.
        text = b'{"extra": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        error, name = FormatError, "nested too deeply"
    else:
        (keys, value), error, name = _HEADER_EDITS[case]
        header = json.loads(blob[12 : 12 + header_len])
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + header_len :])
    return error, name


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


    @pytest.mark.parametrize("case", _MALFORMED)
    def test_malformed_contents_rejected(self, sample, tmp_path, case):
        ckpt, path = sample
        bad = tmp_path / "bad.bin"
        error, name = _write_malformed(ckpt, path, case, bad)
        with pytest.raises(error) as exc:
            loaded = load_checkpoint(bad)
            EncoderWeights.from_arrays(loaded.encoder_config, loaded.params)
        assert name in str(exc.value)

    @pytest.mark.parametrize("command", ["analyze", "retrieve"])
    @pytest.mark.parametrize("case", _MALFORMED)
    def test_malformed_checkpoint_is_one_error_line(self, tmp_path, capsys, case, command):
        vocab = build_vocab(["the river stays calm"])
        vocab.save(tmp_path / "vocab.txt")
        config = EncoderConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden_size=8, ff_size=12, max_len=6)
        ckpt = Checkpoint(config, None, vocab.content_hash(), 0, EncoderWeights.initialize(config, seed=1).to_arrays())
        save_checkpoint(ckpt, tmp_path / "good.bin")
        _write_malformed(ckpt, tmp_path / "good.bin", case, tmp_path / "bad.bin")
        # One record with every field serves as the pairs, claims and contexts file.
        (tmp_path / "in.jsonl").write_text(
            '{"premise": "the river", "hypothesis": "stays calm", "label": "entailment", '
            '"claim": "the river", "gold_index": 0, "text": "stays calm"}\n', encoding="utf-8"
        )
        inputs = {"analyze": ["--pairs"], "retrieve": ["--claims", "--contexts"]}[command]
        argv = [command, "--checkpoint", str(tmp_path / "bad.bin"), "--vocab", str(tmp_path / "vocab.txt")]
        for flag in inputs:
            argv += [flag, str(tmp_path / "in.jsonl")]
        # main returns instead of raising, so no traceback reaches the user.
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


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
        _, resumed = train(triples, resume_config, vocab, encoder_config, init=ckpt)
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


def _sweep(directory, inputs, version):
    # Every leg diverges in its first pretraining steps, before it writes
    # anything, so only sweep.csv and run_config.txt are written.  (A sweep
    # whose every leg fails on its value stops before writing.)  The values
    # differ, since sweep rejects a repeat.
    triples, vocab, tasks = inputs
    values = ",".join(f"{i + 1}" for i in range(version + 1))
    args = build_parser().parse_args(
        ["sweep", "--axis", "tau", "--values", values, "--triples", str(triples), "--vocab", str(vocab),
         "--train", str(tasks), "--dev", str(tasks), "--learning-rate", "1e30", "--out", str(directory)]
    )
    assert args.handler(args) == 1
    assert not (directory / "legs").exists()


_ARTIFACT_FILES = {
    "checkpoint": "ckpt.bin",
    "embeddings": "embeddings.bin",
    "vocab": "vocab.txt",
    "triples": "triples.jsonl",
    "run_config": "run_config.txt",
    "loss_log": "loss_log.csv",
    "sweep": "sweep.csv",
}


def _write(artifact, path, ckpt, sweep_inputs, version):
    """Write ``artifact`` at ``path`` with content that depends on ``version``."""
    if artifact == "checkpoint":
        save_checkpoint(replace(ckpt, step=version), path)
    elif artifact == "embeddings":
        save_embeddings(path, EmbeddingSet(vectors=np.ones((2 + version, 3)), texts=["d", "e", "f"][: 2 + version]))
    elif artifact == "vocab":
        Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(version + 1)]).save(path)
    elif artifact == "triples":
        save_triples_jsonl([ContrastiveTriple("a", "b", f"c{i}") for i in range(version + 1)], path)
    elif artifact == "run_config":
        RunConfig(seed=version).write(path)
    elif artifact == "loss_log":
        write_loss_csv([LossRecord(1, version, "train", 1.0, 0.0, 1.0)], path)
    else:
        _sweep(path.parent, sweep_inputs, version)


class TestAtomicWrites:
    @pytest.fixture()
    def sweep_inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        save_triples_jsonl([ContrastiveTriple("a river", "the river", "a desert")], root / "triples.jsonl")
        Vocabulary(list(RESERVED_TOKENS)).save(root / "vocab.txt")
        record = {"text_a": "a", "text_b": "b", "label": "entailment"}
        (root / "tasks.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        return root / "triples.jsonl", root / "vocab.txt", root / "tasks.jsonl"

    @pytest.mark.parametrize("artifact", list(_ARTIFACT_FILES))
    def test_failed_write_keeps_previous_file(self, sample, sweep_inputs, monkeypatch, artifact):
        ckpt, ckpt_path = sample
        name = _ARTIFACT_FILES[artifact]
        path = ckpt_path.parent / name
        _write(artifact, path, ckpt, sweep_inputs, 0)

        def files():
            return {p.name: p.read_bytes() for p in path.parent.iterdir() if p.is_file()}

        before = files()
        monkeypatch.setattr(
            consem.files, "open", lambda *a, **k: _TornFile(builtins.open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            _write(artifact, path, ckpt, sweep_inputs, 1)
        # The old artifact is byte-identical and no temp file is left behind.
        assert files() == before
        monkeypatch.undo()
        _write(artifact, path, ckpt, sweep_inputs, 1)
        after = files()
        assert after[name] != before[name]
        assert sorted(after) == sorted(before)
