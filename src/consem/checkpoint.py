"""Binary checkpoint serialization.

Layout (all integers little-endian):

    bytes 0..3   magic ``VCLS``
    bytes 4..7   u32 format version (currently 1)
    bytes 8..11  u32 header length in bytes
    header       canonical JSON (sorted keys, no whitespace)
    blobs        one little-endian float32 blob per parameter

The header records the encoder configuration, the training configuration
used to produce the weights, a vocabulary hash, the global step counter,
an ordered ``params`` manifest of (name, shape) pairs, and an ``extra``
object for task metadata.  Blobs follow in manifest order, each holding
the row-major elements of its parameter, so a checkpoint is self
describing and a save/load/save cycle is byte-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, EncoderWeights
from .errors import FormatError
from .files import write_atomic
from .text import Vocabulary

__all__ = ["Checkpoint", "FORMAT_VERSION", "MAGIC", "load_checkpoint", "save_checkpoint"]

MAGIC = b"VCLS"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """Encoder weights plus the configuration needed to reuse them."""

    encoder_config: EncoderConfig
    pretrain_config: dict | None
    vocab_hash: str
    step: int
    params: dict[str, np.ndarray]
    extra: dict = field(default_factory=dict)

    def encoder_weights(self, vocab: Vocabulary) -> EncoderWeights:
        """The encoder over copies of the parameters, once ``vocab`` is checked to be the one they were built with."""
        vocab.require_hash(self.vocab_hash, "checkpoint")
        return EncoderWeights.from_arrays(self.encoder_config, self.params)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    header = {
        "encoder_config": asdict(ckpt.encoder_config),
        "pretrain_config": ckpt.pretrain_config,
        "vocab_hash": ckpt.vocab_hash,
        "step": ckpt.step,
        "extra": ckpt.extra,
        "params": [[name, list(array.shape)] for name, array in ckpt.params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blobs = [np.ascontiguousarray(array, dtype="<f4").tobytes() for array in ckpt.params.values()]
    write_atomic(
        path, b"".join([MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes, *blobs])
    )


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint; malformed or truncated files load nothing."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if len(blob) < 12 + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed header ({exc})") from exc
    try:
        manifest = [(name, tuple(shape)) for name, shape in header["params"]]
        encoder_config = EncoderConfig(**header["encoder_config"])
        pretrain_config = header["pretrain_config"]
        vocab_hash = header["vocab_hash"]
        step = header["step"]
        extra = header["extra"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid header contents ({exc})") from exc
    # Checked, not coerced: a coerced field would save back to other bytes.
    for key, want, ok in (
        ("step", "a non-negative integer", type(step) is int and step >= 0),
        ("vocab_hash", "a string", isinstance(vocab_hash, str)),
        ("pretrain_config", "an object or null", pretrain_config is None or isinstance(pretrain_config, dict)),
        ("extra", "an object", isinstance(extra, dict)),
    ):
        if not ok:
            raise FormatError(f"{path}: header field {key!r} must be {want}, got {header[key]!r}")
    seen: set[str] = set()
    for name, shape in manifest:
        if not isinstance(name, str):
            raise FormatError(f"{path}: header field 'params' holds the parameter name {name!r}, not a string")
        if name in seen:
            raise FormatError(f"{path}: header field 'params' names the parameter {name!r} twice")
        seen.add(name)
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
            raise FormatError(f"{path}: parameter {name!r} has invalid dimensions {list(shape)}")
    expected = 12 + header_len + sum(4 * int(np.prod(shape)) for _, shape in manifest)
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    params: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for name, shape in manifest:
        count = int(np.prod(shape))
        flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        params[name] = flat.reshape(shape).astype(np.float32)
        offset += 4 * count
    return Checkpoint(
        encoder_config=encoder_config,
        pretrain_config=pretrain_config,
        vocab_hash=vocab_hash,
        step=step,
        params=params,
        extra=extra,
    )
