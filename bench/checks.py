"""Output checks run on every benchmark run.

Each check raises :class:`CheckFailed` with a one-line reason.  The
recounts here are written against the file formats and the documented
rules (cosine ranking with ties toward the lower index, uniformity as
``log mean exp(-2 d^2)`` over distinct pairs), not against the code paths
that produced the files, so a change that breaks those paths shows up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from consem.checkpoint import load_checkpoint, save_checkpoint
from consem.encoder import EncoderWeights, PoolingStrategy, embed_sentences, parameter_names
from consem.text import Vocabulary

TOPK = (1, 3, 5, 10)


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def record_count(path: Path, expected: int) -> None:
    found = len(read_jsonl(path))
    require(found == expected, f"{path.name}: {found} records, expected {expected}")


def loss_log(path: Path, epochs: int) -> None:
    """Every loss is finite, with exactly one row per epoch and split, in order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(int(r["epoch"]), r["split"]) for r in rows]
    want = [(e, s) for e in range(1, epochs + 1) for s in ("train", "validation")]
    require(keys == want, f"{path.name}: rows {keys}, expected {want}")
    for r in rows:
        for column in ("contrastive", "mlm", "combined"):
            require(math.isfinite(float(r[column])), f"{path.name}: non-finite {column} in epoch {r['epoch']}")


def resaves_identically(path: Path) -> None:
    """A checkpoint or model file loads and saves back to the same bytes."""
    copy = path.with_name(path.name + ".resave")
    try:
        save_checkpoint(load_checkpoint(path), copy)
        require(copy.read_bytes() == path.read_bytes(), f"{path.name}: re-saved bytes differ")
    finally:
        copy.unlink(missing_ok=True)


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def identical_trees(reference: Path, other: Path) -> None:
    """Two runs of the same commands on the same inputs wrote the same bytes."""
    want, got = tree_digest(reference), tree_digest(other)
    require(want.keys() == got.keys(), f"{other.name}: files {sorted(got)} differ from {sorted(want)}")
    differing = sorted(name for name in want if want[name] != got[name])
    require(not differing, f"{other.name}: bytes differ from {reference.name} in {differing}")


def mrc_predictions(pred_path: Path, metrics_path: Path, questions: int) -> None:
    """One prediction per question, and the reported accuracy recounts from them."""
    preds = read_jsonl(pred_path)
    require(len(preds) == questions, f"{len(preds)} predictions for {questions} questions")
    hits = sum(1 for p in preds if p["pred"] == p["gold"])
    reported = json.loads(metrics_path.read_text(encoding="utf-8"))["accuracy"]
    require(reported == hits / questions, f"accuracy {reported} but predictions give {hits}/{questions}")


def _unit_rows(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.sqrt((v * v).sum(axis=1, keepdims=True))


def retrieval_recount(retrieval_path: Path, claims_path: Path, contexts_path: Path,
                      checkpoint_path: Path, vocab_path: Path) -> None:
    """acc@K from a brute-force ranking over ``embed_sentences`` vectors; non-decreasing in K."""
    ckpt = load_checkpoint(checkpoint_path)
    vocab = Vocabulary.load(vocab_path)
    config = ckpt.encoder_config
    weights = EncoderWeights.from_arrays(config, {n: ckpt.params[n] for n in parameter_names(config)})
    pooling = PoolingStrategy.parse((ckpt.pretrain_config or {}).get("pooling", "CLS"))
    claims = read_jsonl(claims_path)
    contexts = [row["text"] for row in read_jsonl(contexts_path)]
    claim_vecs = _unit_rows(embed_sentences([c["claim"] for c in claims], weights, config, vocab, pooling))
    context_vecs = _unit_rows(embed_sentences(contexts, weights, config, vocab, pooling))
    ranks = []
    for row, claim in zip(claim_vecs, claims):
        sims = context_vecs @ row
        gold = claim["gold_index"]
        # Candidates ahead of gold: strictly more similar, or equal with a lower index.
        ranks.append(int((sims > sims[gold]).sum() + (sims[:gold] == sims[gold]).sum()))
    ranks_arr = np.array(ranks)
    recount = {str(k): float((ranks_arr < k).sum()) / len(claims) for k in TOPK}
    reported = json.loads(retrieval_path.read_text(encoding="utf-8"))["accuracy_at_k"]
    require(reported == recount, f"retrieval.json reports {reported}, brute force gives {recount}")
    values = [reported[str(k)] for k in TOPK]
    require(values == sorted(values), f"accuracy decreases as K grows: {values}")


def _load_embedding_file(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    n, d = struct.unpack("<II", blob[:8])
    require(len(blob) == 8 + 4 * n * d, f"{path.name}: {len(blob)} bytes for ({n}, {d})")
    return np.frombuffer(blob, dtype="<f4", count=n * d, offset=8).reshape(n, d)


def blocked_uniformity(vectors: np.ndarray, block: int = 128) -> float:
    """``log mean exp(-2 ||x - y||^2)`` over distinct pairs, via ``||x - y||^2 = 2 - 2 x.y``."""
    v = _unit_rows(vectors)
    n = v.shape[0]
    total = 0.0
    for start in range(0, n, block):
        rows = v[start : start + block]
        sq = np.maximum(2.0 - 2.0 * (rows @ v.T), 0.0)
        upper = np.arange(n)[None, :] > np.arange(start, start + rows.shape[0])[:, None]
        total += float(np.exp(-2.0 * sq[upper]).sum())
    return math.log(total / (n * (n - 1) / 2))


def analysis_uniformity(analysis_path: Path, embeddings_path: Path, sentences: int) -> None:
    """The reported uniformity matches a blocked recompute over the saved embeddings."""
    vectors = _load_embedding_file(embeddings_path)
    require(vectors.shape[0] == sentences, f"{vectors.shape[0]} embeddings for {sentences} sentences")
    reported = json.loads(analysis_path.read_text(encoding="utf-8"))["uniformity"]
    recomputed = blocked_uniformity(vectors)
    require(abs(reported - recomputed) <= 1e-9, f"uniformity {reported} but recompute gives {recomputed}")
