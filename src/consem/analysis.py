"""Embedding-space diagnostics and retrieval scoring.

Every statistic takes row-aligned matrices.  Alignment is the mean
squared distance between row i of one (n, d) matrix and row i of
another; lower means matched sentences sit closer.  Computed over
entailment pairs it should undercut the same quantity over contradiction
pairs for a useful space.  Uniformity is ``log mean exp(-2 ||x - y||^2)``
over all distinct unordered pairs of L2-normalized rows; more negative
means the mass spreads more evenly over the hypersphere (two orthogonal
unit vectors give exactly -4).  Retrieval quality is accuracy at top K:
the fraction of claims (rows of an (n, d) matrix) whose gold context
(row ``gold[i]`` of an (m, d) matrix) lands among the K nearest
candidates by cosine, descending, ties resolved toward the lower index.
``gold_ranks`` gives each claim's gold rank under that rule, and
``accuracy_at_topk`` reads every K from that one ranking.

All statistics are computed in float64 from the given vectors; nothing
here needs gradients.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .encoder import EncoderWeights, forward_batch
from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    FormatError,
    MetricError,
    ShapeError,
)
from .files import write_atomic
from .text import Vocabulary, encode_pair, json_field, load_jsonl, write_jsonl

__all__ = [
    "AnalysisReport",
    "EmbeddingSet",
    "accuracy_at_topk",
    "alignment",
    "export_attention",
    "gold_ranks",
    "load_embeddings",
    "rank_candidates",
    "save_embeddings",
    "uniformity",
]

TOPK_REPORT_VALUES = (1, 3, 5, 10)
SCORE_BLOCK = 1 << 18  # scores ``uniformity`` and ``gold_ranks`` hold at once (2 MB of float64)


@dataclass
class EmbeddingSet:
    """Embeddings with aligned ids and source texts."""

    vectors: np.ndarray
    texts: list[str]
    ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2:
            raise ShapeError(f"embeddings must be a 2-d array, got shape {self.vectors.shape}")
        if not self.ids:
            self.ids = list(range(self.vectors.shape[0]))
        if len(self.texts) != self.vectors.shape[0] or len(self.ids) != self.vectors.shape[0]:
            raise ContractError(
                f"{self.vectors.shape[0]} vectors but {len(self.texts)} texts and {len(self.ids)} ids"
            )
        if np.any((self.vectors * self.vectors).sum(axis=1) == 0.0):
            raise DegenerateInputError("embedding set contains a zero vector")


def _normalized(vectors: np.ndarray) -> np.ndarray:
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("cannot normalize a zero vector")
    return v / norms


def rank_candidates(claim: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Candidate indices by descending cosine similarity, ties toward lower index."""
    c = _normalized(np.asarray(claim)[None, :])[0]
    m = _normalized(candidates)
    sims = m @ c
    return np.argsort(-sims, kind="stable")


def gold_ranks(claims: np.ndarray, candidates: np.ndarray, gold) -> np.ndarray:
    """0-based rank of each claim's gold candidate by descending cosine, ties toward lower index.

    The rank counts the candidates ahead of gold: strictly more similar, or
    equally similar at a lower index, the order ``rank_candidates`` gives.
    Claims are scored a row block at a time with one matmul per block, so
    at most ``SCORE_BLOCK`` scores are held at once.
    """
    c = np.asarray(claims)
    m = np.asarray(candidates)
    gold = np.asarray(gold)
    if c.ndim != 2 or m.ndim != 2 or m.shape[0] < 1 or c.shape[1] != m.shape[1]:
        raise ShapeError(f"claims {c.shape} and candidates {m.shape} must be (n, d) and (m, d), m >= 1")
    if gold.shape != (c.shape[0],):
        raise ShapeError(f"{gold.shape} gold indices for {c.shape[0]} claims")
    if not np.issubdtype(gold.dtype, np.integer) or np.any((gold < 0) | (gold >= m.shape[0])):
        raise ContractError(f"gold indices must be integers in [0, {m.shape[0]})")
    c = _normalized(c)
    m = _normalized(m)
    columns = np.arange(m.shape[0])
    ranks = np.empty(c.shape[0], dtype=np.intp)
    step = max(1, SCORE_BLOCK // m.shape[0])
    for start in range(0, c.shape[0], step):
        scores = c[start : start + step] @ m.T
        g = gold[start : start + step, None]
        # The gold score comes from the same matmul as the scores it is compared with.
        s_gold = np.take_along_axis(scores, g, axis=1)
        ahead = (scores > s_gold) | ((scores == s_gold) & (columns < g))
        ranks[start : start + step] = ahead.sum(axis=1)
    return ranks


def accuracy_at_topk(claims, candidates, gold, ks=TOPK_REPORT_VALUES) -> dict[int, float]:
    """Fraction of claims whose gold candidate ranks in the top K, for each K in ``ks``.

    Every K reads from one ``gold_ranks`` call.  K larger than the pool is
    clamped to the pool size, so the value is non-decreasing in K and
    reaches 1 at the pool size for any gold.
    """
    for k in ks:
        if k < 1:
            raise ConfigError(f"K must be >= 1, got {k}")
    if not len(claims):
        raise MetricError("accuracy at top K over zero claims is undefined")
    ranks = gold_ranks(claims, candidates, gold)
    pool = np.asarray(candidates).shape[0]
    return {k: float(np.mean(ranks < min(k, pool))) for k in ks}


def alignment(a, b) -> float:
    """Mean squared Euclidean distance between row i of ``a`` and row i of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"paired embeddings must be two (n, d) arrays, got {a.shape} and {b.shape}")
    if not a.shape[0]:
        raise MetricError("alignment over zero pairs is undefined")
    total = 0.0
    for diff in a - b:
        total += float(diff @ diff)
    return total / a.shape[0]


def uniformity(vectors: np.ndarray) -> float:
    """``log mean exp(-2 d^2)`` over distinct unordered pairs of normalized rows of ``vectors``.

    Unit rows give ``d^2 = 2 - 2 x.y``: pairs are scored a row block at a time.
    """
    v = _normalized(vectors)
    n = v.shape[0]
    if n < 2:
        raise MetricError("uniformity needs at least two embeddings")
    step = max(1, SCORE_BLOCK // n)
    total = 0.0
    for start in range(0, n, step):
        # Row i of the block against rows start.. of v; keep columns past i.
        sq = np.maximum(2.0 - 2.0 * (v[start : start + step] @ v[start:].T), 0.0)
        total += float(np.triu(np.exp(-2.0 * sq), k=1).sum())
    return float(np.log(total / (n * (n - 1) / 2)))


@dataclass
class AnalysisReport:
    """Geometry diagnostics: alignment over entailment and contradiction pairs, and uniformity."""

    alignment_entailment: float
    alignment_contradiction: float
    uniformity: float

    def to_dict(self) -> dict:
        return asdict(self)


def export_attention(weights: EncoderWeights, vocab: Vocabulary, text_a: str, text_b: str) -> dict:
    """Last-layer attention over ``[CLS] a [SEP] b [SEP]`` with aligned token strings.

    ``vocab`` must be the vocabulary the weights were built with, as
    ``Checkpoint.encoder_weights`` checks.  Returns per-head matrices and
    the head-averaged matrix over the encoded tokens; each row of each
    matrix sums to one.
    """
    seq = encode_pair(text_a, text_b, vocab, weights.config.max_len)
    probs = forward_batch([seq], weights).last_attention[0].astype(np.float64)
    tokens = [vocab.token_for(i) for i in seq.ids]
    return {
        "tokens": tokens,
        "heads": [head.tolist() for head in probs],
        "head_mean": probs.mean(axis=0).tolist(),
    }


def save_embeddings(path: str | Path, embeddings: EmbeddingSet) -> None:
    """Write ``(n, d)`` as two little-endian u32 then row-major float32 values.

    A JSON-lines sidecar at ``<path>.jsonl`` carries one ``{"id", "text"}``
    object per row in the same order.
    """
    vectors = np.ascontiguousarray(embeddings.vectors, dtype="<f4")
    write_atomic(path, struct.pack("<II", *vectors.shape) + vectors.tobytes())
    write_jsonl(f"{path}.jsonl", ({"id": i, "text": t} for i, t in zip(embeddings.ids, embeddings.texts)))


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read an embedding file and its sidecar back into an :class:`EmbeddingSet`."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 8:
        raise FormatError(f"{path}: too short for an embedding file header")
    n, d = struct.unpack("<II", blob[:8])
    expected = 8 + 4 * n * d
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for ({n}, {d}), found {len(blob)}")
    vectors = np.frombuffer(blob, dtype="<f4", count=n * d, offset=8).reshape(n, d).astype(np.float32)
    sidecar_path = Path(str(path) + ".jsonl")
    if not sidecar_path.exists():
        raise FormatError(f"{sidecar_path}: sidecar metadata is missing")
    ids: list[int] = []
    texts: list[str] = []
    for where, rec in load_jsonl(sidecar_path):
        ids.append(json_field(rec, "id", where, (int,)))
        texts.append(json_field(rec, "text", where))
    if len(ids) != n:
        raise FormatError(f"{sidecar_path}: {len(ids)} sidecar rows for {n} vectors")
    return EmbeddingSet(vectors=vectors, texts=texts, ids=ids)
