"""Independent scalar re-implementations used as test oracles.

Everything here is written in plain python loops (plus math) on purpose:
these functions must not share code paths, vectorization tricks, or
reduction orders with the package under test.  The exceptions are
``composed_forward_batch``, ``composed_contrastive_loss``, ``erf_gelu``,
the unfused kernels, the input-order batchers and the full-last-block
paths at the end, references built from the package's own tensor ops,
numpy or scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from consem import finetune
from consem import tensor as T
from consem.encoder import ATTENTION_MASK_BIAS, EVAL_BATCH, LayerOutputs, PoolingStrategy, forward_batch, pool
from consem.errors import TrainingDivergedError
from consem.text import PAD_ID, encode_single


def _unit(row) -> list[float]:
    norm = math.sqrt(sum(float(x) * float(x) for x in row))
    return [float(x) / norm for x in row]


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _logsumexp(values) -> float:
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def contrastive_loss_reference(anchors, positives, negatives, tau: float) -> float:
    """Batch loss where every positive and hard negative repels every anchor."""
    a = [_unit(row) for row in anchors]
    p = [_unit(row) for row in positives]
    g = [_unit(row) for row in negatives]
    n = len(a)
    total = 0.0
    for i in range(n):
        terms = []
        for j in range(n):
            terms.append(_dot(a[i], p[j]) / tau)
            terms.append(_dot(a[i], g[j]) / tau)
        total += _logsumexp(terms) - _dot(a[i], p[i]) / tau
    return total / n


def masking_reference(ids, draws, rate: float, unmaskable, mask_id: int):
    """Corrupted ids and (position, original id) targets: mask where draw < rate."""
    corrupted = list(ids)
    targets = []
    for position, token_id in enumerate(ids):
        if token_id not in unmaskable and draws[position] < rate:
            corrupted[position] = mask_id
            targets.append((position, token_id))
    return corrupted, targets


def triple_counts_reference(examples) -> dict:
    """Per-premise-group min(entailment, contradiction) counts, keyed by group order."""
    groups: dict = {}
    order = []
    for ex in examples:
        key = (ex.source, " ".join(ex.premise.split()))
        if key not in groups:
            groups[key] = {"entailment": 0, "contradiction": 0}
            order.append(key)
        if ex.label in ("entailment", "contradiction"):
            groups[key][ex.label] += 1
    return {key: min(groups[key]["entailment"], groups[key]["contradiction"]) for key in order}


def accuracy_reference(gold, predicted) -> float:
    hits = sum(1 for g, p in zip(gold, predicted) if g == p)
    return hits / len(gold)


def per_class_f1_reference(gold, predicted, num_classes: int) -> list[float]:
    scores = []
    for c in range(num_classes):
        tp = sum(1 for g, p in zip(gold, predicted) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, predicted) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, predicted) if g == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(f1)
    return scores


def macro_f1_reference(gold, predicted, num_classes: int) -> float:
    scores = per_class_f1_reference(gold, predicted, num_classes)
    return sum(scores) / num_classes


def topk_reference(claims, candidate_sets, gold_indices, k: int) -> float:
    """Full-sort cosine retrieval; ties keep the earlier candidate first."""
    hits = 0
    for claim, candidates, gold in zip(claims, candidate_sets, gold_indices):
        cu = _unit(claim)
        sims = [_dot(cu, _unit(row)) for row in candidates]
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
        kk = min(k, len(sims))
        if gold in order[:kk]:
            hits += 1
    return hits / len(gold_indices)


def alignment_reference(pairs) -> float:
    total = 0.0
    for a, b in pairs:
        total += sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
    return total / len(pairs)


def uniformity_reference(rows) -> float:
    units = [_unit(row) for row in rows]
    values = []
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            d2 = sum((x - y) ** 2 for x, y in zip(units[i], units[j]))
            values.append(math.exp(-2.0 * d2))
    return math.log(sum(values) / len(values))


# The encoder forward below is the one exception to the loops rule: it builds
# each layer from elementary tape ops, one node per matmul, bias add, head
# split, scale, mask add, softmax and merge, where the package uses its fused
# ``linear`` and ``attention`` ops.  Tests compare the package's encoder with
# it bit for bit in evaluation and within a float32 rounding bound for
# gradients.


def composed_forward_batch(seqs, weights, rng=None, reads=None):
    """``forward_batch`` from elementary tape ops; dropout is not supported.

    Given ``reads`` it computes every position and then keeps the last
    layer's slots, in the shapes the package returns (:func:`cut_to_reads`).
    """
    config = weights.config
    assert rng is None or config.dropout == 0.0, "the reference has no dropout"
    lengths = np.array([s.length for s in seqs], dtype=np.intp)
    seq_len = int(lengths.max())
    mask = (np.arange(seq_len) < lengths[:, None]).astype(np.intp)
    ids = np.full(mask.shape, PAD_ID, dtype=np.intp)
    ids[mask == 1] = np.concatenate([s.ids for s in seqs])
    x = T.add(
        T.gather_rows(weights["tok_emb"], ids),
        T.gather_rows(weights["pos_emb"], np.arange(seq_len, dtype=np.intp)),
    )
    bias = T.constant((1.0 - mask)[:, None, None, :] * ATTENTION_MASK_BIAS, dtype=x.data.dtype)
    batch, heads, head_dim, d = len(seqs), config.num_heads, config.head_dim, config.hidden_size
    affine = lambda t, w, b: T.add(T.matmul(t, weights[w]), weights[b])
    split = lambda t: T.transpose(T.reshape(t, (batch, seq_len, heads, head_dim)), (0, 2, 1, 3))
    hidden = [x]
    for i in range(config.num_layers):
        p = f"layer{i}"
        qh = split(affine(x, f"{p}.attn.wq", f"{p}.attn.bq"))
        kh = split(affine(x, f"{p}.attn.wk", f"{p}.attn.bk"))
        vh = split(affine(x, f"{p}.attn.wv", f"{p}.attn.bv"))
        scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
        probs = T.softmax(T.add(scores, bias), axis=-1)
        context = T.reshape(T.transpose(T.matmul(probs, vh), (0, 2, 1, 3)), (batch, seq_len, d))
        attn_out = affine(context, f"{p}.attn.wo", f"{p}.attn.bo")
        x = T.layer_norm(T.add(x, attn_out), weights[f"{p}.ln1.gain"], weights[f"{p}.ln1.bias"])
        h = T.gelu(affine(x, f"{p}.ff.w1", f"{p}.ff.b1"))
        ff_out = affine(h, f"{p}.ff.w2", f"{p}.ff.b2")
        x = T.layer_norm(T.add(x, ff_out), weights[f"{p}.ln2.gain"], weights[f"{p}.ln2.bias"])
        hidden.append(x)
    return cut_to_reads(LayerOutputs(hidden=hidden, last_attention=probs.data, mask=mask), reads)


def cut_to_reads(outputs, reads):
    """Full-pass outputs with the last layer kept at the ``reads`` slots alone, as a cut forward returns it."""
    if reads is None:
        return outputs
    rows, positions = (np.asarray(a, dtype=np.intp) for a in reads)
    last = outputs.hidden[-1]
    batch, seq, d = last.shape
    hidden = outputs.hidden[:-1] + [T.gather_rows(T.reshape(last, (batch * seq, d)), rows * seq + positions)]
    maps = outputs.last_attention[rows, :, positions][:, :, None]
    return LayerOutputs(hidden=hidden, last_attention=maps, mask=outputs.mask)


# ``contrastive_loss`` as it was composed before it became one ``cross_entropy``
# over the score matrix: normalised blocks scored separately against the
# positives and the negatives, the positive logits from a row-wise dot
# product, then logsumexp minus those logits.  Tests bound the drift between
# the two paths.


def composed_contrastive_loss(anchors, positives, negatives, tau: float):
    """The mean in-batch loss from 16 elementary tape ops."""
    inv_tau = 1.0 / tau
    na = T.normalize_rows(anchors)
    npos = T.normalize_rows(positives)
    nneg = T.normalize_rows(negatives)
    own = T.scale(T.reduce_sum(T.mul(na, npos), axis=1), inv_tau)
    sim_pos = T.scale(T.matmul(na, T.transpose(npos, (1, 0))), inv_tau)
    sim_neg = T.scale(T.matmul(na, T.transpose(nneg, (1, 0))), inv_tau)
    scores = T.concat([sim_pos, sim_neg], axis=1)
    return T.mean(T.sub(T.logsumexp(scores, axis=1), own))


# ``tensor.gelu``'s forward as it was before the package's own normal-CDF
# kernel: the CDF from scipy's ``erf``, within 6.1e-8 of the exact CDF in
# float32.  Tests bound the drift between the two paths.


def erf_normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) in ``x``'s dtype from ``scipy.special.erf``."""
    return 0.5 * (1.0 + erf(x / x.dtype.type(math.sqrt(2.0))))


def erf_gelu(x: T.Tensor) -> T.Tensor:
    """``x * Phi(x)`` through :func:`erf_normal_cdf`; evaluation only, it records no gradient."""
    return T.constant(x.data * erf_normal_cdf(x.data), dtype=x.data.dtype)


# The training step's elementwise kernels as they were before they were
# blocked, fused into owned buffers or packed into one flat buffer: dropout
# from a full-grid draw, layer norm and the GELU backward from whole-array
# expressions, AdamW one parameter at a time.  The package's kernels must
# give the same bits, so tests patch these in and compare artifact bytes.


def full_grid_dropout(x: T.Tensor, rate: float, rng, grid=None, slots=None, offset=0) -> T.Tensor:
    """``tensor.dropout`` drawing noise over the whole grid, then, from grid row ``offset`` on,
    cutting it or reading it at ``slots``."""
    if rate == 0.0:
        return x
    noise = rng.random(grid or x.data.shape)[offset:]
    noise = noise[tuple(map(slice, x.data.shape))] if slots is None else noise[slots[0], slots[1]]
    keep = (noise >= rate).astype(x.data.dtype)
    keep /= x.data.dtype.type(1.0 - rate)
    out = T.Tensor._result(x.data * keep, x.requires_grad)
    T._record(out, (x,), lambda g: (g * keep,))
    return out


def unfused_layer_norm(x: T.Tensor, gain: T.Tensor, bias: T.Tensor) -> T.Tensor:
    """``tensor.layer_norm`` with a fresh array for every intermediate."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(T.LAYER_NORM_EPS))
    xhat = centered * inv
    out = T.Tensor._result(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad or bias.requires_grad)
    lead = tuple(range(x.data.ndim - 1))

    def backward_fn(g):
        ggain = (g * xhat).sum(axis=lead) if lead else (g * xhat)
        gbias = g.sum(axis=lead) if lead else g.copy()
        gh = g * gain.data
        gx = inv * (
            gh
            - gh.mean(axis=-1, keepdims=True)
            - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, ggain, gbias

    T._record(out, (x, gain, bias), backward_fn)
    return out


def unfused_gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The GELU input gradient as one whole-array expression."""
    pdf = np.exp(-0.5 * x * x) * x.dtype.type(T._INV_SQRT_2PI)
    return g * (cdf + x * pdf)


def unfused_gelu(x: T.Tensor) -> T.Tensor:
    """``tensor.gelu`` whose backward is :func:`unfused_gelu_grad`."""
    cdf = T._normal_cdf(x.data)
    out = T.Tensor._result(x.data * cdf, x.requires_grad)
    T._record(out, (x,), lambda g: (unfused_gelu_grad(x.data, cdf, g),))
    return out


class PerTensorAdamW:
    """``optim.AdamW`` with a moment pair per parameter and an update per parameter."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, learning_rate, weight_decay=0.01):
        self.params = dict(params)
        self.learning_rate, self.weight_decay = learning_rate, weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient for parameter '{name}' at step {t}")
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            update = mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (self.learning_rate * update).astype(p.data.dtype, copy=False)


# ``embed_sentences`` and fine-tuned prediction as they batched before eval
# batches were length-sorted: consecutive slices in input order, each padded
# to its own longest sequence.  Tests bound the drift of the sorted path
# against them and require bit-equality when everything fits in one batch.


def input_order_embed_sentences(texts, weights, config, vocab, strategy, batch_size: int = 32) -> np.ndarray:
    vectors = np.zeros((len(texts), config.hidden_size), dtype=np.float32)
    for start in range(0, len(texts), batch_size):
        chunk = texts[start : start + batch_size]
        seqs = [encode_single(text, vocab, config.max_len) for text in chunk]
        outputs = forward_batch(seqs, weights)
        vectors[start : start + len(chunk)] = pool(outputs, strategy).data.astype(np.float32)
    return vectors


def input_order_predict_probs(model, seqs, batch_size: int = EVAL_BATCH) -> np.ndarray:
    probs = [
        T.softmax(finetune._logits(model, seqs[start : start + batch_size]), axis=1).data
        for start in range(0, len(seqs), batch_size)
    ]
    return np.concatenate(probs, axis=0)


# The paths that computed the last block at every position: the encoder
# forward that computes it in full whatever ``reads`` names, the fine-tuning
# logits over it, and MRC evaluation as one ``mrc_scores`` call per
# question.  Tests bound the drift of the cut last block (fine-tuning, CLS
# embeddings, CLS pretraining with and without MLM) and of batched MRC
# scoring against them.


def full_forward_batch(seqs, weights, rng=None, reads=None):
    """``forward_batch`` computing every position of the last block, then keeping the ``reads`` slots."""
    return cut_to_reads(forward_batch(seqs, weights, rng), reads)


def full_logits(model, seqs, rng=None, place=None) -> T.Tensor:
    """``finetune._logits`` over the full last block."""
    outputs = forward_batch(seqs, model.weights, rng, place=place)
    return T.linear(pool(outputs, PoolingStrategy.CLS), model.head_weight, model.head_bias)


def per_question_mrc(model, vocab, records) -> list[np.ndarray]:
    """Each record's choice scores from its own ``mrc_scores`` call, one forward per question."""
    return [finetune.mrc_scores(model, vocab, [r])[0] for r in records]
