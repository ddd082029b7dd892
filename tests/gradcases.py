"""One finite-difference check case per differentiable operation.

Each builder takes an rng and returns ``(fn, params)`` where ``fn`` maps
the current contents of ``params`` to a scalar loss Tensor.  Non-scalar
operation outputs are contracted with a fixed random weight array so
every output entry influences the loss with a distinct coefficient.
"""

from __future__ import annotations

import numpy as np

from consem import tensor as T
from consem.tensor import Tensor


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


def _away_from_zero(rng, *shape) -> Tensor:
    # Rows keep norm >= 0.3 so normalization stays well-conditioned under FD steps.
    magnitude = rng.uniform(0.3, 1.0, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return Tensor(magnitude * sign, requires_grad=True)


def _contract(out: Tensor, weights: np.ndarray) -> Tensor:
    return T.reduce_sum(T.mul(out, Tensor(weights)))


def _weights(rng, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def case_add(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4)
    w = _weights(rng, (3, 4))
    return lambda: _contract(T.add(a, b), w), [a, b]


def case_sub(rng):
    a, b = _t(rng, 2, 3, 4), _t(rng, 1, 4)
    w = _weights(rng, (2, 3, 4))
    return lambda: _contract(T.sub(a, b), w), [a, b]


def case_mul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 1)
    w = _weights(rng, (3, 4))
    return lambda: _contract(T.mul(a, b), w), [a, b]


def case_scale(rng):
    a = _t(rng, 3, 4)
    w = _weights(rng, (3, 4))
    return lambda: _contract(T.scale(a, 0.37), w), [a]


def case_matmul(rng):
    a, b = _t(rng, 4, 3), _t(rng, 3, 5)
    w = _weights(rng, (4, 5))
    return lambda: _contract(T.matmul(a, b), w), [a, b]


def case_matmul_batched(rng):
    a, b = _t(rng, 2, 3, 4), _t(rng, 4, 5)
    w = _weights(rng, (2, 3, 5))
    return lambda: _contract(T.matmul(a, b), w), [a, b]


def case_matmul_stacked(rng):
    a, b = _t(rng, 2, 4, 3), _t(rng, 2, 3, 5)
    w = _weights(rng, (2, 4, 5))
    return lambda: _contract(T.matmul(a, b), w), [a, b]


def case_linear(rng):
    x, w, b = _t(rng, 2, 3, 4), _t(rng, 4, 5), _t(rng, 5)
    weights = _weights(rng, (2, 3, 5))
    return lambda: _contract(T.linear(x, w, b), weights), [x, w, b]


def case_linear_2d(rng):
    # The fine-tuning head's shape: (batch, d) states onto class logits.
    x, w, b = _t(rng, 4, 3), _t(rng, 3, 2), _t(rng, 2)
    weights = _weights(rng, (4, 2))
    return lambda: _contract(T.linear(x, w, b), weights), [x, w, b]


def case_attention(rng):
    # Batch 2, 2 heads of width 2; the second row's last key column is padding.
    q, k, v = _t(rng, 2, 3, 4), _t(rng, 2, 3, 4), _t(rng, 2, 3, 4)
    mask_bias = np.zeros((2, 1, 1, 3))
    mask_bias[1, ..., 2] = -1e9
    weights = _weights(rng, (2, 3, 4))
    return lambda: _contract(T.attention(q, k, v, 2, mask_bias)[0], weights), [q, k, v]


def case_attention_fewer_queries(rng):
    # One query row against four keys, as a [CLS]-only block runs it: batch 2,
    # 2 heads of width 2; the first row's last two key columns are padding.
    q, k, v = _t(rng, 2, 1, 4), _t(rng, 2, 4, 4), _t(rng, 2, 4, 4)
    mask_bias = np.zeros((2, 1, 1, 4))
    mask_bias[0, ..., 2:] = -1e9
    weights = _weights(rng, (2, 1, 4))
    return lambda: _contract(T.attention(q, k, v, 2, mask_bias)[0], weights), [q, k, v]


def case_attention_gathered_keys(rng):
    # Slot queries against their own rows' gathered keys, values and mask
    # bias, as a cut last block runs them: rows repeat, skip and come out of
    # order.  Rows of 8 x 16 values take gather_rows' row-by-row backward.
    q, k, v = _t(rng, 5, 1, 16), _t(rng, 3, 8, 16), _t(rng, 3, 8, 16)
    rows = np.array([2, 0, 2, 2, 1])
    mask_bias = np.zeros((3, 1, 1, 8))
    mask_bias[0, ..., 5:] = -1e9
    weights = _weights(rng, (5, 1, 16))

    def fn():
        keys, values = T.gather_rows(k, rows), T.gather_rows(v, rows)
        return _contract(T.attention(q, keys, values, 4, mask_bias[rows])[0], weights)

    return fn, [q, k, v]


def case_transpose_reshape(rng):
    a = _t(rng, 2, 3, 4)
    w = _weights(rng, (3, 8))
    return lambda: _contract(T.reshape(T.transpose(a, (1, 0, 2)), (3, 8)), w), [a]


def case_concat(rng):
    parts = [_t(rng, 2, 3), _t(rng, 1, 3), _t(rng, 4, 3)]
    w = _weights(rng, (7, 3))
    return lambda: _contract(T.concat(parts, axis=0), w), parts


def case_gather_rows(rng):
    table = _t(rng, 5, 3)
    ids = np.array([0, 2, 2, 4, 0])
    w = _weights(rng, (5, 3))
    return lambda: _contract(T.gather_rows(table, ids), w), [table]


def case_reduce_sum(rng):
    a = _t(rng, 3, 4, 2)
    w = _weights(rng, (3, 2))
    return lambda: _contract(T.reduce_sum(a, axis=1), w), [a]


def case_mean(rng):
    a = _t(rng, 3, 4)
    w = _weights(rng, (4,))
    return lambda: _contract(T.mean(a, axis=0), w), [a]


def case_softmax(rng):
    a = _t(rng, 3, 5)
    w = _weights(rng, (3, 5))
    return lambda: _contract(T.softmax(a, axis=-1), w), [a]


def case_logsumexp(rng):
    a = _t(rng, 3, 5)
    w = _weights(rng, (3,))
    return lambda: _contract(T.logsumexp(a, axis=-1), w), [a]


def case_layer_norm(rng):
    x, gain, bias = _t(rng, 3, 4), _t(rng, 4), _t(rng, 4)
    w = _weights(rng, (3, 4))
    return lambda: _contract(T.layer_norm(x, gain, bias), w), [x, gain, bias]


def case_gelu(rng):
    # Magnitudes out to 4 with alternating signs: the CDF kernel's exp tail
    # and its sign fold both sit under the finite differences.
    magnitude = rng.uniform(0.0, 4.0, size=(3, 4))
    a = Tensor(magnitude * np.resize([1.0, -1.0], (3, 4)), requires_grad=True)
    w = _weights(rng, (3, 4))
    return lambda: _contract(T.gelu(a), w), [a]


def case_normalize_rows(rng):
    a = _away_from_zero(rng, 3, 4)
    w = _weights(rng, (3, 4))
    return lambda: _contract(T.normalize_rows(a), w), [a]


def case_cosine_similarity(rng):
    a, b = _away_from_zero(rng, 5), _away_from_zero(rng, 5)
    return lambda: T.cosine_similarity(a, b), [a, b]


def case_cross_entropy(rng):
    logits = _t(rng, 4, 6)
    targets = rng.integers(0, 6, size=4)
    return lambda: T.cross_entropy(logits, targets), [logits]


def case_dropout(rng):
    a = _t(rng, 3, 4)
    w = _weights(rng, (3, 4))
    mask_seed = int(rng.integers(0, 2**31))
    return (
        lambda: _contract(T.dropout(a, 0.3, np.random.default_rng(mask_seed)), w),
        [a],
    )


def micro_encoder_case(rng):
    """Full forward through a 2-layer, d=16, 2-head encoder with padding.

    Weights are redrawn at a larger scale than the training init so the
    attention softmax and GELU operate away from their linear regimes.
    The loss mixes raw last-layer states with a masked-mean pooling so
    gradients flow through both paths.
    """
    from consem.encoder import (
        EncoderConfig,
        EncoderWeights,
        PoolingStrategy,
        forward_batch,
        pool,
    )
    from consem.text import TokenSequence

    config = EncoderConfig(
        vocab_size=9, num_layers=2, num_heads=2,
        hidden_size=16, ff_size=24, max_len=6, dropout=0.0,
    )
    weights = EncoderWeights.initialize(config, seed=0)
    for name, p in weights.items():
        if name.endswith(".gain"):
            p.data = rng.uniform(0.8, 1.2, p.data.shape)
        elif p.data.ndim == 1:
            p.data = rng.uniform(-0.1, 0.1, p.data.shape)
        else:
            p.data = rng.uniform(-0.4, 0.4, p.data.shape)
    # A ragged batch: forward_batch pads both to 5 ids, leaving max_len 6 unused.
    seqs = [TokenSequence(ids=[1, 5, 6, 2]), TokenSequence(ids=[1, 7, 8, 5, 2])]
    w_states = rng.uniform(-1.0, 1.0, (2, 6, 16))[:, :5]
    w_pooled = rng.uniform(-1.0, 1.0, (2, 16))

    def fn():
        out = forward_batch(seqs, weights)
        pooled = pool(out, PoolingStrategy.MEAN)
        return T.add(
            _contract(out.hidden[-1], w_states), _contract(pooled, w_pooled)
        )

    named = list(weights.items())
    return fn, [p for _, p in named], [name for name, _ in named]


GRAD_CASES = {
    "add": case_add,
    "sub": case_sub,
    "mul": case_mul,
    "scale": case_scale,
    "matmul": case_matmul,
    "matmul_batched": case_matmul_batched,
    "matmul_stacked": case_matmul_stacked,
    "linear": case_linear,
    "linear_2d": case_linear_2d,
    "attention": case_attention,
    "attention_fewer_queries": case_attention_fewer_queries,
    "attention_gathered_keys": case_attention_gathered_keys,
    "transpose_reshape": case_transpose_reshape,
    "concat": case_concat,
    "gather_rows": case_gather_rows,
    "reduce_sum": case_reduce_sum,
    "mean": case_mean,
    "softmax": case_softmax,
    "logsumexp": case_logsumexp,
    "layer_norm": case_layer_norm,
    "gelu": case_gelu,
    "normalize_rows": case_normalize_rows,
    "cosine_similarity": case_cosine_similarity,
    "cross_entropy": case_cross_entropy,
    "dropout": case_dropout,
}
