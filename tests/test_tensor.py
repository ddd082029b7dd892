"""Autodiff core: anchor values, gradient checks, and tape behavior."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from gradcases import GRAD_CASES
from oracles import erf_gelu, erf_normal_cdf, full_grid_dropout, unfused_gelu_grad, unfused_layer_norm

from consem import tensor as T
from consem.encoder import EncoderConfig, EncoderWeights, PoolingStrategy, embed_sentences, forward_batch, pool
from consem.errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from consem.tensor import Tape, Tensor, backward, precision
from consem.text import TokenSequence, build_vocab


class TestAnchors:
    def test_softmax_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)

    @pytest.mark.parametrize("c", [0.0, -3.5, 100.0])
    def test_softmax_ln2_gap(self, c, f64):
        out = T.softmax(Tensor([c, c + math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_matmul_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_matmul_column_pick(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_layer_norm_constant_row_maps_to_bias(self):
        gain, bias = Tensor(np.ones(4)), Tensor([0.5, -0.5, 0.0, 2.0])
        out = T.layer_norm(Tensor(np.full((2, 4), 7.0)), gain, bias)
        np.testing.assert_allclose(out.data, np.tile(bias.data, (2, 1)), atol=1e-6)

    def test_layer_norm_plus_minus_one(self, f64):
        out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-4)

    def test_cosine_self_is_one(self):
        v = Tensor([0.3, -1.2, 0.7])
        assert T.cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-6)

    def test_cosine_orthogonal_is_zero(self):
        assert T.cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_cosine_45_degrees(self):
        sim = T.cosine_similarity(Tensor([1.0, 1.0]), Tensor([1.0, 0.0]))
        assert sim.item() == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_cross_entropy_uniform_logits_is_log_v(self, f64):
        for v in (2, 5, 17):
            loss = T.cross_entropy(Tensor(np.zeros((3, v))), np.array([0, 1, v - 1]))
            assert loss.item() == pytest.approx(math.log(v), abs=1e-12)

    def test_grad_of_sum_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            backward(T.reduce_sum(x), tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_grad_of_sum_of_squares_is_2x(self, f64):
        x = Tensor([[0.5, -1.0], [2.0, 0.0]], requires_grad=True)
        with Tape() as tape:
            backward(T.reduce_sum(T.mul(x, x)), tape)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)


class TestGradientChecks:
    @pytest.mark.parametrize("name", sorted(GRAD_CASES))
    def test_matches_finite_difference(self, name, f64):
        worst = 0.0
        for seed in range(5):
            fn, params = GRAD_CASES[name](np.random.default_rng([17, seed]))
            worst = max(worst, check_gradients(fn, params))
        assert worst < 1e-3, f"{name}: relative error {worst:.3e}"

    def test_shared_subexpression_accumulates(self, f64):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
            backward(T.reduce_sum(y), tape)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_gather_rows_repeated_ids_accumulate(self, f64):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        with Tape() as tape:
            out = T.gather_rows(table, np.array([0, 0, 1]))
            backward(T.reduce_sum(out), tape)
        np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


class TestGradientOwnership:
    """``backward`` hands a first gradient over without a copy only when nothing else holds it."""

    @staticmethod
    def _leaf(*values):
        return Tensor(np.array(values, dtype=np.float64), requires_grad=True)

    def test_add_of_a_tensor_to_itself(self, f64):
        a = self._leaf(1.0, -2.0)
        c = np.array([3.0, 5.0])
        with Tape() as tape:
            y = T.add(a, a)
            backward(T.reduce_sum(T.mul(y, T.constant(c))), tape)
        np.testing.assert_array_equal(a.grad, 2.0 * c)
        np.testing.assert_array_equal(y.grad, c)

    def test_add_then_more_uses_of_an_input(self, f64):
        # add hands one array to both inputs; x collects another term later.
        x, y = self._leaf(1.0, 2.0), self._leaf(-1.0, 4.0)
        c1, c2 = np.array([2.0, -3.0]), np.array([0.5, 7.0])
        with Tape() as tape:
            u = T.mul(x, T.constant(c1))
            s = T.add(x, y)
            t = T.add(s, u)
            backward(T.reduce_sum(T.mul(t, T.constant(c2))), tape)
        np.testing.assert_array_equal(x.grad, c2 * (1.0 + c1))
        np.testing.assert_array_equal(y.grad, c2)
        for intermediate in (s, t, u):
            np.testing.assert_array_equal(intermediate.grad, c2)

    def test_reshape_chain(self, f64):
        # reshape returns views of its output gradient.
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        c = np.arange(1.0, 7.0)
        d = np.full((2, 3), 10.0)
        with Tape() as tape:
            u = T.mul(x, T.constant(d))
            r1 = T.reshape(x, (3, 2))
            r2 = T.reshape(r1, (6,))
            loss = T.add(T.reduce_sum(T.mul(r2, T.constant(c))), T.reduce_sum(u))
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, c.reshape(2, 3) + d)
        np.testing.assert_array_equal(r1.grad, c.reshape(3, 2))
        np.testing.assert_array_equal(r2.grad, c)

    def test_encoder_parameter_gradients_share_no_memory(self):
        config = EncoderConfig(
            vocab_size=12, num_layers=2, num_heads=2, hidden_size=8, ff_size=12, max_len=6,
        )
        weights = EncoderWeights.initialize(config, seed=1)
        seqs = [TokenSequence(ids=[1, 5, 6, 2]), TokenSequence(ids=[1, 7, 8, 9, 4, 2])]
        with Tape() as tape:
            out = forward_batch(seqs, weights, np.random.default_rng(0))
            backward(T.reduce_sum(pool(out, PoolingStrategy.MEAN)), tape)
        grads = [(name, p.grad) for name, p in weights.items() if p.grad is not None]
        assert len(grads) == len(list(weights.items()))
        for i, (name, g) in enumerate(grads):
            assert g.dtype == weights[name].dtype
            for other, h in grads[i + 1 :]:
                assert not np.shares_memory(g, h), (name, other)


class TestProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = T.softmax(Tensor(rng.uniform(-30, 30, size=(4, 7))))
            np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_layer_norm_row_mean_near_zero(self):
        rng = np.random.default_rng(1)
        gain, bias = Tensor(np.ones(8)), Tensor(np.zeros(8))
        for _ in range(20):
            out = T.layer_norm(Tensor(rng.uniform(-1, 1, size=(5, 8))), gain, bias)
            assert np.abs(out.data.mean(axis=-1)).max() < 1e-5

    @given(
        alpha=st.floats(min_value=1e-3, max_value=1e3),
        beta=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_cosine_scale_invariance(self, alpha, beta):
        with precision(np.float64):
            u = Tensor([0.4, -1.1, 0.3, 2.0])
            v = Tensor([-0.2, 0.5, 1.4, -0.7])
            base = T.cosine_similarity(u, v).item()
            scaled = T.cosine_similarity(
                Tensor(alpha * u.data), Tensor(beta * v.data)
            ).item()
        assert scaled == pytest.approx(base, abs=1e-6)

    def test_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(6, 6)).astype(np.float32)

        def run():
            out = T.softmax(T.matmul(Tensor(x), Tensor(x.T)))
            return T.gelu(out).data.tobytes()

        assert run() == run()

    def test_logsumexp_matches_log_of_sum(self, f64):
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, size=(4, 6))
        out = T.logsumexp(Tensor(a), axis=-1)
        np.testing.assert_allclose(out.data, np.log(np.exp(a).sum(axis=-1)), atol=1e-12)


class TestTapeAndErrors:
    def test_backward_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
            with pytest.raises(ContractError):
                backward(y, tape)

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            pass
        T.add(x, x)
        assert len(tape) == 0

    def test_constant_inputs_get_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = T.constant([3.0, 4.0])
        with Tape() as tape:
            backward(T.reduce_sum(T.mul(x, c)), tape)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))

    def test_matmul_rejects_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize(
        "q_shape,kv_shape",
        [
            ((2, 5, 4), (2, 3, 4)),  # more queries than keys
            ((3, 1, 4), (2, 3, 4)),  # another batch
            ((2, 1, 6), (2, 3, 4)),  # another width
            ((2, 4), (2, 3, 4)),  # queries not 3-d
        ],
    )
    def test_attention_rejects_queries_that_do_not_fit_the_keys(self, q_shape, kv_shape):
        q, kv = Tensor(np.ones(q_shape)), Tensor(np.ones(kv_shape))
        with pytest.raises(ShapeError, match="attention expects"):
            T.attention(q, kv, kv, 2, np.zeros((kv_shape[0], 1, 1, kv_shape[1])))

    def test_attention_rejects_values_unlike_the_keys(self):
        q, k = Tensor(np.ones((2, 1, 4))), Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError, match="attention expects"):
            T.attention(q, k, Tensor(np.ones((2, 2, 4))), 2, np.zeros((2, 1, 1, 3)))

    def test_fewer_queries_equal_those_rows_of_the_full_attention(self):
        rng = np.random.default_rng(6)
        q, k, v = (Tensor(rng.normal(size=(3, 5, 8))) for _ in range(3))
        bias = np.zeros((3, 1, 1, 5), dtype=np.float32)
        bias[1, ..., 3:] = -1e9
        full, full_maps = T.attention(q, k, v, 2, bias)
        first, first_maps = T.attention(Tensor(q.data[:, :1]), k, v, 2, bias)
        assert first.shape == (3, 1, 8) and first_maps.shape == (3, 2, 1, 5)
        np.testing.assert_allclose(first.data, full.data[:, :1], rtol=0, atol=1e-6)
        np.testing.assert_allclose(first_maps, full_maps[:, :, :1], rtol=0, atol=1e-6)

    def test_normalize_rejects_zero_row(self):
        with pytest.raises(DegenerateInputError):
            T.normalize_rows(Tensor([[1.0, 0.0], [0.0, 0.0]]))

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            T.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

    def test_dropout_rejects_rate_one(self):
        with pytest.raises(ConfigError):
            T.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_dropout_rate_zero_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_cross_entropy_rejects_bad_targets(self):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_precision_context_restores(self):
        assert Tensor([1.0]).dtype == np.float32
        with precision(np.float64):
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32


class TestSpentTape:
    """``backward`` drops each node once it has run, so nothing but the caller's tensors outlives it."""

    def test_second_backward_over_a_spent_tape_is_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.scale(T.scale(x, 2.0), 3.0))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [6.0])
        with pytest.raises(ContractError, match="spent tape"):
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [6.0])
        assert len(tape) == 3

    @staticmethod
    def _training_step():
        # One default-config train-mode step: 16 rows of 22-42 tokens, Mean pooling.
        # Only the loss and the tape leave this frame, so the caller holds no activation.
        config = EncoderConfig(vocab_size=200)
        weights = EncoderWeights.initialize(config, seed=3)
        rng = np.random.default_rng(0)
        seqs = [
            TokenSequence(ids=[1, *rng.integers(5, config.vocab_size, size=n - 2).tolist(), 2])
            for n in rng.integers(22, 43, size=16)
        ]
        with Tape() as tape:
            loss = T.reduce_sum(pool(forward_batch(seqs, weights, np.random.default_rng(1)), PoolingStrategy.MEAN))
        return loss, tape, weights

    def test_no_node_output_outlives_backward(self):
        loss, tape, weights = self._training_step()
        # Reductions give numpy scalars, which take no weakref.
        outputs = [weakref.ref(node[0].data) for node in tape._nodes if isinstance(node[0].data, np.ndarray)]
        assert len(outputs) == len(tape) - 1
        nodes = len(tape)
        backward(loss, tape)
        assert [ref for ref in outputs if ref() is not None] == []
        assert len(tape) == nodes
        assert all(p.grad is not None for _, p in weights.items())

    def test_backward_peak_stays_near_the_end_of_the_forward(self):
        tracemalloc.start()
        try:
            loss, tape, _ = self._training_step()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * start, (start, peak)


# 4M float32 points over [-12, 12], the sweep the kernel's accuracy is stated on.
_SWEEP = np.linspace(-12.0, 12.0, 1 << 22, dtype=np.float32)


def _exact_cdf(x: np.ndarray) -> np.ndarray:
    return erf_normal_cdf(x.astype(np.float64))


class TestGeluKernel:
    def test_cdf_within_bound_of_float64(self):
        cdf = T._normal_cdf(_SWEEP)
        assert cdf.dtype == np.float32
        assert np.abs(cdf - _exact_cdf(_SWEEP)).max() <= 3.5e-7

    def test_gelu_error_at_most_one_and_a_half_times_erf_path(self):
        exact = _SWEEP * _exact_cdf(_SWEEP)
        new = np.abs(T.gelu(Tensor(_SWEEP)).data - exact).max()
        old = np.abs(erf_gelu(Tensor(_SWEEP)).data - exact).max()
        assert new <= 1.5 * old, (new, old)

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.nan, np.inf], dtype=np.float32)
        y = T.gelu(Tensor(x)).data
        assert y[0] == 0.0 and not np.signbit(y[0])
        assert y[1] == 0.0 and np.signbit(y[1])
        assert np.isnan(y[2])
        assert y[3] == np.inf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_extremes_raise_nothing(self, dtype):
        magnitudes = np.geomspace(1e-45 if dtype == np.float32 else 1e-300, 3e38, 2000)
        x = np.concatenate([magnitudes, -magnitudes, _SWEEP]).astype(dtype)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = T.gelu(Tensor(x, dtype=dtype)).data
        assert y.dtype == dtype and np.isfinite(y).all()
        # Past the clip Phi is exactly 1 or 0: gelu is x itself, or -0.
        big = np.abs(x) > T._CDF_CLIP
        np.testing.assert_array_equal(y[big & (x > 0)], x[big & (x > 0)])
        assert (y[big & (x < 0)] == 0.0).all()

    def test_partial_block_matches_one_element_at_a_time(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 4.0, size=2 * T.GELU_BLOCK + 37).astype(np.float32)
        whole = T.gelu(Tensor(x)).data
        picks = np.concatenate([rng.choice(2 * T.GELU_BLOCK, 200, replace=False), np.arange(2 * T.GELU_BLOCK, x.size)])
        alone = np.array([T.gelu(Tensor(x[i : i + 1])).data[0] for i in picks])
        assert whole[picks].tobytes() == alone.tobytes()

    def test_small_blocks_give_the_same_bits(self, monkeypatch):
        x = np.random.default_rng(6).normal(0.0, 4.0, size=(3, 5, 43)).astype(np.float32)
        whole = T.gelu(Tensor(x)).data
        monkeypatch.setattr(T, "GELU_BLOCK", 64)
        assert T.gelu(Tensor(x)).data.tobytes() == whole.tobytes()
        alone = np.array([T.gelu(Tensor(v[None])).data[0] for v in x.reshape(-1)])
        assert alone.tobytes() == whole.reshape(-1).tobytes()

    def test_recording_tape_gives_the_same_bits(self):
        # Without a tape the kernel multiplies by x per block; with one it keeps Phi.
        x = Tensor(_SWEEP[::64].copy(), requires_grad=True)
        plain = T.gelu(x).data
        with Tape():
            recorded = T.gelu(x).data
        assert recorded.tobytes() == plain.tobytes()

    def test_backward_is_cdf_plus_x_pdf(self):
        x = Tensor(_SWEEP[::4096].copy(), requires_grad=True)
        with Tape() as tape:
            loss = T.reduce_sum(T.gelu(x))
            backward(loss, tape)
        xs = x.data.astype(np.float64)
        exact = _exact_cdf(x.data) + xs * np.exp(-0.5 * xs * xs) / np.sqrt(2.0 * np.pi)
        np.testing.assert_allclose(x.grad, exact, rtol=0, atol=1e-6)


    def test_blocked_backward_matches_the_composed_formula(self):
        g = np.random.default_rng(8).normal(size=_SWEEP.shape).astype(np.float32)
        cdf = T._normal_cdf(_SWEEP)
        assert T._gelu_grad(_SWEEP, cdf, g).tobytes() == unfused_gelu_grad(_SWEEP, cdf, g).tobytes()

    def test_blocked_backward_on_a_partial_block(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 4.0, size=(3, T.GELU_BLOCK + 101)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        cdf = T._normal_cdf(x)
        assert (x.size % T.GELU_BLOCK) != 0
        assert T._gelu_grad(x, cdf, g).tobytes() == unfused_gelu_grad(x, cdf, g).tobytes()


class TestFusedKernelBits:
    """Dropout's per-row draw and layer norm's owned buffers against the unfused forms."""

    @pytest.mark.parametrize(
        "shape,grid",
        [
            ((4, 7, 8), (4, 12, 8)),  # seq_len < max_len
            ((4, 12, 8), (4, 12, 8)),  # seq_len == max_len
            ((3, 7, 8), (6, 12, 8)),  # fewer rows than the grid
            ((5, 3), (5, 9)),
        ],
    )
    def test_dropout_per_row_draw_equals_full_grid_draw(self, shape, grid):
        x = Tensor(np.random.default_rng(1).normal(size=shape), requires_grad=True)
        rng, reference_rng = np.random.default_rng([4, 2]), np.random.default_rng([4, 2])
        with Tape() as tape:
            out = T.dropout(x, 0.1, rng, grid)
            backward(T.reduce_sum(out), tape)
        xr = Tensor(x.data, requires_grad=True)
        with Tape() as tape:
            reference = full_grid_dropout(xr, 0.1, reference_rng, grid)
            backward(T.reduce_sum(reference), tape)
        assert out.data.tobytes() == reference.data.tobytes()
        assert x.grad.tobytes() == xr.grad.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("slots", [([0, 2, 2, 1, 0], [3, 0, 5, 6, 0]), ([1], [0]), ([], [])])
    def test_dropout_slots_draw_equals_full_grid_draw(self, slots):
        rows, positions = (np.array(a, dtype=np.intp) for a in slots)
        grid = (3, 9, 8)
        x = Tensor(np.random.default_rng(1).normal(size=(len(rows), 8)), requires_grad=True)
        rng, reference_rng = np.random.default_rng([4, 3]), np.random.default_rng([4, 3])
        with Tape() as tape:
            out = T.dropout(x, 0.1, rng, grid, (rows, positions))
            backward(T.reduce_sum(out), tape)
        xr = Tensor(x.data, requires_grad=True)
        with Tape() as tape:
            reference = full_grid_dropout(xr, 0.1, reference_rng, grid, (rows, positions))
            backward(T.reduce_sum(reference), tape)
        assert out.data.tobytes() == reference.data.tobytes()
        assert x.grad.tobytes() == xr.grad.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("generator", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("offset,rows,seq", [(0, 3, 9), (3, 2, 6), (4, 1, 9), (1, 4, 2)])
    def test_dropout_shard_draws_its_rows_of_the_whole_batch_mask(self, offset, rows, seq, generator):
        # A shard pads to its own length, which may be shorter than the whole batch's 9.
        grid = (5, 12, 8)
        fresh = lambda: np.random.Generator(generator(17))
        whole_rng, shard_rng, reference_rng = fresh(), fresh(), fresh()
        whole = T.dropout(Tensor(np.ones((5, 9, 8))), 0.1, whole_rng, grid).data
        shard = T.dropout(Tensor(np.ones((rows, seq, 8))), 0.1, shard_rng, grid, offset=offset).data
        reference = full_grid_dropout(Tensor(np.ones((rows, seq, 8))), 0.1, reference_rng, grid, offset=offset).data
        assert shard.tobytes() == whole[offset : offset + rows, :seq].tobytes()
        assert shard.tobytes() == reference.tobytes()
        # Each generator is left where the full draw leaves it.
        assert shard_rng.random(3).tobytes() == whole_rng.random(3).tobytes() == reference_rng.random(3).tobytes()

    @pytest.mark.parametrize("generator", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("offset,rows", [(0, 3), (3, 2), (4, 1)])
    def test_dropout_shard_slots_read_the_whole_batch_grid(self, offset, rows, generator):
        grid = (5, 9, 8)
        positions = np.array([3, 0, 5, 8, 0], dtype=np.intp)
        fresh = lambda: np.random.Generator(generator(18))
        whole_rng, shard_rng, reference_rng = fresh(), fresh(), fresh()
        whole = T.dropout(Tensor(np.ones((5, 8))), 0.1, whole_rng, grid, (np.arange(5), positions)).data
        slots = (np.arange(rows), positions[offset : offset + rows])
        shard = T.dropout(Tensor(np.ones((rows, 8))), 0.1, shard_rng, grid, slots, offset).data
        reference = full_grid_dropout(Tensor(np.ones((rows, 8))), 0.1, reference_rng, grid, slots, offset).data
        assert shard.tobytes() == whole[offset : offset + rows].tobytes()
        assert shard.tobytes() == reference.tobytes()
        # Each generator is left where the full draw leaves it.
        assert shard_rng.random(3).tobytes() == whole_rng.random(3).tobytes() == reference_rng.random(3).tobytes()

    def test_dropout_shard_must_lie_in_the_grid(self):
        with pytest.raises(ShapeError, match="from row 3"):
            T.dropout(Tensor(np.ones((2, 5, 3))), 0.1, np.random.default_rng(0), (4, 5, 3), offset=3)
        with pytest.raises(ShapeError, match="from row -1"):
            T.dropout(Tensor(np.ones((2, 5, 3))), 0.1, np.random.default_rng(0), (4, 5, 3), offset=-1)
        slots = (np.array([0, 1], dtype=np.intp), np.array([0, 0], dtype=np.intp))
        with pytest.raises(ShapeError, match="dropout slots from row 3"):
            T.dropout(Tensor(np.ones((2, 3))), 0.1, np.random.default_rng(0), (4, 5, 3), slots, 3)

    @pytest.mark.parametrize(
        "rows,positions,width",
        [([0, 3], [0, 0], 8), ([0, 1], [0, 9], 8), ([0, -1], [0, 0], 8), ([0], [0, 1], 8), ([0, 1], [0, 0], 5)],
    )
    def test_dropout_slots_must_lie_in_the_grid(self, rows, positions, width):
        x = Tensor(np.ones((len(rows), width)))
        slots = (np.array(rows, dtype=np.intp), np.array(positions, dtype=np.intp))
        with pytest.raises(ShapeError, match="dropout slots"):
            T.dropout(x, 0.1, np.random.default_rng(0), (3, 9, 8), slots)

    def test_wide_row_scatter_equals_add_at(self):
        # gather_rows' backward adds rows of at least SCATTER_ROW_LOOP values
        # one by one; np.add.at makes the same additions in the same order.
        rng = np.random.default_rng(5)
        table = Tensor(rng.normal(size=(4, 8, 16)).astype(np.float32), requires_grad=True)
        ids = np.array([3, 0, 3, 3, 1, 0])
        g = (rng.normal(size=(6, 8, 16)) * 10.0 ** rng.integers(-6, 6, size=(6, 8, 16))).astype(np.float32)
        g[rng.random(g.shape) < 0.1] = -0.0
        assert g[0].size >= T.SCATTER_ROW_LOOP
        with Tape() as tape:
            backward(T.reduce_sum(T.mul(T.gather_rows(table, ids), T.constant(g))), tape)
        reference = np.zeros_like(table.data)
        np.add.at(reference, ids, g)
        assert table.grad.tobytes() == reference.tobytes()

    def test_dropout_grid_must_contain_the_input(self):
        with pytest.raises(ShapeError):
            T.dropout(Tensor(np.ones((2, 5, 3))), 0.1, np.random.default_rng(0), grid=(2, 4, 3))

    @pytest.mark.parametrize("shape", [(4, 9, 16), (7, 16), (16,)])
    def test_layer_norm_equals_unfused_bits(self, shape):
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape).astype(np.float32)
        gain = rng.normal(1.0, 0.2, size=shape[-1:]).astype(np.float32)
        bias = rng.normal(0.0, 0.2, size=shape[-1:]).astype(np.float32)
        w = rng.normal(size=shape).astype(np.float32)
        results = []
        for fn in (T.layer_norm, unfused_layer_norm):
            inputs = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
            with Tape() as tape:
                out = fn(*inputs)
                backward(T.reduce_sum(T.mul(out, T.constant(w))), tape)
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in inputs])
        assert results[0] == results[1]


class TestGeluDrift:
    """The normal-CDF kernel against the scipy ``erf`` path it replaced."""

    def test_elementwise(self):
        assert np.abs(T._normal_cdf(_SWEEP) - erf_normal_cdf(_SWEEP)).max() <= 4.2e-7
        new = T.gelu(Tensor(_SWEEP)).data.astype(np.float64)
        old = erf_gelu(Tensor(_SWEEP)).data
        assert (np.abs(new - old) <= 5e-7 * np.maximum(1.0, np.abs(_SWEEP))).all()

    def test_embeddings(self, monkeypatch):
        texts = [
            "the river glows at dawn", "a glacier rests in winter fog",
            "people visit the museum", "workers chart the harbor before it opens", "",
        ]
        vocab = build_vocab(texts)
        config = EncoderConfig(
            vocab_size=vocab.size, num_layers=2, num_heads=2,
            hidden_size=16, ff_size=32, max_len=12, dropout=0.0,
        )
        weights = EncoderWeights.initialize(config, seed=9)
        rng = np.random.default_rng(9)
        for name, p in weights.items():
            if p.data.ndim == 2:  # scaled so GELU sees both tails, not its linear middle
                p.data = rng.uniform(-0.6, 0.6, p.data.shape).astype(np.float32)
        new = embed_sentences(texts, weights, config, vocab, PoolingStrategy.MEAN)
        inputs = []

        def recording_erf_gelu(x):
            inputs.append(x.data)
            return erf_gelu(x)

        monkeypatch.setattr(T, "gelu", recording_erf_gelu)
        old = embed_sentences(texts, weights, config, vocab, PoolingStrategy.MEAN)
        seen = np.concatenate([a.reshape(-1) for a in inputs])
        assert seen.min() < -3.0 and seen.max() > 3.0
        assert np.abs(new - old).max() <= 1e-5
        cosine = (new * old).sum(axis=1) / np.linalg.norm(new, axis=1) / np.linalg.norm(old, axis=1)
        assert cosine.min() >= 1.0 - 1e-6
