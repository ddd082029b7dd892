"""Optimizer behavior: anchor updates, descent, divergence detection, the batch schedule and the epoch loop."""

import weakref

import numpy as np
import pytest

from oracles import PerTensorAdamW

from consem.errors import ConfigError, ContractError, TrainingDivergedError
from consem import tensor as T
from consem.optim import AdamW, TrainingConfig, minibatches, train_epochs
from consem.tensor import Tape, Tensor, precision


def test_zero_grad_zero_decay_leaves_parameters_unchanged():
    p = Tensor([1.5, -2.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_single_step_unit_gradient_moves_by_learning_rate(f64):
    # Bias correction makes mhat/sqrt(vhat) exactly 1 on the first step.
    p = Tensor([1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(0.9, abs=1e-7)


def test_ten_steps_approach_quadratic_minimum():
    w = Tensor([0.0], requires_grad=True)
    opt = AdamW({"w": w}, learning_rate=0.3, weight_decay=0.0)
    gaps = [abs(w.data[0] - 3.0)]
    for _ in range(10):
        w.grad = 2.0 * (w.data - 3.0)
        opt.step()
        gaps.append(abs(w.data[0] - 3.0))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_matches_scalar_reference_trajectory(f64):
    p = Tensor([0.7], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.05, weight_decay=0.01)

    # Independent scalar re-derivation of the same update rule.
    x, m, v = 0.7, 0.0, 0.0
    for t in range(1, 7):
        g = np.sin(float(t))
        p.grad = np.array([g])
        opt.step()

        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        x -= 0.05 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.01 * x)
        assert p.data[0] == pytest.approx(x, abs=1e-12)


def test_none_gradient_still_applies_weight_decay():
    p = Tensor([2.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.5)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-6)


def test_zero_grad_clears_all_parameters():
    p, q = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
    p.grad, q.grad = np.array([1.0]), np.array([1.0])
    AdamW({"p": p, "q": q}, learning_rate=0.1).zero_grad()
    assert p.grad is None and q.grad is None


def test_non_finite_gradient_names_the_parameter():
    p = Tensor([1.0], requires_grad=True)
    opt = AdamW({"bad.weight": p}, learning_rate=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingDivergedError, match="bad.weight"):
        opt.step()


def _mixed_params(seed):
    rng = np.random.default_rng(seed)
    shapes = {"w": (5, 3), "b": (3,), "gain": (7,), "emb": (4, 17)}
    return {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()}


def _set_grads(params, step):
    rng = np.random.default_rng(100 + step)
    for name, p in params.items():
        # One parameter gets no gradient every other step.
        p.grad = None if name == "b" and step % 2 else rng.normal(size=p.data.shape).astype(np.float32)


def test_flat_update_equals_per_tensor_update_bit_for_bit():
    flat_params, reference_params = _mixed_params(3), _mixed_params(3)
    flat = AdamW(flat_params, learning_rate=0.01, weight_decay=0.02)
    reference = PerTensorAdamW(reference_params, learning_rate=0.01, weight_decay=0.02)
    for step in range(6):
        _set_grads(flat_params, step)
        _set_grads(reference_params, step)
        flat.step()
        reference.step()
    for name in flat_params:
        assert flat_params[name].data.tobytes() == reference_params[name].data.tobytes(), name


def test_parameters_stay_aligned_views_of_one_buffer():
    params = _mixed_params(4)
    tensors = dict(params)
    opt = AdamW(params, learning_rate=0.01)
    for step in range(3):
        _set_grads(tensors, step)
        opt.step()
    buffer = tensors["w"].data.base
    assert buffer is not None
    for p in tensors.values():
        assert p.data.base is buffer and p.data.flags.c_contiguous
        assert p.data.ctypes.data % 64 == 0


def test_non_finite_gradient_changes_nothing():
    params = _mixed_params(5)
    opt = AdamW(params, learning_rate=0.01)
    _set_grads(params, 0)
    opt.step()
    before = {name: p.data.copy() for name, p in params.items()}
    moments = (opt._m.copy(), opt._v.copy())
    _set_grads(params, 2)
    params["emb"].grad[1, 2] = np.inf  # the last parameter: every earlier one is finite
    with pytest.raises(TrainingDivergedError, match=r"^non-finite gradient for parameter 'emb' at step 2$"):
        opt.step()
    for name, p in params.items():
        assert p.data.tobytes() == before[name].tobytes(), name
    assert opt._m.tobytes() == moments[0].tobytes() and opt._v.tobytes() == moments[1].tobytes()
    assert opt.step_count == 1


def test_mixed_dtypes_are_rejected():
    params = {"a": Tensor([1.0], requires_grad=True), "b": Tensor([1.0], dtype=np.float64, requires_grad=True)}
    with pytest.raises(ContractError, match="float32, float64"):
        AdamW(params, learning_rate=0.1)


def test_rejects_bad_hyperparameters():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ConfigError):
        AdamW({"p": p}, learning_rate=0.0)
    with pytest.raises(ConfigError):
        AdamW({"p": p}, learning_rate=0.1, weight_decay=-0.1)


def test_deterministic_across_rebuilds(f64):
    def run():
        with precision(np.float64):
            p = Tensor(np.linspace(-1, 1, 6).reshape(2, 3), requires_grad=True)
            opt = AdamW({"p": p}, learning_rate=0.02)
            for t in range(5):
                p.grad = np.full((2, 3), 0.1 * (t + 1))
                opt.step()
            return p.data.tobytes()

    assert run() == run()


def test_minibatches_cover_order_once_in_order_with_seeded_rngs():
    order = np.array([7, 2, 9, 0, 4, 1, 8])
    blocks = list(minibatches(order, 3, seed=11, stream=4, epoch=2))
    assert [rows.tolist() for rows, _ in blocks] == [[7, 2, 9], [0, 4, 1], [8]]
    for b, (_, rng) in enumerate(blocks):
        expected = np.random.default_rng([11, 4, 2, b]).random(5)
        np.testing.assert_array_equal(rng.random(5), expected)


def test_minibatches_of_an_empty_order_yield_nothing():
    assert list(minibatches(np.array([], dtype=np.intp), 4, seed=0, stream=1, epoch=1)) == []


def test_descend_steps_and_clears_gradients():
    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(p, p))
        opt.descend(loss, tape, epoch=1)
    np.testing.assert_allclose(p.data, [0.9, -0.9], atol=1e-6)
    assert opt.step_count == 1 and p.grad is None


def test_descend_on_nan_loss_raises_before_any_change():
    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1)
    opt.step()
    before = p.data.copy()
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(p, Tensor([np.nan, 1.0])))
        with pytest.raises(TrainingDivergedError, match=r"^non-finite loss at step 2 \(epoch 3\)$"):
            opt.descend(loss, tape, epoch=3)
    np.testing.assert_array_equal(p.data, before)
    assert opt.step_count == 1 and p.grad is None


_ITEMS = np.array([10, 11, 12, 13, 14])
_CONFIG = TrainingConfig(batch_size=2, epochs=3, seed=5)
_SHUFFLE, _DROPOUT = 7, 9


def _toy_loop(batch_loss):
    """A one-parameter optimizer and the loop over ``_ITEMS``; ``batch_loss`` gets the parameter first."""
    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    loop = train_epochs(_ITEMS, _CONFIG, opt, lambda rows, rng, epoch: batch_loss(p, rows, rng, epoch),
                        _SHUFFLE, _DROPOUT)
    return p, opt, loop


def _square(p):
    return T.reduce_sum(T.mul(p, p))


def test_epochs_visit_items_permuted_per_epoch_in_minibatches():
    calls = []

    def batch_loss(p, rows, rng, epoch):
        calls.append((epoch, rows.tolist(), rng.random(3)))
        return _square(p)

    p, opt, loop = _toy_loop(batch_loss)
    assert list(loop) == [1, 2, 3]
    expected = []
    for epoch in (1, 2, 3):
        order = _ITEMS[np.random.default_rng([5, _SHUFFLE, epoch]).permutation(len(_ITEMS))]
        expected += [(epoch, rows.tolist(), rng.random(3)) for rows, rng in minibatches(order, 2, 5, _DROPOUT, epoch)]
    assert [c[:2] for c in calls] == [e[:2] for e in expected]
    for (_, _, got), (_, _, want) in zip(calls, expected, strict=True):
        np.testing.assert_array_equal(got, want)
    # One descend per block: three blocks of 2, 2 and 1 items per epoch.
    assert opt.step_count == 9 and p.grad is None


def test_last_tape_lives_through_the_callers_epoch_code_until_the_next_step():
    tapes, alive_at_step = [], []

    def batch_loss(p, rows, rng, epoch):
        alive_at_step.append([e for e, ref in tapes if ref() is not None])
        tapes.append((epoch, weakref.ref(T._TAPE_STACK[-1])))
        return _square(p)

    _, _, loop = _toy_loop(batch_loss)
    for epoch in loop:
        # Outside any tape, with only this epoch's last tape still alive.
        assert T._TAPE_STACK == []
        assert [e for e, ref in tapes if ref() is not None] == [epoch]
        assert tapes[-1][0] == epoch
    # Each step's tape replaces the one before, the next epoch's first step included.
    assert alive_at_step == [[]] * 9
    assert all(ref() is None for _, ref in tapes)


def test_nan_loss_raises_before_any_parameter_changes():
    state = {}

    def batch_loss(p, rows, rng, epoch):
        if epoch == 2 and len(state) == 0 and rows.size == 1:
            state["before"] = p.data.copy()
            return T.reduce_sum(T.mul(p, Tensor([np.nan, 1.0])))
        return _square(p)

    p, opt, loop = _toy_loop(batch_loss)
    assert next(loop) == 1
    with pytest.raises(TrainingDivergedError, match=r"^non-finite loss at step 6 \(epoch 2\)$"):
        next(loop)
    np.testing.assert_array_equal(p.data, state["before"])
    assert opt.step_count == 5 and p.grad is None and T._TAPE_STACK == []
