"""Optimizer behavior: anchor updates, descent, divergence detection, the batch schedule and the epoch loop."""

import weakref

import numpy as np
import pytest

from conftest import force_workers, no_child_left
from oracles import PerTensorAdamW

from consem.errors import ConfigError, ContractError, TrainingDivergedError
from consem import optim as optim_module
from consem import tensor as T
from consem.optim import AdamW, TrainingConfig, _shards, minibatches, train_epochs
from consem.tensor import Tape, Tensor, backward, precision


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


def test_one_row_batch_takes_one_step_and_clears_gradients():
    # One epoch of one block: one step down the loss, gradients cleared after it.
    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    loop = train_epochs(np.array([0]), TrainingConfig(batch_size=1, epochs=1), opt,
                        lambda rows, rng, epoch, place: (None, lambda blocks: T.reduce_sum(T.mul(p, p))), 7, 9)
    assert list(loop) == [1]
    np.testing.assert_allclose(p.data, [0.9, -0.9], atol=1e-6)
    assert opt.step_count == 1 and p.grad is None


def test_one_row_nan_loss_raises_before_any_parameter_changes():
    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1)
    opt.step()
    before = p.data.copy()
    nan_loss = lambda blocks: T.reduce_sum(T.mul(p, Tensor([np.nan, 1.0])))
    loop = train_epochs(np.array([0]), TrainingConfig(batch_size=1, epochs=3), opt,
                        lambda rows, rng, epoch, place: (None, nan_loss), 7, 9)
    with pytest.raises(TrainingDivergedError, match=r"^non-finite loss at step 2 \(epoch 1\)$"):
        next(loop)
    np.testing.assert_array_equal(p.data, before)
    assert opt.step_count == 1 and p.grad is None


_ITEMS = np.array([10, 11, 12, 13, 14])
_CONFIG = TrainingConfig(batch_size=2, epochs=3, seed=5)
_SHUFFLE, _DROPOUT = 7, 9


def _toy_loop(shard_loss):
    """A one-parameter optimizer and the loop over ``_ITEMS``, whose blocks of 2 run as shards of 1 + 1.

    ``shard_loss(p, rows, rng, epoch, place)`` is each shard's loss, which publishes no block.
    """
    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    loop = train_epochs(_ITEMS, _CONFIG, opt, lambda *args: (None, lambda blocks: shard_loss(p, *args)),
                        _SHUFFLE, _DROPOUT)
    return p, opt, loop


def _square(p):
    return T.reduce_sum(T.mul(p, p))


def test_epochs_visit_items_permuted_per_epoch_in_minibatches(one_worker):
    calls = []

    def shard_loss(p, rows, rng, epoch, place):
        calls.append((epoch, rows.tolist(), place, rng.random(3)))
        return _square(p)

    p, opt, loop = _toy_loop(shard_loss)
    assert list(loop) == [1, 2, 3]
    expected = []
    for epoch in (1, 2, 3):
        order = _ITEMS[np.random.default_rng([5, _SHUFFLE, epoch]).permutation(len(_ITEMS))]
        for rows, rng in minibatches(order, 2, 5, _DROPOUT, epoch):
            # Each shard gets a copy of the block's fresh generator.
            noise = rng.random(3)
            expected += [(epoch, [row], (k, len(rows)), noise) for k, row in enumerate(rows.tolist())]
    assert [c[:3] for c in calls] == [e[:3] for e in expected]
    for (*_, got), (*_, want) in zip(calls, expected, strict=True):
        np.testing.assert_array_equal(got, want)
    # One step per block: three blocks of 2, 2 and 1 items per epoch.
    assert opt.step_count == 9 and p.grad is None


def test_no_tape_outlives_its_step(one_worker):
    tapes, alive_at_first_shard = [], []

    def shard_loss(p, rows, rng, epoch, place):
        if place[0] == 0:
            alive_at_first_shard.append(sum(ref() is not None for ref in tapes))
        tapes.append(weakref.ref(T._TAPE_STACK[-1]))
        return _square(p)

    _, _, loop = _toy_loop(shard_loss)
    for _ in loop:
        # The caller's per-epoch code runs outside any tape, with none alive.
        assert T._TAPE_STACK == []
        assert all(ref() is None for ref in tapes)
    # Each shard runs under its own tape, and no earlier step's tape is alive
    # when a step's first shard runs.
    assert len(tapes) == 15 and alive_at_first_shard == [0] * 9


def test_nan_loss_raises_before_any_parameter_changes(one_worker):
    state = {}

    def shard_loss(p, rows, rng, epoch, place):
        if epoch == 2 and len(state) == 0 and place == (0, 1):
            state["before"] = p.data.copy()
            return T.reduce_sum(T.mul(p, Tensor([np.nan, 1.0])))
        return _square(p)

    p, opt, loop = _toy_loop(shard_loss)
    assert next(loop) == 1
    with pytest.raises(TrainingDivergedError, match=r"^non-finite loss at step 6 \(epoch 2\)$"):
        next(loop)
    np.testing.assert_array_equal(p.data, state["before"])
    assert opt.step_count == 5 and p.grad is None and T._TAPE_STACK == []


@pytest.mark.parametrize("n,sizes", [(1, [1]), (2, [1, 1]), (3, [2, 1]), (5, [3, 2]), (7, [4, 3]), (16, [8, 8])])
def test_shards_are_consecutive_the_larger_first(n, sizes):
    rows = np.arange(100, 100 + n)
    shards = _shards(rows)
    assert [len(part) for part, _ in shards] == sizes
    assert np.concatenate([part for part, _ in shards]).tolist() == rows.tolist()
    assert [place for _, place in shards] == [(int(first), n) for first in np.cumsum([0, *sizes[:-1]])]


def _record_step_gradients(opt):
    """Each step's gradient per parameter, read where the update reads it: AdamW's flat ``_grad``."""
    seen, apply = [], opt._apply

    def recording_apply():
        seen.append([g.copy() for g in opt._grads])
        apply()

    opt._apply = recording_apply
    return seen


@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_step_sums_each_shards_own_gradient_in_shard_order(monkeypatch, workers):
    force_workers(monkeypatch, workers)
    calls = []

    def batch_loss(p, rows, rng, epoch, place):
        calls.append((rows.tolist(), place, rng.random()))
        weights = np.full(5, 0.1)
        weights[rows] += rows / 10.0
        return T.reduce_sum(T.mul(T.mul(p, p), Tensor(weights)))

    def shard_gradient(p, rows):
        with Tape() as tape:
            backward(batch_loss(p, rows, np.random.default_rng(0), 1, None), tape)
        grad, p.grad = p.grad, None
        return grad

    p = Tensor([1.0, -1.0, 2.0, 0.5, 3.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    seen = _record_step_gradients(opt)
    order = np.arange(5)[np.random.default_rng([5, _SHUFFLE, 1]).permutation(5)]
    expected = shard_gradient(p, order[:3]) + shard_gradient(p, order[3:])
    calls.clear()
    config = TrainingConfig(batch_size=5, epochs=1, seed=5)
    list(train_epochs(np.arange(5), config, opt, lambda *args: (None, lambda blocks: batch_loss(p, *args)),
                      _SHUFFLE, _DROPOUT))
    fresh = np.random.default_rng([5, _DROPOUT, 1, 0]).random()
    # Each shard gets the block's fresh generator and its place in the block;
    # with two workers the second shard's call is made in the worker.
    assert calls == [(order[:3].tolist(), (0, 5), fresh), (order[3:].tolist(), (3, 5), fresh)][:3 - workers]
    assert seen[0][0].tobytes() == expected.tobytes()
    assert opt.step_count == 1 and p.grad is None
    no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_each_shard_loss_gets_every_block_in_shard_order_with_its_own(monkeypatch, workers):
    # Each shard publishes its rows' sum; its loss weighs p by the blocks it
    # got and by its own block's place among them, so the step's gradient
    # shows what each shard saw, in the caller or in the helper.
    force_workers(monkeypatch, workers)

    def shard_loss(p, rows, rng, epoch, place):
        block = [float(rows.sum())]

        def loss(blocks):
            own = [k for k, b in enumerate(blocks) if b is block]
            weights = Tensor([sum(b[0] for b in blocks), 10.0 * len(blocks) + own[0]])
            return T.reduce_sum(T.mul(T.mul(p, p), weights))

        return block, loss

    p = Tensor([1.0, -1.0], requires_grad=True)
    opt = AdamW({"p": p}, learning_rate=0.1, weight_decay=0.0)
    seen = _record_step_gradients(opt)
    config = TrainingConfig(batch_size=5, epochs=1, seed=5)
    list(train_epochs(np.arange(5), config, opt, lambda *args: shard_loss(p, *args), _SHUFFLE, _DROPOUT))
    # Both shards weigh p[0] by 0 + 1 + 2 + 3 + 4 and p[1] by 20 plus their
    # index: 2 * p * (10, 20) + 2 * p * (10, 21).
    np.testing.assert_array_equal(seen[0][0], [40.0, -82.0])
    no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_parameter_a_shard_does_not_reach_adds_zero(monkeypatch, workers):
    # "both" is reached by both shards, "first" and "second" by one shard
    # each, "neither" by none: the step's gradient is the per-parameter sum
    # with a missing gradient taken as zero, in the caller or in the helper.
    force_workers(monkeypatch, workers)
    params = {name: Tensor(np.linspace(-1.0, 2.0, 4) + k, requires_grad=True)
              for k, name in enumerate(("both", "first", "second", "neither"))}

    def batch_loss(rows, rng, epoch, place):
        scale = Tensor(np.full(4, 1.0 + rows.sum()))
        reached = ("both", "first") if place[0] == 0 else ("both", "second")
        terms = [T.reduce_sum(T.mul(T.mul(params[name], params[name]), scale)) for name in reached]
        return None, lambda blocks: T.add(*terms)

    def shard_gradients(rows, place):
        with Tape() as tape:
            backward(batch_loss(rows, None, 1, place)[1]([None]), tape)
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params.values()]
        for p in params.values():
            p.grad = None
        return grads

    opt = AdamW(params, learning_rate=0.1, weight_decay=0.0)
    seen = _record_step_gradients(opt)
    # One step per epoch, so a slot left over from the first step would show in the second.
    loop = train_epochs(np.arange(5), TrainingConfig(batch_size=5, epochs=2, seed=5), opt, batch_loss,
                        _SHUFFLE, _DROPOUT)
    for epoch in (1, 2):
        order = np.arange(5)[np.random.default_rng([5, _SHUFFLE, epoch]).permutation(5)]
        expected = [a + b for a, b in zip(*(shard_gradients(part, place) for part, place in _shards(order)))]
        assert next(loop) == epoch and len(seen) == epoch
        for name, got, want in zip(params, seen[-1], expected, strict=True):
            assert got.tobytes() == want.tobytes(), (epoch, name)
        assert not expected[3].any() and expected[2].any() and expected[1].any()
    assert list(loop) == []
    no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_parameters_stay_the_arrays_construction_made_through_a_loop(monkeypatch, workers):
    # A helper forked for the loop shares AdamW's buffers from construction,
    # so no process count moves a parameter to another array.
    force_workers(monkeypatch, workers)
    p, opt, loop = _toy_loop(lambda p, *args: _square(p))
    held = p.data
    before = held.copy()
    assert list(loop) == [1, 2, 3]
    assert p.data is held and opt.step_count == 9
    assert not np.array_equal(held, before)
    no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_loop_maps_no_shared_memory(monkeypatch, workers):
    # The last shard's gradient is a row of the mapping AdamW made at
    # construction, so a loop, in one process or two, maps nothing more.
    force_workers(monkeypatch, workers)
    _, opt, loop = _toy_loop(lambda p, *args: _square(p))
    maps, mmap = [], optim_module.mmap.mmap

    def counting(*args, **kwargs):
        maps.append(args)
        return mmap(*args, **kwargs)

    monkeypatch.setattr(optim_module.mmap, "mmap", counting)
    assert list(loop) == [1, 2, 3] and opt.step_count == 9
    assert maps == []
    no_child_left()
