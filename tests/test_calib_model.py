import hashlib
import logging
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glq.calib_model import (
    Dataset,
    MlpModel,
    calibrate,
    end_loss,
    gen_dataset,
    random_model,
    train,
)
from glq import calib_model
from glq.errors import (
    ConfigError,
    DimensionMismatch,
    DivergedLoss,
    EmptyCalibration,
    InvalidSize,
)
from glq.oracle import fd_gradient_check, weight_gradients

# frozen golden checksums for gen_dataset(0, 64, 8, 4)
GOLDEN_INPUTS = "db187c1ce8968af3"
GOLDEN_TARGETS_SQ = "97ba4db4b42eeb02"
GOLDEN_TARGETS_CE = "9b2237201c7ea408"


def two_pass_train(model: MlpModel, data: Dataset, steps: int, lr: float) -> MlpModel:
    """`train` as it was before it was fused, kept as the reference: a
    gradient pass, a rebuilt model and a separate loss pass per step,
    each pass `_reference_pass`, which shares no code with `train`'s."""
    cur = model.with_layers([W.copy() for W in model.layers])
    for step in range(steps):
        _, grads = _reference_pass(cur, data)
        if any(not np.all(np.isfinite(g)) for g in grads):
            raise DivergedLoss(f"non-finite gradient at step {step}")
        cur = cur.with_layers([W - lr * g for W, g in zip(cur.layers, grads)])
        if not np.isfinite(np.sum(_reference_pass(cur, data)[0])):
            raise DivergedLoss(f"non-finite loss at step {step}")
    return cur


def _reference_pass(model: MlpModel, data: Dataset) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-sample losses and weight gradients of one forward/backward
    pass, written with `@`, `np.tanh` and `_one_pass_loss_and_grad`."""
    acts = [data.inputs]
    for W in model.layers[:-1]:
        acts.append(np.tanh(acts[-1] @ W))
    per, G = _one_pass_loss_and_grad(model.loss, acts[-1] @ model.layers[-1], data.targets)
    grads = [acts[-1].T @ G]
    for i in range(model.n_layers - 2, -1, -1):
        G = (G @ model.layers[i + 1].T) * (1.0 - np.square(acts[i + 1]))
        grads.insert(0, acts[i].T @ G)
    return per, grads


def _outcome(fn, *args):
    """Result layers, or the exception's type and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args).layers
    except (DivergedLoss, ValueError) as e:
        return type(e), str(e)


def _scalar_problem(x: float, w0: float) -> tuple[MlpModel, Dataset]:
    """One sample, one feature, one output, target 0: z = x * w."""
    model = MlpModel(layers=[np.array([[w0]])])
    return model, Dataset(inputs=np.array([[x]]), targets=np.zeros((1, 1)), seed=0)


def _samples(data: Dataset) -> list[Dataset]:
    """One single-sample dataset per row of `data`."""
    return [Dataset(inputs=data.inputs[i:i + 1], targets=data.targets[i:i + 1], seed=data.seed)
            for i in range(data.n)]


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()[:16]


class TestGenDataset:
    def test_golden_checksums(self):
        sq = gen_dataset(0, 64, 8, 4, task="squared_error")
        ce = gen_dataset(0, 64, 8, 4, task="softmax_cross_entropy")
        assert _sha(sq.inputs) == GOLDEN_INPUTS
        assert _sha(ce.inputs) == GOLDEN_INPUTS
        assert _sha(sq.targets) == GOLDEN_TARGETS_SQ
        assert _sha(ce.targets) == GOLDEN_TARGETS_CE

    def test_determinism_and_seed_sensitivity(self):
        a = gen_dataset(3, 16, 5, 3)
        b = gen_dataset(3, 16, 5, 3)
        c = gen_dataset(4, 16, 5, 3)
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_ce_targets_one_hot(self):
        d = gen_dataset(2, 32, 6, 5, task="softmax_cross_entropy")
        npt.assert_array_equal(np.sum(d.targets, axis=1), np.ones(32))
        assert set(np.unique(d.targets)) <= {0.0, 1.0}

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSize):
            gen_dataset(0, 0, 4, 2)
        with pytest.raises(InvalidSize):
            gen_dataset(0, 4, 0, 2)
        with pytest.raises(ValueError):
            gen_dataset(0, 4, 4, 2, task="nope")

    @pytest.mark.parametrize("sizes", [[], [4, 0], [0, 4]])
    def test_teacher_datasets_refuses_an_empty_set_or_none(self, sizes):
        with pytest.raises(InvalidSize, match=rf"^need one or more sets of n >= 1 samples, "
                                              rf"got sizes \[{', '.join(map(str, sizes))}\]$"):
            calib_model.teacher_datasets(0, sizes, 4, 2)


class TestModel:
    def test_dim_chain_validated(self):
        with pytest.raises(DimensionMismatch):
            MlpModel(layers=[np.ones((3, 4)), np.ones((5, 2))])

    def test_zero_width_layer_refused(self):
        # an empty layer leaves nothing to quantize: refused, naming it
        with pytest.raises(InvalidSize, match=r"^layer 1 is 8 x 0: every width must be >= 1$"):
            random_model([6, 8, 0, 4], 0)
        with pytest.raises(InvalidSize, match=r"^layer 2 is 2 x -1: "):
            random_model([6, 8, 2, -1, 4], 0)
        with pytest.raises(InvalidSize, match=r"^layer 0 is 0 x 2: "):
            MlpModel(layers=[np.ones((0, 2))])
        with pytest.raises(InvalidSize, match=r"^layer 1 is 3 x 0: "):
            MlpModel(layers=[np.ones((2, 3)), np.ones((3, 0))])

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError):
            MlpModel(layers=[np.ones((2, 2))], loss="hinge")
        with pytest.raises(ValueError):
            MlpModel(layers=[np.ones((2, 2))], activation="relu")

    def test_single_layer_is_linear(self):
        # target 0, so the output gradient 2 Z exposes Z = X W exactly
        rng = np.random.default_rng(0)
        W = rng.standard_normal((4, 3))
        X = rng.standard_normal((6, 4))
        model = MlpModel(layers=[W])
        data = Dataset(inputs=X, targets=np.zeros((6, 3)), seed=0)
        (rec,) = calibrate(model, data)
        npt.assert_array_equal(rec.X, X)
        npt.assert_array_equal(rec.gradZ, 2.0 * (X @ W))


class TestLosses:
    def test_squared_error_pure_python_oracle(self):
        W = np.array([[1.0, 0.0], [0.0, 2.0]])
        model = MlpModel(layers=[W])
        X = np.array([[1.0, 1.0], [2.0, -1.0], [0.5, 0.0]])
        Y = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        data = Dataset(inputs=X, targets=Y, seed=0)
        expect = 0.0
        for i in range(3):
            z = [X[i][0] * 1.0, X[i][1] * 2.0]
            expect += (z[0] - Y[i][0]) ** 2 + (z[1] - Y[i][1]) ** 2
        assert end_loss(model, data) == pytest.approx(expect, abs=1e-12)

    def test_squared_error_gradz_analytic(self):
        model = MlpModel(layers=[np.eye(2)])
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Y = np.zeros((2, 2))
        calib = calibrate(model, Dataset(inputs=X, targets=Y, seed=0))
        npt.assert_allclose(calib[0].gradZ, 2.0 * X, atol=1e-14)

    def test_ce_gradz_rows_sum_to_zero(self):
        model = random_model([5, 4, 3], 1, loss="softmax_cross_entropy")
        data = gen_dataset(1, 16, 5, 3, task="softmax_cross_entropy")
        calib = calibrate(model, data)
        npt.assert_allclose(np.sum(calib[-1].gradZ, axis=1), np.zeros(16), atol=1e-12)

    def test_ce_loss_nonnegative(self):
        model = random_model([5, 3], 2, loss="softmax_cross_entropy")
        data = gen_dataset(2, 16, 5, 3, task="softmax_cross_entropy")
        assert all(end_loss(model, one) >= 0.0 for one in _samples(data))

    def test_per_sample_sum_is_end_loss(self):
        for loss in ("squared_error", "softmax_cross_entropy"):
            model = random_model([6, 5, 4], 3, loss=loss)
            data = gen_dataset(3, 24, 6, 4, task=loss)
            per = [end_loss(model, one) for one in _samples(data)]
            assert end_loss(model, data) == pytest.approx(float(np.sum(per)), rel=1e-12)

    def test_loss_additive_over_concat(self):
        model = random_model([4, 3], 4)
        a = gen_dataset(5, 10, 4, 3)
        b = gen_dataset(6, 14, 4, 3)
        both = Dataset(
            inputs=np.concatenate([a.inputs, b.inputs]),
            targets=np.concatenate([a.targets, b.targets]),
            seed=0,
        )
        lhs = end_loss(model, both)
        rhs = end_loss(model, a) + end_loss(model, b)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCalibrate:
    def test_shapes(self):
        model = random_model([8, 6, 4], 0)
        data = gen_dataset(0, 12, 8, 4)
        calib = calibrate(model, data)
        assert [c.X.shape for c in calib] == [(12, 8), (12, 6)]
        assert [c.gradZ.shape for c in calib] == [(12, 6), (12, 4)]

    def test_empty_rejected(self):
        model = random_model([3, 2], 0)
        data = gen_dataset(0, 1, 3, 2)
        empty = Dataset(inputs=data.inputs[:0], targets=data.targets[:0], seed=0)
        with pytest.raises(EmptyCalibration):
            calibrate(model, empty)

    @settings(max_examples=120, deadline=None)
    @given(
        loss=st.sampled_from(["squared_error", "softmax_cross_entropy"]),
        widths=st.lists(st.integers(1, 70), min_size=2, max_size=5),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_walk_has_calibrates_bits(self, loss, widths, n, seed):
        # each hidden input re-formed from the one before, and the end loss
        # from the last input, as calibrate and end_loss make them; depth
        # 1-4, widths past a BLAS kernel's blocking
        data = gen_dataset(seed, n, widths[0], widths[-1], task=loss)
        model = random_model(widths, seed + 1, loss=loss)
        want = calibrate(model, data)
        calib = calibrate(model, data)
        walked = list(calib_model.walk_calibration(model, calib))
        assert calib == []  # taken over
        assert len(walked) == model.n_layers
        for got, rec in zip(walked, want):
            assert got.X.shape == rec.X.shape and got.X.tobytes() == rec.X.tobytes()
            assert got.gradZ.tobytes() == rec.gradZ.tobytes()
        before = calib_model.end_loss_from_input(model, walked[-1].X, data)
        assert np.float64(before).tobytes() == np.float64(end_loss(model, data)).tobytes()

    def test_walk_forms_each_input_when_it_reaches_its_layer(self):
        # a hidden input is made only once the record before it is asked
        # past, and the walk keeps no record it has handed out
        import weakref

        model = random_model([5, 7, 6, 3], 0)
        data = gen_dataset(0, 9, 5, 3)
        walk = calib_model.walk_calibration(model, calibrate(model, data))
        first = next(walk)
        assert first.X is data.inputs
        ref = weakref.ref(first)
        del first
        assert ref() is None
        second = next(walk)
        X1 = weakref.ref(second.X)
        del second
        assert X1() is not None  # the walk forms the next input from it
        third = next(walk)
        assert X1() is None and third.X.shape == (9, 6)
        assert next(walk, None) is None

    def test_backprop_matches_finite_differences(self):
        for loss in ("squared_error", "softmax_cross_entropy"):
            model = random_model([6, 8, 5, 3], 7, loss=loss)
            data = gen_dataset(7, 20, 6, 3, task=loss)
            assert fd_gradient_check(model, data, samples=30) <= 1e-5

    def test_weight_gradient_identity(self):
        # X^T gradZ per layer equals the gradient used by train
        model = random_model([5, 4, 3], 9)
        data = gen_dataset(9, 16, 5, 3)
        calib = calibrate(model, data)
        grads = weight_gradients(model, data)
        for c, g in zip(calib, grads):
            npt.assert_allclose(c.X.T @ c.gradZ, g, atol=1e-12)


# train runs its loop under np.errstate and catches every overflow with an
# explicit check, so no test here may see a RuntimeWarning
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTrain:
    def test_zero_steps_identity(self):
        model = random_model([4, 3], 0)
        out = train(model, gen_dataset(0, 8, 4, 3), steps=0, lr=0.1)
        assert out is not model
        for a, b in zip(model.layers, out.layers):
            npt.assert_array_equal(a, b)

    def test_loss_decreases(self):
        model = random_model([8, 16, 4], 1)
        data = gen_dataset(1, 64, 8, 4)
        before = end_loss(model, data)
        after = end_loss(train(model, data, steps=150, lr=2e-3), data)
        assert after < 0.5 * before

    def test_divergence_detected(self):
        model = random_model([4, 3], 2)
        data = gen_dataset(2, 16, 4, 3)
        with pytest.raises(DivergedLoss):
            train(model, data, steps=50, lr=1e6)

    def test_negative_steps_rejected(self):
        model = random_model([4, 3], 2)
        with pytest.raises(InvalidSize):
            train(model, gen_dataset(2, 4, 4, 3), steps=-1, lr=0.1)

    @pytest.mark.parametrize("lr, shown", [(-1.0, "-1.0"), (0.0, "0.0"), (float("nan"), "nan")])
    @pytest.mark.parametrize("steps", [0, 10])
    def test_bad_lr_refused_before_first_pass(self, monkeypatch, lr, shown, steps):
        # -1 would train uphill to a huge finite loss, and NaN used to
        # surface only as "layer 0: non-finite entries" after one pass
        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(calib_model, "_forward_backward", no_pass)
        model, data = random_model([4, 3], 2), gen_dataset(2, 16, 4, 3)
        with pytest.raises(ConfigError, match=rf"^lr must be > 0, got {shown}$"):
            train(model, data, steps=steps, lr=lr)

    def test_workspace_is_reused_by_every_pass(self, monkeypatch):
        # one workspace per call: every pass writes into the same buffers
        real = calib_model._forward_backward
        seen = []

        def spy(layers, loss, X, Y, ws, row):
            seen.append([id(a) for part in ws for a in part])
            return real(layers, loss, X, Y, ws, row)

        monkeypatch.setattr(calib_model, "_forward_backward", spy)
        model, data = random_model([4, 5, 6, 3], 2), gen_dataset(2, 16, 4, 3)
        train(model, data, steps=5, lr=1e-3)
        # 2 hidden inputs, 3 output gradients, 2 (1 - X^2) scratches and Z^T
        assert len(seen) == 6 and len(seen[0]) == 2 + 3 + 3
        assert all(ids == seen[0] for ids in seen)

    @pytest.mark.parametrize("loss", ["squared_error", "softmax_cross_entropy"])
    def test_pass_returns_views_of_workspace_and_its_store_row(self, monkeypatch, loss):
        # a pass allocates nothing: the output gradient it returns lives in
        # the workspace and its loss inputs in the store row of that pass
        real_pass, real_store = calib_model._forward_backward, calib_model._loss_store
        stores, passes = [], []

        def store_spy(*args):
            stores.append(real_store(*args))
            return stores[-1]

        def spy(layers, loss, X, Y, ws, row):
            inputs, G = real_pass(layers, loss, X, Y, ws, row)
            passes.append((ws, inputs, G))
            return inputs, G

        monkeypatch.setattr(calib_model, "LOSS_BLOCK_BYTES", _block_budget(loss, 16, 3, 3))
        monkeypatch.setattr(calib_model, "_loss_store", store_spy)
        monkeypatch.setattr(calib_model, "_forward_backward", spy)
        model = random_model([4, 5, 6, 3], 2, loss=loss)
        train(model, gen_dataset(2, 16, 4, 3, task=loss), steps=7, lr=1e-3)
        (store,) = stores
        assert len(store[0]) == 3 and len(passes) == 8
        for p, (ws, inputs, G) in enumerate(passes):
            assert ws is passes[0][0] and G is ws[1][-1]
            assert len(inputs) == len(store)
            for a, stack in zip(inputs, store):
                owners = [j for j in range(3) if np.shares_memory(a, stack[j])]
                assert owners == [p % 3] and a.shape == stack.shape[1:]

    @settings(max_examples=150, deadline=None)
    @given(
        loss=st.sampled_from(["squared_error", "softmax_cross_entropy"]),
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        steps=st.integers(0, 30),
        lr=st.sampled_from([1e-3, 2e-2, 0.3, 1e3, 1e100, 1e300]),
    )
    def test_matches_two_pass_loop_bitwise(self, loss, widths, n, seed, steps, lr):
        # depth 1-3; large lr makes some runs diverge, which must raise the
        # same error at the same step as the reference
        data = gen_dataset(seed, n, widths[0], widths[-1], task=loss)
        model = random_model(widths, seed + 1, loss=loss)
        got = _outcome(train, model, data, steps, lr)
        want = _outcome(two_pass_train, model, data, steps, lr)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_nonfinite_gradient_names_its_step(self):
        # x = 2^520, w0 = 2^-30, lr = 2^-1039: every update multiplies w
        # by -3 exactly, so the gradient 2^1011 * 3^s overflows first at
        # s = 9 while the loss 2^980 * 9^s stays finite
        model, data = _scalar_problem(2.0 ** 520, 2.0 ** -30)
        lr = 2.0 ** -1039
        with pytest.raises(DivergedLoss, match=r"^non-finite gradient at step 9$"):
            train(model, data, steps=20, lr=lr)
        assert _outcome(two_pass_train, model, data, 20, lr) == (
            DivergedLoss, "non-finite gradient at step 9")

    def test_nonfinite_loss_names_its_step(self):
        # x = 1, w0 = 2^500, lr = 2: update s leaves w = 2^500 * (-3)^(s+1),
        # whose loss 2^1000 * 9^(s+1) overflows first after update 7; the
        # gradient 2^501 * 3^s stays finite throughout
        model, data = _scalar_problem(1.0, 2.0 ** 500)
        with pytest.raises(DivergedLoss, match=r"^non-finite loss at step 7$"):
            train(model, data, steps=20, lr=2.0)
        assert _outcome(two_pass_train, model, data, 20, 2.0) == (
            DivergedLoss, "non-finite loss at step 7")
        # the loss after the last update is checked by the final pass
        with pytest.raises(DivergedLoss, match=r"^non-finite loss at step 7$"):
            train(model, data, steps=8, lr=2.0)
        train(model, data, steps=7, lr=2.0)

    def test_nonfinite_weight_raises_value_error(self):
        # gradient 2 is finite, but w - 1e308 * 2 is not
        model, data = _scalar_problem(1.0, 1.0)
        with pytest.raises(ValueError, match=r"^layer 0: non-finite entries$"):
            train(model, data, steps=3, lr=1e308)

    @pytest.mark.parametrize("w0, w1, overflows, layer", [
        (20.0, 1.0, [False, True], 1),
        (0.5, 8.0, [True, True], 0),
    ])
    def test_nonfinite_weight_names_first_bad_layer(self, w0, w1, overflows, layer):
        # x = 1, target 0, z = tanh(x w0) w1. With w0 = 20, tanh rounds to 1,
        # so layer 0's gradient 2 z w1 (1 - h^2) is 0 and only layer 1's
        # update overflows; with w0 = 0.5, w1 = 8 both overflow and the
        # first layer is named
        model = MlpModel(layers=[np.array([[w0]]), np.array([[w1]])])
        data = Dataset(inputs=np.ones((1, 1)), targets=np.zeros((1, 1)), seed=0)
        lr = 1e308
        with np.errstate(over="ignore"):
            updated = [W - lr * g for W, g in zip(model.layers, weight_gradients(model, data))]
        assert [not np.all(np.isfinite(W)) for W in updated] == overflows
        message = f"layer {layer}: non-finite entries"
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(model, data, steps=3, lr=lr)
        assert _outcome(two_pass_train, model, data, 3, lr) == (ValueError, message)

    def test_nonfinite_gradient_in_last_layer_only(self):
        # tanh(20) rounds to 1, so layer 0's gradient carries the factor
        # 1 - h^2 = 0 and stays 0, while layer 1's gradient sums two
        # residual terms 2 (1 - 8e307) past the float64 range
        model = MlpModel(layers=[np.array([[20.0]]), np.array([[1.0]])])
        data = Dataset(inputs=np.ones((2, 1)), targets=np.full((2, 1), 8e307), seed=0)
        with np.errstate(over="ignore"):
            grads = weight_gradients(model, data)
        assert [bool(np.all(np.isfinite(g))) for g in grads] == [True, False]
        message = "non-finite gradient at step 0"
        with pytest.raises(DivergedLoss, match=f"^{message}$"):
            train(model, data, steps=3, lr=1e-3)
        assert _outcome(two_pass_train, model, data, 3, 1e-3) == (DivergedLoss, message)

    @pytest.mark.parametrize("problem, steps, lr, exc", [
        ("random", 50, 1e6, DivergedLoss),
        ((2.0 ** 520, 2.0 ** -30), 20, 2.0 ** -1039, DivergedLoss),
        ((1.0, 2.0 ** 500), 20, 2.0, DivergedLoss),
        ((1.0, 1.0), 3, 1e308, ValueError),
    ])
    def test_divergence_raises_without_runtime_warning(self, problem, steps, lr, exc):
        if problem == "random":
            model, data = random_model([4, 3], 2), gen_dataset(2, 16, 4, 3)
        else:
            model, data = _scalar_problem(*problem)
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
            warnings.simplefilter("error")
            with pytest.raises(exc):
                train(model, data, steps=steps, lr=lr)

    @pytest.mark.parametrize("widths", [[48, 160, 160, 12], [47, 161, 159, 13]])
    @pytest.mark.parametrize("loss, lr", [("squared_error", 1e-4),
                                          ("softmax_cross_entropy", 1e-3)])
    def test_wide_shapes_match_two_pass_loop_bitwise(self, widths, loss, lr):
        # BLAS takes other kernels at these sizes than in the property test,
        # and the odd widths put layer 1's views at an offset that is not a
        # multiple of 16 bytes in the flat buffers
        data = gen_dataset(5, 256, widths[0], widths[-1], task=loss)
        model = random_model(widths, 6, loss=loss)
        before = [W.copy() for W in model.layers]
        got = train(model, data, steps=15, lr=lr).layers
        want = two_pass_train(model, data, 15, lr).layers
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert not any(np.array_equal(a, b) for a, b in zip(got, before))
        assert all(np.array_equal(a, b) for a, b in zip(model.layers, before))
        for i, W in enumerate(got):
            assert W.flags.c_contiguous and W.flags.owndata
            others = [V for j, V in enumerate(got) if j != i] + model.layers
            assert not any(np.shares_memory(W, V) for V in others)
        for W in got:
            W[...] = np.nan
        again = train(model, data, steps=15, lr=lr).layers
        assert all(np.array_equal(a, b) for a, b in zip(again, want))

    @pytest.mark.parametrize("steps", [0, 25])
    def test_log_line_reports_final_loss_and_gradient(self, caplog, steps):
        model = random_model([6, 5, 3], 4, loss="softmax_cross_entropy")
        data = gen_dataset(4, 24, 6, 3, task="softmax_cross_entropy")
        with caplog.at_level(logging.INFO, logger="glq.calib_model"):
            out = train(model, data, steps=steps, lr=1e-2)
        (rec,) = [r for r in caplog.records if r.getMessage().startswith("train:")]
        logged_steps, lr, final_loss, gnorm = rec.args
        assert (logged_steps, lr) == (steps, 1e-2)
        assert final_loss == end_loss(out, data)
        grads = weight_gradients(out, data)
        assert gnorm == float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 10),
        k=st.integers(1, 6),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
    )
    def test_softmax_loss_and_grad_bits(self, seed, n, k, scale):
        # Z = Z @ I exactly, so a one-layer identity model exposes the loss
        # and output gradient; compare with the two-exp formula bit for bit
        rng = np.random.default_rng(seed)
        Z = scale * rng.standard_normal((n, k))
        Y = np.zeros((n, k))
        Y[np.arange(n), rng.integers(0, k, n)] = 1.0
        data = Dataset(inputs=Z, targets=Y, seed=0)
        model = MlpModel(layers=[np.eye(k)], loss="softmax_cross_entropy")
        zmax = np.max(Z, axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.sum(np.exp(Z - zmax), axis=1))
        soft = np.exp(Z - zmax)
        soft /= np.sum(soft, axis=1, keepdims=True)
        want = float(np.sum(lse - np.sum(Z * Y, axis=1)))
        assert np.float64(end_loss(model, data)).tobytes() == np.float64(want).tobytes()
        assert np.array_equal(calibrate(model, data)[0].gradZ, soft - Y)

    def test_training_deterministic(self):
        model = random_model([6, 5, 3], 3)
        data = gen_dataset(3, 24, 6, 3)
        a = train(model, data, steps=40, lr=1e-3)
        b = train(model, data, steps=40, lr=1e-3)
        for wa, wb in zip(a.layers, b.layers):
            npt.assert_array_equal(wa, wb)


def _one_pass_loss_and_grad(loss: str, Z: np.ndarray, Y: np.ndarray):
    """Per-sample losses and output gradient of one pass, by the formula
    each pass computed for itself before losses were checked per block."""
    if loss == "squared_error":
        R = Z - Y
        return (R * R).sum(axis=1), 2.0 * R
    zmax = Z.max(axis=1, keepdims=True)
    soft = np.exp(Z - zmax)
    total = soft.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(total[:, 0])
    per = lse - (Z * Y).sum(axis=1)
    soft /= total
    return per, soft - Y


def _output_grad(loss: str, Z: np.ndarray, Y: np.ndarray):
    """`calib_model._output_grad` on a one-pass store row holding a copy
    of Z and on buffers of its own."""
    n, d = Z.shape
    (row,) = calib_model._rows(calib_model._loss_store(loss, n, d, passes=1), Y)
    row[0][...] = Z
    return calib_model._output_grad(loss, Y, row, np.empty((n, d)), np.empty((d, n)))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _block_budget(loss: str, n: int, d: int, passes: int) -> int:
    """The LOSS_BLOCK_BYTES that makes blocks of `passes` passes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calib_model, "LOSS_BLOCK_BYTES", 0)
        one = sum(a.nbytes for a in calib_model._loss_store(loss, n, d))
    return passes * one


def _failing_problem(kind: str, fail: int):
    """A scalar problem (target 0) whose training fails at pass `fail`,
    with the error it must raise. In all three, x^2 lr = 2, so every
    update multiplies w by -3 exactly and subtracts lr g = 4w.

    * loss: x = 1, lr = 2; the loss 2^1000 9^k of w = 2^500 3^k first
      overflows at k = 8, and pass `fail` raises for the update before it;
    * gradient: x = 2^520, lr = 2^-1039; the gradient 2^1011 3^k of
      w = 2^-30 3^k first overflows at k = 9;
    * value: x = 2^-511, lr = 2^1023; with w = 2^1008 3^k, lr g = 4w
      first overflows at k = 9, where the loss 2^994 9^k and the
      gradient 2^-13 3^k are finite, so P alone turns infinite.
    """
    if kind == "loss":
        model, data = _scalar_problem(1.0, 2.0 ** 500 * 3.0 ** (8 - fail))
        return model, data, 2.0, (DivergedLoss, f"non-finite loss at step {fail - 1}")
    if kind == "gradient":
        model, data = _scalar_problem(2.0 ** 520, 2.0 ** -30 * 3.0 ** (9 - fail))
        return model, data, 2.0 ** -1039, (DivergedLoss, f"non-finite gradient at step {fail}")
    model, data = _scalar_problem(2.0 ** -511, 2.0 ** 1008 * 3.0 ** (9 - fail))
    return model, data, 2.0 ** 1023, (ValueError, "layer 0: non-finite entries")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockedChecks:
    """`train` checks its losses and weights once per block of passes and
    replays a failed block one pass at a time."""

    @pytest.mark.parametrize("kind", ["loss", "gradient", "value"])
    @pytest.mark.parametrize("passes, fail, final", [
        # the first pass of a block: pass 2k opens the third block of k
        (1, 2, False), (2, 4, False), (3, 6, False),
        # the last pass of a block
        (1, 1, False), (2, 3, False), (3, 5, False),
        # the final pass (for the gradient and weight errors, which need
        # an update, the last update)
        (1, 5, True), (2, 5, True), (3, 5, True), (2, 6, True),
        # a run shorter than one block
        (4, 1, True), (40, 5, False),
    ])
    def test_failing_step_matches_two_pass_loop(self, monkeypatch, kind, passes, fail, final):
        model, data, lr, want = _failing_problem(kind, fail)
        steps = fail + (kind != "loss") if final else 20
        assert _outcome(two_pass_train, model, data, steps, lr) == want
        monkeypatch.setattr(calib_model, "LOSS_BLOCK_BYTES",
                            _block_budget("squared_error", 1, 1, passes))
        assert len(calib_model._loss_store("squared_error", 1, 1)[0]) == passes
        real = calib_model._forward_backward
        ran = []

        def count(*args):
            ran.append(1)
            return real(*args)

        monkeypatch.setattr(calib_model, "_forward_backward", count)
        assert _outcome(train, model, data, steps, lr) == want
        # at most one block of passes more than checking every pass
        assert fail + 1 <= len(ran) <= fail + 1 + passes
        if passes == 1:
            assert len(ran) == fail + 1

    @pytest.mark.parametrize("passes", [2, 3, 50])
    def test_loss_that_recovers_inside_a_block_is_caught(self, monkeypatch, passes):
        # x = 1, lr = (1 - 2^-10) / 2: every update multiplies w by 2^-10
        # exactly, so from w0 = 2^525 only pass 1's loss 2^1030 overflows
        # (pass 0 is not checked) and every later pass's loss is finite
        model, data = _scalar_problem(1.0, 2.0 ** 525)
        lr = (1.0 - 2.0 ** -10) / 2.0
        monkeypatch.setattr(calib_model, "LOSS_BLOCK_BYTES",
                            _block_budget("squared_error", 1, 1, passes))
        want = (DivergedLoss, "non-finite loss at step 0")
        assert _outcome(train, model, data, 5, lr) == want
        assert _outcome(two_pass_train, model, data, 5, lr) == want

    @settings(max_examples=150, deadline=None)
    @given(
        loss=st.sampled_from(["squared_error", "softmax_cross_entropy"]),
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        steps=st.integers(0, 30),
        lr=st.sampled_from([1e-3, 2e-2, 0.3, 1e3, 1e100, 1e300]),
        passes=st.integers(1, 7),
    )
    def test_any_block_size_matches_two_pass_loop_bitwise(
            self, loss, widths, n, seed, steps, lr, passes):
        data = gen_dataset(seed, n, widths[0], widths[-1], task=loss)
        model = random_model(widths, seed + 1, loss=loss)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calib_model, "LOSS_BLOCK_BYTES",
                       _block_budget(loss, n, widths[-1], passes))
            got = _outcome(train, model, data, steps, lr)
        want = _outcome(two_pass_train, model, data, steps, lr)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("loss", ["squared_error", "softmax_cross_entropy"])
    @pytest.mark.parametrize("dims, n", [(calib_model.TOY_DIMS, 64), ([64, 256, 256, 16], 512)])
    def test_loss_store_fits_its_budget_and_is_made_once(self, monkeypatch, loss, dims, n):
        real = calib_model._loss_store
        made = []

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(calib_model, "_loss_store", spy)
        data = gen_dataset(3, n, dims[0], dims[-1], task=loss)
        train(random_model(dims, 4, loss=loss), data, steps=9, lr=1e-6)
        (store,) = made
        d = dims[-1]
        want = [(n, d)] if loss == "squared_error" else [(n, d), (n,), (n,)]
        assert [a.shape[1:] for a in store] == want
        passes = len(store[0])
        assert passes >= 3 and all(len(a) == passes for a in store)
        assert sum(a.nbytes for a in store) <= calib_model.LOSS_BLOCK_BYTES


class TestStackedLosses:
    @settings(max_examples=300, deadline=None)
    @given(
        loss=st.sampled_from(["squared_error", "softmax_cross_entropy"]),
        n=st.integers(1, 6),
        d=st.integers(1, 5),
        stack=st.integers(1, 4),
        data=st.data(),
    )
    def test_stack_matches_one_pass_formula_bitwise(self, loss, n, d, stack, data):
        # -0.0 and magnitudes whose loss overflows while the gradient stays
        # finite are drawn along with ordinary values
        values = st.one_of(
            st.floats(-50.0, 50.0),
            st.sampled_from([0.0, -0.0, 1e154, -1e154, 1e200, -1e200, 1e308, -1e308]),
        )
        Zs = data.draw(arrays(np.float64, (stack, n, d), elements=values))
        if loss == "squared_error":
            Y = data.draw(arrays(np.float64, (n, d), elements=values))
        else:
            labels = data.draw(arrays(np.int64, n, elements=st.integers(0, d - 1)))
            Y = np.zeros((n, d))
            Y[np.arange(n), labels] = 1.0
        with np.errstate(over="ignore"):
            passes = [_output_grad(loss, Z, Y) for Z in Zs]
            stacked = tuple(np.stack(parts) for parts in zip(*(p[0] for p in passes)))
            per = calib_model._losses(loss, stacked, Y)
            sums = per.sum(axis=1)
            for i, Z in enumerate(Zs):
                want_per, want_grad = _one_pass_loss_and_grad(loss, Z, Y)
                assert np.array_equal(_bits(per[i]), _bits(want_per))
                assert np.array_equal(_bits(passes[i][1]), _bits(want_grad))
                assert _bits(sums[i]) == _bits(want_per.sum())
                one = calib_model._losses(loss, passes[i][0], Y)
                assert np.array_equal(_bits(one), _bits(want_per))

    @pytest.mark.parametrize("loss, Z, Y", [
        ("squared_error", [[1e200, 0.0]], [[0.0, -0.0]]),
        ("softmax_cross_entropy", [[1e308, -1e308]], [[0.0, 1.0]]),
    ])
    def test_overflowing_loss_with_finite_gradient(self, loss, Z, Y):
        Z, Y = np.array(Z), np.array(Y)
        with np.errstate(over="ignore"):
            inputs, grad = _output_grad(loss, Z, Y)
            per = calib_model._losses(loss, tuple(a[None] for a in inputs), Y)
            want_per, want_grad = _one_pass_loss_and_grad(loss, Z, Y)
        assert np.isposinf(per).all() and np.isfinite(grad).all()
        assert np.array_equal(_bits(per[0]), _bits(want_per))
        assert np.array_equal(_bits(grad), _bits(want_grad))
