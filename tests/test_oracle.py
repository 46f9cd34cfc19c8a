import numpy as np
import numpy.testing as npt
import pytest

from glq.calib_model import calibrate, gen_dataset, random_model
from glq.errors import DimensionMismatch, InvalidSize
from glq.guidedquant import eval_objectives
from glq.linalg import least_squares
from glq.oracle import (
    EXHAUSTIVE_CAP,
    TooLarge,
    exhaustive_lnq,
    fd_gradient_check,
    full_fisher_quadratic,
    kmeans_partition_oracle,
    least_squares_normal_oracle,
)

from conftest import random_spd, toy


class TestExhaustiveLnq:
    def test_single_slot_is_weighted_mean(self):
        out = exhaustive_lnq(np.eye(2), np.array([0.0, 1.0]), m=1)
        npt.assert_array_equal(out.assign, [0, 0])
        npt.assert_allclose(out.codebook, [0.5], atol=1e-15)
        assert out.objective == pytest.approx(0.5, rel=1e-12)
        assert out.n_enumerated == 1

    def test_two_slots_exact_fit(self):
        out = exhaustive_lnq(np.eye(2), np.array([0.0, 1.0]), m=2)
        assert out.objective == 0.0
        npt.assert_array_equal(out.assign, [0, 1])
        npt.assert_allclose(out.codebook, [0.0, 1.0], atol=1e-15)
        assert out.n_enumerated == 4

    def test_tied_optima_keep_first_lexicographic(self):
        # [0, 0] and [1, 1] both reach zero; enumeration meets [0, 0] first
        out = exhaustive_lnq(np.eye(2), np.array([1.0, 1.0]), m=2)
        assert out.objective == 0.0
        npt.assert_array_equal(out.assign, [0, 0])
        npt.assert_allclose(out.codebook, [1.0, 0.0], atol=1e-15)

    def test_enumeration_count(self):
        rng = np.random.default_rng(0)
        for d, m in ((3, 2), (4, 3), (5, 2)):
            out = exhaustive_lnq(random_spd(rng, d), rng.standard_normal(d), m)
            assert out.n_enumerated == m ** d

    def test_reported_objective_matches_parts(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            H = random_spd(rng, d)
            w = rng.standard_normal(d)
            out = exhaustive_lnq(H, w, m=2)
            resid = w - out.codebook[out.assign]
            assert out.objective == pytest.approx(float(resid @ H @ resid), rel=1e-10)

    def test_off_diagonal_hessian_beats_plain_rounding(self):
        # strong coupling can make the H-aware optimum differ from
        # nearest-value rounding; the oracle must never be worse
        H = np.array([[1.0, 0.9], [0.9, 1.0]])
        w = np.array([0.0, 0.95])
        out = exhaustive_lnq(H, w, m=1)
        grid = np.linspace(-1.0, 1.0, 201)
        best = min(
            float((w - c) @ H @ (w - c)) for c in (np.full(2, v) for v in grid)
        )
        assert out.objective <= best + 1e-12

    def test_cap_enforced(self):
        with pytest.raises(TooLarge):
            exhaustive_lnq(np.eye(10), np.zeros(10), m=4)  # 4**10 > cap
        assert 4 ** 10 > EXHAUSTIVE_CAP

    def test_input_validation(self):
        with pytest.raises(DimensionMismatch):
            exhaustive_lnq(np.eye(3), np.zeros(2), m=2)
        with pytest.raises(InvalidSize):
            exhaustive_lnq(np.eye(2), np.zeros(2), m=0)


class TestFullFisherQuadratic:
    def test_matches_elementwise_guided_objective(self):
        model, data = toy()
        rng = np.random.default_rng(2)
        w_hat = [W + 0.01 * rng.standard_normal(W.shape) for W in model.layers]
        slow = full_fisher_quadratic(model, data, w_hat)
        rows = eval_objectives(model, w_hat, calibrate(model, data))
        fast = sum(r["guided_objective"] for r in rows)
        assert slow == pytest.approx(fast, rel=1e-9)

    def test_zero_perturbation_is_zero(self):
        model, data = toy()
        assert full_fisher_quadratic(model, data, [W.copy() for W in model.layers]) == 0.0

    def test_weight_cap(self):
        model = random_model([40, 80, 40], 0)
        data = gen_dataset(0, 4, 40, 40)
        with pytest.raises(TooLarge):
            full_fisher_quadratic(model, data, [W.copy() for W in model.layers])

    def test_layer_count_checked(self):
        model, data = toy()
        with pytest.raises(DimensionMismatch):
            full_fisher_quadratic(model, data, [model.layers[0].copy()])


class TestFdGradientCheck:
    def test_trained_toy_backprop_agrees(self):
        model, data = toy()
        assert fd_gradient_check(model, data, samples=12) <= 1e-5

    def test_cross_entropy_model(self):
        model, data = toy("softmax_cross_entropy")
        assert fd_gradient_check(model, data, samples=12) <= 1e-5

    def test_deterministic(self):
        model, data = toy()
        a = fd_gradient_check(model, data, samples=8)
        b = fd_gradient_check(model, data, samples=8)
        assert a == b

    def test_samples_validated(self):
        model, data = toy()
        with pytest.raises(InvalidSize):
            fd_gradient_check(model, data, samples=0)


class TestKmeansPartitionOracle:
    def test_hand_example(self):
        assert kmeans_partition_oracle(np.array([0.0, 1.0, 4.0]), np.ones(3), 2) == \
            pytest.approx(0.5, rel=1e-12)

    def test_weighted_single_cluster(self):
        # weighted mean 0.5 -> cost 3*0.25 + 1*2.25
        assert kmeans_partition_oracle(np.array([0.0, 2.0]), np.array([3.0, 1.0]), 1) == \
            pytest.approx(3.0, rel=1e-12)

    def test_enough_clusters_reach_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert kmeans_partition_oracle(x, np.ones(3), 3) == 0.0
        assert kmeans_partition_oracle(x, np.ones(3), 7) == 0.0

    def test_unsorted_input_handled(self):
        a = (np.array([4.0, 0.0, 1.0]), np.array([1.0, 2.0, 1.0]))
        b = (np.array([0.0, 1.0, 4.0]), np.array([2.0, 1.0, 1.0]))
        assert kmeans_partition_oracle(*a, 2) == pytest.approx(
            kmeans_partition_oracle(*b, 2), rel=1e-12
        )

    def test_m_validated(self):
        with pytest.raises(InvalidSize):
            kmeans_partition_oracle(np.array([1.0]), np.array([1.0]), 0)


class TestLeastSquaresNormalOracle:
    def test_hand_mean(self):
        x = least_squares_normal_oracle(np.ones((2, 1)), np.array([1.0, 3.0]))
        npt.assert_allclose(x, [2.0], atol=1e-14)

    def test_agrees_with_factored_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, k = int(rng.integers(4, 12)), int(rng.integers(1, 4))
            A = rng.standard_normal((n, k))
            b = rng.standard_normal(n)
            npt.assert_allclose(
                least_squares_normal_oracle(A, b), least_squares(A[None], b[None])[0],
                rtol=1e-8, atol=1e-10,
            )
