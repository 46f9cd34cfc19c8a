import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq.errors import DimensionMismatch, NotPositiveDefinite
from glq.linalg import cholesky, least_squares
from glq.oracle import least_squares_normal_oracle

from conftest import random_spd


class TestCholesky:
    def test_identity(self):
        L = cholesky(np.eye(3))
        assert isinstance(L, np.ndarray)
        npt.assert_array_equal(L, np.eye(3))

    def test_hand_2x2(self):
        # H = [[4,2],[2,3]] factors as L = [[2,0],[1,sqrt(2)]]
        L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        npt.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-14)

    def test_indefinite_raises(self):
        H = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="^matrix of size 2 is not positive definite$"):
            cholesky(H)
        # a caller's large enough diagonal shift rescues it
        L = cholesky(H + 2.0 * np.eye(2))
        npt.assert_allclose(L @ L.T, H + 2.0 * np.eye(2), atol=1e-13)

    def test_asymmetric_rejected(self):
        H = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError):
            cholesky(H)

    @pytest.mark.parametrize("i,j", [(0, 2), (2, 0)])
    def test_asymmetry_accepted_up_to_the_tolerance(self, i, j):
        # tolerance 1e-10 times the largest magnitude, here -min H = 4 of
        # an indefinite H: the check passes at the tolerance, so the
        # factorization refuses H, and fails just above it
        H = np.array([[1.0, -4.0, 0.0], [-4.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        H[i, j] = 4e-10
        with pytest.raises(NotPositiveDefinite):
            cholesky(H)
        H[i, j] = np.nextafter(4e-10, 1.0)
        with pytest.raises(ValueError, match="^H is not symmetric to working tolerance$"):
            cholesky(H)
        # an SPD H: accepted at 1e-10 times max H = 1, refused above
        H = np.eye(3)
        H[i, j] = 1e-10
        npt.assert_allclose(cholesky(H) @ cholesky(H).T, np.eye(3), atol=1e-9)
        H[i, j] = np.nextafter(1e-10, 1.0)
        with pytest.raises(ValueError, match="^H is not symmetric"):
            cholesky(H)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 10_000))
    def test_reconstruction_property(self, d, seed):
        H = random_spd(np.random.default_rng(seed), d)
        L = cholesky(H)
        scale = np.max(np.abs(H))
        assert np.max(np.abs(L @ L.T - H)) <= 1e-9 * scale
        assert np.all(np.diag(L) > 0)
        npt.assert_array_equal(np.triu(L, 1), np.zeros((d, d)))


def _solve(A, b):
    """least_squares on one system, as a stack of one."""
    return least_squares(np.asarray(A, dtype=np.float64)[None],
                         np.asarray(b, dtype=np.float64)[None])[0]


class TestLeastSquares:
    def test_square_invertible(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        npt.assert_allclose(_solve(A, np.array([2.0, 8.0])), [1.0, 2.0], atol=1e-14)

    def test_overdetermined_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            A = rng.standard_normal((12, 5))
            b = rng.standard_normal(12)
            x = _solve(A, b)
            x_ref = least_squares_normal_oracle(A, b)
            npt.assert_allclose(x, x_ref, atol=1e-8, rtol=1e-8)

    def test_rank_deficient_min_norm(self):
        # duplicate columns: min-norm splits the coefficient evenly
        A = np.ones((3, 2))
        x = _solve(A, np.array([3.0, 3.0, 3.0]))
        npt.assert_allclose(x, [1.5, 1.5], atol=1e-12)

    def test_rank_deficient_system_inside_a_stack(self):
        # the minimum-norm solution of a duplicate-column system does not
        # depend on the full-rank systems stacked beside it
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 5, 2))
        A[1] = 1.0
        b = rng.standard_normal((3, 5))
        b[1] = 3.0
        x = least_squares(A, b)
        npt.assert_allclose(x[1], [1.5, 1.5], atol=1e-12)
        assert x[1].tobytes() == np.linalg.lstsq(A[1], b[1], rcond=None)[0].tobytes()

    def test_underdetermined_rejected(self):
        with pytest.raises(DimensionMismatch, match="^underdetermined system: n=2 < k=3$"):
            _solve(np.ones((2, 3)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="^b has length 4, expected 3$"):
            _solve(np.ones((3, 2)), np.ones(4))
        with pytest.raises(DimensionMismatch, match="^1 right-hand sides for 2 systems$"):
            least_squares(np.ones((2, 3, 2)), np.ones((1, 3)))
        with pytest.raises(DimensionMismatch, match="^A: expected an r x n x k stack"):
            least_squares(np.ones((3, 2)), np.ones((1, 3)))
        with pytest.raises(DimensionMismatch, match="^b: expected r x n right-hand sides"):
            least_squares(np.ones((1, 3, 2)), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        A, b = np.ones((2, 3, 2)), np.ones((2, 3))
        A[1, 2, 1] = bad
        with pytest.raises(ValueError, match="^A: non-finite entries$"):
            least_squares(A, np.ones((2, 3)))
        b[0, 1] = bad
        with pytest.raises(ValueError, match="^b: non-finite entries$"):
            least_squares(np.ones((2, 3, 2)), b)

    def test_perturbation_never_improves(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.standard_normal((10, 4))
            b = rng.standard_normal(10)
            x = _solve(A, b)
            base = np.linalg.norm(A @ x - b)
            for _ in range(8):
                delta = 1e-3 * rng.standard_normal(4)
                assert np.linalg.norm(A @ (x + delta) - b) >= base - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 300),
           st.integers(1, 8), st.booleans())
    def test_each_system_is_one_lstsq_call(self, seed, r, n, k, transposed):
        # a stack, C-ordered or a transposed view (the layout the codebook
        # solve passes), gives each system the bytes of its own call
        k = min(k, n)
        rng = np.random.default_rng(seed)
        if transposed:
            A = rng.standard_normal((r, k, n)).transpose(0, 2, 1)
        else:
            A = rng.standard_normal((r, n, k))
        b = rng.standard_normal((r, n))
        x = least_squares(A, b)
        assert x.shape == (r, k)
        for i in range(r):
            want = np.linalg.lstsq(np.ascontiguousarray(A[i]), b[i].copy(), rcond=None)[0]
            assert x[i].tobytes() == want.tobytes()


# lengths at and around the points where numpy's pairwise sum changes
# form: 8 (lanes), 128 (one split), 256 and 512 (deeper splits)
SUM_EDGES = [0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 255, 256, 257,
             263, 264, 511, 512, 513, 600]


@st.composite
def summands(draw):
    """A float64 vector of length 0..600 whose entries mix +0.0, -0.0 and
    both signs of magnitudes from 1e-3 to 1e3."""
    n = draw(st.sampled_from(SUM_EDGES) | st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    z = rng.random(n) < zeros
    v[z] = np.where(rng.random(int(z.sum())) < 0.5, -0.0, 0.0)
    return v


@settings(max_examples=100, deadline=None)
@given(summands(), st.integers(1, 6))
def test_last_axis_sum_is_each_rows_sum(v, k):
    # the rule lloyd's SSE traces rest on: numpy sums each row of a
    # C-contiguous k x n array along the last axis as that row's .sum()
    rows = np.stack([np.roll(v, 7 * i) * (1.0 + i) for i in range(k)])
    want = np.array([row.sum() for row in rows])
    assert rows.sum(axis=1).tobytes() == want.tobytes()
