import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq.errors import InvalidSize, TooFewDistinctPoints
from glq.oracle import kmeans_partition_oracle
from glq.scalar_quant import (
    Codebook,
    WeightedPoints,
    kmeans_1d_exact,
    kmeans_pp_init,
    lloyd,
    nearest_assignment,
    round_rows,
    round_to_codebook,
    rtn_quantize,
    squeezellm_quantize,
    weighted_sse,
)


def _pts(x, w=None) -> WeightedPoints:
    x = np.asarray(x, dtype=np.float64)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=np.float64)
    return WeightedPoints(x=x, wgt=w)


@st.composite
def weighted_points(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    x = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    w = draw(st.lists(st.floats(0, 10), min_size=n, max_size=n))
    if not any(v > 0 for v in w):
        w[0] = 1.0
    return WeightedPoints(x=np.array(x), wgt=np.array(w))


class TestTypes:
    def test_codebook_sorted_required(self):
        with pytest.raises(ValueError):
            Codebook(values=np.array([2.0, 1.0]))

    def test_codebook_size_bounds(self):
        with pytest.raises(InvalidSize):
            Codebook(values=np.zeros(0))
        with pytest.raises(InvalidSize):
            Codebook(values=np.zeros(257))

    def test_codebook_finite_required(self):
        with pytest.raises(ValueError):
            Codebook(values=np.array([0.0, np.inf]))

    def test_weighted_points_validation(self):
        with pytest.raises(ValueError):
            WeightedPoints(x=np.array([1.0]), wgt=np.array([-1.0]))
        with pytest.raises(ValueError):
            WeightedPoints(x=np.array([1.0, 2.0]), wgt=np.zeros(2))


class TestRounding:
    def test_nearest(self):
        cb = Codebook(values=np.array([0.0, 1.0, 4.0]))
        assert round_to_codebook(0.9, cb) == 1
        assert round_to_codebook(3.0, cb) == 2
        assert round_to_codebook(-5.0, cb) == 0

    def test_midpoint_tie_takes_smaller_value(self):
        cb = Codebook(values=np.array([1.0, 3.0]))
        assert round_to_codebook(2.0, cb) == 0
        cb2 = Codebook(values=np.array([-1.0, 1.0]))
        assert round_to_codebook(0.0, cb2) == 0

    def test_against_linear_scan_oracle(self):
        rng = np.random.default_rng(0)
        vals = np.sort(rng.standard_normal(7))
        cb = Codebook(values=vals)
        for x in rng.uniform(-3, 3, size=1000):
            got = round_to_codebook(float(x), cb)
            want = min(range(7), key=lambda q: (abs(vals[q] - x), q))
            assert got == want

    def test_round_rows_matches_scalar(self):
        rng = np.random.default_rng(1)
        C = np.sort(rng.standard_normal((5, 4)), axis=1)
        u = rng.standard_normal(5)
        idx = round_rows(u, C)
        for j in range(5):
            assert idx[j] == round_to_codebook(float(u[j]), Codebook(values=C[j]))


class TestKmeansPP:
    def test_deterministic(self):
        pts = _pts(np.random.default_rng(2).standard_normal(30))
        a = kmeans_pp_init(pts, 4, seed=9)
        b = kmeans_pp_init(pts, 4, seed=9)
        npt.assert_array_equal(a.values, b.values)

    def test_m_equals_distinct_returns_them(self):
        pts = _pts([3.0, 1.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        cb = kmeans_pp_init(pts, 3, seed=0)
        npt.assert_array_equal(cb.values, [1.0, 2.0, 3.0])

    def test_too_few_distinct(self):
        with pytest.raises(TooFewDistinctPoints):
            kmeans_pp_init(_pts([1.0, 1.0, 2.0]), 3, seed=0)

    def test_zero_mass_fallback(self):
        # only x=0 carries weight; remaining centers come from the
        # uniform fallback over unchosen distinct points
        pts = _pts([0.0, 1.0, 2.0], [1.0, 0.0, 0.0])
        cb = kmeans_pp_init(pts, 2, seed=5)
        assert 0.0 in cb.values
        assert set(cb.values) <= {0.0, 1.0, 2.0}
        assert len(set(cb.values)) == 2

    def test_centers_are_input_values(self):
        rng = np.random.default_rng(3)
        pts = _pts(rng.standard_normal(20), rng.uniform(0, 1, 20))
        cb = kmeans_pp_init(pts, 5, seed=1)
        assert set(cb.values) <= set(pts.x)


def _lloyd_every_iter(pts, cb, iters, trace):
    """Lloyd that runs all `iters` iterations, with no fixed-point exit."""
    centers = cb.values.copy()

    def _sse(c, a):
        r = pts.x - c[a]
        return float(np.sum(pts.wgt * r * r))

    for _ in range(iters):
        a = np.abs(centers[None, :] - pts.x[:, None]).argmin(axis=1)
        trace.append(_sse(centers, a))
        for q in range(centers.shape[0]):
            mask = a == q
            tw = float(np.sum(pts.wgt[mask]))
            if tw > 0.0:
                centers[q] = float(np.sum(pts.wgt[mask] * pts.x[mask])) / tw
        centers = np.sort(centers)
        trace.append(_sse(centers, a))
    final = np.abs(centers[None, :] - pts.x[:, None]).argmin(axis=1)
    trace.append(_sse(centers, final))
    return centers, final


@st.composite
def lloyd_case(draw):
    """Points drawn from a small value pool (duplicates), weights with
    zeros, and a free codebook that may sit outside the data (empty
    clusters) or repeat values."""
    n = draw(st.integers(1, 14))
    pool = draw(st.lists(st.floats(-8, 8, allow_subnormal=False), min_size=1, max_size=6))
    x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    w = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(0, 5),
                      min_size=n, max_size=n))
    if not any(v > 0 for v in w):
        w[0] = 1.0
    m = draw(st.integers(1, 6))
    vals = draw(st.lists(st.sampled_from(pool) | st.floats(-20, 20), min_size=m, max_size=m))
    return (WeightedPoints(x=np.array(x), wgt=np.array(w)),
            Codebook(values=np.sort(np.array(vals))), draw(st.integers(0, 60)))


class TestLloyd:
    @settings(max_examples=200, deadline=None)
    @given(lloyd_case())
    def test_fixed_point_exit_is_bit_identical(self, case):
        pts, cb, iters = case
        ref_trace: list[float] = []
        ref_c, ref_a = _lloyd_every_iter(pts, cb, iters, ref_trace)
        trace: list[float] = []
        out_cb, assign = lloyd(pts, cb, iters, trace=trace)
        assert out_cb.values.tobytes() == ref_c.tobytes()
        assert np.array_equal(assign.idx, ref_a)
        assert trace == ref_trace
        assert len(trace) == 2 * iters + 1
        bare_cb, bare_a = lloyd(pts, cb, iters)
        assert bare_cb.values.tobytes() == ref_c.tobytes()
        assert np.array_equal(bare_a.idx, ref_a)

    def test_zero_iters_assigns_only(self):
        pts = _pts([0.0, 1.0, 10.0])
        cb = Codebook(values=np.array([0.0, 8.0]))
        out_cb, assign = lloyd(pts, cb, 0)
        npt.assert_array_equal(out_cb.values, cb.values)
        npt.assert_array_equal(assign.idx, [0, 0, 1])

    def test_empty_cluster_keeps_center(self):
        pts = _pts([0.0, 0.1])
        cb = Codebook(values=np.array([0.05, 99.0]))
        out_cb, assign = lloyd(pts, cb, 3)
        assert 99.0 in out_cb.values
        npt.assert_array_equal(assign.idx, [0, 0])

    def test_weighted_mean_update(self):
        pts = _pts([0.0, 1.0], [1.0, 3.0])
        cb = Codebook(values=np.array([0.2]))
        out_cb, _ = lloyd(pts, cb, 1)
        assert out_cb.values[0] == pytest.approx(0.75, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(weighted_points(), st.integers(1, 5), st.integers(0, 6))
    def test_sse_trace_never_increases(self, pts, m, iters):
        m = min(m, len(np.unique(pts.x)))
        if m < 1:
            return
        init = kmeans_pp_init(pts, m, seed=0)
        trace: list[float] = []
        lloyd(pts, init, iters, trace=trace)
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_descent_from_init(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = _pts(rng.standard_normal(15), rng.uniform(0.01, 1, 15))
            init = kmeans_pp_init(pts, 3, seed=2)
            start = weighted_sse(pts, init, nearest_assignment(pts, init))
            cb, assign = lloyd(pts, init, 25)
            assert weighted_sse(pts, cb, assign) <= start + 1e-12


class TestExactDP:
    def test_hand_example(self):
        # {0,1} vs {10}: cost 0.5 + 0
        _, _, obj = kmeans_1d_exact(_pts([0.0, 1.0, 10.0]), 2)
        assert obj == pytest.approx(0.5, abs=1e-12)

    def test_even_grid(self):
        cb, assign, obj = kmeans_1d_exact(_pts([0.0, 2.0, 4.0, 6.0]), 2)
        assert obj == pytest.approx(4.0, abs=1e-12)
        npt.assert_array_equal(cb.values, [1.0, 5.0])
        npt.assert_array_equal(assign.idx, [0, 0, 1, 1])

    def test_zero_weight_point_free(self):
        # the zero-weight outlier joins whichever side costs nothing extra
        pts = _pts([0.0, 1.0, 50.0], [1.0, 1.0, 0.0])
        _, _, obj = kmeans_1d_exact(pts, 2)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_m_at_least_n_is_exact(self):
        cb, assign, obj = kmeans_1d_exact(_pts([3.0, 1.0, 2.0]), 5)
        assert obj == 0.0
        npt.assert_array_equal(np.sort(cb.values[assign.idx]), [1.0, 2.0, 3.0])

    def test_matches_partition_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 4))
            pts = _pts(rng.standard_normal(n), rng.uniform(0, 2, n) + 1e-3)
            _, _, dp = kmeans_1d_exact(pts, m)
            ref = kmeans_partition_oracle(pts, m)
            assert dp == pytest.approx(ref, abs=1e-9 * (1.0 + ref))

    def test_lloyd_never_beats_dp(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            pts = _pts(rng.standard_normal(n), rng.uniform(0.01, 1, n))
            m = min(3, len(np.unique(pts.x)))
            _, _, dp = kmeans_1d_exact(pts, m)
            init = kmeans_pp_init(pts, m, seed=3)
            cb, assign = lloyd(pts, init, 30)
            assert weighted_sse(pts, cb, assign) >= dp - 1e-9 * (1.0 + dp)

    def test_doubling_scales_objective_exactly(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(9)
        w = rng.uniform(0.1, 1, 9)
        _, a1, obj1 = kmeans_1d_exact(_pts(x, w), 3)
        _, a2, obj2 = kmeans_1d_exact(_pts(2.0 * x, w), 3)
        assert obj2 == 4.0 * obj1
        npt.assert_array_equal(a1.idx, a2.idx)


class TestBaselines:
    def test_rtn_exact_when_codebook_fits(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((6, 3))
        ql = rtn_quantize(W, bits=3)  # m=8 >= 6 distinct per channel
        npt.assert_array_equal(ql.W_hat, W)

    def test_rtn_uses_uniform_grid(self):
        W = np.linspace(0.0, 7.0, 8).reshape(8, 1)
        ql = rtn_quantize(W, bits=2)
        npt.assert_allclose(ql.channels[0].codebook.values,
                            np.linspace(0.0, 7.0, 4), atol=1e-13)

    def test_squeezellm_deterministic(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((20, 3))
        F = rng.uniform(0, 1, (20, 3))
        a = squeezellm_quantize(W, F, bits=2, seed=4)
        b = squeezellm_quantize(W, F, bits=2, seed=4)
        npt.assert_array_equal(a.W_hat, b.W_hat)

    def test_squeezellm_exact_when_fits(self):
        W = np.array([[1.0, -1.0], [2.0, -1.0], [1.0, 3.0]])
        F = np.ones_like(W)
        ql = squeezellm_quantize(W, F, bits=2, seed=0)
        npt.assert_array_equal(ql.W_hat, W)
        assert all(st.objective_trace == [0.0] for st in ql.channels)

    def test_squeezellm_zero_fisher_column(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((12, 2))
        F = np.ones_like(W)
        F[:, 1] = 0.0  # falls back to uniform weights
        ql = squeezellm_quantize(W, F, bits=2, seed=0)
        assert ql.W_hat.shape == W.shape

    def test_trace_monotone(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((30, 2))
        F = rng.uniform(0, 1, (30, 2))
        ql = squeezellm_quantize(W, F, bits=2, seed=1)
        for st_ in ql.channels:
            for a, b in zip(st_.objective_trace, st_.objective_trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))

    @pytest.mark.parametrize("lloyd_iters", [0, 7, 50])
    def test_clustered_trace_length(self, lloyd_iters):
        # traces.json stores these traces: one entry per half-step plus
        # the final SSE, whatever iteration Lloyd settles at
        rng = np.random.default_rng(13)
        W = rng.standard_normal((40, 5))
        W[:, 0] = np.repeat([1.0, 2.0], 20)  # fits the codebook, not clustered
        F = rng.uniform(0, 1, (40, 5))
        ql = squeezellm_quantize(W, F, bits=2, seed=3, lloyd_iters=lloyd_iters)
        assert ql.channels[0].objective_trace == [0.0]
        for st_ in ql.channels[1:]:
            assert len(st_.objective_trace) == 2 * lloyd_iters + 1

    def test_layer_accessors(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((10, 4))
        ql = squeezellm_quantize(W, np.ones_like(W), bits=2, seed=0)
        assert ql.codebook_matrix().shape == (4, 4)
        assert ql.assign_matrix().shape == (10, 4)
        C, A = ql.codebook_matrix(), ql.assign_matrix()
        npt.assert_array_equal(np.take_along_axis(C, A.T, axis=1).T, ql.W_hat)
