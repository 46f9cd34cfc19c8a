import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq.errors import (
    DimensionMismatch,
    InvalidSize,
    NonFiniteFisher,
    NonFiniteMass,
    TooFewDistinctPoints,
)
from glq import scalar_quant
from glq.oracle import kmeans_1d_exact, kmeans_partition_oracle, round_to_codebook, weighted_sse
from glq.scalar_quant import (
    DEFAULT_LLOYD_ITERS,
    QuantizedLayer,
    _distinct,
    check_codebooks,
    kmeans_pp_init,
    lloyd,
    round_rows,
    rtn_quantize,
    squeezellm_init,
    squeezellm_quantize,
)


def _pts(x, w=None) -> tuple[np.ndarray, np.ndarray]:
    """One channel's (values, weights), unit weights by default."""
    x = np.asarray(x, dtype=np.float64)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=np.float64)
    return x, w


def _lloyd_one(pts, cb, iters, trace=None):
    """lloyd on one channel (values and weights `pts`, codebook `cb`), as
    a stack of one."""
    x, w = pts
    C, A = lloyd(x[None], w[None], cb[None], iters, trace)
    return C[0], A[0]


def _kmeans_pp_one(pts, m, seed):
    """kmeans_pp_init on one channel, as a stack of one."""
    x, w = pts
    return kmeans_pp_init(x[None], w[None], m, [seed])[0]


@st.composite
def weighted_points(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    x = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    w = draw(st.lists(st.floats(0, 10), min_size=n, max_size=n))
    if not any(v > 0 for v in w):
        w[0] = 1.0
    return np.array(x), np.array(w)


def _layer(C, A=None, bits=1, traces=None):
    """A QuantizedLayer over the c x m codebooks C, all slots 0 by default."""
    C = np.asarray(C, dtype=np.float64)
    A = np.zeros((3, C.shape[0]), dtype=np.int64) if A is None else A
    return QuantizedLayer(0, bits, C, A, [[] for _ in C] if traces is None else traces)


class TestTypes:
    def test_codebook_sorted_required(self):
        with pytest.raises(ValueError, match="sorted"):
            _layer([[2.0, 1.0]])
        with pytest.raises(ValueError, match="sorted"):
            check_codebooks(np.array([[[0.0, 1.0]], [[2.0, 1.0]]]))

    def test_codebook_size_bounds(self):
        # an empty codebook, 257 values, and any m other than 2**bits
        with pytest.raises(InvalidSize):
            _layer(np.zeros((1, 0)))
        for bits in (8, 9):
            with pytest.raises(InvalidSize):
                _layer(np.zeros((1, 257)), bits=bits)
        with pytest.raises(InvalidSize):
            _layer(np.zeros((1, 4)), bits=1)

    def test_codebook_finite_required(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                _layer([[0.0, bad]])
            with pytest.raises(ValueError, match="finite"):
                check_codebooks(np.array([[0.0, 1.0], [0.0, bad]]))

    def test_layer_slots_shapes_and_traces_checked(self):
        C = np.array([[0.0, 1.0], [-1.0, 2.0]])
        with pytest.raises(InvalidSize):
            _layer(C, np.array([[0, 2]]))
        with pytest.raises(InvalidSize):
            _layer(C, np.array([[-1, 0]]))
        with pytest.raises(DimensionMismatch):  # one codebook row per column of A
            _layer(C, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            _layer(C[0])
        with pytest.raises(DimensionMismatch):
            _layer(C, traces=[[]])
        ql = _layer(C, np.array([[0, 1], [1, 0]]), traces=[[3.0], [2.0, 1.0]])
        npt.assert_array_equal(ql.W_hat, [[0.0, 2.0], [1.0, -1.0]])
        assert ql.W_hat.flags["C_CONTIGUOUS"]
        assert ql.channels[1].objective_trace is ql.traces[1]

    def test_point_stacks_validated(self):
        # kmeans_pp_init and lloyd check their r x n stacks once at entry,
        # squeezellm_init its d x c slice (a zero Fisher column is not an
        # error there: it falls back to unit weights)
        X = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 6.0]])
        Wt = np.ones_like(X)

        def entries(X, Wt):
            yield "kmeans_pp_init", lambda: kmeans_pp_init(X, Wt, 2, [0] * len(X))
            yield "lloyd", lambda: lloyd(X, Wt, np.zeros((len(X), 2)), 3)
            yield "squeezellm_init", lambda: squeezellm_init(np.asarray(X).T, np.asarray(Wt).T,
                                                             1, [0] * len(X))

        cases = [
            (np.where(X == 4.0, np.nan, X), Wt, ValueError, "points and weights must be finite"),
            (X, np.where(X == 4.0, np.inf, Wt), ValueError, "points and weights must be finite"),
            (X, np.where(X == 4.0, -1.0, Wt), ValueError, "weights must be >= 0"),
            (X[:, :2], Wt, DimensionMismatch, "equal shape|vs fisher diag"),
            (X[:, :0], Wt[:, :0], InvalidSize, "need at least one point"),
        ]
        for Xc, Wc, err, text in cases:
            for name, call in entries(Xc, Wc):
                if name == "squeezellm_init" and np.isinf(Wc).any():
                    # there the weights are a Fisher diagonal, refused by
                    # its own error (TestNonFiniteFisher)
                    err, text = NonFiniteFisher, "^channel 1: "
                with pytest.raises(err, match=text):
                    call()
        zero_row = np.where(X > 2.0, 0.0, Wt)  # channel 1 has no weight
        for _, call in list(entries(X, zero_row))[:2]:
            with pytest.raises(ValueError, match="^weights must not all be zero$"):
                call()
        with pytest.raises(DimensionMismatch):  # one row, not an r x n stack
            kmeans_pp_init(X[0], Wt[0], 2, [0])
        with pytest.raises(DimensionMismatch):
            lloyd(X[0], Wt[0], np.zeros((1, 2)), 3)


class TestRounding:
    def test_nearest(self):
        cb = np.array([0.0, 1.0, 4.0])
        assert round_to_codebook(0.9, cb) == 1
        assert round_to_codebook(3.0, cb) == 2
        assert round_to_codebook(-5.0, cb) == 0

    def test_midpoint_tie_takes_smaller_value(self):
        cb = np.array([1.0, 3.0])
        assert round_to_codebook(2.0, cb) == 0
        cb2 = np.array([-1.0, 1.0])
        assert round_to_codebook(0.0, cb2) == 0

    def test_against_linear_scan_oracle(self):
        rng = np.random.default_rng(0)
        vals = np.sort(rng.standard_normal(7))
        for x in rng.uniform(-3, 3, size=1000):
            got = round_to_codebook(float(x), vals)
            want = min(range(7), key=lambda q: (abs(vals[q] - x), q))
            assert got == want

    def test_round_rows_matches_scalar(self):
        rng = np.random.default_rng(1)
        C = np.sort(rng.standard_normal((5, 4)), axis=1)
        u = rng.standard_normal(5)
        idx = round_rows(u, C)
        for j in range(5):
            assert idx[j] == round_to_codebook(float(u[j]), C[j])


def _kmeans_pp_one_channel(pts, m, seed):
    """kmeans_pp_init as it ran one channel (values, weights) at a time:
    one Generator.choice per draw. A draw whose total mass is not finite
    raises NonFiniteMass, as the stack does."""
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    vals, wsum = _distinct(*pts)
    if m > vals.shape[0]:
        raise TooFewDistinctPoints(
            f"asked for {m} centers but only {vals.shape[0]} distinct values"
        )
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    d2 = np.full(vals.shape[0], np.inf)
    for _ in range(m):
        if chosen:
            mass = wsum * d2
        else:
            mass = wsum.copy()
        mass[chosen] = 0.0
        total = float(np.sum(mass))
        if not np.isfinite(total):
            raise NonFiniteMass(f"total mass {total}")
        if total > 0.0:
            pick = int(rng.choice(vals.shape[0], p=mass / total))
        else:
            cands = np.setdiff1d(np.arange(vals.shape[0]), np.array(chosen, dtype=int))
            pick = int(rng.choice(cands))
        chosen.append(pick)
        d2 = np.minimum(d2, (vals - vals[pick]) ** 2)
    return np.sort(vals[np.array(chosen)])


@st.composite
def kmeans_pp_stack(draw):
    """r x n stacks of values and weights, one of six kinds per channel: distinct
    values; values from a pool with duplicates and a -0.0/0.0 pair;
    unit weights (a zero-Fisher channel); mostly zero weights, so draws
    fall back to uniform; values near +-1e300, whose squared distances
    overflow to a non-finite sampling mass (inf, or NaN where a zero
    weight meets an infinite distance); exactly m distinct values."""
    # past 128 values numpy's pairwise sum of a row splits in two
    n = draw(st.integers(1, 40) | st.integers(129, 300))
    c, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(
        ["distinct", "duplicates", "uniform", "sparse", "huge", "exactly_m"]),
        min_size=c, max_size=c))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X, Wt = np.empty((c, n)), np.empty((c, n))
    for i, kind in enumerate(kinds):
        x, w = rng.standard_normal(n), rng.uniform(0, 2, n)
        if kind == "duplicates":
            x = rng.choice([-0.0, 0.0, 1.5, -2.0, 3.25], n)
        elif kind == "uniform":
            w = np.ones(n)
        elif kind == "sparse":
            w[rng.random(n) < 0.8] = 0.0
        elif kind == "huge":
            x *= 1e300
            w[rng.random(n) < 0.5] = 0.0
        elif kind == "exactly_m":
            x = rng.permutation(np.resize(rng.standard_normal(m), n))
        if not np.any(w > 0):
            w[0] = 1.0
        X[i], Wt[i] = x, w
    return X, Wt, m, draw(st.integers(0, 2 ** 32 - 1))


class TestKmeansPP:
    def test_deterministic(self):
        pts = _pts(np.random.default_rng(2).standard_normal(30))
        a = _kmeans_pp_one(pts, 4, 9)
        b = _kmeans_pp_one(pts, 4, 9)
        npt.assert_array_equal(a, b)

    def test_m_equals_distinct_returns_them(self):
        pts = _pts([3.0, 1.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        cb = _kmeans_pp_one(pts, 3, 0)
        npt.assert_array_equal(cb, [1.0, 2.0, 3.0])

    def test_too_few_distinct(self):
        with pytest.raises(TooFewDistinctPoints):
            _kmeans_pp_one(_pts([1.0, 1.0, 2.0]), 3, 0)

    def test_zero_mass_fallback(self):
        # only x=0 carries weight; remaining centers come from the
        # uniform fallback over unchosen distinct points
        pts = _pts([0.0, 1.0, 2.0], [1.0, 0.0, 0.0])
        cb = _kmeans_pp_one(pts, 2, 5)
        assert 0.0 in cb
        assert set(cb) <= {0.0, 1.0, 2.0}
        assert len(set(cb)) == 2

    @settings(max_examples=300, deadline=None)
    @given(kmeans_pp_stack())
    def test_stack_equals_one_channel_at_a_time(self, case):
        # bit for bit, and every channel's generator ends in the same state
        X, Wt, m, seed = case
        ref_rngs = [np.random.default_rng((seed, j)) for j in range(len(X))]
        rngs = [np.random.default_rng((seed, j)) for j in range(len(X))]
        want, errors = [], set()
        with np.errstate(over="ignore", invalid="ignore"):
            for x, w, rng in zip(X, Wt, ref_rngs):
                try:
                    want.append(_kmeans_pp_one_channel((x.copy(), w.copy()), m, rng))
                except (TooFewDistinctPoints, NonFiniteMass) as exc:
                    errors.add(type(exc))
            if errors:  # too few values is found before any draw
                expect = TooFewDistinctPoints if TooFewDistinctPoints in errors else NonFiniteMass
                with pytest.raises(expect):
                    kmeans_pp_init(X, Wt, m, rngs)
                return
            got = kmeans_pp_init(X, Wt, m, rngs)
            one = _kmeans_pp_one((X[0], Wt[0]), m, (seed, 0))
        assert got.tobytes() == np.stack(want).tobytes()
        assert one.tobytes() == want[0].tobytes()
        for rng, ref in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_non_finite_mass_raises_a_named_error(self):
        # squared distances overflow: the second draw's mass is infinite
        pts = _pts([-1e300, 0.0, 1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteMass):
                _kmeans_pp_one_channel(pts, 2, 0)
            with pytest.raises(NonFiniteMass, match="channel 1: k-means.. draw 1 "):
                kmeans_pp_init(np.array([[1.0, 2.0, 3.0], pts[0]]), np.ones((2, 3)), 2, [0, 1])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_overflowing_mass_is_refused_not_sampled(self, seed):
        # huge weights: weight times squared distance is inf (numpy's
        # choice raised a bare "Probabilities contain NaN"); zero weights
        # at an infinite distance: 0 * inf is NaN, and the draw fell back
        # to uniform, picking a zero-weight point for seeds 2 and 3; no
        # overflow warning comes ahead of the error
        x = np.arange(5) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w, total in ((np.full(5, 1e160), "inf"), (np.array([1.0, 0, 0, 0, 1]), "nan")):
                with pytest.raises(NonFiniteMass,
                                   match=f"^channel 0: k-means.. draw 1 has sampling mass {total}$"):
                    kmeans_pp_init(x[None], w[None], 2, [seed])

    def test_centers_are_input_values(self):
        rng = np.random.default_rng(3)
        pts = _pts(rng.standard_normal(20), rng.uniform(0, 1, 20))
        cb = _kmeans_pp_one(pts, 5, 1)
        assert set(cb) <= set(pts[0])


def _index_order_sum(v):
    """The entries of v added one at a time in index order, starting
    from 0.0 (Python's sum() compensates; a cumsum starts from v[0])."""
    total = 0.0
    for t in v.tolist():
        total += t
    return total


def _lloyd_every_iter(pts, cb, iters, trace):
    """Lloyd on one channel (values, weights) that runs all `iters`
    iterations, with no fixed-point exit."""
    x, wgt = (np.ascontiguousarray(v) for v in pts)
    centers = cb.copy()

    def _sse(c, a):
        r = x - c[a]
        return float(np.sum(wgt * r * r))

    for _ in range(iters):
        a = np.abs(centers[None, :] - x[:, None]).argmin(axis=1)
        trace.append(_sse(centers, a))
        for q in range(centers.shape[0]):
            mask = a == q
            tw = _index_order_sum(wgt[mask])
            if tw > 0.0:
                centers[q] = _index_order_sum(wgt[mask] * x[mask]) / tw
        centers = np.sort(centers)
        trace.append(_sse(centers, a))
    final = np.abs(centers[None, :] - x[:, None]).argmin(axis=1)
    trace.append(_sse(centers, final))
    return centers, final


@st.composite
def lloyd_case(draw):
    """Points drawn from a small value pool (duplicates), weights with
    zeros, and a free codebook that may sit outside the data (empty
    clusters) or repeat values. Up to 300 points, so a cluster can hold
    hundreds; past 14 points the values and weights come from a drawn
    numpy seed, which keeps generation fast."""
    n = draw(st.integers(1, 300))
    pool = draw(st.lists(st.floats(-8, 8, allow_subnormal=False), min_size=1, max_size=6))
    weights = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(0, 5)
    if n <= 14:
        x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        w = draw(st.lists(weights, min_size=n, max_size=n))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        x = [pool[k] for k in rng.integers(0, len(pool), n)]
        w = np.where(rng.random(n) < 0.5, rng.choice([0.0, 0.0, 0.5, 1.0, 3.0], n),
                     rng.uniform(0, 5, n)).tolist()
    if not any(v > 0 for v in w):
        w[0] = 1.0
    m = draw(st.integers(1, 6))
    vals = draw(st.lists(st.sampled_from(pool) | st.floats(-20, 20), min_size=m, max_size=m))
    return ((np.array(x, dtype=np.float64), np.array(w, dtype=np.float64)),
            np.sort(np.array(vals, dtype=np.float64)), draw(st.integers(1, 60)))


class TestLloyd:
    @settings(max_examples=200, deadline=None)
    @given(lloyd_case())
    def test_fixed_point_exit_is_bit_identical(self, case):
        pts, cb, iters = case
        ref_trace: list[float] = []
        ref_c, ref_a = _lloyd_every_iter(pts, cb, iters, ref_trace)
        trace: list[float] = []
        out_cb, assign = _lloyd_one(pts, cb, iters, trace)
        assert out_cb.tobytes() == ref_c.tobytes()
        assert np.array_equal(assign, ref_a)
        assert trace == ref_trace
        assert len(trace) == 2 * iters + 1
        bare_cb, bare_a = _lloyd_one(pts, cb, iters)
        assert bare_cb.tobytes() == ref_c.tobytes()
        assert np.array_equal(bare_a, ref_a)

    @settings(max_examples=100, deadline=None)
    @given(lloyd_case())
    def test_distinct_weights_match_scatter_add(self, case):
        # np.add.at, the scatter-add that bincount replaced: both add the
        # weights in index order
        (x, w), _, _ = case
        vals, wsum = _distinct(x, w)
        ref_vals, inv = np.unique(x, return_inverse=True)
        ref = np.zeros(ref_vals.shape[0])
        np.add.at(ref, inv, w)
        assert vals.tobytes() == ref_vals.tobytes()
        assert wsum.tobytes() == ref.tobytes()

    def test_zero_iters_assigns_only(self):
        # one channel: lloyd refuses 0 iterations; the assign-only step is
        # round_rows against the codebook
        pts = _pts([0.0, 1.0, 10.0])
        cb = np.array([0.0, 8.0])
        with pytest.raises(InvalidSize, match=r"^iters must be >= 1, got 0$"):
            _lloyd_one(pts, cb, 0)
        npt.assert_array_equal(round_rows(pts[0], cb), [0, 0, 1])

    def test_empty_cluster_keeps_center(self):
        pts = _pts([0.0, 0.1])
        cb = np.array([0.05, 99.0])
        out_cb, assign = _lloyd_one(pts, cb, 3)
        assert 99.0 in out_cb
        npt.assert_array_equal(assign, [0, 0])

    def test_weighted_mean_update(self):
        pts = _pts([0.0, 1.0], [1.0, 3.0])
        cb = np.array([0.2])
        out_cb, _ = _lloyd_one(pts, cb, 1)
        assert out_cb[0] == pytest.approx(0.75, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(weighted_points(), st.integers(1, 5), st.integers(1, 6))
    def test_sse_trace_never_increases(self, pts, m, iters):
        m = min(m, len(np.unique(pts[0])))
        if m < 1:
            return
        init = _kmeans_pp_one(pts, m, 0)
        trace: list[float] = []
        _lloyd_one(pts, init, iters, trace)
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_descent_from_init(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = _pts(rng.standard_normal(15), rng.uniform(0.01, 1, 15))
            init = _kmeans_pp_one(pts, 3, 2)
            start = weighted_sse(*pts, init, round_rows(pts[0], init))
            cb, assign = _lloyd_one(pts, init, 25)
            assert weighted_sse(*pts, cb, assign) <= start + 1e-12


def _cluster_means_by_loop(w, wx, a, c):
    """_cluster_means with every cluster's sums of w and w x taken by
    `_index_order_sum`; a cluster of no positive weight keeps its
    center."""
    out = c.copy()
    for i, q in np.ndindex(*c.shape):
        mask = a[i] == q
        tw = _index_order_sum(w[i][mask])
        if tw > 0.0:
            out[i, q] = _index_order_sum(wx[i][mask]) / tw
    return out


def _mixed_values(rng, n, zeros):
    """n values of both signs and magnitudes 1e-3..1e3, a fraction
    `zeros` of them replaced by +0.0 or -0.0."""
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
    z = rng.random(n) < zeros
    v[z] = np.where(rng.random(int(z.sum())) < 0.5, -0.0, 0.0)
    return v


# cluster sizes on either side of the 8 lanes and the 128-element
# blocks of numpy's pairwise .sum(), which the sums no longer follow
CLUSTER_SIZES = [1, 7, 8, 9, 128, 129, 300]


class TestClusterSums:
    """Every cluster's sums of w and w x add its points in index order
    from 0.0, the means compared byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_one_cluster_is_its_index_order_loop(self, n, zeros, seed):
        # every point of the channel in the one cluster
        rng = np.random.default_rng(seed)
        x = _mixed_values(rng, n, zeros).reshape(1, n)
        w = np.where(rng.random((1, n)) < zeros, 0.0, rng.uniform(0, 2, (1, n)))
        a = np.zeros((1, n), dtype=np.int64)
        c = rng.standard_normal((1, 1))
        got = scalar_quant._cluster_means(w, w * x, a, c)
        assert got.tobytes() == _cluster_means_by_loop(w, w * x, a, c).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 400), st.integers(1, 8),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
    def test_every_cluster_is_its_index_order_loop(self, k, n, m, zeros, seed):
        rng = np.random.default_rng(seed)
        x = _mixed_values(rng, k * n, zeros).reshape(k, n)
        w = np.where(rng.random((k, n)) < zeros, 0.0, rng.uniform(0, 2, (k, n)))
        a = rng.integers(0, m, (k, n))
        c = np.sort(rng.standard_normal((k, m)), axis=1)
        got = scalar_quant._cluster_means(w, w * x, a, c)
        assert got.tobytes() == _cluster_means_by_loop(w, w * x, a, c).tobytes()

    @pytest.mark.parametrize("zeros", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_clusters_in_any_order(self, seed, zeros):
        # clusters of every size in CLUSTER_SIZES with their points
        # interleaved, a zero-weight cluster (slot 7) and an empty one
        # (slot 8), which both keep their centers
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(8), CLUSTER_SIZES + [5])
        a = np.stack([rng.permutation(labels) for _ in range(3)])
        x = _mixed_values(rng, a.size, zeros).reshape(a.shape)
        w = rng.uniform(0.01, 2, a.shape)
        w[a == 7] = 0.0
        c = np.sort(rng.standard_normal((3, 9)), axis=1)
        got = scalar_quant._cluster_means(w, w * x, a, c)
        assert got.tobytes() == _cluster_means_by_loop(w, w * x, a, c).tobytes()
        assert got[:, 7:].tobytes() == c[:, 7:].tobytes()

    def test_signed_zeros(self):
        # a cluster of only -0.0 sums to +0.0, the loop's start value
        for n in CLUSTER_SIZES:
            for v in (-0.0, 0.0):
                x, w = np.full((1, n), v), np.full((1, n), 0.5)
                got = scalar_quant._cluster_means(w, w * x, np.zeros((1, n), dtype=np.int64),
                                                  np.array([[1.0]]))
                assert got.tobytes() == np.array([[0.0]]).tobytes()


@st.composite
def lloyd_stack(draw):
    """r channels of n points each, every channel from its own small value
    pool (duplicates) with zero weights, from one drawn numpy seed; sorted
    starting codebooks that may sit outside the data (empty and
    zero-weight clusters) or repeat values. Pools of different sizes make
    the channels settle at different iterations; a channel whose pool
    fits the codebook can start at its fixed point."""
    r = draw(st.integers(1, 6))
    n = draw(st.sampled_from([1, 2, 9, 40, 129, 300]) | st.integers(1, 300))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X, Wt, C = np.empty((r, n)), np.empty((r, n)), np.empty((r, m))
    for i in range(r):
        pool = rng.uniform(-8, 8, rng.integers(1, 8))
        x = pool[rng.integers(0, pool.shape[0], n)]
        w = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 5, n))
        w[rng.integers(0, n)] = 1.0
        X[i], Wt[i] = x, w
        C[i] = np.sort(np.where(rng.random(m) < 0.6, rng.choice(pool, m), rng.uniform(-20, 20, m)))
    return X, Wt, C, draw(st.integers(1, 60))


class TestLloydStack:
    @settings(max_examples=150, deadline=None)
    @given(lloyd_stack())
    def test_stack_equals_every_iteration_per_channel(self, case):
        X, Wt, C0, iters = case
        trace: list[float] = []
        C, A = lloyd(X, Wt, C0, iters, trace)
        bare_C, bare_A = lloyd(X, Wt, C0, iters)
        assert C.tobytes() == bare_C.tobytes() and A.tobytes() == bare_A.tobytes()
        span = 2 * iters + 1
        assert len(trace) == len(X) * span
        for i, p in enumerate(zip(X, Wt)):
            ref_trace: list[float] = []
            ref_c, ref_a = _lloyd_every_iter(p, C0[i], iters, ref_trace)
            assert C[i].tobytes() == ref_c.tobytes()
            npt.assert_array_equal(A[i], ref_a)
            assert trace[i * span:(i + 1) * span] == ref_trace

    def test_channels_settle_at_different_iterations(self):
        # one channel starts at its fixed point, the others move for
        # several iterations; the settled one keeps its padded trace
        rng = np.random.default_rng(5)
        X = np.stack([np.repeat([0.0, 1.0, 5.0], 10), rng.standard_normal(30),
                      rng.standard_normal(30)])
        Wt = np.ones_like(X)
        Wt[1:] = [rng.uniform(0.1, 1.0, 30) for _ in range(2)]
        C0 = np.array([[0.0, 1.0, 5.0], [-0.5, 0.0, 0.5], [-2.0, 0.1, 0.2]])
        trace: list[float] = []
        C, A = lloyd(X, Wt, C0, 40, trace)
        traces = [trace[i * 81:(i + 1) * 81] for i in range(3)]
        assert C[0].tobytes() == C0[0].tobytes()
        assert len(set(traces[0])) == 1
        for i, p in enumerate(zip(X, Wt)):
            ref_trace: list[float] = []
            ref_c, ref_a = _lloyd_every_iter(p, C0[i], 40, ref_trace)
            assert C[i].tobytes() == ref_c.tobytes() and traces[i] == ref_trace
            npt.assert_array_equal(A[i], ref_a)
        assert traces[1][2:4] != traces[1][4:6]  # still moving after the first iteration

    def test_zero_iters_assigns_against_the_input(self):
        # lloyd runs at least one iteration and refuses 0; assigning each
        # channel against its input codebook alone is round_rows
        X = np.array([[0.0, 1.0, 10.0], [3.0, -3.0, 0.4]])
        C0 = np.array([[0.0, 8.0], [-1.0, 1.0]])
        trace: list[float] = []
        with pytest.raises(InvalidSize, match=r"^iters must be >= 1, got 0$"):
            lloyd(X, np.ones_like(X), C0, 0, trace)
        assert trace == []
        npt.assert_array_equal(round_rows(X, C0[:, None, :]), [[0, 0, 1], [1, 0, 1]])

    def test_channel_ignores_its_stack_mates(self):
        # a channel alone (a stack of one) and inside a stack give the
        # same bits, zero-weight and empty clusters included
        X = np.array([[0.0, 0.2, 0.9, 1.0, 4.0], [5.0, -1.0, 2.5, 2.5, 0.0]])
        Wt = np.array([[1.0, 0.0, 2.0, 1.0, 3.0], [0.5, 1.0, 1.0, 0.0, 2.0]])
        C0 = np.array([[0.1, 0.5, 9.0], [-1.0, 0.0, 1.0]])  # 9.0 stays empty
        one_trace: list[float] = []
        one_C, one_A = lloyd(X[:1], Wt[:1], C0[:1], 10, one_trace)
        trace: list[float] = []
        C, A = lloyd(X, Wt, C0, 10, trace)
        assert C[0].tobytes() == one_C[0].tobytes() and 9.0 in C[0]
        npt.assert_array_equal(A[0], one_A[0])
        assert trace[:21] == one_trace

    def test_stack_arguments_are_checked(self):
        X = np.array([[0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            lloyd(X, np.ones((1, 3)), np.zeros((1, 1)), 3)
        with pytest.raises(DimensionMismatch):
            lloyd(X, np.ones_like(X), np.zeros((2, 1)), 3)
        with pytest.raises(DimensionMismatch):
            lloyd(X, np.ones_like(X), np.zeros(1), 3)
        with pytest.raises(InvalidSize):
            lloyd(X, np.ones_like(X), np.zeros((1, 1)), -1)


class TestLloydPool:
    """Untraced and traced `lloyd` over stacks wider than its pool: the
    pool refills as channels settle, each channel at its own iteration,
    and every channel keeps the bits of one run of all iterations."""

    @staticmethod
    def _check(X, Wt, C0, iters, width):
        n, m = X.shape[1], C0.shape[1]
        with mock.patch.object(scalar_quant, "LLOYD_STACK", width * n * m):
            assert scalar_quant._pool_width(n, m) == width
            C, A = lloyd(X, Wt, C0, iters)
            trace: list[float] = []
            traced_C, traced_A = lloyd(X, Wt, C0, iters, trace)
        assert C.tobytes() == traced_C.tobytes() and A.tobytes() == traced_A.tobytes()
        span = 2 * iters + 1
        assert len(trace) == len(X) * span
        for i, p in enumerate(zip(X, Wt)):
            ref_trace: list[float] = []
            ref_c, ref_a = _lloyd_every_iter(p, C0[i], iters, ref_trace)
            assert C[i].tobytes() == ref_c.tobytes()
            npt.assert_array_equal(A[i], ref_a)
            assert trace[i * span:(i + 1) * span] == ref_trace

    @settings(max_examples=150, deadline=None)
    @given(lloyd_stack(), st.sampled_from([1, 2, 3]))
    def test_pool_equals_every_iteration_per_channel(self, case, width):
        self._check(*case, width)

    @pytest.mark.parametrize("iters", [1, 40])
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_settling_at_different_iterations(self, iters, width):
        # channel 0 starts at its fixed point, channel 3 has a zero-weight
        # cluster and an empty one (99.0), the others move for a while
        rng = np.random.default_rng(8)
        X = np.stack([np.repeat([0.0, 1.0, 5.0], 10)] + [rng.standard_normal(30)
                                                         for _ in range(4)])
        Wt = np.ones_like(X)
        Wt[1:] = rng.uniform(0.1, 1.0, (4, 30))
        Wt[3, X[3] > 1.0] = 0.0
        C0 = np.array([[0.0, 1.0, 5.0], [-0.5, 0.0, 0.5], [-2.0, 0.1, 0.2],
                       [-1.0, 1.5, 99.0], [0.0, 0.3, 0.6]])
        self._check(X, Wt, C0, iters, width)


class TestExactDP:
    def test_hand_example(self):
        # {0,1} vs {10}: cost 0.5 + 0
        _, _, obj = kmeans_1d_exact(*_pts([0.0, 1.0, 10.0]), 2)
        assert obj == pytest.approx(0.5, abs=1e-12)

    def test_even_grid(self):
        cb, assign, obj = kmeans_1d_exact(*_pts([0.0, 2.0, 4.0, 6.0]), 2)
        assert obj == pytest.approx(4.0, abs=1e-12)
        npt.assert_array_equal(cb, [1.0, 5.0])
        npt.assert_array_equal(assign, [0, 0, 1, 1])

    def test_zero_weight_point_free(self):
        # the zero-weight outlier joins whichever side costs nothing extra
        _, _, obj = kmeans_1d_exact(*_pts([0.0, 1.0, 50.0], [1.0, 1.0, 0.0]), 2)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_m_at_least_n_is_exact(self):
        cb, assign, obj = kmeans_1d_exact(*_pts([3.0, 1.0, 2.0]), 5)
        assert obj == 0.0
        npt.assert_array_equal(np.sort(cb[assign]), [1.0, 2.0, 3.0])

    def test_matches_partition_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 4))
            pts = _pts(rng.standard_normal(n), rng.uniform(0, 2, n) + 1e-3)
            _, _, dp = kmeans_1d_exact(*pts, m)
            ref = kmeans_partition_oracle(*pts, m)
            assert dp == pytest.approx(ref, abs=1e-9 * (1.0 + ref))

    def test_lloyd_never_beats_dp(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            pts = _pts(rng.standard_normal(n), rng.uniform(0.01, 1, n))
            m = min(3, len(np.unique(pts[0])))
            _, _, dp = kmeans_1d_exact(*pts, m)
            init = _kmeans_pp_one(pts, m, 3)
            cb, assign = _lloyd_one(pts, init, 30)
            assert weighted_sse(*pts, cb, assign) >= dp - 1e-9 * (1.0 + dp)

    def test_doubling_scales_objective_exactly(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(9)
        w = rng.uniform(0.1, 1, 9)
        _, a1, obj1 = kmeans_1d_exact(*_pts(x, w), 3)
        _, a2, obj2 = kmeans_1d_exact(*_pts(2.0 * x, w), 3)
        assert obj2 == 4.0 * obj1
        npt.assert_array_equal(a1, a2)


class TestBaselines:
    def test_rtn_exact_when_codebook_fits(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((6, 3))
        ql = rtn_quantize(W, bits=3)  # m=8 >= 6 distinct per channel
        npt.assert_array_equal(ql.W_hat, W)

    def test_rtn_uses_uniform_grid(self):
        W = np.linspace(0.0, 7.0, 8).reshape(8, 1)
        ql = rtn_quantize(W, bits=2)
        npt.assert_allclose(ql.C[0], np.linspace(0.0, 7.0, 4), atol=1e-13)

    def test_rtn_rounds_like_the_scalar_oracle(self):
        # one broadcast round_rows(W, C) against one scalar rounding per
        # entry; the grid of column 0 over [0, 6] is 0, 2, 4, 6, so 1, 3
        # and 5 are ties, which go to the smaller value
        rng = np.random.default_rng(15)
        W = rng.standard_normal((40, 6))
        W[:, 0] = np.resize(np.arange(7.0), 40)
        W[:, 1] = np.resize([-1.0, 0.0, 0.5, 1.0], 40)  # fits the codebook
        W[::2, 2] = W[1::2, 2]  # duplicate values
        for bits in (1, 2, 3):
            ql = rtn_quantize(W, bits)
            for i, j in np.ndindex(W.shape):
                assert ql.A[i, j] == round_to_codebook(float(W[i, j]), ql.C[j]), (bits, i, j)
        assert rtn_quantize(W, 2).A[1, 0] == 0 and rtn_quantize(W, 2).A[3, 0] == 1

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
        assert ql.traces == [[0.0], [0.0]]

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
        for tr in ql.traces:
            for a, b in zip(tr, tr[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))

    @pytest.mark.parametrize("lloyd_iters", [1, 7, 50])
    def test_clustered_trace_length(self, lloyd_iters):
        # traces.json stores these traces: one entry per half-step plus
        # the final SSE, whatever iteration Lloyd settles at; squeezellm
        # runs DEFAULT_LLOYD_ITERS, lloyd any number from 1
        rng = np.random.default_rng(13)
        W = rng.standard_normal((40, 5))
        W[:, 0] = np.repeat([1.0, 2.0], 20)  # fits the codebook, not clustered
        F = rng.uniform(0, 1, (40, 5))
        ql = squeezellm_quantize(W, F, bits=2, seed=3)
        assert ql.traces[0] == [0.0]
        for tr in ql.traces[1:]:
            assert len(tr) == 2 * DEFAULT_LLOYD_ITERS + 1
        X, Wt = W.T[1:], F.T[1:]
        trace: list = []
        lloyd(X, Wt, kmeans_pp_init(X, Wt, 4, [(3, j) for j in range(1, 5)]), lloyd_iters, trace)
        assert len(trace) == 4 * (2 * lloyd_iters + 1)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_init_arrays_equal_the_layer(self, bits):
        # without traces (run_job's LNQ init) the arrays are those of the
        # traced baseline layer; exact, zero-Fisher and duplicate columns
        rng = np.random.default_rng(14)
        W = rng.standard_normal((30, 6))
        F = rng.uniform(0, 1, (30, 6))
        W[:, 0] = np.repeat([1.0, -0.0, 0.0], 10)
        F[:, 1] = 0.0
        W[::2, 2] = W[1::2, 2]
        ql = squeezellm_quantize(W, F, bits, seed=5)
        seeds = [(5, j) for j in range(W.shape[1])]
        C, A = squeezellm_init(W, F, bits, seeds)
        assert C.tobytes() == ql.codebook_matrix().tobytes()
        assert A.tobytes() == ql.assign_matrix().tobytes()
        traces: list = []
        C2, A2 = squeezellm_init(W, F, bits, seeds, traces=traces)
        assert C2.tobytes() == C.tobytes() and A2.tobytes() == A.tobytes()
        assert traces == ql.traces

    @pytest.mark.parametrize("bits,d,seed", [(1, 30, 0), (2, 30, 1), (3, 30, 2), (2, 200, 3)])
    def test_init_equals_one_channel_at_a_time(self, bits, d, seed):
        # bit for bit against the one-channel references above, with and
        # without traces, on exact-fit, +-0.0, zero-Fisher and duplicate
        # columns; trained weights rarely repeat a value, so the bench
        # digests never reach the exact-fit branch
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((d, 8))
        F = rng.uniform(0, 1, (d, 8))
        m = 2 ** bits
        W[:, 0] = np.resize(rng.standard_normal(m), d)  # exactly m values
        W[:, 1] = np.resize([1.5, -0.0, 0.0, -2.0][:m], d)  # fits, with a signed zero pair
        W[::3, 2] = rng.choice([-0.0, 0.0], W[::3, 2].shape)  # clustered, with signed zeros
        F[:, 3] = 0.0  # zero Fisher: unit weights
        W[::2, 4] = W[1::2, 4]  # duplicate values
        W[:, 5], F[:, 5] = W[:, 6], F[:, 6]  # duplicate column
        F[::2, 7] = 0.0  # half the weights zero
        C, A, traces = _squeezellm_one_channel_at_a_time(W, F, bits, seed)
        for got_traces in (None, []):
            got_C, got_A = squeezellm_init(W, F, bits, [(seed, j) for j in range(8)],
                                           traces=got_traces)
            assert got_C.tobytes() == C.tobytes() and got_A.tobytes() == A.tobytes()
        assert got_traces == traces

    def test_layer_accessors(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((10, 4))
        ql = squeezellm_quantize(W, np.ones_like(W), bits=2, seed=0)
        assert ql.codebook_matrix().shape == (4, 4)
        assert ql.assign_matrix().shape == (10, 4)
        C, A = ql.codebook_matrix(), ql.assign_matrix()
        npt.assert_array_equal(np.take_along_axis(C, A.T, axis=1).T, ql.W_hat)


class TestNonFiniteFisher:
    # a non-finite Fisher diagonal is refused before the zero-weight
    # fallback could give its channel unit weights
    @pytest.mark.parametrize("where", ["all", "one"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refused_naming_the_channel(self, where, value):
        rng = np.random.default_rng(16)
        W = rng.standard_normal((20, 3))
        F = rng.uniform(0, 1, (20, 3))
        if where == "all":
            F[:, 1] = value
        else:
            F[7, 1] = value
        text = f"^channel 1: Fisher diagonal entry {0 if where == 'all' else 7} is {value}$"
        with pytest.raises(NonFiniteFisher, match=text):
            squeezellm_init(W, F, 2, [0, 1, 2])
        with pytest.raises(NonFiniteFisher, match=text):
            squeezellm_quantize(W, F, 2, seed=0)


def _squeezellm_one_channel_at_a_time(W, F, bits, seed, lloyd_iters=50):
    """squeezellm_init as it ran one channel at a time: np.unique of the
    column decides between an exact codebook and k-means++ seeding
    (substream (seed, j)) followed by Lloyd, each on that channel alone.
    Returns the codebooks, the assignments and the SSE traces."""
    m = 2 ** bits
    d, c = W.shape
    C, A, traces = np.empty((c, m)), np.empty((d, c), dtype=np.int64), []
    for j in range(c):
        x, w = W[:, j].copy(), F[:, j].copy()
        if not np.any(w > 0):
            w = np.ones(d)
        distinct = np.unique(x)
        if distinct.shape[0] <= m:
            C[j] = np.concatenate([distinct, np.full(m - distinct.shape[0], distinct[-1])])
            A[:, j] = [round_to_codebook(v, C[j]) for v in x]
            traces.append([0.0])
        else:
            init = _kmeans_pp_one_channel((x, w), m, (seed, j))
            traces.append([])
            C[j], A[:, j] = _lloyd_every_iter((x, w), init, lloyd_iters, traces[-1])
    return C, A, traces
