import functools
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq import lnq
from glq.errors import DimensionMismatch, InvalidSize, ZeroDiagonal
from glq.linalg import cholesky, least_squares
from glq.lnq import cd_cycle, codebook_closed_form, lnq_quantize
from glq.oracle import (
    cd_step_naive,
    exhaustive_lnq,
    naive_candidate_objectives,
    naive_cd_cycle,
)
from glq.scalar_quant import round_rows

from conftest import random_lnq_instance, random_spd, uniform_init


def _solve_one(L, w, a, m):
    """codebook_closed_form on one channel, as a group of c = 1."""
    values, assign = codebook_closed_form(L, np.asarray(w, dtype=np.float64)[:, None],
                                          np.asarray(a)[:, None], m)
    return values[0], assign[:, 0]


class TestCodebookClosedForm:
    def test_identity_hessian_groups_average(self):
        L = cholesky(np.eye(3))
        values, assign = _solve_one(L, np.array([1.0, 1.0, 2.0]), np.array([0, 0, 1]), 2)
        npt.assert_allclose(values, [1.0, 2.0], atol=1e-12)
        npt.assert_array_equal(assign, [0, 0, 1])

    def test_empty_slot_gets_zero_and_sorts(self):
        L = cholesky(np.eye(3))
        values, assign = _solve_one(L, np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]), 2)
        # slot 0 empty -> 0.0; occupied slot holds the mean 2.0
        npt.assert_allclose(values, [0.0, 2.0], atol=1e-12)
        npt.assert_array_equal(assign, [1, 1, 1])

    def test_remap_after_sort(self):
        # negative mean lands below the empty slot's 0.0
        L = cholesky(np.eye(2))
        values, assign = _solve_one(L, np.array([-3.0, -1.0]), np.array([1, 1]), 2)
        npt.assert_allclose(values, [-2.0, 0.0], atol=1e-12)
        npt.assert_array_equal(assign, [0, 0])

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d, m = 6, 3
            H = random_spd(rng, d)
            w = rng.standard_normal(d)
            a = rng.integers(0, m, size=d)
            L = cholesky(H)
            values, assign = _solve_one(L, w, a, m)
            used = np.unique(a)
            P = np.zeros((d, used.shape[0]))
            for col, q in enumerate(used):
                P[a == q, col] = 1.0
            ref = np.linalg.solve(P.T @ H @ P, P.T @ H @ w)
            got = values[assign]
            npt.assert_allclose(got, (P @ ref), atol=1e-8, rtol=1e-8)

    def test_codebook_is_quadratic_minimizer(self):
        rng = np.random.default_rng(2)
        H = random_spd(rng, 6)
        w = rng.standard_normal(6)
        a = np.array([0, 1, 2, 0, 1, 2])
        L = cholesky(H)
        values, assign = _solve_one(L, w, a, 3)
        base = w - values[assign]
        f0 = float(base @ H @ base)
        for _ in range(20):
            vals = values + 1e-3 * rng.standard_normal(3)
            r = w - vals[assign]
            assert float(r @ H @ r) >= f0 - 1e-12

    def test_bad_assignment_range(self):
        L = cholesky(np.eye(2))
        for a in ([0, 3], [-1, 0]):
            with pytest.raises(InvalidSize):
                _solve_one(L, np.zeros(2), np.array(a), 2)
        with pytest.raises(DimensionMismatch):
            _solve_one(L, np.zeros(2), np.array([0, 1, 1]), 2)


class TestCdSteps:
    def test_diagonal_hessian_is_plain_rounding(self):
        rng = np.random.default_rng(3)
        d, m = 8, 4
        H = np.diag(rng.uniform(0.5, 2.0, d))
        w = rng.standard_normal(d)
        C, A = uniform_init(w[:, None], m)
        values, idx = C[0], A[:, 0]
        for i in range(d):
            out = cd_step_naive(H, w, values, idx, i)
            # with no cross terms the best slot is nearest to w[i]
            want = round_rows(np.array([w[i]]), values[None, :])[0]
            assert out[i] == want
            idx = out

    def test_naive_exhaustive_over_one_coordinate(self):
        rng = np.random.default_rng(4)
        H = random_spd(rng, 3)
        w = rng.standard_normal(3)
        C, A = uniform_init(w[:, None], 2)
        values, idx = C[0], A[:, 0]
        objs = naive_candidate_objectives(H, w, values, idx, 1)
        for q in range(2):
            delta = values[idx] - w
            delta[1] = values[q] - w[1]
            assert objs[q] == pytest.approx(float(delta @ H @ delta), rel=1e-12)

    def test_step_never_increases_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(3, 10))
            H, w, (C, A) = random_lnq_instance(rng, d, bits=2)
            values, idx = C[0], A[:, 0]
            delta = values[idx] - w
            before = float(delta @ H @ delta)
            for i in range(d):
                idx = cd_step_naive(H, w, values, idx, i)
                delta = values[idx] - w
                after = float(delta @ H @ delta)
                assert after <= before + 1e-12 * (1.0 + before)
                before = after

    def test_idempotent_when_converged(self):
        rng = np.random.default_rng(6)
        H, w, (C, A) = random_lnq_instance(rng, 6, bits=2)
        once = cd_step_naive(H, w, C[0], A[:, 0], 2)
        twice = cd_step_naive(H, w, C[0], once, 2)
        npt.assert_array_equal(once, twice)

    def test_closed_form_matches_naive(self):
        # one cycle of the u_i rounding rule against the naive reference
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 300:
            d = int(rng.integers(3, 10))
            H, w, (C, A0) = random_lnq_instance(rng, d, bits=int(rng.integers(1, 3)))
            W = w.reshape(-1, 1)
            A = A0.copy()
            stats: dict = {}
            cd_cycle(H, W, C, A, 1, stats=stats)
            if stats.get("min_margin", np.inf) < 1e-9:
                continue
            ref = A0.copy()
            naive_cd_cycle(H, W, C, ref, 1)
            checked += 1
            npt.assert_array_equal(A, ref)

    def test_zero_diagonal_raises(self):
        H = np.eye(3)
        H[1, 1] = 0.0
        w = np.ones(3)
        C, A = uniform_init(w[:, None], 2)
        with pytest.raises(ZeroDiagonal):
            cd_step_naive(H, w, C[0], A[:, 0], 1)
        with pytest.raises(ZeroDiagonal):
            cd_cycle(H, w.reshape(-1, 1), C, A, 1)


class TestCycleEngines:
    def _block(self, rng, d, c, bits):
        H = random_spd(rng, d)
        W = rng.standard_normal((d, c))
        C, A = uniform_init(W, 2 ** bits)
        return H, W, C, A

    def test_cd_cycle_equals_naive_cycles(self):
        rng = np.random.default_rng(8)
        matched = 0
        while matched < 40:
            d, c = int(rng.integers(3, 14)), int(rng.integers(1, 4))
            H, W, C, A = self._block(rng, d, c, bits=2)
            A_cd = A.copy()
            stats: dict = {}
            cd_cycle(H, W, C, A_cd, 2, stats=stats)
            if stats.get("min_margin", np.inf) < 1e-6:
                continue
            A_ref = A.copy()
            naive_cd_cycle(H, W, C, A_ref, 2)
            npt.assert_array_equal(A_cd, A_ref)
            matched += 1

    def test_batch_edges_bitwise_equal(self):
        # b = 1 and b >= d both add each row's correction to the later
        # rows as one outer product, in row order
        rng = np.random.default_rng(9)
        for _ in range(25):
            d, c = int(rng.integers(3, 14)), int(rng.integers(1, 4))
            H, W, C, A = self._block(rng, d, c, bits=2)
            runs = []
            for b in (1, d, d + 7):
                A_b = A.copy()
                cd_cycle(H, W, C, A_b, 3, b=b)
                runs.append(A_b)
            npt.assert_array_equal(runs[0], runs[1])
            npt.assert_array_equal(runs[1], runs[2])

    def test_lazy_batch_interior_sizes_agree(self):
        rng = np.random.default_rng(10)
        matched = 0
        while matched < 30:
            d = int(rng.integers(5, 16))
            H, W, C, A = self._block(rng, d, 2, bits=2)
            stats: dict = {}
            A_full = A.copy()
            cd_cycle(H, W, C, A_full, 2, b=d, stats=stats)
            if stats.get("min_margin", np.inf) < 1e-6:
                continue
            for b in (2, 3, 4):
                A_b = A.copy()
                cd_cycle(H, W, C, A_b, 2, b=b)
                npt.assert_array_equal(A_full, A_b)
            matched += 1

    def test_batch_size_validated(self):
        rng = np.random.default_rng(20)
        H, W, C, A = self._block(rng, 4, 1, bits=1)
        with pytest.raises(InvalidSize):
            cd_cycle(H, W, C, A, 1, b=0)

    def test_diagonal_hessian_single_cycle_is_rtn(self):
        rng = np.random.default_rng(11)
        d = 10
        H = np.diag(rng.uniform(0.5, 3.0, d))
        W = rng.standard_normal((d, 1))
        C, A = uniform_init(W, 4)
        cd_cycle(H, W, C, A, 1)
        npt.assert_array_equal(A[:, 0], round_rows(W[:, 0], np.repeat(C, d, axis=0)))


class TestLnqQuantize:
    def test_trace_length_and_descent(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = int(rng.integers(3, 20))
            bits = int(rng.integers(1, 4))
            H, w, init = random_lnq_instance(rng, d, bits)
            T, K = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            out = lnq_quantize(H, w.reshape(-1, 1), bits, T, K, init)
            tr = out.traces[0]
            assert len(tr) == 2 * T + 2
            for a, b in zip(tr, tr[1:]):
                assert b <= a + 1e-12 * (1.0 + abs(a))

    def test_final_state_consistent(self):
        rng = np.random.default_rng(13)
        H, w, init = random_lnq_instance(rng, 8, bits=2)
        out = lnq_quantize(H, w.reshape(-1, 1), 2, 2, 4, init)
        values, idx, w_hat = out.C[0], out.A[:, 0], out.W_hat[:, 0]
        npt.assert_array_equal(w_hat, values[idx])
        assert np.all(np.diff(values) >= 0)
        delta = w_hat - w
        assert out.traces[0][-1] == pytest.approx(float(delta @ H @ delta), rel=1e-9)

    def test_representable_weights_reach_zero(self):
        rng = np.random.default_rng(14)
        values = np.array([-1.0, 1.0])
        w = values[rng.integers(0, 2, size=6)]
        H = random_spd(rng, 6)
        init = (values[None, :], (w > 0).astype(np.int64)[:, None])
        out = lnq_quantize(H, w.reshape(-1, 1), 1, 1, 1, init)
        assert out.traces[0][-1] == pytest.approx(0.0, abs=1e-18)
        npt.assert_allclose(out.W_hat[:, 0], w, atol=1e-12)

    def test_engines_identical_on_tie_free(self, monkeypatch):
        rng = np.random.default_rng(15)
        found = 0
        while found < 30:
            d = int(rng.integers(3, 15))
            bits = int(rng.integers(1, 3))
            cfg = (bits, 2, 3)
            H, w, init = random_lnq_instance(rng, d, bits)
            stats: dict = {}
            base = lnq_quantize(H, w.reshape(-1, 1), *cfg, init, stats=stats)
            if stats.get("min_margin", np.inf) < 1e-6:
                continue
            found += 1
            for engine in (naive_cd_cycle, *(functools.partial(cd_cycle, b=b)
                                             for b in (1, 4, 64))):
                monkeypatch.setattr(lnq, "cd_cycle", engine)
                out = lnq_quantize(H, w.reshape(-1, 1), *cfg, init)
                monkeypatch.undo()
                npt.assert_array_equal(out.A, base.A)
                npt.assert_array_equal(out.C, base.C)

    def test_never_worse_than_exhaustive_floor(self):
        rng = np.random.default_rng(16)
        for d in (4, 5, 6):
            H, w, init = random_lnq_instance(rng, d, bits=2)
            out = lnq_quantize(H, w.reshape(-1, 1), 2, 2, 4, init)
            tr = out.traces[0]
            best = exhaustive_lnq(H, w, 4).objective
            slack = 1e-9 * (1.0 + best)
            assert tr[-1] >= best - slack
            assert tr[-1] <= tr[0] + slack

    def test_exact_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(17)
        for scale in (4.0, 0.25):
            H, w, init = random_lnq_instance(rng, 10, bits=2)
            a = lnq_quantize(H, w.reshape(-1, 1), 2, 2, 2, init)
            b = lnq_quantize(scale * H, w.reshape(-1, 1), 2, 2, 2, init)
            npt.assert_array_equal(a.A, b.A)
            npt.assert_array_equal(a.C, b.C)

    def test_multichannel_matches_per_channel_runs(self):
        # blocked BLAS products may differ from single-column ones in the
        # last bit, so compare only runs whose decisions are tie-free
        rng = np.random.default_rng(18)
        matched = 0
        while matched < 10:
            d, c = int(rng.integers(4, 12)), 3
            H = random_spd(rng, d)
            W = rng.standard_normal((d, c))
            C, A = uniform_init(W, 4)
            stats: dict = {}
            block = lnq_quantize(H, W, 2, 2, 2, (C, A), stats=stats)
            if stats.get("min_margin", np.inf) < 1e-6:
                continue
            matched += 1
            for j in range(c):
                solo = lnq_quantize(H, W[:, j].reshape(-1, 1), 2, 2, 2,
                                    (C[j:j + 1], A[:, j:j + 1]))
                npt.assert_array_equal(block.A[:, j], solo.A[:, 0])
                npt.assert_allclose(block.C[j], solo.C[0], rtol=1e-9, atol=1e-12)

    def test_shape_validation(self):
        rng = np.random.default_rng(19)
        H, w, (C, A) = random_lnq_instance(rng, 4, bits=1)
        with pytest.raises(DimensionMismatch):  # an init for two channels
            lnq_quantize(H, w.reshape(-1, 1), 1, 2, 4, (np.vstack([C, C]), np.hstack([A, A])))
        with pytest.raises(DimensionMismatch):
            lnq_quantize(np.eye(3), w.reshape(-1, 1), 1, 2, 4, (C, A))
        H, W, C, A = _groups(rng, (2, 2), 5, 4)  # a layer of two groups
        with pytest.raises(DimensionMismatch):
            cd_cycle(H[:1], W, C, A, 1, sizes=(2, 2))
        with pytest.raises(DimensionMismatch):
            lnq_quantize(H[:1], W, 2, 2, 4, (C, A), sizes=(2, 2))
        with pytest.raises(DimensionMismatch):
            lnq_quantize(H, W, 2, 2, 4, (C[:, :1], A), sizes=(2, 2))
        for sizes in ((2, 1), (2, 3), (4, 0)):  # sizes that do not split the 4 channels
            with pytest.raises(DimensionMismatch, match="do not split 4 channels"):
                lnq_quantize(H, W, 2, 2, 4, (C, A), sizes=sizes)
            with pytest.raises(DimensionMismatch, match="do not split 4 channels"):
                cd_cycle(H, W, C, A, 1, sizes=sizes)

    def test_config_validation(self):
        # bits, T and K are refused before any work, with the texts of
        # the knobs' former config object
        rng = np.random.default_rng(21)
        H, w, init = random_lnq_instance(rng, 4, bits=2)
        for bits, T, K, text in ((0, 2, 4, "bits must be in 1..8, got 0"),
                                 (9, 2, 4, "bits must be in 1..8, got 9"),
                                 (2, 0, 4, "T must be >= 1, got 0"),
                                 (2, 2, 0, "K must be >= 1, got 0")):
            with pytest.raises(InvalidSize, match=f"^{re.escape(text)}$"):
                lnq_quantize(H, w.reshape(-1, 1), bits, T, K, init)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 16), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 4))
def test_descent_property(seed, d, bits, T, K):
    rng = np.random.default_rng(seed)
    H, w, init = random_lnq_instance(rng, d, bits)
    out = lnq_quantize(H, w.reshape(-1, 1), bits, T, K, init)
    tr = out.traces[0]
    for a, b in zip(tr, tr[1:]):
        assert b <= a + 1e-12 * (1.0 + abs(a))


# -- the pre-change constructions, kept as bit-for-bit references ---------


def _codebook_by_masks(L, w, a, m):
    """codebook_closed_form with each column of L^T P summed from a
    boolean mask of the F-ordered L^T."""
    Lt = L.T
    used = np.unique(a)
    A_ls = np.zeros((L.shape[0], used.shape[0]))
    for col, q in enumerate(used):
        A_ls[:, col] = Lt[:, a == q].sum(axis=1)
    c_sub = np.linalg.lstsq(A_ls, Lt @ w, rcond=None)[0]
    values = np.zeros(m)
    values[used] = c_sub
    order = np.argsort(values, kind="stable")
    inv = np.empty(m, dtype=np.int64)
    inv[order] = np.arange(m)
    return values[order], inv[a]


def _codebook_closed_form_objects(L, w, a, m):
    """codebook_closed_form as it was when it took one channel's
    assignment object and returned a codebook object, on their arrays."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.shape[0] != L.shape[0] or a.shape[0] != w.shape[0]:
        raise DimensionMismatch("w, assignment and factor disagree on dimension")
    if m < 1 or (a.size and a.max() >= m):
        raise InvalidSize("assignment indices must fall inside 0..m-1")
    L_sorted = L[np.argsort(a, kind="stable")]
    used, cols = [], []
    s = 0
    for q, e in enumerate(np.bincount(a, minlength=m).cumsum().tolist()):
        if e > s:
            used.append(q)
            cols.append(L_sorted[s:e].sum(axis=0))
        s = e
    c_sub = least_squares(np.stack(cols, axis=1), L.T @ w)
    values = np.zeros(m)
    values[used] = c_sub
    order = np.argsort(values, kind="stable")
    inv = np.empty(m, dtype=np.int64)
    inv[order] = np.arange(m)
    return values[order], inv[a]


def _cd_cycle_one_group(H, W, C, A, cycles, b=lnq.CD_BATCH):
    """cd_cycle for one group, 2-D arrays, Htil and U formed up front."""
    d, c = W.shape
    b = min(b, d)
    diag = np.diag(H).copy()
    Htil = H / diag[:, None]
    U = np.triu(Htil, 1)
    for _ in range(cycles):
        Wh = np.take_along_axis(C, A.T, axis=1).T
        B = U @ (Wh - W)
        for s in range(0, d, b):
            e = min(s + b, d)
            for i in range(s, e):
                A[i, :] = round_rows(W[i, :] - B[i, :], C)
                new_delta = C[np.arange(c), A[i, :]] - W[i, :]
                if i + 1 < e:
                    B[i + 1 : e, :] += Htil[i + 1 : e, i : i + 1] * new_delta[None, :]
            if e < d:
                Wh_batch = np.take_along_axis(C, A[s:e, :].T, axis=1).T
                B[e:, :] += Htil[e:, s:e] @ (Wh_batch - W[s:e, :])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 8))
def test_codebook_columns_match_mask_sums(seed, d, m):
    rng = np.random.default_rng(seed)
    L = cholesky(random_spd(rng, d))
    w = rng.standard_normal(d)
    a = rng.integers(0, rng.integers(1, m + 1), size=d)  # some slots empty
    values, assign = _solve_one(L, w, a, m)
    ref_values, ref_idx = _codebook_by_masks(L, w, a, m)
    assert values.tobytes() == ref_values.tobytes()
    npt.assert_array_equal(assign, ref_idx)
    cb, asg = _codebook_closed_form_objects(L, w, a, m)
    assert values.tobytes() == cb.tobytes()
    assert assign.tobytes() == asg.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 9, 130, 300]) | st.integers(1, 300),
       st.integers(1, 5), st.integers(1, 8), st.booleans())
def test_group_codebooks_match_per_channel_masks(seed, d, c, m, neg_zeros):
    # one group of c channels against the mask reference, one channel at
    # a time; slots are left empty at random, and the factor may hold
    # -0.0 below its diagonal
    rng = np.random.default_rng(seed)
    L = cholesky(random_spd(rng, d))
    if neg_zeros:
        below = np.tril(rng.random((d, d)) < 0.3, -1)
        L = np.where(below, -0.0, L)
        L[np.tril(np.ones((d, d), dtype=bool), -1) & (rng.random((d, d)) < 0.1)] *= -0.0
    W = rng.standard_normal((d, c))
    A = rng.integers(0, rng.integers(1, m + 1, size=c), size=(d, c))
    values, assign = codebook_closed_form(L, W, A, m)
    assert values.shape == (c, m) and assign.shape == (d, c)
    for j in range(c):
        w = W[:, j].copy()  # contiguous, as a channel was always solved
        ref_values, ref_idx = _codebook_by_masks(L, w, A[:, j], m)
        assert values[j].tobytes() == ref_values.tobytes()
        npt.assert_array_equal(assign[:, j], ref_idx)
        one_values, one_assign = _solve_one(L, W[:, j], A[:, j], m)
        assert one_values.tobytes() == ref_values.tobytes()
        npt.assert_array_equal(one_assign, ref_idx)


@pytest.mark.parametrize("bad,message", [
    (lambda v: np.where(v == v.max(), np.nan, v), "finite"),
    (lambda v: v[..., ::-1].copy(), "sorted"),
])
def test_codebook_phase_checks_the_stack(monkeypatch, bad, message):
    # a codebook solve that returns a non-finite or unsorted row is
    # refused once per phase for the whole layer, with the texts
    # check_codebooks raises
    real = lnq.codebook_closed_form

    def corrupt(L, W, A, m):
        values, assign = real(L, W, A, m)
        return bad(values), assign

    rng = np.random.default_rng(23)
    H, W, C, A = _groups(rng, (2, 2), 5, 4)
    monkeypatch.setattr(lnq, "codebook_closed_form", corrupt)
    with pytest.raises(ValueError, match=f"codebook values must be {message}"):
        lnq_quantize(H, W, 2, 2, 4, (C, A), sizes=(2, 2))


def _groups(rng, sizes, d, m):
    """One layer of consecutive groups of `sizes` channels: a Hessian per
    group, the d x c weights and random slots, and sorted c x m
    codebooks."""
    c = sum(sizes)
    H = [random_spd(rng, d) for _ in sizes]
    W = rng.standard_normal((d, c))
    C = np.sort(rng.standard_normal((c, m)), axis=1)
    A = rng.integers(0, m, size=(d, c))
    return H, W, C, A


def _columns(sizes):
    """The column slice of each group of consecutive `sizes`."""
    ends = np.cumsum(sizes).tolist()
    return [slice(o, e) for o, e in zip([0] + ends[:-1], ends)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.sampled_from([1, 2, 7, 128, 129, 300]), st.sampled_from([2, 4, 8]), st.integers(1, 2))
def test_stacked_cd_cycle_equals_one_call_per_group(seed, sizes, d, m, cycles):
    # one call over a layer of groups (ragged sizes included) against one
    # call per group; d = 129 and 300 leave rows after the first batch of
    # 128, so the blocked correction below a batch runs too
    rng = np.random.default_rng(seed)
    H, W, C, A = _groups(rng, sizes, d, m)
    layer = A.copy()
    cd_cycle(H, W, C, layer, cycles, sizes=sizes)
    for k, cols in enumerate(_columns(sizes)):
        alone = A[:, cols].copy()
        cd_cycle(H[k], W[:, cols].copy(), C[cols], alone, cycles)
        npt.assert_array_equal(layer[:, cols], alone)
        before = A[:, cols].copy()
        _cd_cycle_one_group(H[k], W[:, cols].copy(), C[cols], before, cycles)
        npt.assert_array_equal(layer[:, cols], before)


@pytest.mark.parametrize("sizes,d,groups_per_chunk", [
    ((3, 3, 2, 2), 140, 1), ((3, 3, 2, 2), 140, 3), ((1, 1, 1, 1, 1), 9, 2),
    ((2, 1), 130, 1), ((4,), 20, 1),
])
def test_chunked_cd_equals_one_pass(monkeypatch, sizes, d, groups_per_chunk):
    # groups are independent, so a layer whose in-batch Htil blocks
    # exceed CD_BLOCK_BYTES runs in consecutive chunks with the bits of
    # one pass
    rng = np.random.default_rng(d + len(sizes))
    H, W, C, A = _groups(rng, sizes, d, 4)
    one_pass = A.copy()
    stats_one: dict = {}
    cd_cycle(H, W, C, one_pass, 2, sizes=sizes, stats=stats_one)
    b = min(lnq.CD_BATCH, d)
    monkeypatch.setattr(lnq, "CD_BLOCK_BYTES", groups_per_chunk * 8 * b * b)
    chunks = []
    real = lnq._cd_chunk
    monkeypatch.setattr(lnq, "_cd_chunk", lambda H, *a: chunks.append(len(H)) or real(H, *a))
    chunked = A.copy()
    stats_chunked: dict = {}
    cd_cycle(H, W, C, chunked, 2, sizes=sizes, stats=stats_chunked)
    assert chunks == [min(groups_per_chunk, len(sizes) - k)
                      for k in range(0, len(sizes), groups_per_chunk)]
    npt.assert_array_equal(chunked, one_pass)
    assert stats_chunked == stats_one


@pytest.mark.parametrize("sizes", [(3, 3, 2, 2), (1, 1, 1), (2, 1), (4,), (5, 5, 5, 4)])
def test_stacked_lnq_equals_one_run_per_group(sizes):
    # a ragged partition runs as one lnq_quantize call over the layer,
    # as run_job does, with the bits of one run per group
    rng = np.random.default_rng(sum(sizes))
    for d in (6, 140):
        H = [random_spd(rng, d) for _ in sizes]
        W = [rng.standard_normal((d, c)) for c in sizes]
        inits = [uniform_init(Wk, 4) for Wk in W]
        alone = [lnq_quantize(Hk, Wk, 2, 2, 2, ik) for Hk, Wk, ik in zip(H, W, inits)]
        layer = lnq_quantize(H, np.hstack(W), 2, 2, 2,
                             (np.vstack([C for C, _ in inits]), np.hstack([A for _, A in inits])),
                             sizes=sizes)
        want = np.concatenate([q.C for q in alone])
        assert layer.C.shape == want.shape and layer.C.tobytes() == want.tobytes()
        npt.assert_array_equal(layer.A, np.concatenate([q.A for q in alone], axis=1))
        assert layer.traces == [tr for q in alone for tr in q.traces]


def test_naive_cd_cycle_takes_a_stack():
    # the reference takes a layer of groups too, one group after another
    rng = np.random.default_rng(22)
    sizes = (2, 2, 1)
    H, W, C, A = _groups(rng, sizes, 6, 4)
    layer = A.copy()
    naive_cd_cycle(H, W, C, layer, 2, sizes=sizes)
    for k, cols in enumerate(_columns(sizes)):
        alone = A[:, cols].copy()
        naive_cd_cycle(H[k], W[:, cols], C[cols], alone, 2)
        npt.assert_array_equal(layer[:, cols], alone)
