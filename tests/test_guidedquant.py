import dataclasses
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq import guidedquant, lnq
from glq.calib_model import (
    Dataset,
    LayerCalibration,
    MlpModel,
    calibrate,
    end_loss,
    gen_dataset,
    random_model,
    train,
)
from glq.errors import (
    ConfigError,
    DimensionMismatch,
    GlqError,
    NonFiniteFisher,
    NotPositiveDefinite,
    SingularHessian,
)
from glq.guidedquant import (
    CSV_COLUMNS,
    METHODS,
    QuantJob,
    damped_quadratic,
    eval_objectives,
    format_table,
    job_hessians,
    job_report,
    run_job,
    sweep,
)
from glq.hessian import HessianCache, fisher_diag, plain_hessian
from glq.lnq import lnq_quantize
from glq.oracle import full_fisher_quadratic
from glq.scalar_quant import QuantizedLayer, squeezellm_quantize

from conftest import hset_of, live_sets_at_each_build, live_sets_at_rows, random_spd, toy


class TestQuantJob:
    def test_group_count_forced_for_ungrouped_methods(self):
        for method in ("rtn", "squeezellm", "lnq_plain"):
            assert QuantJob(method=method, bits=2, g=4).g == 1
        assert QuantJob(method="lnq_guided", bits=2, g=4).g == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            QuantJob(method="magic", bits=2)

    def test_bad_group_count(self):
        with pytest.raises(ConfigError):
            QuantJob(method="lnq_guided", bits=2, g=0)

    def test_run_job_carries_T_and_K(self, toy_problem, monkeypatch):
        # every LNQ channel trace holds 2T + 2 objectives, and each CD
        # phase runs K cycles
        model, data = toy_problem
        cycles = []
        real = lnq.cd_cycle
        monkeypatch.setattr(lnq, "cd_cycle", lambda H, W, C, A, k, **kw:
                            cycles.append(k) or real(H, W, C, A, k, **kw))
        for method in ("lnq_plain", "lnq_guided"):
            _, qlayers, _ = run_job(model, data, QuantJob(method=method, bits=3, g=2, T=5, K=7))
            assert {len(tr) for ql in qlayers for tr in ql.traces} == {2 * 5 + 2}
        assert cycles and set(cycles) == {7}


class TestEvalObjectives:
    def test_guided_equals_fisher_route(self, toy_problem, toy_calib):
        # the per-channel Fisher sum, built sample by sample in the oracle
        model, data = toy_problem
        rng = np.random.default_rng(0)
        w_hat = [W + 0.02 * rng.standard_normal(W.shape) for W in model.layers]
        rows = eval_objectives(model, w_hat, toy_calib)
        guided = sum(row["guided_objective"] for row in rows)
        assert guided == pytest.approx(full_fisher_quadratic(model, data, w_hat), rel=1e-9)

    def test_constant_gradient_makes_guided_proportional(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 5))
        W = rng.standard_normal((5, 3))
        Wh = W + 0.1 * rng.standard_normal(W.shape)
        c = 2.5
        calib = [LayerCalibration(X=X, gradZ=np.full((12, 3), c))]
        model = _wrap_single_layer(W)
        (row,) = eval_objectives(model, [Wh], calib)
        assert row["guided_objective"] == pytest.approx(
            c * c * row["plain_objective"], rel=1e-12
        )

    def test_zero_gradient_zeroes_guided_only(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        W = rng.standard_normal((4, 2))
        Wh = W + rng.standard_normal(W.shape)
        calib = [LayerCalibration(X=X, gradZ=np.zeros((10, 2)))]
        (row,) = eval_objectives(_wrap_single_layer(W), [Wh], calib)
        assert row["guided_objective"] == 0.0
        assert row["plain_objective"] > 0.0

    def test_exact_reconstruction_is_all_zero(self, toy_problem, toy_calib):
        model, _data = toy_problem
        rows = eval_objectives(model, [W.copy() for W in model.layers], toy_calib)
        for row in rows:
            assert row["plain_objective"] == 0.0
            assert row["guided_objective"] == 0.0

    def test_shape_mismatch(self, toy_problem, toy_calib):
        model, _data = toy_problem
        bad = [W.copy() for W in model.layers]
        bad[1] = bad[1][:, :2]
        with pytest.raises(DimensionMismatch):
            eval_objectives(model, bad, toy_calib)


def _wrap_single_layer(W):
    from glq.calib_model import MlpModel

    return MlpModel(layers=[W.copy()])


class TestRunJob:
    def test_high_bit_rtn_preserves_end_loss(self, toy_problem):
        model, data = toy_problem
        _, _, report = run_job(model, data, QuantJob(method="rtn", bits=8))
        assert report.end_loss_after == pytest.approx(report.end_loss_before, rel=1e-2)
        _, _, coarse = run_job(model, data, QuantJob(method="rtn", bits=2))
        assert report.totals()["plain_objective"] < coarse.totals()["plain_objective"]

    def test_rerun_does_not_change_output(self, toy_problem):
        model, data = toy_problem
        job = QuantJob(method="lnq_guided", bits=2, g=2)
        q1, l1, r1 = run_job(model, data, job)
        q2, l2, r2 = run_job(model, data, job)
        for a, b in zip(l1, l2):
            npt.assert_array_equal(a.W_hat, b.W_hat)
        for a, b in zip(q1.layers, q2.layers):
            npt.assert_array_equal(a, b)
        assert r1.csv_row() == r2.csv_row()

    def test_zero_gradient_group_is_a_clear_error(self, toy_problem):
        # zero rows 4..7 of W_2: channels 4..7 of layer 1 (its group 1 at
        # g=4) feed nothing, so their gradients are exactly zero
        model, data = toy_problem
        layers = [W.copy() for W in model.layers]
        layers[2][4:8, :] = 0.0
        dead = model.with_layers(layers)
        assert not np.any(calibrate(dead, data)[1].gradZ[:, 4:8])
        with pytest.raises(GlqError, match=r"layer 1 group 1 .*zero gradient") as exc:
            run_job(dead, data, QuantJob(method="lnq_guided", bits=2, g=4))
        assert not isinstance(exc.value, NotPositiveDefinite)
        # methods that never build guided Hessians still run
        for method in ("squeezellm", "lnq_plain"):
            run_job(dead, data, QuantJob(method=method, bits=2))

    def test_singular_hessian_names_layer_and_group(self, toy_problem):
        # W_1 = 0 makes every input of layer 2 zero (the model has no
        # biases), so its plain Hessian and its relative damping are 0
        model, data = toy_problem
        layers = [W.copy() for W in model.layers]
        layers[1][:] = 0.0
        with pytest.raises(SingularHessian,
                           match=r"^layer 2 group 0: .*16 of 16 input features have zero "
                                 r"curvature") as exc:
            run_job(model.with_layers(layers), data, QuantJob(method="lnq_plain", bits=2))
        assert isinstance(exc.value, NotPositiveDefinite)
        assert str(exc.value.__cause__) == "matrix of size 16 is not positive definite"

    @pytest.mark.parametrize("method", ["lnq_plain", "lnq_guided"])
    def test_dead_input_feature_without_damping(self, toy_problem, method):
        model, data = toy_problem
        inputs = data.inputs.copy()
        inputs[:, 3] = 0.0
        dead = dataclasses.replace(data, inputs=inputs)
        job = QuantJob(method=method, bits=2, g=2, damping_rel=0.0)
        with pytest.raises(SingularHessian, match=r"^layer 0 group 0: .*1 of 8 input "
                                                  r"features .*feature 3"):
            run_job(model, dead, job)
        run_job(model, dead, dataclasses.replace(job, damping_rel=1e-7))  # damping lifts it

    def test_singular_group_numbered_within_its_layer(self, ragged_problem, monkeypatch):
        # layer 0 of the 8-10-7-3 model at g = 3 has groups of 4, 3 and 3
        # channels; group 2 is the second of the two 3-wide ones
        model, data = ragged_problem
        real = guidedquant.job_hessians

        def one_singular(*args, **kw):
            hessians = real(*args, **kw)

            def layer_set(l, c):
                hset = hessians(l, c)
                if l == 0:
                    H = hset.hessians[2].copy()
                    H[5, :] = H[:, 5] = 0.0
                    hset.hessians[2] = H
                return hset
            return layer_set

        monkeypatch.setattr(guidedquant, "job_hessians", one_singular)
        with pytest.raises(SingularHessian, match=r"^layer 0 group 2: .*feature 5"):
            run_job(model, data, QuantJob(method="lnq_guided", bits=2, g=3))

    def test_final_trace_matches_damped_objective(self, toy_problem):
        model, data = toy_problem
        _, qlayers, report = run_job(model, data, QuantJob(method="lnq_plain", bits=2))
        calib = calibrate(model, data)
        for l, ql in enumerate(qlayers):
            hset = plain_hessian(calib[l], layer_idx=l)
            recomputed = damped_quadratic(hset, model.layers[l], ql.W_hat)
            from_traces = sum(tr[-1] for tr in ql.traces)
            assert from_traces == recomputed
            assert report.layers[l]["damped_objective"] == recomputed

    @pytest.mark.parametrize("g", [1, 3, 4])
    @pytest.mark.parametrize("method", ["lnq_plain", "lnq_guided"])
    @pytest.mark.parametrize("loss", ["squared_error", "softmax_cross_entropy"])
    def test_damped_objective_is_the_sum_of_final_trace_entries(self, loss, method, g):
        # the report and the traces take each channel's objective from one
        # formula, so a layer's row is its final entries' sum, bit for bit
        model, data = toy(loss)
        _, qlayers, report = run_job(model, data, QuantJob(method=method, bits=2, g=g))
        for row, ql in zip(report.layers, qlayers):
            assert row["damped_objective"] == sum(tr[-1] for tr in ql.traces)

    def test_damped_quadratic_matches_channel_by_channel_forms(self):
        # against delta^T H delta of each channel on its own, ragged groups
        rng = np.random.default_rng(21)
        d, sizes = 7, [2, 1, 3]
        W, W_hat = rng.standard_normal((2, d, sum(sizes)))
        Hs = [random_spd(rng, d) for _ in sizes]
        hset = hset_of(Hs, sizes)
        want, j = 0.0, 0
        for H, size in zip(Hs, sizes):
            for _ in range(size):
                v = W_hat[:, j] - W[:, j]
                want, j = want + float(v @ H @ v), j + 1
        assert damped_quadratic(hset, W, W_hat) == pytest.approx(want, rel=1e-12)

    def test_lnq_plain_descends_from_its_init(self, toy_problem):
        # lnq_plain starts at the squeezellm solution and descends the
        # damped objective, so it can never end above that start
        model, data = toy_problem
        job_sq = QuantJob(method="squeezellm", bits=2, seed=3)
        job_ln = QuantJob(method="lnq_plain", bits=2, seed=3)
        _, _, r_sq = run_job(model, data, job_sq)
        _, _, r_ln = run_job(model, data, job_ln)
        d_sq = r_sq.totals()["damped_objective"]
        d_ln = r_ln.totals()["damped_objective"]
        assert d_ln <= d_sq * (1.0 + 1e-9)

    def test_all_methods_produce_sorted_codebooks(self, toy_problem):
        model, data = toy_problem
        for method in ("rtn", "squeezellm", "lnq_plain", "lnq_guided"):
            _, qlayers, _ = run_job(
                model, data, QuantJob(method=method, bits=2, g=2)
            )
            for ql in qlayers:
                assert ql.bits == 2
                assert ql.C.shape[1] == 4
                for cb in ql.C:
                    assert np.all(np.diff(cb) >= 0)

    @pytest.mark.parametrize("case", ["constant", "duplicate"])
    def test_degenerate_channels_stay_finite_and_descend(self, toy_problem, case):
        # a layer-1 channel with one distinct value, or two equal channels
        model, data = toy_problem
        model = model.with_layers([W.copy() for W in model.layers])
        W = model.layers[1]
        if case == "constant":
            W[:, 5] = 0.37
        else:
            W[:, 5] = W[:, 6]
        for method in METHODS:
            _, qlayers, report = run_job(model, data, QuantJob(method=method, bits=2, g=4))
            values = [report.end_loss_before, report.end_loss_after,
                      *[v for e in report.layers for v in e.values()
                        if isinstance(v, float)]]
            assert np.all(np.isfinite(values)), method
            if method.startswith("lnq"):
                # non-increasing with criterion 2's slack: the constant
                # channel's trace starts at exactly 0.0 and its codebook
                # solve lands within rounding of 0.37 (about 1e-30)
                for ql in qlayers:
                    for tr in ql.traces:
                        assert all(b <= a + 1e-12 * (1.0 + abs(a))
                                   for a, b in zip(tr, tr[1:])), method

    def test_quantized_model_uses_codebook_values(self, toy_problem):
        model, data = toy_problem
        quantized, qlayers, _ = run_job(model, data, QuantJob(method="rtn", bits=2))
        for W, ql in zip(quantized.layers, qlayers):
            npt.assert_array_equal(W, ql.W_hat)
            for j, cb in enumerate(ql.C):
                assert np.isin(W[:, j], cb).all()

    def test_hessian_cache_round_trip(self, toy_problem, tmp_path):
        model, data = toy_problem
        cache = HessianCache(tmp_path / "hc")
        job = QuantJob(method="lnq_guided", bits=2, g=2)
        _, l1, r1 = run_job(model, data, job, hessian_cache=cache)
        stored = list((tmp_path / "hc").rglob("*.json"))
        assert stored
        _, l2, r2 = run_job(model, data, job, hessian_cache=cache)
        for a, b in zip(l1, l2):
            npt.assert_array_equal(a.W_hat, b.W_hat)
        assert r1.csv_row() == r2.csv_row()

    def test_hessian_cache_not_reused_across_datasets(self, toy_problem, tmp_path):
        # a larger dataset drawn with the same seed must not hit the
        # entries cached for the smaller one
        model, small = toy_problem
        big = gen_dataset(small.seed, 4 * small.n, small.inputs.shape[1],
                          small.targets.shape[1])
        assert big.seed == small.seed
        cache = HessianCache(tmp_path / "hc")
        job = QuantJob(method="lnq_guided", bits=2, g=2)
        run_job(model, small, job, hessian_cache=cache)
        _, cached, r_cached = run_job(model, big, job, hessian_cache=cache)
        _, fresh, r_fresh = run_job(model, big, job)
        for a, b in zip(cached, fresh):
            npt.assert_array_equal(a.W_hat, b.W_hat)
        assert r_cached.csv_row() == r_fresh.csv_row()

    def test_fisher_diag_once_per_layer(self, toy_problem, monkeypatch):
        model, data = toy_problem
        calls = []
        real = guidedquant.fisher_diag
        monkeypatch.setattr(guidedquant, "fisher_diag",
                            lambda c: calls.append(1) or real(c))
        run_job(model, data, QuantJob(method="lnq_guided", bits=2, g=4))
        assert len(calls) == model.n_layers

    @pytest.mark.parametrize("method", ["squeezellm", "lnq_plain"])
    def test_non_finite_fisher_names_its_layer(self, method):
        # x W_0 is +-40 or +-80, whose tanh rounds to +-1, so layer 0's
        # output gradients carry the factor 1 - h^2 = 0 and its Fisher is
        # 0; layer 1's gradients 2 (z - 1e160) square past the float64 range
        model = MlpModel(layers=[np.array([[40.0, -40.0, 80.0]]),
                                 np.array([[1.0, 0.5], [-1.0, 2.0], [0.25, 1.0]])])
        data = Dataset(inputs=np.array([[1.0], [-1.0], [2.0], [-2.0]]),
                       targets=np.full((4, 2), 1e160), seed=0)
        calib = calibrate(model, data)
        assert np.all(np.isfinite(fisher_diag(calib[0])))
        assert np.isposinf(fisher_diag(calib[1])).all()
        with pytest.raises(NonFiniteFisher,
                           match=r"^layer 1 channel 0: Fisher diagonal entry 0 is inf$"):
            run_job(model, data, QuantJob(method=method, bits=1, g=1))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cached", [False, True])
def test_run_job_holds_one_layer_set_at_a_time(toy_problem, tmp_path, monkeypatch,
                                               method, cached):
    # a layer's Hessian set is dropped before the next one is built or
    # loaded, with and without the cache (the second run loads)
    model, data = toy_problem
    cache = HessianCache(tmp_path / "hc") if cached else None
    seen = live_sets_at_each_build(monkeypatch)
    for _ in range(1 + cached):
        run_job(model, data, QuantJob(method=method, bits=2, g=3), hessian_cache=cache)
    assert len(seen) >= model.n_layers and set(seen) == {0}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cached", [False, True])
def test_run_job_holds_no_set_while_reporting(toy_problem, tmp_path, monkeypatch,
                                              method, cached):
    # each layer's row is made once its set is dropped, one row per layer
    model, data = toy_problem
    cache = HessianCache(tmp_path / "hc") if cached else None
    seen = live_sets_at_rows(monkeypatch)
    for _ in range(1 + cached):
        run_job(model, data, QuantJob(method=method, bits=2, g=3), hessian_cache=cache)
    assert seen == [0] * model.n_layers * (1 + cached)


def test_lnq_init_is_solved_in_place(toy_problem, monkeypatch):
    # lnq_quantize takes the init over: every CD phase runs on the init's
    # own arrays, which the layer then holds, so no copy of it is made
    model, data = toy_problem
    inits, cd_arrays = [], []
    real_init, real_cd = guidedquant.squeezellm_init, lnq.cd_cycle

    def init(*args, **kw):
        inits.append(real_init(*args, **kw))
        return inits[-1]

    def cd(H, W, C, A, *args, **kw):
        cd_arrays.append((C, A))
        return real_cd(H, W, C, A, *args, **kw)

    monkeypatch.setattr(guidedquant, "squeezellm_init", init)
    monkeypatch.setattr(lnq, "cd_cycle", cd)
    _, qlayers, _ = run_job(model, data, QuantJob(method="lnq_guided", bits=2, g=2, T=2))
    assert len(inits) == model.n_layers and len(cd_arrays) == 2 * model.n_layers
    for l, ((C, A), ql) in enumerate(zip(inits, qlayers)):
        assert ql.C is C and ql.A is A
        assert all(c is C and a is A for c, a in cd_arrays[2 * l:2 * l + 2])


def _walk_refs(monkeypatch) -> tuple[list, list]:
    """Weak references to the hidden inputs of `calibrate`'s records
    (which `run_job` and `job_report` drop) and to each record the walk
    hands out with its input and gradient, in layer order."""
    hidden, walked = [], []
    real_calibrate, real_walk = guidedquant.calibrate, guidedquant.walk_calibration

    def calibrate_(*args):
        calib = real_calibrate(*args)
        hidden.extend(weakref.ref(c.X) for c in calib[1:])
        return calib

    def track(c):
        walked.append((weakref.ref(c), weakref.ref(c.X), weakref.ref(c.gradZ)))
        return c

    monkeypatch.setattr(guidedquant, "calibrate", calibrate_)
    monkeypatch.setattr(guidedquant, "walk_calibration", lambda *a: map(track, real_walk(*a)))
    return hidden, walked


def _walk_state(hidden, walked) -> tuple:
    """(records handed out, whether the last is alive, how many of
    calibrate's hidden inputs and of the earlier layers' records, inputs
    and gradients are alive); layer 0's input is the dataset's own."""
    earlier = ([c for c, _, _ in walked[:-1]] + [X for _, X, _ in walked[1:-1]]
               + [G for _, _, G in walked[:-1]])
    return len(walked), walked[-1][0]() is not None, sum(r() is not None
                                                         for r in hidden + earlier)


@pytest.mark.parametrize("method", METHODS)
def test_run_job_holds_one_layer_record_while_solving(toy_problem, monkeypatch, method):
    # while layer l is quantized its record is alive, but no record or
    # input of an earlier layer, no input of a later one, none of
    # calibrate's hidden inputs and no quantized weights a row was made of
    model, data = toy_problem
    hidden, walked = _walk_refs(monkeypatch)
    w_hats, seen = [], []
    real_damped = guidedquant.damped_quadratic

    def damped(hset, W, W_hat):
        w_hats.append(weakref.ref(W_hat))
        return real_damped(hset, W, W_hat)

    def watch(fn):
        def solving(*args, **kw):
            seen.append((*_walk_state(hidden, walked), sum(r() is not None for r in w_hats)))
            return fn(*args, **kw)
        return solving

    monkeypatch.setattr(guidedquant, "damped_quadratic", damped)
    for name in ("rtn_quantize", "squeezellm_quantize", "lnq_quantize"):
        monkeypatch.setattr(guidedquant, name, watch(getattr(guidedquant, name)))
    run_job(model, data, QuantJob(method=method, bits=2, g=2))
    assert len(hidden) == model.n_layers - 1 and len(w_hats) == model.n_layers
    assert seen == [(l + 1, True, 0, 0) for l in range(model.n_layers)]


def test_job_report_holds_one_layer_record_per_row(toy_problem, monkeypatch):
    # glq eval's walk: the same while each row is made
    model, data = toy_problem
    job = QuantJob(method="lnq_guided", bits=2, g=2)
    quantized, _, want = run_job(model, data, job)
    hidden, walked = _walk_refs(monkeypatch)
    seen = []
    real = guidedquant.eval_objectives

    def rows(*args, **kw):
        seen.append(_walk_state(hidden, walked))
        return real(*args, **kw)

    monkeypatch.setattr(guidedquant, "eval_objectives", rows)
    assert job_report(model, quantized, data, job).csv_row() == want.csv_row()
    assert len(hidden) == model.n_layers - 1
    assert seen == [(l + 1, True, 0) for l in range(model.n_layers)]


@pytest.mark.parametrize("loss", ["squared_error", "softmax_cross_entropy"])
@pytest.mark.parametrize("method", METHODS)
def test_end_loss_before_has_end_loss_bits(loss, method, monkeypatch):
    # run_job and job_report take it from the walk's last input: the one
    # end_loss pass they make is the quantized model's
    model, data = toy(loss)
    job = QuantJob(method=method, bits=2, g=2)
    want = np.float64(end_loss(model, data)).tobytes()
    passes = []
    monkeypatch.setattr(guidedquant, "end_loss", lambda m, d: passes.append(m) or end_loss(m, d))
    quantized, _, report = run_job(model, data, job)
    assert np.float64(report.end_loss_before).tobytes() == want
    assert np.float64(job_report(model, quantized, data, job).end_loss_before).tobytes() == want
    assert len(passes) == 2 and all(m is quantized for m in passes)


def _errors_by_the_formulas(X, G, W, Wh) -> tuple[float, float]:
    """The plain and guided objectives by their formulas, one fresh array
    per product: the reference for eval_objectives' in-place form."""
    E = X @ (W - Wh)
    GE = G * E
    return float(np.sum(E * E)), float(np.sum(GE * GE))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 24), c=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_objectives_keep_the_formula_bits(data, n, d, c, seed):
    # -0.0 entries, zero rows and exact reconstructions included
    rng = np.random.default_rng(seed)
    X, G, W = rng.standard_normal((n, d)), rng.standard_normal((n, c)), rng.standard_normal((d, c))
    Wh = np.round(W * data.draw(st.sampled_from([1.0, 2.0, 8.0]))) / 2.0
    for M in (X, G, Wh):
        M[rng.random(M.shape) < data.draw(st.sampled_from([0.0, 0.3]))] = -0.0
        if data.draw(st.booleans()):
            M[rng.integers(M.shape[0])] = 0.0
    if data.draw(st.booleans()):
        Wh = W.copy()
    model = MlpModel(layers=[W])
    (row,) = eval_objectives(model, [Wh], [LayerCalibration(X=X, gradZ=G)])
    plain, guided = _errors_by_the_formulas(X, G, W, Wh)
    assert np.float64(row["plain_objective"]).tobytes() == np.float64(plain).tobytes()
    assert np.float64(row["guided_objective"]).tobytes() == np.float64(guided).tobytes()


def _run_job_one_group_at_a_time(model, data, job):
    """run_job's LNQ branch as it was before groups were stacked: one
    layer-wide squeezellm init, cut into the channel groups, and one
    lnq_quantize call per group."""
    calib = calibrate(model, data)
    hessians = job_hessians(model, data, job)
    hsets = [hessians(l, c) for l, c in enumerate(calib)]
    qlayers = []
    for l, (W, hset) in enumerate(zip(model.layers, hsets)):
        init = squeezellm_quantize(W, fisher_diag(calib[l]), job.bits, seed=job.seed,
                                   layer_idx=l)
        groups = []
        for H, (o, e) in zip(hset.hessians, hset.partition.bounds):
            groups.append(lnq_quantize(hset_of(H, e - o, layer_idx=l), W[:, o:e], job.bits,
                                       job.T, job.K, (init.C[o:e], init.A[:, o:e])))
        qlayers.append(QuantizedLayer(l, job.bits, np.concatenate([q.C for q in groups]),
                                      np.concatenate([q.A for q in groups], axis=1),
                                      [tr for q in groups for tr in q.traces]))
    quantized = model.with_layers([ql.W_hat for ql in qlayers])
    return quantized, qlayers, job_report(model, quantized, data, job)


@pytest.fixture(scope="module")
def ragged_problem():
    """An 8-10-7-3 model: g = 3 and g = 4 split its layers into groups of
    two sizes, and g = 4 is clipped to the 3-wide output layer."""
    data = gen_dataset(5, 48, 8, 3, task="softmax_cross_entropy")
    model = random_model([8, 10, 7, 3], 6, loss="softmax_cross_entropy")
    return train(model, data, steps=60, lr=2e-3), data


class TestStackedGroups:
    @pytest.mark.parametrize("method,g", [
        ("lnq_plain", 1), ("lnq_guided", 1), ("lnq_guided", 3), ("lnq_guided", 4),
    ])
    def test_equals_one_group_at_a_time(self, ragged_problem, method, g):
        model, data = ragged_problem
        job = QuantJob(method=method, bits=2, g=g, seed=3)
        q_new, l_new, r_new = run_job(model, data, job)
        q_old, l_old, r_old = _run_job_one_group_at_a_time(model, data, job)
        for a, b in zip(l_new, l_old):
            assert a.codebook_matrix().tobytes() == b.codebook_matrix().tobytes()
            npt.assert_array_equal(a.assign_matrix(), b.assign_matrix())
            assert a.traces == b.traces
        for a, b in zip(q_new.layers, q_old.layers):
            assert a.tobytes() == b.tobytes()
        assert r_new.csv_row() == r_old.csv_row()

    def test_one_cd_call_per_layer_per_phase(self, ragged_problem, monkeypatch):
        # every layer, ragged ones included, runs one cd_cycle call per CD
        # phase over its d x c arrays and its Hessian set's group sizes
        model, data = ragged_problem
        calls = []
        real = lnq.cd_cycle

        def counting(hset, W, C, A, cycles, **kw):
            calls.append((W.shape, A.shape, C.shape, hset.partition.sizes, len(hset.hessians)))
            return real(hset, W, C, A, cycles, **kw)

        monkeypatch.setattr(lnq, "cd_cycle", counting)
        run_job(model, data, QuantJob(method="lnq_guided", bits=2, g=4, T=2))
        # d_out 10 -> groups 3,3,2,2; 7 -> 2,2,2,1; 3 -> clipped to 1,1,1
        layers = [((8, 10), (8, 10), (10, 4), (3, 3, 2, 2), 4),
                  ((10, 7), (10, 7), (7, 4), (2, 2, 2, 1), 4),
                  ((7, 3), (7, 3), (3, 4), (1, 1, 1), 3)]
        assert calls == [c for c in layers for _ in range(2)]


class TestSweep:
    def test_rows_follow_columns_and_repeat_identically(self, toy_problem):
        model, data = toy_problem
        jobs = [
            QuantJob(method="rtn", bits=2),
            QuantJob(method="squeezellm", bits=2),
            QuantJob(method="rtn", bits=2),
        ]
        rows = sweep(model, data, jobs)
        assert len(rows) == 3
        for row in rows:
            assert tuple(row.keys()) == CSV_COLUMNS
        assert rows[0] == rows[2]

    def test_empty_sweep(self, toy_problem):
        model, data = toy_problem
        assert sweep(model, data, []) == []

    def test_format_table(self, toy_problem):
        model, data = toy_problem
        rows = sweep(model, data, [QuantJob(method="rtn", bits=3)])
        text = format_table(rows)
        assert text.splitlines()[0].startswith("method")
        assert "rtn" in text
        assert format_table([]) == "(no rows)"
