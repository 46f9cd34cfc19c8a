import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from glq import guidedquant, lnq
from glq.calib_model import LayerCalibration, calibrate, gen_dataset, random_model, train
from glq.errors import (
    ConfigError,
    DimensionMismatch,
    GlqError,
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

from conftest import live_sets_at_each_build


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
            for l, hset in enumerate(real(*args, **kw)):
                if l == 0:
                    H = hset.hessians[2].copy()
                    H[5, :] = H[:, 5] = 0.0
                    hset.hessians[2] = H
                yield hset

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
            assert from_traces == pytest.approx(recomputed, rel=1e-9)
            assert report.layers[l]["damped_objective"] == pytest.approx(
                recomputed, rel=1e-9
            )

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


def _run_job_one_group_at_a_time(model, data, job):
    """run_job's LNQ branch as it was before groups were stacked: one
    layer-wide squeezellm init, cut into the channel groups, and one
    lnq_quantize call per group."""
    calib = calibrate(model, data)
    hsets = list(job_hessians(model, data, calib, job))
    qlayers = []
    for l, (W, hset) in enumerate(zip(model.layers, hsets)):
        init = squeezellm_quantize(W, fisher_diag(calib[l]), job.bits, seed=job.seed,
                                   layer_idx=l)
        groups = []
        for H, (o, e) in zip(hset.hessians, hset.partition.bounds):
            groups.append(lnq_quantize(H, W[:, o:e], job.bits, job.T, job.K,
                                       (init.C[o:e], init.A[:, o:e]), layer_idx=l))
        qlayers.append(QuantizedLayer(l, job.bits, np.concatenate([q.C for q in groups]),
                                      np.concatenate([q.A for q in groups], axis=1),
                                      [tr for q in groups for tr in q.traces]))
    quantized = model.with_layers([ql.W_hat for ql in qlayers])
    damped = [damped_quadratic(hset, W, W_hat)
              for hset, W, W_hat in zip(hsets, model.layers, quantized.layers)]
    return quantized, qlayers, job_report(model, quantized, data, calib, job, damped)


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
        # phase over its d x c arrays and its group sizes
        model, data = ragged_problem
        calls = []
        real = lnq.cd_cycle

        def counting(H, W, C, A, cycles, sizes=None, **kw):
            calls.append((W.shape, A.shape, C.shape, tuple(sizes), len(H)))
            return real(H, W, C, A, cycles, sizes=sizes, **kw)

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
