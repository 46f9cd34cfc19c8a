import numpy as np
import numpy.testing as npt
import pytest

from glq import guidedquant
from glq.calib_model import LayerCalibration, calibrate, gen_dataset
from glq.errors import ConfigError, DimensionMismatch, GlqError, NotPositiveDefinite
from glq.guidedquant import (
    CSV_COLUMNS,
    QuantJob,
    damped_quadratic,
    eval_objectives,
    format_table,
    run_job,
    sweep,
)
from glq.hessian import HessianCache, plain_hessian
from glq.oracle import full_fisher_quadratic


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

    def test_lnq_config_carries_knobs(self):
        job = QuantJob(method="lnq_guided", bits=3, g=2, T=5, K=7, seed=9)
        cfg = job.lnq_config()
        assert (cfg.bits, cfg.T, cfg.K) == (3, 5, 7)


class TestEvalObjectives:
    def test_guided_equals_fisher_route(self, toy_problem, toy_calib):
        # the per-channel Fisher sum, built sample by sample in the oracle
        model, data = toy_problem
        rng = np.random.default_rng(0)
        w_hat = [W + 0.02 * rng.standard_normal(W.shape) for W in model.layers]
        rows = eval_objectives(model, w_hat, toy_calib)
        guided = sum(row["guided_objective"] for row in rows)
        assert guided == pytest.approx(full_fisher_quadratic(model, data, w_hat), rel=1e-9)

    def test_fisher_column_is_guided_objective(self, toy_problem, toy_calib):
        # inputs on which a channel-by-channel rebuild lands an ulp or so
        # away from the elementwise sum in every layer
        model, data = toy_problem
        rng = np.random.default_rng(1)
        w_hat = [W + 0.02 * rng.standard_normal(W.shape) for W in model.layers]
        for row in eval_objectives(model, w_hat, toy_calib):
            assert row["fisher_quadratic"] == row["guided_objective"]
        for method in ("rtn", "squeezellm", "lnq_plain", "lnq_guided"):
            _, _, report = run_job(model, data, QuantJob(method=method, bits=2, g=2))
            row = report.csv_row()
            assert row["fisher_quadratic"] == row["guided_objective"], method

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
        assert row["fisher_quadratic"] == 0.0
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

    def test_final_trace_matches_damped_objective(self, toy_problem):
        model, data = toy_problem
        _, qlayers, report = run_job(model, data, QuantJob(method="lnq_plain", bits=2))
        calib = calibrate(model, data)
        for l, ql in enumerate(qlayers):
            hset = plain_hessian(calib[l], layer_idx=l)
            recomputed = damped_quadratic(hset, model.layers[l], ql.W_hat)
            from_traces = sum(ch.objective_trace[-1] for ch in ql.channels)
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
                for ch in ql.channels:
                    assert np.all(np.diff(ch.codebook.values) >= 0)
                    assert ch.codebook.m == 4

    def test_quantized_model_uses_codebook_values(self, toy_problem):
        model, data = toy_problem
        quantized, qlayers, _ = run_job(model, data, QuantJob(method="rtn", bits=2))
        for W, ql in zip(quantized.layers, qlayers):
            npt.assert_array_equal(W, ql.W_hat)
            for j, ch in enumerate(ql.channels):
                assert np.isin(W[:, j], ch.codebook.values).all()

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
