"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every test pins its tolerance and, where one applies, its runtime
budget, and checks against an independent oracle (enumeration, normal
equations, finite differences, or a recorded pilot run) rather than
against the implementation's own intermediate values.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

from glq import lnq
from glq.calib_model import LayerCalibration, calibrate, toy_problem
from glq.cli import main
from glq.experiments import (
    MARGIN_KEYS,
    end_loss_comparison,
    thresholds_from_margins,
)
from glq.guidedquant import eval_objectives
from glq.hessian import ChannelPartition, guided_hessians, plain_hessian
from glq.lnq import cd_cycle, lnq_quantize
from glq.oracle import (
    exhaustive_lnq,
    fd_gradient_check,
    full_fisher_quadratic,
    kmeans_1d_exact,
    kmeans_partition_oracle,
    naive_cd_cycle,
    weighted_sse,
)
from glq.scalar_quant import kmeans_pp_init, lloyd
from glq.tensorio import file_sha256

from conftest import hset_of, random_lnq_instance, uniform_init

RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_criterion_01_guided_objective_matches_fisher_oracle():
    """Sum over layers of the gradient-weighted output error equals the
    slow per-channel quadratic-form oracle, relative error <= 1e-9,
    on the standard 8-16-16-4 toy model with 64 calibration samples."""
    t0 = time.monotonic()
    model, data = toy_problem(seed=0, steps=150)
    rng = np.random.default_rng(11)
    w_hats = [W + 0.05 * rng.standard_normal(W.shape) for W in model.layers]
    calib = calibrate(model, data)
    guided = sum(r["guided_objective"] for r in eval_objectives(model, w_hats, calib))
    oracle = full_fisher_quadratic(model, data, w_hats)
    assert abs(guided - oracle) <= 1e-9 * max(1.0, abs(oracle))
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_objective_trace_never_increases():
    """200 random channel instances (d <= 32, b in {2,3}, T=3, K=4):
    every damped objective trace is non-increasing, slack 1e-12*(1+f)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(200):
        d = int(rng.integers(2, 33))
        bits = int(rng.integers(2, 4))
        H, w, init = random_lnq_instance(rng, d, bits)
        out = lnq_quantize(hset_of(H, 1), w.reshape(-1, 1), bits, 3, 4, init)
        tr = out.traces[0]
        for a, b in zip(tr, tr[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a)), f"trace rose: {a} -> {b}"
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_cd_engines_agree_on_tie_free_instances(monkeypatch):
    """The naive reference CD and the production CD engine at batch
    sizes b in {1,4,d}, each swapped in for lnq.cd_cycle, produce
    identical assignments through lnq_quantize on 100 tie-free
    instances (d <= 16, codebook size <= 4)."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    found = 0
    attempts = 0
    while found < 100 and attempts < 1000:
        attempts += 1
        d = int(rng.integers(2, 17))
        bits = int(rng.integers(1, 3))
        H, w, init = random_lnq_instance(rng, d, bits)
        engines = [("naive", naive_cd_cycle)] + [
            (f"cd_cycle b={b}", functools.partial(cd_cycle, b=b)) for b in (1, 4, d)
        ]
        runs = []
        tie_free = True
        for name, engine in engines:
            stats: dict = {}
            monkeypatch.setattr(lnq, "cd_cycle", engine)
            out = lnq_quantize(hset_of(H, 1), w.reshape(-1, 1), bits, 2, 2, init, stats=stats)
            monkeypatch.undo()
            if stats.get("min_margin", np.inf) < 1e-6:
                tie_free = False
                break
            runs.append((name, out.A[:, 0]))
        if not tie_free:
            continue
        found += 1
        _, ref = runs[0]
        for name, idx in runs[1:]:
            npt.assert_array_equal(ref, idx, err_msg=f"{name} diverged")
    assert found == 100, f"only {found} tie-free instances in {attempts} attempts"
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_final_objective_bracketed_by_oracle_and_init():
    """On every instance with d in 4..8 and a 2-value codebook, the
    final damped objective lies in [exhaustive optimum, initial]."""
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    for d in range(4, 9):
        for _ in range(6):
            H, w, init = random_lnq_instance(rng, d, bits=1)
            out = lnq_quantize(hset_of(H, 1), w.reshape(-1, 1), 1, 2, 4, init)
            res = exhaustive_lnq(H, w, 2)
            assert res.n_enumerated == 2 ** d
            tr = out.traces[0]
            slack = 1e-9 * (1.0 + abs(res.objective))
            assert res.objective - slack <= tr[-1] <= tr[0] + slack
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_dp_kmeans_exactly_optimal():
    """The interval DP matches exhaustive partition enumeration on 200
    instances (<=10 points, <=3 clusters) to float tightness (1e-9
    relative), and Lloyd never beats it."""
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 4))
        x, w = rng.standard_normal(n), rng.uniform(0.0, 2.0, n) + 0.01
        _, _, dp_obj = kmeans_1d_exact(x, w, m)
        oracle_obj = kmeans_partition_oracle(x, w, m)
        assert abs(dp_obj - oracle_obj) <= 1e-9 * max(1.0, oracle_obj)
        if m <= n and len(np.unique(x)) >= m:
            C, A = lloyd(x[None], w[None], kmeans_pp_init(x[None], w[None], m, [0]), 30)
            lloyd_obj = weighted_sse(x, w, C[0], A[0])
            assert lloyd_obj >= dp_obj - 1e-9 * max(1.0, dp_obj)


def test_criterion_06_grouped_hessians_reduce_to_channel_and_plain_forms():
    """Singleton groups reproduce the per-channel weighted Gram matrix
    X^T Diag(gradZ_j^2) X, and all-ones gradients reproduce the plain
    Hessian X^T X, both <= 1e-10 relative."""
    model, data = toy_problem(seed=0, steps=150)
    calib = calibrate(model, data)
    for c in calib:
        d_out = c.gradZ.shape[1]
        singles = ChannelPartition.consecutive(d_out, d_out)
        hset = guided_hessians(c, singles, grad_scale=1.0, damping_rel=0.0)
        for k, (j, end) in enumerate(singles.bounds):
            assert end == j + 1
            ref = (c.X * (c.gradZ[:, j] ** 2)[:, None]).T @ c.X
            diff = np.max(np.abs(hset.hessians[k] - ref))
            assert diff <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))
        ones = LayerCalibration(X=c.X, gradZ=np.ones_like(c.gradZ))
        whole = ChannelPartition.consecutive(d_out, 1)
        h_ones = guided_hessians(ones, whole, grad_scale=1.0, damping_rel=0.0)
        h_plain = plain_hessian(ones, damping_rel=0.0)
        diff = np.max(np.abs(h_ones.hessians[0] - h_plain.hessians[0]))
        scale = max(1.0, float(np.max(np.abs(h_plain.hessians[0]))))
        assert diff <= 1e-10 * scale


def test_criterion_07_backprop_matches_finite_differences():
    """Analytic weight gradients agree with central finite differences
    to 1e-5 relative on the standard toy model, for both losses."""
    for loss in ("squared_error", "softmax_cross_entropy"):
        model, data = toy_problem(seed=0, loss=loss, steps=150)
        assert fd_gradient_check(model, data) <= 1e-5


def test_criterion_08_end_loss_ordering_meets_pilot_thresholds():
    """Replays the recorded end-loss ranking protocol: mean end loss
    must order lnq_guided <= lnq_plain <= squeezellm, with margins
    meeting the thresholds calibrated by scripts/run_pilot.py and the
    margins themselves reproducing the recorded pilot values."""
    record = json.loads((RESULTS / "pilot_thresholds.json").read_text())
    assert record["thresholds"] == thresholds_from_margins(record["margins"])
    result = end_loss_comparison(**record["protocol"])
    assert result["runtime_s"] < 600.0
    for key in MARGIN_KEYS:
        margin = result["margins"][key]
        recorded = record["margins"][key]
        assert abs(margin - recorded) <= 1e-9 * max(1.0, abs(recorded)), (
            f"{key}: margin {margin} does not reproduce pilot {recorded}")
        assert margin >= record["thresholds"][key], (
            f"{key}: margin {margin:+.4f} below threshold "
            f"{record['thresholds'][key]:.4f}")
        assert margin > 0.0, f"{key}: ordering violated ({margin:+.4f})"


def test_criterion_09_gradient_scaling_leaves_decisions_unchanged():
    """Scaling all gradients by 1e3 changes no assignment (exact) and
    no codebook value (1e-9 relative) on tie-free groups."""
    model, data = toy_problem(seed=6, steps=80)
    calib = calibrate(model, data)
    compared = 0
    for l, c in enumerate(calib):
        W = model.layers[l]
        d_out = c.gradZ.shape[1]
        part = ChannelPartition.consecutive(d_out, 4)
        hsets = [guided_hessians(c, part, grad_scale=s) for s in (1.0, 1e3)]
        for k, (o, e) in enumerate(part.bounds):
            group = list(range(o, e))
            outs = []
            tie_free = True
            for hset in hsets:
                # lnq_quantize solves in place on its init: a fresh pair each
                stats: dict = {}
                outs.append(lnq_quantize(hset_of(hset.hessians[k], len(group)), W[:, group],
                                         2, 2, 2, uniform_init(W[:, group], 4), stats=stats))
                if stats.get("min_margin", np.inf) < 1e-6:
                    tie_free = False
            if not tie_free:
                continue
            compared += 1
            npt.assert_array_equal(outs[0].A, outs[1].A)
            for cb1, cb2 in zip(outs[0].C, outs[1].C):
                num = np.max(np.abs(cb1 - cb2))
                den = max(1.0, float(np.max(np.abs(cb1))))
                assert num <= 1e-9 * den
    assert compared >= 6, f"only {compared} tie-free groups"


def test_criterion_10_cli_pipeline_byte_identical_across_reruns(tmp_path):
    """Two full CLI pipeline runs with identical seeds produce
    byte-identical artifact files."""

    def digest(d: Path) -> dict:
        return {p.name: file_sha256(p) for p in sorted(d.iterdir()) if p.is_file()}

    def run(root: Path) -> dict:
        data, mdl, hes, qnt = (root / s for s in ("data", "model", "hess", "quant"))
        assert main(["gen-data", "--seed", "0", "--n", "32", "--d0", "6",
                     "--dt", "4", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--hidden", "8",
                     "--steps", "60", "--out", str(mdl)]) == 0
        assert main(["hessian", "--model", str(mdl), "--data", str(data),
                     "--g", "2", "--out", str(hes)]) == 0
        assert main(["quantize", "--model", str(mdl), "--data", str(data),
                     "--method", "lnq_guided", "--bits", "2", "--g", "2",
                     "--seed", "0", "--out", str(qnt)]) == 0
        return {d.name: digest(d) for d in (data, mdl, hes, qnt)}

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    assert a == b, "artifacts differ between reruns"
