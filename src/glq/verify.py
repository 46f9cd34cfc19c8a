"""Self-contained property suite behind the ``verify`` subcommand.

Each check prints one PASS/FAIL line; the suite exits nonzero if any
check fails. Checks re-derive expectations from oracles at run time
(enumeration, normal equations, finite differences), so they hold on
any machine with a working float64.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import artifacts
from .calib_model import (
    TOY_DIMS,
    Dataset,
    calibrate,
    end_loss,
    gen_dataset,
    per_sample_losses,
    random_model,
    toy_problem,
)
from .errors import TooLarge
from .guidedquant import QuantJob, eval_objectives, run_job
from .hessian import ChannelPartition, guided_hessians
from .lnq import LnqConfig, cd_cycle, lnq_quantize
from .oracle import (
    exhaustive_lnq,
    fd_gradient_check,
    full_fisher_quadratic,
    kmeans_partition_oracle,
    naive_cd_cycle,
)
from .runconfig import RunConfig
from .scalar_quant import (
    ChannelQuantState,
    Codebook,
    WeightedPoints,
    kmeans_1d_exact,
    kmeans_pp_init,
    lloyd,
    nearest_assignment,
    weighted_sse,
)
from .tensorio import read_tensor, write_tensor

def random_spd(rng: np.random.Generator, d: int, damp: float = 1e-6) -> np.ndarray:
    """X^T X for a (d + 4) x d Gaussian X, plus `damp` times its mean
    diagonal on the diagonal."""
    X = rng.standard_normal((d + 4, d))
    H = X.T @ X
    H = 0.5 * (H + H.T)
    return H + damp * float(np.mean(np.diag(H))) * np.eye(d)


def uniform_init(w: np.ndarray, m: int) -> ChannelQuantState:
    """Linspace codebook over [min, max] with nearest assignment."""
    lo, hi = float(w.min()), float(w.max())
    vals = np.linspace(lo, hi, m) if hi > lo else np.full(m, lo)
    cb = Codebook(values=vals)
    pts = WeightedPoints(x=w, wgt=np.ones_like(w))
    return ChannelQuantState.from_parts(cb, nearest_assignment(pts, cb))


def random_lnq_instance(rng: np.random.Generator, d: int, bits: int):
    H = random_spd(rng, d)
    w = rng.standard_normal(d)
    return H, w, uniform_init(w, 2 ** bits)


# each check returns None on pass or a failure detail string

def check_tensor_roundtrip() -> str | None:
    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory() as td:
        for arr in (
            rng.standard_normal((3, 4)),
            rng.standard_normal((2, 0, 5)),
            (rng.integers(0, 255, size=17)).astype(np.uint8),
            rng.standard_normal(6).astype(np.float32),
        ):
            p = Path(td) / "t.gqt"
            write_tensor(p, arr)
            back = read_tensor(p)
            if back.dtype != arr.dtype or back.shape != arr.shape:
                return f"dtype/shape changed: {arr.dtype}{arr.shape} -> {back.dtype}{back.shape}"
            if arr.size and not np.array_equal(back, arr):
                return "payload changed"
    return None


def check_dataset_determinism() -> str | None:
    a = gen_dataset(5, 32, 8, 4)
    b = gen_dataset(5, 32, 8, 4)
    if not (np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)):
        return "same seed produced different data"
    c = gen_dataset(6, 32, 8, 4)
    if np.array_equal(a.inputs, c.inputs):
        return "different seeds produced identical inputs"
    return None


def check_gradients() -> str | None:
    for loss in ("squared_error", "softmax_cross_entropy"):
        data = gen_dataset(3, 32, 8, 4, task=loss)
        model = random_model(TOY_DIMS, 4, loss=loss)
        err = fd_gradient_check(model, data, samples=20)
        if err > 1e-5:
            return f"{loss}: fd mismatch {err:.3g} > 1e-5"
    return None


def check_loss_additivity() -> str | None:
    model, data = toy_problem(seed=2, steps=40)
    per = per_sample_losses(model, data)
    half = data.n // 2
    a = Dataset(inputs=data.inputs[:half], targets=data.targets[:half], seed=0)
    b = Dataset(inputs=data.inputs[half:], targets=data.targets[half:], seed=0)
    lhs = end_loss(model, data)
    rhs = end_loss(model, a) + end_loss(model, b)
    if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
        return f"sum over halves differs: {lhs} vs {rhs}"
    if abs(lhs - float(np.sum(per))) > 1e-10 * max(1.0, abs(lhs)):
        return "per-sample losses do not sum to the end loss"
    return None


def check_fisher_identity() -> str | None:
    model, data = toy_problem(seed=1, steps=80)
    calib = calibrate(model, data)
    rng = np.random.default_rng(11)
    w_hats = [W + 0.05 * rng.standard_normal(W.shape) for W in model.layers]
    guided = sum(r["guided_objective"] for r in eval_objectives(model, w_hats, calib))
    # the slow per-sample outer-product oracle, summed over every layer
    slow = full_fisher_quadratic(model, data, w_hats)
    if abs(guided - slow) > 1e-9 * max(1.0, abs(slow)):
        return f"elementwise {guided} vs per-channel Fisher oracle {slow}"
    return None


def check_hessian_groups() -> str | None:
    model, data = toy_problem(seed=4, steps=60)
    calib = calibrate(model, data)
    c = calib[1]
    d_out = c.gradZ.shape[1]
    part = ChannelPartition.consecutive(d_out, 4)
    hset = guided_hessians(c, part, grad_scale=10.0, damping_rel=0.0)
    for k, grp in enumerate(part.groups):
        acc = np.zeros_like(hset.hessians[k])
        for j in grp:
            g2 = (10.0 * c.gradZ[:, j]) ** 2
            acc += (c.X * g2[:, None]).T @ c.X
        acc /= len(grp)
        diff = np.max(np.abs(acc - hset.hessians[k]))
        scale = max(1.0, float(np.max(np.abs(acc))))
        if diff > 1e-10 * scale:
            return f"group {k}: averaging identity off by {diff:.3g}"
    return None


def check_kmeans_dp() -> str | None:
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        pts = WeightedPoints(x=rng.standard_normal(n), wgt=rng.uniform(0.0, 2.0, n) + 0.01)
        _, _, dp_obj = kmeans_1d_exact(pts, m)
        oracle_obj = kmeans_partition_oracle(pts, m)
        if abs(dp_obj - oracle_obj) > 1e-9 * max(1.0, oracle_obj):
            return f"dp {dp_obj} vs enumeration {oracle_obj}"
        if m <= n and len(np.unique(pts.x)) >= m:
            init = kmeans_pp_init(pts, m, seed=0)
            cb, asg = lloyd(pts, init, 30)
            if weighted_sse(pts, cb, asg) < dp_obj - 1e-9 * max(1.0, dp_obj):
                return "lloyd beat the exact dp"
    return None


def check_cd_cycle() -> str | None:
    """cd_cycle at b in {1, 3, d} against the naive reference, two
    cycles from a uniform init, on tie-free instances."""
    rng = np.random.default_rng(33)
    found = 0
    attempts = 0
    while found < 20 and attempts < 200:
        attempts += 1
        d = int(rng.integers(4, 13))
        bits = int(rng.integers(1, 3))
        H, w, init = random_lnq_instance(rng, d, bits)
        W = w.reshape(-1, 1)
        C = init.codebook.values[None, :]
        ref = init.assign.idx[:, None].copy()
        naive_cd_cycle(H, W, C, ref, 2)
        stats: dict = {}
        runs = []
        for b in (1, 3, d):
            A = init.assign.idx[:, None].copy()
            cd_cycle(H, W, C, A, 2, b=b, stats=stats)
            runs.append((b, A))
        if stats.get("min_margin", np.inf) < 1e-6:
            continue
        found += 1
        for b, A in runs:
            if not np.array_equal(ref, A):
                return f"cd_cycle (b={b}) diverged from the naive reference on d={d}"
    if found < 20:
        return f"only {found} tie-free instances in {attempts} attempts"
    return None


def check_lnq_descent() -> str | None:
    rng = np.random.default_rng(44)
    for _ in range(20):
        d = int(rng.integers(3, 17))
        bits = int(rng.integers(1, 4))
        H, w, init = random_lnq_instance(rng, d, bits)
        cfg = LnqConfig(bits=bits, T=3, K=3)
        out = lnq_quantize(H, w.reshape(-1, 1), cfg, [init])
        tr = out.channels[0].objective_trace
        if len(tr) != 2 * cfg.T + 2:
            return f"trace length {len(tr)} != {2 * cfg.T + 2}"
        for a, b in zip(tr, tr[1:]):
            if b > a + 1e-12 * (1.0 + abs(a)):
                return f"objective rose: {a} -> {b}"
    return None


def check_lnq_vs_exhaustive() -> str | None:
    rng = np.random.default_rng(55)
    for _ in range(5):
        d = 5
        H, w, init = random_lnq_instance(rng, d, bits=1)
        cfg = LnqConfig(bits=1, T=2, K=4)
        out = lnq_quantize(H, w.reshape(-1, 1), cfg, [init])
        res = exhaustive_lnq(H, w, 2)
        if res.n_enumerated != 2 ** d:
            return f"oracle enumerated {res.n_enumerated} != {2 ** d}"
        tr = out.channels[0].objective_trace
        slack = 1e-9 * (1.0 + abs(res.objective))
        if not (res.objective - slack <= tr[-1] <= tr[0] + slack):
            return f"final {tr[-1]} outside [{res.objective}, initial {tr[0]}]"
    return None


def check_scale_invariance() -> str | None:
    model, data = toy_problem(seed=6, steps=80)
    calib = calibrate(model, data)
    c = calib[1]
    part = ChannelPartition.consecutive(c.gradZ.shape[1], 4)
    W = model.layers[1]
    outs = []
    for scale in (1.0, 1e3):
        hset = guided_hessians(c, part, grad_scale=scale)
        group = list(part.groups[0])
        init = [uniform_init(W[:, j], 4) for j in group]
        cfg = LnqConfig(bits=2, T=2, K=2)
        outs.append(lnq_quantize(hset.hessians[0], W[:, group], cfg, init))
    for st1, st2 in zip(outs[0].channels, outs[1].channels):
        if not np.array_equal(st1.assign.idx, st2.assign.idx):
            return "assignments changed with grad scale"
        num = np.max(np.abs(st1.codebook.values - st2.codebook.values))
        den = max(1.0, float(np.max(np.abs(st1.codebook.values))))
        if num > 1e-9 * den:
            return f"codebooks differ by {num:.3g} relative {num / den:.3g}"
    return None


def check_config_validation() -> str | None:
    try:
        RunConfig.from_dict({"bogus_key": 1})
        return "unknown key accepted"
    except Exception:
        pass
    try:
        RunConfig.from_dict({"bits": 99})
        return "bits=99 accepted"
    except Exception:
        pass
    try:
        exhaustive_lnq(np.eye(30), np.zeros(30), 4)
        return "oracle cap not enforced"
    except TooLarge:
        pass
    return None


def check_pipeline_determinism() -> str | None:
    model, data = toy_problem(seed=9, steps=80)
    job = QuantJob(method="lnq_guided", bits=2, g=4, seed=0)
    _, q1, r1 = run_job(model, data, job)
    _, q2, r2 = run_job(model, data, job)
    for a, b in zip(q1, q2):
        if not np.array_equal(a.assign_matrix(), b.assign_matrix()):
            return "assignments differ between reruns"
        if not np.array_equal(a.codebook_matrix(), b.codebook_matrix()):
            return "codebooks differ between reruns"
    with tempfile.TemporaryDirectory() as td:
        d1, d2 = Path(td) / "a", Path(td) / "b"
        artifacts.save_quantized(d1, q1, r1, {"method": job.method})
        artifacts.save_quantized(d2, q2, r2, {"method": job.method})
        for name in sorted(p.name for p in d1.iterdir()):
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                return f"artifact {name} not byte-identical"
    return None


CHECKS = [
    ("tensor_roundtrip", check_tensor_roundtrip, True),
    ("dataset_determinism", check_dataset_determinism, True),
    ("gradient_check", check_gradients, True),
    ("loss_additivity", check_loss_additivity, True),
    ("fisher_identity", check_fisher_identity, True),
    ("hessian_group_consistency", check_hessian_groups, True),
    ("kmeans_dp_optimal", check_kmeans_dp, True),
    ("cd_cycle_vs_naive", check_cd_cycle, False),
    ("lnq_descent", check_lnq_descent, True),
    ("lnq_vs_exhaustive", check_lnq_vs_exhaustive, False),
    ("grad_scale_invariance", check_scale_invariance, False),
    ("config_validation", check_config_validation, True),
    ("pipeline_determinism", check_pipeline_determinism, False),
]


def run_verify(quick: bool = False) -> bool:
    """Run the suite, print one line per check, return overall success."""
    all_ok = True
    for name, fn, in_quick in CHECKS:
        if quick and not in_quick:
            continue
        try:
            detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            all_ok = False
    print("verify: all checks passed" if all_ok else "verify: FAILURES above")
    return all_ok
