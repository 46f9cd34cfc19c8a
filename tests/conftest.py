import weakref

import numpy as np
import pytest

from glq import hessian

from glq.calib_model import calibrate
from glq.calib_model import toy_problem as build_toy_problem
from glq.scalar_quant import round_rows

_toy_cache = {}


def toy(loss: str = "squared_error", seed: int = 0, steps: int = 150):
    """Trained standard toy problem, cached per (loss, seed, steps)."""
    key = (loss, seed, steps)
    if key not in _toy_cache:
        _toy_cache[key] = build_toy_problem(seed=seed, loss=loss, steps=steps)
    return _toy_cache[key]


@pytest.fixture(scope="session")
def toy_problem():
    return toy()


@pytest.fixture(scope="session")
def toy_calib(toy_problem):
    model, data = toy_problem
    return calibrate(model, data)


def random_spd(rng: np.random.Generator, d: int, damp: float = 1e-6) -> np.ndarray:
    """X^T X for a (d + 4) x d Gaussian X, plus `damp` times its mean
    diagonal on the diagonal."""
    X = rng.standard_normal((d + 4, d))
    H = X.T @ X
    H = 0.5 * (H + H.T)
    return H + damp * float(np.mean(np.diag(H))) * np.eye(d)


def uniform_init(W: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the d x c W, a linspace codebook over [min, max]
    with nearest assignment: the codebooks (c x m) and assignments
    (d x c), the init pair lnq_quantize takes."""
    C = np.empty((W.shape[1], m))
    for j, w in enumerate(W.T):
        lo, hi = float(w.min()), float(w.max())
        C[j] = np.linspace(lo, hi, m) if hi > lo else np.full(m, lo)
    return C, round_rows(W, C)


def random_lnq_instance(rng: np.random.Generator, d: int, bits: int):
    """(H, w, init): a random SPD H, a Gaussian channel w of length d and
    its uniform init pair (1 x 2**bits codebook, d x 1 assignment)."""
    H = random_spd(rng, d)
    w = rng.standard_normal(d)
    return H, w, uniform_init(w[:, None], 2 ** bits)


def live_sets_at_each_build(monkeypatch) -> list[int]:
    """Wrap every source of a HessianSet (the plain and guided builders
    and the cache's load) and return a list that gets, for each set made,
    the number of earlier sets still alive at that moment; weak
    references see each set without keeping it."""
    refs, seen = [], []

    def wrap(fn):
        def made(*args, **kw):
            seen.append(sum(r() is not None for r in refs))
            out = fn(*args, **kw)
            if out is not None:
                refs.append(weakref.ref(out))
            return out
        return made

    for name in ("plain_hessian", "guided_hessians"):
        monkeypatch.setattr(hessian, name, wrap(getattr(hessian, name)))
    monkeypatch.setattr(hessian.HessianCache, "load", wrap(hessian.HessianCache.load))
    return seen
