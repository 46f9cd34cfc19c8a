import weakref

import numpy as np
import pytest

from glq import hessian

from glq.calib_model import calibrate
from glq.calib_model import toy_problem as build_toy_problem
from glq.hessian import ChannelPartition, HessianSet
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


def hset_of(H, sizes, layer_idx: int = 0) -> HessianSet:
    """Layer `layer_idx`'s HessianSet of the Hessians `H` (one 2-D
    matrix: a set of one group) over consecutive groups of `sizes`
    channels (an int: one group of that many), the set the solvers
    take."""
    H = [H] if isinstance(H, np.ndarray) and H.ndim == 2 else list(H)
    sizes = (sizes,) if isinstance(sizes, int) else tuple(sizes)
    return HessianSet(layer_idx, ChannelPartition(sizes), H)


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


def _track_sets(monkeypatch, at_build=None) -> list:
    """Wrap every source of a HessianSet (the plain and guided builders
    and the cache's load), which `layer_hessians` hands out, and return
    the list of weak references to the sets made, which see each set
    without keeping it; `at_build(refs)` runs before each set is made."""
    refs = []

    def wrap(fn):
        def made(*args, **kw):
            if at_build is not None:
                at_build(refs)
            out = fn(*args, **kw)
            if out is not None:
                refs.append(weakref.ref(out))
            return out
        return made

    for name in ("plain_hessian", "guided_hessians"):
        monkeypatch.setattr(hessian, name, wrap(getattr(hessian, name)))
    monkeypatch.setattr(hessian.HessianCache, "load", wrap(hessian.HessianCache.load))
    return refs


def _alive(refs) -> int:
    return sum(r() is not None for r in refs)


def live_sets_at_each_build(monkeypatch) -> list[int]:
    """A list that gets, for each HessianSet made, the number of earlier
    sets still alive at that moment."""
    seen = []
    _track_sets(monkeypatch, lambda refs: seen.append(_alive(refs)))
    return seen


def live_sets_at_rows(monkeypatch) -> list[int]:
    """A list that gets, at each report row `run_job` or `glq eval` makes
    (one `eval_objectives` call per layer), the number of HessianSets
    made so far that are still alive."""
    from glq import guidedquant

    refs, seen = _track_sets(monkeypatch), []
    real = guidedquant.eval_objectives

    def spy(*args, **kw):
        seen.append(_alive(refs))
        return real(*args, **kw)

    monkeypatch.setattr(guidedquant, "eval_objectives", spy)
    return seen
