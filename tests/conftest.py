import pytest

from glq.calib_model import calibrate
from glq.calib_model import toy_problem as build_toy_problem

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
