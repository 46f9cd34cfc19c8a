import numpy as np
import pytest

from glq.calib_model import gen_dataset
from glq.experiments import teacher_split


@pytest.mark.parametrize("task", ["squared_error", "softmax_cross_entropy"])
@pytest.mark.parametrize("n_train, n_test, n_cal, d0, dt", [(64, 32, 16, 8, 4), (1, 1, 1, 3, 2)])
def test_training_split_is_gen_dataset(task, n_train, n_test, n_cal, d0, dt):
    train, test, cal = teacher_split(11, n_train, n_test, n_cal, d0, dt, task)
    want = gen_dataset(11, n_train, d0, dt, task=task)
    assert train.inputs.tobytes() == want.inputs.tobytes()
    assert train.targets.tobytes() == want.targets.tobytes()
    assert [d.inputs.shape for d in (train, test, cal)] == [(n, d0) for n in (n_train, n_test, n_cal)]
    assert [d.targets.shape for d in (train, test, cal)] == [(n, dt) for n in (n_train, n_test, n_cal)]


@pytest.mark.parametrize("task", ["squared_error", "softmax_cross_entropy"])
def test_held_out_split_does_not_depend_on_n_cal(task):
    _, test, cal = teacher_split(3, 128, 96, 8, 8, 4, task)
    for n_cal in (1, 64, 512):
        _, other, other_cal = teacher_split(3, 128, 96, n_cal, 8, 4, task)
        assert other.inputs.tobytes() == test.inputs.tobytes()
        assert other.targets.tobytes() == test.targets.tobytes()
        # the calibration draw follows the held-out one: a longer draw
        # starts with the shorter one
        n = min(n_cal, 8)
        assert other_cal.inputs[:n].tobytes() == cal.inputs[:n].tobytes()
    # three disjoint draws: no input row is repeated across the splits
    train, test, cal = teacher_split(3, 128, 96, 8, 8, 4, task)
    rows = np.concatenate([train.inputs, test.inputs, cal.inputs])
    assert len(np.unique(rows, axis=0)) == len(rows)

