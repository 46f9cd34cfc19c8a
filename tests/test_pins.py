"""Bit pins: digests of `run_job`'s outputs on the toy problem and of the
files `glq quantize` writes on criterion 10's pipeline.

A speedup must keep every bit, so these digests were recorded once and
stay fixed. A change that moves bits on purpose (a new init seed list,
a thread-invariant factorization) re-records them and says so.
"""

import hashlib
import json

import pytest

from glq.cli import main
from glq.guidedquant import METHODS, QuantJob, run_job
from glq.tensorio import file_sha256

from conftest import toy


def _run_job_digest(qlayers, report) -> str:
    """sha256 prefix over every layer's codebooks, assignments and traces
    (json keeps each float's repr) and the report's CSV row."""
    h = hashlib.sha256()
    for ql in qlayers:
        h.update(ql.C.tobytes())
        h.update(ql.A.tobytes())
        h.update(json.dumps(ql.traces).encode())
    h.update(repr(report.csv_row()).encode())
    return h.hexdigest()[:16]


# (loss, method, g, seed) -> digest; g is forced to 1 for every method
# but lnq_guided, so those rows repeat one job three times.
RUN_JOB_PINS = {
    ("squared_error", "rtn", 1, 0): "62ec8d87177fe354",
    ("squared_error", "rtn", 1, 5): "dcd9eb4f740a33e4",
    ("squared_error", "rtn", 3, 0): "62ec8d87177fe354",
    ("squared_error", "rtn", 3, 5): "dcd9eb4f740a33e4",
    ("squared_error", "rtn", 4, 0): "62ec8d87177fe354",
    ("squared_error", "rtn", 4, 5): "dcd9eb4f740a33e4",
    ("squared_error", "squeezellm", 1, 0): "02423be08e5e26dc",
    ("squared_error", "squeezellm", 1, 5): "72502a045e2ffdb5",
    ("squared_error", "squeezellm", 3, 0): "02423be08e5e26dc",
    ("squared_error", "squeezellm", 3, 5): "72502a045e2ffdb5",
    ("squared_error", "squeezellm", 4, 0): "02423be08e5e26dc",
    ("squared_error", "squeezellm", 4, 5): "72502a045e2ffdb5",
    ("squared_error", "lnq_plain", 1, 0): "34717caccf61992f",
    ("squared_error", "lnq_plain", 1, 5): "a02383d82ec00355",
    ("squared_error", "lnq_plain", 3, 0): "34717caccf61992f",
    ("squared_error", "lnq_plain", 3, 5): "a02383d82ec00355",
    ("squared_error", "lnq_plain", 4, 0): "34717caccf61992f",
    ("squared_error", "lnq_plain", 4, 5): "a02383d82ec00355",
    ("squared_error", "lnq_guided", 1, 0): "17bcc03e273cdd9a",
    ("squared_error", "lnq_guided", 1, 5): "d39755d983bd4cd2",
    ("squared_error", "lnq_guided", 3, 0): "d4e023350b19e5b0",
    ("squared_error", "lnq_guided", 3, 5): "b42ae2c269fbf5ec",
    ("squared_error", "lnq_guided", 4, 0): "6ce787c2caaac3b4",
    ("squared_error", "lnq_guided", 4, 5): "87198339a788ca45",
    ("softmax_cross_entropy", "rtn", 1, 0): "af3b42f495b41d1c",
    ("softmax_cross_entropy", "rtn", 1, 5): "589dad15ec2aeca5",
    ("softmax_cross_entropy", "rtn", 3, 0): "af3b42f495b41d1c",
    ("softmax_cross_entropy", "rtn", 3, 5): "589dad15ec2aeca5",
    ("softmax_cross_entropy", "rtn", 4, 0): "af3b42f495b41d1c",
    ("softmax_cross_entropy", "rtn", 4, 5): "589dad15ec2aeca5",
    ("softmax_cross_entropy", "squeezellm", 1, 0): "c8584199e68727d7",
    ("softmax_cross_entropy", "squeezellm", 1, 5): "3f9217773d927d60",
    ("softmax_cross_entropy", "squeezellm", 3, 0): "c8584199e68727d7",
    ("softmax_cross_entropy", "squeezellm", 3, 5): "3f9217773d927d60",
    ("softmax_cross_entropy", "squeezellm", 4, 0): "c8584199e68727d7",
    ("softmax_cross_entropy", "squeezellm", 4, 5): "3f9217773d927d60",
    ("softmax_cross_entropy", "lnq_plain", 1, 0): "17891b01b52275ff",
    ("softmax_cross_entropy", "lnq_plain", 1, 5): "26dadb6283714860",
    ("softmax_cross_entropy", "lnq_plain", 3, 0): "17891b01b52275ff",
    ("softmax_cross_entropy", "lnq_plain", 3, 5): "26dadb6283714860",
    ("softmax_cross_entropy", "lnq_plain", 4, 0): "17891b01b52275ff",
    ("softmax_cross_entropy", "lnq_plain", 4, 5): "26dadb6283714860",
    ("softmax_cross_entropy", "lnq_guided", 1, 0): "1d86e3de0423d0e8",
    ("softmax_cross_entropy", "lnq_guided", 1, 5): "a07d3be2475e492f",
    ("softmax_cross_entropy", "lnq_guided", 3, 0): "3a055cbf22e45a33",
    ("softmax_cross_entropy", "lnq_guided", 3, 5): "1470fee9a8578075",
    ("softmax_cross_entropy", "lnq_guided", 4, 0): "ccf3571354ecf469",
    ("softmax_cross_entropy", "lnq_guided", 4, 5): "fd9a36b81bbfc81b",
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("g", [1, 3, 4])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("loss", ["squared_error", "softmax_cross_entropy"])
def test_run_job_bits_are_pinned(loss, method, g, seed):
    model, data = toy(loss)
    _, qlayers, report = run_job(model, data, QuantJob(method=method, bits=2, g=g, seed=seed))
    assert _run_job_digest(qlayers, report) == RUN_JOB_PINS[(loss, method, g, seed)]


# sha256 prefixes of every file `glq quantize` writes on criterion 10"s
# pipeline, per method, with the guided Hessian cache.
QUANTIZE_FILE_PINS = {
    "rtn": {
        "assign.L0.gqt": "3e4edb2f455a",
        "assign.L1.gqt": "2cbeb4b621f8",
        "codebook.L0.gqt": "daa3433602e4",
        "codebook.L1.gqt": "04fa5e082a54",
        "manifest.json": "40117032bf19",
        "quant.json": "29cd3e4d5946",
        "report.csv": "414719bf2c20",
        "traces.json": "7d33b31700e2",
    },
    "squeezellm": {
        "assign.L0.gqt": "6c840afba5a0",
        "assign.L1.gqt": "817979bca84e",
        "codebook.L0.gqt": "4b3d97d7c84a",
        "codebook.L1.gqt": "1c694283a25f",
        "manifest.json": "6dbb05682f2a",
        "quant.json": "e20b2bbe606e",
        "report.csv": "0f2ed422f202",
        "traces.json": "16c3a6a2577c",
    },
    "lnq_plain": {
        "assign.L0.gqt": "6c840afba5a0",
        "assign.L1.gqt": "781d03763f1a",
        "codebook.L0.gqt": "68231dbc3190",
        "codebook.L1.gqt": "780095c2814b",
        "manifest.json": "9b35b86fb44b",
        "quant.json": "79292a788109",
        "report.csv": "2d84ff4feb21",
        "traces.json": "a6366b09de10",
    },
    "lnq_guided": {
        "assign.L0.gqt": "e7f45225c4dd",
        "assign.L1.gqt": "dce6d53bb8a7",
        "codebook.L0.gqt": "defe336eb3ad",
        "codebook.L1.gqt": "ddf50e85d170",
        "manifest.json": "a528ea5d8431",
        "quant.json": "0c97fa669e2e",
        "report.csv": "9c19da3fc1c5",
        "traces.json": "e92291d684e5",
    },
}


@pytest.fixture(scope="module")
def criterion_10_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    data, mdl, hes = root / "data", root / "model", root / "hess"
    assert main(["gen-data", "--seed", "0", "--n", "32", "--d0", "6", "--dt", "4",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--hidden", "8", "--steps", "60",
                 "--out", str(mdl)]) == 0
    assert main(["hessian", "--model", str(mdl), "--data", str(data), "--g", "2",
                 "--out", str(hes)]) == 0
    return root, data, mdl, hes


@pytest.mark.parametrize("method", METHODS)
def test_criterion_10_quantize_files_are_pinned(criterion_10_inputs, method):
    root, data, mdl, hes = criterion_10_inputs
    out = root / method
    assert main(["quantize", "--model", str(mdl), "--data", str(data), "--method", method,
                 "--bits", "2", "--g", "2", "--seed", "0", "--hessian-cache", str(hes),
                 "--out", str(out)]) == 0
    got = {p.name: file_sha256(p)[:12] for p in sorted(out.iterdir()) if p.is_file()}
    assert got == QUANTIZE_FILE_PINS[method]
