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
    ("squared_error", "rtn", 1, 0): "17a3154831f4fff6",
    ("squared_error", "rtn", 1, 5): "96e1f6d84c063991",
    ("squared_error", "rtn", 3, 0): "17a3154831f4fff6",
    ("squared_error", "rtn", 3, 5): "96e1f6d84c063991",
    ("squared_error", "rtn", 4, 0): "17a3154831f4fff6",
    ("squared_error", "rtn", 4, 5): "96e1f6d84c063991",
    ("squared_error", "squeezellm", 1, 0): "e456eb09abf91397",
    ("squared_error", "squeezellm", 1, 5): "5b2ce01069facd7f",
    ("squared_error", "squeezellm", 3, 0): "e456eb09abf91397",
    ("squared_error", "squeezellm", 3, 5): "5b2ce01069facd7f",
    ("squared_error", "squeezellm", 4, 0): "e456eb09abf91397",
    ("squared_error", "squeezellm", 4, 5): "5b2ce01069facd7f",
    ("squared_error", "lnq_plain", 1, 0): "f38cafcc46ffbf3c",
    ("squared_error", "lnq_plain", 1, 5): "77e0787866b8a80a",
    ("squared_error", "lnq_plain", 3, 0): "f38cafcc46ffbf3c",
    ("squared_error", "lnq_plain", 3, 5): "77e0787866b8a80a",
    ("squared_error", "lnq_plain", 4, 0): "f38cafcc46ffbf3c",
    ("squared_error", "lnq_plain", 4, 5): "77e0787866b8a80a",
    ("squared_error", "lnq_guided", 1, 0): "1b4f6cf139a51090",
    ("squared_error", "lnq_guided", 1, 5): "1dbc59d9fd6b3514",
    ("squared_error", "lnq_guided", 3, 0): "3dee16577796bea7",
    ("squared_error", "lnq_guided", 3, 5): "48a0ebe3dd0098c2",
    ("squared_error", "lnq_guided", 4, 0): "d0120d0f6aa73011",
    ("squared_error", "lnq_guided", 4, 5): "a6bd5e36637cc009",
    ("softmax_cross_entropy", "rtn", 1, 0): "a86994632587c7f9",
    ("softmax_cross_entropy", "rtn", 1, 5): "1dc46fdeaf372ff5",
    ("softmax_cross_entropy", "rtn", 3, 0): "a86994632587c7f9",
    ("softmax_cross_entropy", "rtn", 3, 5): "1dc46fdeaf372ff5",
    ("softmax_cross_entropy", "rtn", 4, 0): "a86994632587c7f9",
    ("softmax_cross_entropy", "rtn", 4, 5): "1dc46fdeaf372ff5",
    ("softmax_cross_entropy", "squeezellm", 1, 0): "b591f89b3345e137",
    ("softmax_cross_entropy", "squeezellm", 1, 5): "394d55f28ba2aebe",
    ("softmax_cross_entropy", "squeezellm", 3, 0): "b591f89b3345e137",
    ("softmax_cross_entropy", "squeezellm", 3, 5): "394d55f28ba2aebe",
    ("softmax_cross_entropy", "squeezellm", 4, 0): "b591f89b3345e137",
    ("softmax_cross_entropy", "squeezellm", 4, 5): "394d55f28ba2aebe",
    ("softmax_cross_entropy", "lnq_plain", 1, 0): "27837be32da06ea0",
    ("softmax_cross_entropy", "lnq_plain", 1, 5): "81f850d1cc8f19d9",
    ("softmax_cross_entropy", "lnq_plain", 3, 0): "27837be32da06ea0",
    ("softmax_cross_entropy", "lnq_plain", 3, 5): "81f850d1cc8f19d9",
    ("softmax_cross_entropy", "lnq_plain", 4, 0): "27837be32da06ea0",
    ("softmax_cross_entropy", "lnq_plain", 4, 5): "81f850d1cc8f19d9",
    ("softmax_cross_entropy", "lnq_guided", 1, 0): "2892257aab3f8b48",
    ("softmax_cross_entropy", "lnq_guided", 1, 5): "c6cbd3c3070d06b7",
    ("softmax_cross_entropy", "lnq_guided", 3, 0): "8152c94b724210da",
    ("softmax_cross_entropy", "lnq_guided", 3, 5): "7a0fb8d5a7d00f75",
    ("softmax_cross_entropy", "lnq_guided", 4, 0): "44b17810200f71c9",
    ("softmax_cross_entropy", "lnq_guided", 4, 5): "b80635807c8b90b0",
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
        "manifest.json": "d33d609d3c91",
        "quant.json": "f05c5d72d85d",
        "report.csv": "ca66a2f6048c",
        "traces.json": "7d33b31700e2",
    },
    "squeezellm": {
        "assign.L0.gqt": "6c840afba5a0",
        "assign.L1.gqt": "817979bca84e",
        "codebook.L0.gqt": "4b3d97d7c84a",
        "codebook.L1.gqt": "1c694283a25f",
        "manifest.json": "abf622ee0680",
        "quant.json": "663c114b40ec",
        "report.csv": "0d55d4910ecf",
        "traces.json": "16c3a6a2577c",
    },
    "lnq_plain": {
        "assign.L0.gqt": "6c840afba5a0",
        "assign.L1.gqt": "781d03763f1a",
        "codebook.L0.gqt": "68231dbc3190",
        "codebook.L1.gqt": "780095c2814b",
        "manifest.json": "daad75913b83",
        "quant.json": "d75d2917ffd0",
        "report.csv": "a580b3473e3a",
        "traces.json": "a6366b09de10",
    },
    "lnq_guided": {
        "assign.L0.gqt": "e7f45225c4dd",
        "assign.L1.gqt": "817979bca84e",
        "codebook.L0.gqt": "afca84e340ec",
        "codebook.L1.gqt": "8d6df14d48ad",
        "manifest.json": "38a5cc4e8ce1",
        "quant.json": "3579f9f05ee5",
        "report.csv": "60476801d817",
        "traces.json": "97c936429b1f",
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


# sha256 prefixes of every file `glq hessian` writes on criterion 10's
# pipeline (entry manifests, group Hessians and index.json), keyed by
# path within the cache, per kind.
HESSIAN_CACHE_PINS = {
    "guided": {
        "18781f7631321a9bf991e73d/hess.L0.G0.gqt": "7ee23e6d4c3c",
        "18781f7631321a9bf991e73d/hess.L0.G1.gqt": "41552d27df47",
        "18781f7631321a9bf991e73d/manifest.json": "96f11399631a",
        "982669e3af6e0efe763507fb/hess.L1.G0.gqt": "e71c52896e9f",
        "982669e3af6e0efe763507fb/hess.L1.G1.gqt": "627bcdf5cb8e",
        "982669e3af6e0efe763507fb/manifest.json": "aade62302fda",
        "index.json": "c3467b8708c5",
    },
    "plain": {
        "2d0b789155a77220dda222c2/hess.L0.G0.gqt": "902dca019941",
        "2d0b789155a77220dda222c2/manifest.json": "4b4f8d2dcf53",
        "8387b2768c270250f3918c26/hess.L1.G0.gqt": "b4d6d73bdd44",
        "8387b2768c270250f3918c26/manifest.json": "f1d275229f07",
        "index.json": "27187840fe27",
    },
}


def _cache_digests(root) -> dict:
    """sha256 prefix of every file under a Hessian cache directory, keyed
    by its path relative to the directory."""
    return {p.relative_to(root).as_posix(): file_sha256(p)[:12]
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("kind,flags", [("guided", ["--g", "2"]), ("plain", ["--kind", "plain"])])
def test_criterion_10_hessian_cache_files_are_pinned(criterion_10_inputs, kind, flags):
    # a fresh cache: the fixture's is also written to by lnq_plain's quantize
    root, data, mdl, _ = criterion_10_inputs
    out = root / f"hess_{kind}"
    assert main(["hessian", "--model", str(mdl), "--data", str(data), *flags,
                 "--out", str(out)]) == 0
    assert _cache_digests(out) == HESSIAN_CACHE_PINS[kind]
