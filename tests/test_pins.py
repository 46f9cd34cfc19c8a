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
    ("squared_error", "lnq_guided", 1, 0): "c9302bea4a09be69",
    ("squared_error", "lnq_guided", 1, 5): "19c4d575f24bfab1",
    ("squared_error", "lnq_guided", 3, 0): "f4f133afe5c137e7",
    ("squared_error", "lnq_guided", 3, 5): "adda2260e4dc9136",
    ("squared_error", "lnq_guided", 4, 0): "e76609c12d5d7120",
    ("squared_error", "lnq_guided", 4, 5): "3890d655bc09bd91",
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
    ("softmax_cross_entropy", "lnq_guided", 1, 0): "e653852f772643a1",
    ("softmax_cross_entropy", "lnq_guided", 1, 5): "053bddf97813809f",
    ("softmax_cross_entropy", "lnq_guided", 3, 0): "aaffc42ec59b5690",
    ("softmax_cross_entropy", "lnq_guided", 3, 5): "547913549f901ddf",
    ("softmax_cross_entropy", "lnq_guided", 4, 0): "a78567699436add5",
    ("softmax_cross_entropy", "lnq_guided", 4, 5): "5e3c079a92b37533",
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
        "manifest.json": "a31fc3eba1c5",
        "quant.json": "29cd3e4d5946",
        "report.csv": "ca66a2f6048c",
        "traces.json": "7d33b31700e2",
    },
    "squeezellm": {
        "assign.L0.gqt": "6c840afba5a0",
        "assign.L1.gqt": "817979bca84e",
        "codebook.L0.gqt": "4b3d97d7c84a",
        "codebook.L1.gqt": "1c694283a25f",
        "manifest.json": "4589bba19470",
        "quant.json": "e20b2bbe606e",
        "report.csv": "0d55d4910ecf",
        "traces.json": "16c3a6a2577c",
    },
    "lnq_plain": {
        "assign.L0.gqt": "6c840afba5a0",
        "assign.L1.gqt": "781d03763f1a",
        "codebook.L0.gqt": "68231dbc3190",
        "codebook.L1.gqt": "780095c2814b",
        "manifest.json": "ed6101e3aea6",
        "quant.json": "79292a788109",
        "report.csv": "a580b3473e3a",
        "traces.json": "a6366b09de10",
    },
    "lnq_guided": {
        "assign.L0.gqt": "e7f45225c4dd",
        "assign.L1.gqt": "817979bca84e",
        "codebook.L0.gqt": "defe336eb3ad",
        "codebook.L1.gqt": "a9449f0a6e4d",
        "manifest.json": "beebccfbc0fa",
        "quant.json": "0c97fa669e2e",
        "report.csv": "90d1384889a5",
        "traces.json": "31d49ac98861",
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
        "bc7a3950d1952089f272de0a/hess.L1.G0.gqt": "3ec5f69b46fe",
        "bc7a3950d1952089f272de0a/hess.L1.G1.gqt": "dee82235362e",
        "bc7a3950d1952089f272de0a/manifest.json": "2e02bd58c154",
        "c37a9777e14ea8377aacf543/hess.L0.G0.gqt": "fe4f57bc7798",
        "c37a9777e14ea8377aacf543/hess.L0.G1.gqt": "f079a25b593e",
        "c37a9777e14ea8377aacf543/manifest.json": "e1959d04c729",
        "index.json": "e1fad32147c6",
    },
    "plain": {
        "c399a13feb6c0cde48fa7c19/hess.L1.G0.gqt": "b4d6d73bdd44",
        "c399a13feb6c0cde48fa7c19/manifest.json": "29d321639d42",
        "d9e2a9da9cbe28c3c0a45f49/hess.L0.G0.gqt": "902dca019941",
        "d9e2a9da9cbe28c3c0a45f49/manifest.json": "15db1acbe2be",
        "index.json": "889b7b98c7c8",
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
