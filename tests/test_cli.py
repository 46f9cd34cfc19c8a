import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glq
from glq import artifacts
from glq.cli import main
from glq.errors import ConfigError
from glq.runconfig import RunConfig
from glq.tensorio import (
    file_sha256,
    read_manifest,
    verify_manifest,
    write_json_atomic,
    write_manifest,
)


def dir_digest(d: Path) -> dict:
    return {p.name: file_sha256(p) for p in sorted(d.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Dataset and trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model"
    assert main(["gen-data", "--seed", "0", "--n", "48", "--d0", "6", "--dt", "3",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--hidden", "10", "--steps", "80",
                 "--out", str(model)]) == 0
    return data, model


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["gen-data"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["gen-data", "--seed", "zero", "--out", "x"]) == 1


class TestGenData:
    def test_artifact_layout(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen-data", "--seed", "5", "--n", "16", "--d0", "4", "--dt", "2",
                     "--out", str(out)]) == 0
        assert verify_manifest(out) == []
        data, task = artifacts.load_dataset(out)
        assert task == "squared_error"
        assert data.inputs.shape == (16, 4)
        assert data.targets.shape == (16, 2)
        assert data.seed == 5

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen-data", "--seed", "3", "--n", "8", "--d0", "3", "--dt", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_cross_entropy_targets_one_hot(self, tmp_path):
        out = tmp_path / "ce"
        assert main(["gen-data", "--task", "softmax_cross_entropy", "--n", "12",
                     "--d0", "4", "--dt", "3", "--out", str(out)]) == 0
        data, task = artifacts.load_dataset(out)
        assert task == "softmax_cross_entropy"
        assert np.array_equal(np.sort(np.unique(data.targets)), [0.0, 1.0])
        assert np.array_equal(data.targets.sum(axis=1), np.ones(12))


class TestTrainCalibrateHessian:
    def test_train_reduces_loss(self, pipeline, capsys):
        data, model = pipeline
        text = capsys.readouterr()
        m = artifacts.load_model(model)
        assert m.n_layers == 2
        assert verify_manifest(model) == []

    def test_train_missing_data_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m")]) == 2

    def test_diverging_train_prints_only_its_error(self, tmp_path):
        # squared error summed over 512 samples diverges at the default lr;
        # the overflow is the error, so numpy must not warn about it first
        data = tmp_path / "data"
        assert main(["gen-data", "--seed", "7", "--n", "512", "--d0", "64", "--dt", "16",
                     "--task", "squared_error", "--out", str(data)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(glq.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "glq.cli", "train", "--data", str(data),
             "--hidden", "256,256", "--seed", "8", "--out", str(tmp_path / "model")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: non-finite loss at step 94\n"

    def test_calibrate_roundtrip(self, pipeline, tmp_path):
        data, model = pipeline
        out = tmp_path / "calib"
        assert main(["calibrate", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        calib = artifacts.load_calibration(out)
        assert len(calib) == 2
        assert calib[0].X.shape == (48, 6)
        assert calib[1].gradZ.shape == (48, 3)

    def test_hessian_cache_command(self, pipeline, tmp_path):
        data, model = pipeline
        out = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(data),
                     "--kind", "guided", "--g", "2", "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert index["kind"] == "guided"
        assert sorted(index["layers"]) == ["0", "1"]


class TestHessianCacheFlag:
    def _quantize(self, model, data, out, cache=None):
        args = ["quantize", "--model", str(model), "--data", str(data),
                "--method", "lnq_guided", "--bits", "2", "--g", "2", "--out", str(out)]
        assert main(args + (["--hessian-cache", str(cache)] if cache else [])) == 0
        return dir_digest(out)

    def test_hessian_command_entries_are_hits(self, pipeline, tmp_path):
        data, model = pipeline
        cache = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(data),
                     "--kind", "guided", "--g", "2", "--out", str(cache)]) == 0
        entries = sorted(p.name for p in cache.iterdir() if p.is_dir())
        cached = self._quantize(model, data, tmp_path / "qa", cache)
        assert sorted(p.name for p in cache.iterdir() if p.is_dir()) == entries
        assert cached == self._quantize(model, data, tmp_path / "qb")

    def test_cache_not_reused_for_other_data_with_same_seed(self, pipeline, tmp_path):
        data, model = pipeline
        big = tmp_path / "big"
        assert main(["gen-data", "--seed", "0", "--n", "96", "--d0", "6", "--dt", "3",
                     "--out", str(big)]) == 0
        cache = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(data),
                     "--kind", "guided", "--g", "2", "--out", str(cache)]) == 0
        cached = self._quantize(model, big, tmp_path / "qa", cache)
        assert cached == self._quantize(model, big, tmp_path / "qb")

    def test_tampered_cache_entry_refused(self, pipeline, tmp_path, capsys):
        data, model = pipeline
        cache = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(data),
                     "--kind", "guided", "--g", "2", "--out", str(cache)]) == 0
        victim = sorted(cache.rglob("hess.*.gqt"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-8] ^= 0x01  # lowest mantissa bit: a valid, slightly wrong Hessian
        victim.write_bytes(bytes(blob))
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "lnq_guided", "--bits", "2", "--g", "2",
                     "--hessian-cache", str(cache), "--out", str(tmp_path / "q")]) == 2
        assert "manifest" in capsys.readouterr().err


class TestQuantizeAndEval:
    def test_quantize_rerun_byte_identical(self, pipeline, tmp_path):
        data, model = pipeline
        a, b = tmp_path / "qa", tmp_path / "qb"
        args = ["quantize", "--model", str(model), "--data", str(data),
                "--method", "lnq_guided", "--bits", "2", "--g", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert dir_digest(a) == dir_digest(b)
        assert verify_manifest(a) == []

    def test_quantized_artifact_roundtrip(self, pipeline, tmp_path):
        data, model = pipeline
        out = tmp_path / "q"
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "rtn", "--bits", "3", "--out", str(out)]) == 0
        qlayers, meta = artifacts.load_quantized(out)
        assert meta["bits"] == 3 and meta["method"] == "rtn"
        m = artifacts.load_model(model)
        for W, ql in zip(m.layers, qlayers):
            assert ql.W_hat.shape == W.shape
        report = (out / "report.csv").read_text().splitlines()
        assert report[0].startswith("method,bits,g,seed")
        assert len(report) == 2

    def test_config_file_with_flag_override(self, pipeline, tmp_path):
        data, model = pipeline
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "squeezellm", "bits": 3, "seed": 7}))
        out = tmp_path / "q"
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--config", str(cfg), "--bits", "2", "--out", str(out)]) == 0
        _, meta = artifacts.load_quantized(out)
        assert meta["method"] == "squeezellm"
        assert meta["bits"] == 2  # flag wins over config file
        assert meta["seed"] == 7

    def test_config_unknown_key_rejected(self, pipeline, tmp_path):
        data, model = pipeline
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "rtn", "bitz": 2}))
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--config", str(cfg), "--out", str(tmp_path / "q")]) == 2

    def test_eval_reproduces_report_row(self, pipeline, tmp_path, capsys):
        data, model = pipeline
        out = tmp_path / "q"
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "squeezellm", "--bits", "2", "--out", str(out)]) == 0
        stored = (out / "report.csv").read_text()
        capsys.readouterr()
        csv_path = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--quant", str(out), "--csv", str(csv_path)]) == 0
        # squeezellm reports its damped objective under plain Hessians, the
        # same convention eval uses, so the whole row survives the roundtrip
        assert csv_path.read_text() == stored

    def test_eval_loads_quant_json_with_removed_keys(self, pipeline, tmp_path):
        # quant.json as older versions wrote it, with the CD engine knobs
        data, model = pipeline
        out = tmp_path / "q"
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "lnq_guided", "--bits", "2", "--g", "2",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "quant.json").read_text())
        assert "cd_engine" not in meta and "lazy_batch_size" not in meta

        def eval_csv(name: str) -> str:
            assert main(["eval", "--model", str(model), "--data", str(data),
                         "--quant", str(out), "--csv", str(tmp_path / name)]) == 0
            return (tmp_path / name).read_text()

        new = eval_csv("new.csv")
        write_json_atomic(out / "quant.json",
                          dict(meta, cd_engine="precompute", lazy_batch_size=128))
        manifest = read_manifest(out)
        write_manifest(out, {"kind": manifest["kind"]}, list(manifest["files"]))
        assert verify_manifest(out) == []
        assert eval_csv("old.csv") == new
        assert new.splitlines()[1].startswith("lnq_guided,2,2,0,")

    def test_removed_knob_flags_rejected(self, pipeline, tmp_path):
        data, model = pipeline
        base = ["--model", str(model), "--data", str(data)]
        for extra in (["--workers", "2"], ["--cd-engine", "precompute"],
                      ["--lazy-batch-size", "4"]):
            assert main(["quantize", *base, "--method", "rtn", *extra,
                         "--out", str(tmp_path / "q")]) == 1
        assert main(["sweep", *base, "--methods", "rtn", "--workers", "2"]) == 1
        assert not (tmp_path / "q").exists()

    def test_config_removed_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "rtn", "workers": 2}))
        with pytest.raises(ConfigError, match="workers"):
            RunConfig.from_file(cfg)

    def test_eval_missing_artifact(self, pipeline, tmp_path):
        data, model = pipeline
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--quant", str(tmp_path / "nope")]) == 2

    def test_eval_detects_tampering(self, pipeline, tmp_path):
        data, model = pipeline
        out = tmp_path / "q"
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "rtn", "--bits", "2", "--out", str(out)]) == 0
        blob = bytearray((out / "codebook.L0.gqt").read_bytes())
        blob[-1] ^= 0xFF
        (out / "codebook.L0.gqt").write_bytes(bytes(blob))
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--quant", str(out)]) == 2


class TestSweepAndVerify:
    def test_sweep_csv_deterministic(self, pipeline, tmp_path):
        data, model = pipeline
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--model", str(model), "--data", str(data),
                "--methods", "rtn,squeezellm", "--bits", "2,3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + methods x bits

    def test_verify_quick(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
