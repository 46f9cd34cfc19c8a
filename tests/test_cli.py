import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import glq
from glq import artifacts, cli, hessian, tensorio
from glq.calib_model import calibrate
from glq.cli import QUANTIZE_DEFAULTS, build_parser, main
from glq.errors import ConfigError, CorruptFile
from glq.guidedquant import METHODS, QuantJob
from glq.tensorio import (
    file_sha256,
    read_manifest,
    read_tensor,
    verify_manifest,
    write_json_atomic,
    write_manifest,
    write_tensor,
)

from conftest import live_sets_at_each_build, live_sets_at_rows


def dir_digest(d: Path) -> dict:
    return {p.name: file_sha256(p) for p in sorted(d.iterdir()) if p.is_file()}


def _resign(d: Path) -> None:
    """A fresh manifest over the files of artifact d, so only the checks
    past the manifest can catch an edit."""
    manifest = read_manifest(d)
    write_manifest(d, {"kind": manifest["kind"]}, list(manifest["files"]))
    assert verify_manifest(d) == []


def _refused_request(err: str) -> tuple[Path, dict, dict]:
    """The entry, the recorded request and the requested one of the
    error a cache load gives for an entry built for another request."""
    head, rest = err.removeprefix("error: ").split(": hessian cache entry was built for ")
    built, asked = rest.rstrip("\n").split(", requested ")
    return Path(head), json.loads(built), json.loads(asked)


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
        # verify and calibrate were removed: their work is the test suite
        # and the recalibration inside hessian, quantize and eval
        for name in ("frobnicate", "verify", "calibrate"):
            assert main([name]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["gen-data"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["gen-data", "--seed", "zero", "--out", "x"]) == 1

    @pytest.mark.parametrize("argv,flag", [
        (["gen-data", "--seed", "-3"], "--seed"),
        (["train", "--data", "d", "--seed", "-3"], "--seed"),
        (["quantize", "--model", "m", "--data", "d", "--seed", "-3"], "--seed"),
        (["sweep", "--model", "m", "--data", "d", "--seeds", "0,-3"], "--seeds"),
    ])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv, flag):
        # refused while parsing, before any input is read or output written
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert f"argument {flag}: must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


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


# what `glq train` adds to a DivergedLoss at the default --lr
_DIVERGED = ("training diverged at --lr 0.002 on n={n} samples. The loss is summed over the "
             "samples, not averaged, so the step grows with n: try a smaller --lr")


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
        assert proc.stderr == ("error: non-finite loss at step 94: " + _DIVERGED.format(n=512)
                               + "\n")

    def test_diverging_train_names_lr_and_n(self, tmp_path, capsys):
        # 256 squared-error samples diverge at the default lr, as the loss
        # is their sum; a tenth of it trains
        data, out = tmp_path / "data", tmp_path / "model"
        assert main(["gen-data", "--seed", "0", "--n", "256", "--task", "squared_error",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: non-finite loss at step 236: "
                                           + _DIVERGED.format(n=256) + "\n")
        assert not out.exists()
        assert main(["train", "--data", str(data), "--lr", "2e-4", "--out", str(out)]) == 0

    @pytest.mark.parametrize("lr, shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_train_refuses_bad_lr(self, pipeline, tmp_path, capsys, lr, shown):
        data, _ = pipeline
        out = tmp_path / "model"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--lr", lr, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: lr must be > 0, got {shown}\n"
        assert not out.exists()

    def test_hessian_cache_command(self, pipeline, tmp_path):
        data, model = pipeline
        out = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(data),
                     "--kind", "guided", "--g", "2", "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert index["kind"] == "guided"
        assert sorted(index["layers"]) == ["0", "1"]


def test_hessian_and_eval_hold_one_layer_set_at_a_time(pipeline, tmp_path, monkeypatch):
    # glq hessian stores each set and drops it before building the next;
    # glq eval drops each layer's set once its objective is taken
    data, model = pipeline
    quant = tmp_path / "q"
    assert main(["quantize", "--model", str(model), "--data", str(data), "--method",
                 "lnq_guided", "--g", "2", "--out", str(quant)]) == 0
    seen = live_sets_at_each_build(monkeypatch)
    assert main(["hessian", "--model", str(model), "--data", str(data), "--g", "2",
                 "--out", str(tmp_path / "h")]) == 0
    assert seen == [0, 0]  # one build per layer of the 6-10-3 model
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--quant", str(quant)]) == 0
    assert seen == [0] * 4


def test_eval_holds_no_set_while_reporting(pipeline, tmp_path, monkeypatch):
    # each layer's row is made once its set is dropped, one row per layer
    data, model = pipeline
    quant = tmp_path / "q"
    assert main(["quantize", "--model", str(model), "--data", str(data), "--method",
                 "lnq_guided", "--g", "2", "--out", str(quant)]) == 0
    seen = live_sets_at_rows(monkeypatch)
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--quant", str(quant)]) == 0
    assert seen == [0, 0]  # the 6-10-3 model's two layers


def test_hessian_holds_one_layer_record_at_a_time(pipeline, tmp_path, monkeypatch):
    # glq hessian walks the layers as quantize and eval do: while a
    # layer's set is built, none of calibrate's hidden inputs and no
    # earlier layer's record or gradient is alive
    data, model = pipeline
    hidden, earlier, seen = [], [], []
    real_calibrate, real_build = cli.run_calibrate, hessian.guided_hessians

    def calibrate_(*args):
        calib = real_calibrate(*args)
        hidden.extend(weakref.ref(c.X) for c in calib[1:])
        return calib

    def build(c, *args, **kw):
        seen.append(sum(r() is not None for r in hidden + earlier))
        earlier.extend([weakref.ref(c), weakref.ref(c.gradZ)])
        return real_build(c, *args, **kw)

    monkeypatch.setattr(cli, "run_calibrate", calibrate_)
    monkeypatch.setattr(hessian, "guided_hessians", build)
    assert main(["hessian", "--model", str(model), "--data", str(data), "--g", "2",
                 "--out", str(tmp_path / "h")]) == 0
    assert len(hidden) == 1 and seen == [0, 0]  # the 6-10-3 model's two layers


@pytest.mark.parametrize("command", ["quantize", "eval", "sweep"])
def test_every_file_a_command_writes_is_replaced_into_place(pipeline, tmp_path, monkeypatch,
                                                            command):
    # each file, report.csv and the --csv and --out tables included, is
    # written beside its target and moved in by os.replace, so a crash
    # never leaves a half-written one
    data, model = pipeline
    base, quant, out = ["--model", str(model), "--data", str(data)], tmp_path / "q", tmp_path / "o"
    assert main(["quantize", *base, "--method", "rtn", "--out", str(quant)]) == 0
    out.mkdir()
    argv = {"quantize": ["quantize", *base, "--method", "rtn", "--out", str(out / "q")],
            "eval": ["eval", *base, "--quant", str(quant), "--csv", str(out / "eval.csv")],
            "sweep": ["sweep", *base, "--methods", "rtn", "--out", str(out / "sweep.csv")]}
    replaced, real = [], os.replace
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: replaced.append(Path(dst)) or real(src, dst))
    assert main(argv[command]) == 0
    written = sorted(p for p in out.rglob("*") if p.is_file())
    assert written and sorted(replaced) == written


def test_each_load_reads_each_json_file_once(pipeline, tmp_path, monkeypatch):
    # the manifest a load reads for its hash check also gives the layer
    # files it checks n_layers against (artifacts) and the request it
    # checks (Hessian cache entries)
    data, model = pipeline
    quant, cache = tmp_path / "q", tmp_path / "hc"
    assert main(["quantize", "--model", str(model), "--data", str(data), "--method",
                 "lnq_guided", "--g", "2", "--hessian-cache", str(cache),
                 "--out", str(quant)]) == 0
    m, (d, _) = artifacts.load_model(model), artifacts.load_dataset(data)
    reads = []
    real = tensorio.read_json_object
    for mod in (tensorio, artifacts):
        monkeypatch.setattr(mod, "read_json_object",
                            lambda path: reads.append(Path(path).name) or real(path))
    for load, path, names in (
            (artifacts.load_model, model, ["manifest.json", "model.json"]),
            (artifacts.load_dataset, data, ["dataset.json", "manifest.json"]),
            (artifacts.load_quantized, quant, ["manifest.json", "quant.json", "traces.json"])):
        reads.clear()
        load(path)
        assert sorted(reads) == names, load.__name__
    reads.clear()
    layer_set = hessian.layer_hessians(m, d, "guided", 2, cache=hessian.HessianCache(cache))
    hsets = [layer_set(l, c) for l, c in enumerate(calibrate(m, d))]
    assert len(hsets) == m.n_layers and reads == ["manifest.json"] * m.n_layers


class TestHessianCacheFlag:
    def _quantize(self, model, data, out, cache=None, g="2"):
        args = ["quantize", "--model", str(model), "--data", str(data),
                "--method", "lnq_guided", "--bits", "2", "--g", g, "--out", str(out)]
        assert main(args + (["--hessian-cache", str(cache)] if cache else [])) == 0
        return dir_digest(out)

    def test_hessian_command_entries_are_hits(self, pipeline, tmp_path):
        # g = 8 is clipped to the 3-wide output layer on both sides
        data, model = pipeline
        for g in ("2", "8"):
            cache = tmp_path / f"hc{g}"
            assert main(["hessian", "--model", str(model), "--data", str(data),
                         "--kind", "guided", "--g", g, "--out", str(cache)]) == 0
            entries = sorted(p.name for p in cache.iterdir() if p.is_dir())
            cached = self._quantize(model, data, tmp_path / f"qa{g}", cache, g)
            assert sorted(p.name for p in cache.iterdir() if p.is_dir()) == entries
            assert cached == self._quantize(model, data, tmp_path / f"qb{g}", g=g)

    def test_quantize_stores_the_sets_it_builds(self, pipeline, tmp_path, monkeypatch):
        # lnq_plain finds no plain entry in a guided cache, so it builds
        # and stores one per layer; index.json, written by glq hessian
        # alone, keeps its bytes; a second quantize loads every entry
        data, model = pipeline
        cache = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(data),
                     "--kind", "guided", "--g", "2", "--out", str(cache)]) == 0
        index = (cache / "index.json").read_bytes()
        guided = {p.name for p in cache.iterdir() if p.is_dir()}
        args = ["quantize", "--model", str(model), "--data", str(data), "--method", "lnq_plain",
                "--bits", "2", "--hessian-cache", str(cache), "--out"]
        assert main(args + [str(tmp_path / "qa")]) == 0
        m, (d, _) = artifacts.load_model(model), artifacts.load_dataset(data)
        plain = {hessian.hessian_cache_key(hessian.hessian_request(
                     hessian.model_hash(m), hessian.dataset_hash(d), l, 1, 1.0,
                     hessian.DEFAULT_DAMPING_REL, "plain")) for l in range(m.n_layers)}
        assert not plain & guided
        assert {p.name for p in cache.iterdir() if p.is_dir()} == guided | plain
        assert (cache / "index.json").read_bytes() == index
        loads, builds = [], []
        real_load, real_build = hessian.HessianCache.load, hessian.plain_hessian
        monkeypatch.setattr(hessian.HessianCache, "load",
                            lambda cache, *a: loads.append(real_load(cache, *a)) or loads[-1])
        monkeypatch.setattr(hessian, "plain_hessian",
                            lambda *a, **kw: builds.append(1) or real_build(*a, **kw))
        assert main(args + [str(tmp_path / "qb")]) == 0
        assert len(loads) == m.n_layers and all(h is not None for h in loads)
        assert builds == []
        assert dir_digest(tmp_path / "qb") == dir_digest(tmp_path / "qa")
        assert {p.name for p in cache.iterdir() if p.is_dir()} == guided | plain

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

    def test_entry_moved_to_another_layers_key_refused(self, tmp_path, capsys):
        # layers 1 and 2 of an 8-16-16-16-4 model have the same shapes, so
        # their swapped entries pass every hash and shape check: only the
        # layer each manifest records tells them apart
        data, model, cache = tmp_path / "data", tmp_path / "model", tmp_path / "hc"
        assert main(["gen-data", "--seed", "0", "--n", "64", "--d0", "8", "--dt", "4",
                     "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--hidden", "16,16,16", "--steps", "100",
                     "--out", str(model)]) == 0
        assert main(["hessian", "--model", str(model), "--data", str(data), "--g", "4",
                     "--out", str(cache)]) == 0
        keys = json.loads((cache / "index.json").read_text())["layers"]
        (cache / keys["1"]).rename(cache / "swap")
        (cache / keys["2"]).rename(cache / keys["1"])
        (cache / "swap").rename(cache / keys["2"])
        capsys.readouterr()
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "lnq_guided", "--bits", "2", "--g", "4",
                     "--hessian-cache", str(cache), "--out", str(tmp_path / "q")]) == 2
        entry, built, asked = _refused_request(capsys.readouterr().err)
        assert entry == cache / keys["1"]
        assert {k for k in built if built[k] != asked[k]} == {"layer"}
        assert (built["layer"], asked["layer"]) == (2, 1)
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize("other", ["model", "dataset"])
    def test_entry_copied_from_another_cache_refused(self, pipeline, tmp_path, capsys, other):
        # another model (or dataset) of the same dims gives entries of the
        # same shapes; renamed to this request's keys, they pass every hash
        # and shape check, and only the digests the request records tell
        # them apart
        data, model = pipeline
        inputs = {"model": model, "data": data}
        if other == "model":
            inputs["model"] = tmp_path / "model2"
            assert main(["train", "--data", str(data), "--hidden", "10", "--steps", "80",
                         "--seed", "1", "--out", str(inputs["model"])]) == 0
        else:
            inputs["data"] = tmp_path / "data2"
            assert main(["gen-data", "--seed", "1", "--n", "48", "--d0", "6", "--dt", "3",
                         "--out", str(inputs["data"])]) == 0
        caches = {}
        for name, (m, d) in {"mine": (model, data),
                             "other": (inputs["model"], inputs["data"])}.items():
            caches[name] = tmp_path / name
            assert main(["hessian", "--model", str(m), "--data", str(d), "--g", "2",
                         "--out", str(caches[name])]) == 0
        mine, theirs = (json.loads((caches[n] / "index.json").read_text())["layers"]
                        for n in ("mine", "other"))
        for l, key in mine.items():
            shutil.rmtree(caches["mine"] / key)
            shutil.copytree(caches["other"] / theirs[l], caches["mine"] / key)
        capsys.readouterr()
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "lnq_guided", "--bits", "2", "--g", "2",
                     "--hessian-cache", str(caches["mine"]), "--out", str(tmp_path / "q")]) == 2
        entry, built, asked = _refused_request(capsys.readouterr().err)
        assert entry == caches["mine"] / mine["0"]
        assert {k for k in built if built[k] != asked[k]} == {other}
        assert not (tmp_path / "q").exists()

    def test_entry_that_records_no_request_refused_until_rebuilt(self, pipeline, tmp_path,
                                                                  capsys, monkeypatch):
        # an entry written before entries recorded their request is refused
        # with the way out; `glq hessian` rewrites it, and then it is a hit
        data, model = pipeline
        cache = tmp_path / "hc"
        hessian_args = ["hessian", "--model", str(model), "--data", str(data), "--g", "2",
                        "--out", str(cache)]
        assert main(hessian_args) == 0
        entries = json.loads((cache / "index.json").read_text())["layers"]
        for key in entries.values():
            meta = read_manifest(cache / key)
            request = meta["request"]
            write_manifest(cache / key, {
                "layer_idx": request["layer"], "kind": request["kind"],
                "grad_scale": float(request["grad_scale"]),
                "damping_rel": float(request["damping_rel"])}, list(meta["files"]))
        quantize_args = ["quantize", "--model", str(model), "--data", str(data), "--method",
                         "lnq_guided", "--bits", "2", "--g", "2", "--hessian-cache", str(cache),
                         "--out"]
        capsys.readouterr()
        assert main(quantize_args + [str(tmp_path / "qa")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cache / entries['0']}: hessian cache entry records no request (written "
            f"before entries recorded one); rerun `glq hessian` to rebuild it\n")
        assert not (tmp_path / "qa").exists()
        assert main(hessian_args) == 0
        loads = []
        real_load = hessian.HessianCache.load
        monkeypatch.setattr(hessian.HessianCache, "load",
                            lambda cache, *a: loads.append(real_load(cache, *a)) or loads[-1])
        assert main(quantize_args + [str(tmp_path / "qb")]) == 0
        assert len(loads) == 2 and all(h is not None for h in loads)

    @pytest.mark.parametrize("flag,value,message", [
        ("--damping-rel", "-1e-3", "damping_rel must be >= 0, got -0.001"),
        ("--damping-rel", "-1", "damping_rel must be >= 0, got -1.0"),
        ("--grad-scale", "0", "grad_scale must be > 0, got 0.0"),
    ])
    def test_hessian_refuses_settings_quantize_refuses(self, pipeline, tmp_path, capsys,
                                                       flag, value, message):
        # refused before the first set is built, with QuantJob's text
        data, model = pipeline
        cache = tmp_path / "hc"
        capsys.readouterr()
        assert main(["hessian", "--model", str(model), "--data", str(data), f"{flag}={value}",
                     "--out", str(cache)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cache.exists()
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     f"{flag}={value}", "--out", str(tmp_path / "q")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unfactorable_hessian_is_not_written(self, pipeline, tmp_path, capsys):
        data, model = pipeline
        loaded, task = artifacts.load_dataset(data)
        loaded.inputs[:, 3] = 0.0
        dead = tmp_path / "dead"
        artifacts.save_dataset(dead, loaded, task)
        cache = tmp_path / "hc"
        assert main(["hessian", "--model", str(model), "--data", str(dead), "--kind", "guided",
                     "--g", "2", "--damping-rel", "0", "--out", str(cache)]) == 2
        assert capsys.readouterr().err == (
            "error: layer 0 group 0: cannot factor the damped Hessian: 1 of 6 input features "
            "have zero curvature and no damping lifts them (first: feature 3)\n")
        assert not cache.exists() or not any(cache.iterdir())

    def test_overflowing_grad_scale_is_refused_and_not_written(self, pipeline, tmp_path,
                                                               capsys):
        # (1e300 * gradZ)**2 overflows, so every group's Hessian has
        # non-finite entries: the set is refused as it is made, before
        # anything is stored, and quantize refuses it the same way; the
        # error line is all either prints
        data, model = pipeline
        cache = tmp_path / "hc"
        error = "error: layer 0 group 0: cannot factor the damped Hessian: non-finite entries"
        capsys.readouterr()
        assert main(["hessian", "--model", str(model), "--data", str(data), "--g", "2",
                     "--grad-scale", "1e300", "--out", str(cache)]) == 2
        assert capsys.readouterr().err == error + "\n"
        assert not cache.exists()
        assert main(["quantize", "--model", str(model), "--data", str(data), "--g", "2",
                     "--grad-scale", "1e300", "--hessian-cache", str(cache),
                     "--out", str(tmp_path / "q")]) == 2
        assert capsys.readouterr().err == error + "\n"
        assert not cache.exists() and not (tmp_path / "q").exists()


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

    @pytest.mark.parametrize("text", [b'{"method": "rtn\xff"}', b"[" * 100_000 + b"]" * 100_000],
                             ids=["invalid_utf8", "deep_nesting"])
    def test_unreadable_config_names_the_file(self, pipeline, tmp_path, capsys, text):
        data, model = pipeline
        cfg = tmp_path / "run.json"
        cfg.write_bytes(text)
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--config", str(cfg), "--out", str(tmp_path / "q")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config: {cfg}: "
                                                  f"not valid JSON: ")
        assert not (tmp_path / "q").exists()

    def test_eval_reproduces_report_row(self, pipeline, tmp_path):
        # quantize and eval both take the damped objective under the Hessian
        # sets of the job's method, so the whole row survives the roundtrip
        data, model = pipeline
        for method in METHODS:
            out, csv_path = tmp_path / method, tmp_path / f"{method}.csv"
            assert main(["quantize", "--model", str(model), "--data", str(data),
                         "--method", method, "--bits", "2", "--g", "2",
                         "--out", str(out)]) == 0
            assert main(["eval", "--model", str(model), "--data", str(data),
                         "--quant", str(out), "--csv", str(csv_path)]) == 0
            assert csv_path.read_text() == (out / "report.csv").read_text(), method

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

    def test_config_removed_key_rejected(self, pipeline, tmp_path, capsys):
        # a removed knob, and a training key that no quantize run reads
        data, model = pipeline
        cfg = tmp_path / "run.json"
        for key, value in (("workers", 2), ("hidden", [16, 16])):
            cfg.write_text(json.dumps({"method": "rtn", key: value}))
            assert main(["quantize", "--model", str(model), "--data", str(data),
                         "--config", str(cfg), "--out", str(tmp_path / "q")]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_eval_missing_artifact(self, pipeline, tmp_path):
        data, model = pipeline
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--quant", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("case,layer", [
        ("slot_past_m", 1), ("nan_codebook", 1), ("traces_one_short", 1), ("trace_no_list", 1),
        ("codebook_row_short", 1), ("bits_disagree_with_m", 0),
        # quant.json fields checked before any layer (layer None)
        ("bits_a_string", None), ("n_layers_missing", None), ("n_layers_a_string", None),
        ("n_layers_past_files", None), ("n_layers_below_files", None),
    ])
    def test_load_refuses_inconsistent_layer(self, pipeline, tmp_path, case, layer):
        # each edit is followed by a fresh manifest, so only the per-layer
        # and quant.json checks can catch it
        data, model = pipeline
        out = tmp_path / "q"
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "rtn", "--bits", "2", "--out", str(out)]) == 0
        C, A = read_tensor(out / "codebook.L1.gqt"), read_tensor(out / "assign.L1.gqt")
        traces = json.loads((out / "traces.json").read_text())
        meta = json.loads((out / "quant.json").read_text())
        if case == "slot_past_m":
            A[0, 0] = 4
            write_tensor(out / "assign.L1.gqt", A)
        elif case == "nan_codebook":
            C[0, 1] = np.nan
            write_tensor(out / "codebook.L1.gqt", C)
        elif case == "traces_one_short":
            write_json_atomic(out / "traces.json", dict(traces, **{"1": traces["1"][:-1]}))
        elif case == "trace_no_list":
            write_json_atomic(out / "traces.json", dict(traces, **{"1": 5}))
        elif case == "codebook_row_short":
            write_tensor(out / "codebook.L1.gqt", C[:-1])
        elif case == "bits_disagree_with_m":
            write_json_atomic(out / "quant.json", dict(meta, bits=3))
        else:
            assert meta["n_layers"] == 2
            edit = {"bits_a_string": {"bits": "2"}, "n_layers_a_string": {"n_layers": "2"},
                    "n_layers_past_files": {"n_layers": 3},
                    "n_layers_below_files": {"n_layers": 1}}.get(case, {})
            write_json_atomic(out / "quant.json", {k: v for k, v in dict(meta, **edit).items()
                                                   if case != "n_layers_missing" or k != "n_layers"})
        manifest = read_manifest(out)
        write_manifest(out, {"kind": manifest["kind"]}, list(manifest["files"]))
        assert verify_manifest(out) == []
        where = "quant.json" if layer is None else f"layer {layer}"
        with pytest.raises(CorruptFile, match=f"^{re.escape(str(out))}: {where}: "):
            artifacts.load_quantized(out)
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--quant", str(out)]) == 2

    @pytest.mark.parametrize("kind,edit,text", [
        pytest.param("model", {"n_layers": 1}, "model.json: n_layers is 1, but",
                     id="n_layers_below_files"),
        pytest.param("model", {"n_layers": 3}, "model.json: n_layers is 3, but",
                     id="n_layers_past_files"),
        pytest.param("model", {"n_layers": "2"}, "model.json: n_layers must be an integer",
                     id="n_layers_a_string"),
        pytest.param("model", {"loss": None}, "model.json: loss must be a string",
                     id="loss_missing"),
        pytest.param("model", {"activation": 1}, "model.json: activation must be a string",
                     id="activation_an_int"),
        pytest.param("model", {"loss": "hinge"}, "unknown loss 'hinge'", id="loss_unknown"),
        pytest.param("dataset", {"task": None}, "dataset.json: task must be a string",
                     id="task_missing"),
        pytest.param("dataset", {"seed": "0"}, "dataset.json: seed must be an integer",
                     id="seed_a_string"),
        pytest.param("dataset", {"task": "hinge"}, "dataset.json: unknown task 'hinge'",
                     id="task_unknown"),
        pytest.param("dataset", {"dt": None}, "dataset.json: dt must be an integer",
                     id="dt_missing"),
        pytest.param("dataset", {"n": 7, "d0": 3, "dt": 99},
                     "dataset.json: (n, d0, dt) is (7, 3, 99), but the tensors hold (48, 6, 3)",
                     id="shape_disagrees"),
    ])
    def test_load_refuses_bad_header(self, pipeline, tmp_path, capsys, kind, edit, text):
        # a missing (None), ill-typed or unknown header field, an
        # n_layers that disagrees with the layer files or a dataset shape
        # that disagrees with its tensors, under a fresh
        # manifest: refused naming the directory, before anything is
        # computed from it
        data, model = pipeline
        d = tmp_path / kind
        shutil.copytree({"model": model, "dataset": data}[kind], d)
        meta = dict(json.loads((d / f"{kind}.json").read_text()), **edit)
        write_json_atomic(d / f"{kind}.json", {k: v for k, v in meta.items() if v is not None})
        _resign(d)
        with pytest.raises(CorruptFile, match=f"^{re.escape(f'{d}: {text}')}"):
            getattr(artifacts, f"load_{kind}")(d)
        inputs = {"model": model, "data": data, kind.replace("dataset", "data"): d}
        capsys.readouterr()
        assert main(["quantize", "--model", str(inputs["model"]), "--data", str(inputs["data"]),
                     "--method", "rtn", "--bits", "2", "--out", str(tmp_path / "q")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {d}: {text}")

    @pytest.mark.parametrize("kind,name", [
        ("quantized", "manifest.json"), ("quantized", "quant.json"),
        ("quantized", "traces.json"), ("model", "model.json"), ("dataset", "dataset.json"),
    ])
    @pytest.mark.parametrize("blob,text", [
        pytest.param(b'{"kind": "quan', "not valid JSON: ", id="truncated"),
        pytest.param(b"[1, 2]\n", "expected a JSON object, got list", id="list"),
    ])
    def test_json_file_that_is_no_object_is_refused(self, pipeline, tmp_path, capsys,
                                                    kind, name, blob, text):
        # a JSON file of an artifact that does not parse, or holds no
        # object, under a fresh manifest (unless it is the manifest):
        # CorruptFile naming the file, and glq eval exits 2 with it
        data, model = pipeline
        inputs = {"model": model, "dataset": data, "quantized": tmp_path / "q"}
        assert main(["quantize", "--model", str(model), "--data", str(data),
                     "--method", "rtn", "--bits", "2", "--out", str(inputs["quantized"])]) == 0
        d = tmp_path / kind
        shutil.copytree(inputs[kind], d)
        inputs[kind] = d
        (d / name).write_bytes(blob)
        if name != "manifest.json":
            _resign(d)
        with pytest.raises(CorruptFile, match=f"^{re.escape(f'{d / name}: {text}')}"):
            getattr(artifacts, f"load_{kind}")(d)
        capsys.readouterr()
        assert main(["eval", "--model", str(inputs["model"]), "--data", str(inputs["dataset"]),
                     "--quant", str(inputs["quantized"])]) == 2
        assert capsys.readouterr().err.startswith(f"error: {d / name}: {text}")

    def test_load_dataset_refuses_unequal_sample_counts(self, pipeline, tmp_path):
        d = tmp_path / "data"
        shutil.copytree(pipeline[0], d)
        write_tensor(d / "targets.gqt", read_tensor(d / "targets.gqt")[:-1])
        _resign(d)
        with pytest.raises(CorruptFile, match=f"^{re.escape(str(d))}: inputs and targets "
                                              "disagree on sample count$"):
            artifacts.load_dataset(d)

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


def test_parser_defaults_come_from_their_sources():
    # every default a flag shows is the value of the constant or field it
    # stands for
    parser = build_parser()
    need = ["--model", "m", "--data", "d"]
    h = parser.parse_args(["hessian", *need, "--out", "o"])
    assert (h.g, h.grad_scale, h.damping_rel) == (
        QUANTIZE_DEFAULTS["g"], hessian.DEFAULT_GRAD_SCALE, hessian.DEFAULT_DAMPING_REL)
    s = parser.parse_args(["sweep", *need])
    job = {f.name: f.default for f in dataclasses.fields(QuantJob)}
    assert s.methods == list(METHODS)
    assert (s.bits, s.g, s.seeds) == ([QUANTIZE_DEFAULTS["bits"]], [QUANTIZE_DEFAULTS["g"]],
                                      [job["seed"]])
    assert (s.T, s.K, s.grad_scale, s.damping_rel) == (
        job["T"], job["K"], hessian.DEFAULT_GRAD_SCALE, hessian.DEFAULT_DAMPING_REL)
    assert (job["grad_scale"], job["damping_rel"]) == (
        hessian.DEFAULT_GRAD_SCALE, hessian.DEFAULT_DAMPING_REL)
    quantize = [*need, "--out", "o", "--method"]
    for method in METHODS:
        assert parser.parse_args(["quantize", *quantize, method]).method == method
    assert main(["quantize", *quantize, "not_a_method"]) == 1


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


@pytest.mark.parametrize("key,value", [
    ("bits", 0), ("bits", 9), ("bits", 99), ("g", 0), ("seed", -1), ("T", 0), ("K", 0),
    ("grad_scale", 0.0), ("grad_scale", -1.0), ("damping_rel", -1e-9),
    # values of the wrong type: a bool is not an int, a float not an int
    ("bits", "2"), ("bits", True), ("g", 2.5), ("seed", 1.0), ("T", None),
    ("K", [4]), ("grad_scale", "1e3"), ("damping_rel", False), ("method", 1),
])
def test_config_value_out_of_range_rejected(pipeline, tmp_path, capsys, key, value):
    with pytest.raises(ConfigError, match=key):
        QuantJob(**{"method": "rtn", "bits": 2, key: value})
    data, model = pipeline
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["quantize", "--model", str(model), "--data", str(data),
                 "--config", str(cfg), "--out", str(tmp_path / "q")]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_default_g_on_a_model_narrower_than_g(tmp_path):
    # the default g = 4 on an 8-16-3 model: the 3-wide output layer gets
    # one group per channel, and eval reproduces the quantize report
    data, model, quant = tmp_path / "data", tmp_path / "model", tmp_path / "q"
    assert main(["gen-data", "--seed", "1", "--n", "48", "--d0", "8", "--dt", "3",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--hidden", "16", "--steps", "40",
                 "--out", str(model)]) == 0
    assert main(["quantize", "--model", str(model), "--data", str(data),
                 "--out", str(quant)]) == 0
    assert json.loads((quant / "quant.json").read_text())["g"] == 4
    assert main(["eval", "--model", str(model), "--data", str(data), "--quant", str(quant),
                 "--csv", str(tmp_path / "eval.csv")]) == 0
    assert (tmp_path / "eval.csv").read_text() == (quant / "report.csv").read_text()
