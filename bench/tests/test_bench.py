"""Tests of the benchmark itself, at small shapes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import glq  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from glq.errors import GlqError  # noqa: E402
from workloads import MidMlpCli, ToyRanking, WideLayer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS + 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    human = lines[:-1]
    for m in spec:
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[2] == m["unit"]
                   for ln in human), m["name"]
    if not trace:
        assert any(ln.startswith("fail_frac ") for ln in human)
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    assert not (ROOT / ".bench_tmp").exists()


def test_benchmark_json_lists_the_emitted_per_layer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        spans.per_layer_names()


def test_same_seed_gives_same_digest():
    def digest(seed: str) -> str:
        proc = bench("--workload", "mid_mlp_cli", "--seed", seed, "--seconds", "0.2",
                     "--size", "small")
        assert proc.returncode == 0, proc.stderr
        return next(ln for ln in proc.stdout.splitlines() if ln.startswith("digest ops"))

    assert digest("5") == digest("5") != digest("6")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "toy_ranking", "--seed", "0", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checker counts injected defects ------------------------------------


@pytest.fixture
def mid(tmp_path):
    wl = MidMlpCli(0, "small", tmp_path)
    wl.build(0)
    return wl


def test_tampered_artifact_byte_fails_the_op(mid):
    out = mid.run(1)
    target = out[2] / "codebook.L0.gqt"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0x01
    target.write_bytes(bytes(blob))
    _, fails = mid.check(out)
    assert any("manifest mismatch" in f and "codebook.L0.gqt" in f for f in fails)


def test_eval_quantize_mismatch_fails_the_op(mid):
    out = mid.run(1)
    evcsv = out[3]
    header, row = evcsv.read_text().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    k = cols.index("guided_objective")
    vals[k] = repr(float(vals[k]) * (1 + 1e-9))
    evcsv.write_text(f"{header}\n{','.join(vals)}\n")
    _, fails = mid.check(out)
    assert fails == [f for f in fails if "guided_objective" in f] and fails


def test_clean_op_passes_every_check(mid):
    qlayers, fails = mid.check(mid.run(1))
    assert fails == [] and len(qlayers) == 3


def test_rising_objective_trace_fails_the_op(tmp_path):
    wl = WideLayer(0, "small", tmp_path)
    wl.build(0)
    out = wl.run(1)
    assert wl.check(out)[1] == []
    trace = out[1][0].channels[3].objective_trace
    trace[-1] = trace[-2] * (1 + 1e-9) + 1e-9
    fails = wl.check(out)[1]
    assert len(fails) == 1 and "channel 3 trace rose" in fails[0]


class _Flaky:
    """Op 2 fails its check, op 3 raises a GlqError, the rest pass."""

    def build(self, rep):
        pass

    def run(self, i):
        if i == 3:
            raise GlqError("injected")
        return i

    def check(self, i):
        return [], (["injected check failure"] if i == 2 else [])


def test_failed_ops_are_counted_not_fatal():
    res = run.run_workload(_Flaky(), 0.0, None, time.perf_counter())
    assert res.attempted == run.MIN_OPS + 1
    assert len(res.ref_s) == len(res.op_s) and min(res.ref_s) > 0
    assert res.failed == 2
    assert any("injected check failure" in f for f in res.failures)
    assert any("GlqError: injected" in f for f in res.failures)


# -- tracing ------------------------------------------------------------------


def test_traced_self_times_fit_inside_op_wall_time(tmp_path):
    wl = ToyRanking(0, "small", tmp_path)
    with spans.Recorder() as rec:
        res = run.run_workload(wl, 0.0, rec, time.perf_counter())
    assert not hasattr(glq.run_job, "__wrapped__")  # restored on exit
    for i, wall in enumerate(res.op_s, start=1):
        mine = [s for s in rec.op_spans() if s.op == i]
        own = sum(s.self_s for s in mine)
        top = sum(s.dur for s in mine if s.top)
        assert own == pytest.approx(top, rel=1e-9, abs=1e-9)
        assert own <= wall
    m = rec.metrics(len(res.op_s), 1.0)
    # train's inner calibrate calls stay unwrapped: one calibrate per run_job
    assert m["calib_model.calibrate.calls"][0] == 3
    assert m["calib_model.train.calls"][0] == 1
    assert m["guidedquant.run_job.calls"][0] == 3
    assert 0 < m["scalar_quant.lloyd.useful_iter_frac"][0] <= 1
    assert 0 <= m["lnq.cd_cycle.changed_frac"][0] <= 1
    assert m["lnq.cd_cycle.coord_visits"][0] > 0
    assert m["model_layer.0.self_s"][0] > 0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("lnq.gone", "lnq", "no_such_fn"),))
    with spans.Recorder() as rec:
        pass
    assert rec.absent == ["lnq.gone"]
