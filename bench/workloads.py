"""The three benchmark workloads, driven through glq's public API only.

Each workload takes the workload seed ``s``. ``build`` makes the inputs (the
runner calls it several times and times each), ``run(i)`` is one op with
seed ``s + i``, and ``check`` verifies the op's outputs outside the timed
region. Every glq function is looked up on its module at call time, so the
wrappers installed by ``spans.Recorder`` see the calls.

``size="small"`` shrinks every shape for the benchmark's own tests; the
driver always runs ``size="full"``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import glq
import glq.artifacts
import glq.cli

from checks import (
    csv_row,
    eval_mismatch_failures,
    loss_failures,
    manifest_failures,
    trace_failures,
)

TASK = "softmax_cross_entropy"
LR = 2e-3


class SetupFailed(Exception):
    """A set-up step failed, so no op can run."""


def _cli(*argv) -> tuple[int, str]:
    """Run one glq command in-process; return its exit code and output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = glq.cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


class ToyRanking:
    """One trial of the headline end-loss ranking protocol."""

    name = "toy_ranking"
    why = ("the paper's experiment on the 8-16-16-4 toy model; training and "
           "per-call Python overhead dominate")
    SIZES = {"full": {"steps": 4000}, "small": {"steps": 200}}
    METHODS = ("squeezellm", "lnq_plain", "lnq_guided")

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.steps = self.SIZES[size]["steps"]

    def build(self, rep: int) -> None:
        """Nothing to prepare: every op draws its own problem."""

    def run(self, i: int):
        s = self.seed + i
        data = glq.gen_dataset(s, 64, 8, 4, task=TASK)
        model = glq.random_model([8, 16, 16, 4], s + 1, loss=TASK)
        model = glq.train(model, data, steps=self.steps, lr=LR)
        return [
            (m, glq.run_job(model, data, glq.QuantJob(method=m, bits=2, g=4, T=2, K=4, seed=s)))
            for m in self.METHODS
        ]

    def check(self, out) -> tuple[list, list[str]]:
        qlayers, fails = [], []
        for method, (_, qls, report) in out:
            fails += loss_failures({"end_loss_before": report.end_loss_before,
                                    "end_loss_after": report.end_loss_after}, method)
            if method.startswith("lnq"):
                fails += trace_failures(qls, method)
            qlayers += qls
        return qlayers, fails


class MidMlpCli:
    """The ROADMAP mid shape, quantized and evaluated through the glq CLI."""

    name = "mid_mlp_cli"
    why = ("64-256-256-16 model through glq quantize and glq eval; squeezellm "
           "init dominates, and only this one reads the Hessian cache and artifacts")
    SIZES = {
        "full": {"n": 512, "d0": 64, "dt": 16, "hidden": "256,256", "steps": 300},
        "small": {"n": 64, "d0": 8, "dt": 4, "hidden": "16,16", "steps": 20},
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.workdir = workdir
        self.inputs: Path | None = None

    def build(self, rep: int) -> None:
        if self.inputs is not None:
            shutil.rmtree(self.inputs)
        d = self.workdir / f"inputs{rep}"
        c = self.cfg
        steps = [
            ("gen-data", "--seed", self.seed, "--n", c["n"], "--d0", c["d0"], "--dt", c["dt"],
             "--task", TASK, "--out", d / "data"),
            ("train", "--data", d / "data", "--hidden", c["hidden"], "--steps", c["steps"],
             "--seed", self.seed + 1, "--out", d / "model"),
            ("hessian", "--model", d / "model", "--data", d / "data", "--g", 4,
             "--out", d / "hessian"),
        ]
        for argv in steps:
            rc, log = _cli(*argv)
            if rc != 0:
                raise SetupFailed(f"glq {argv[0]} exited {rc}: {log.strip()[-500:]}")
        dirs = [d / "data", d / "model", *sorted(p for p in (d / "hessian").iterdir() if p.is_dir())]
        fails = [f for p in dirs for f in manifest_failures(p)]
        if fails:
            raise SetupFailed("; ".join(fails))
        self.inputs = d

    def run(self, i: int):
        d = self.inputs
        quant = self.workdir / f"quant{i}"
        evcsv = self.workdir / f"eval{i}.csv"
        rc_q, log = _cli("quantize", "--model", d / "model", "--data", d / "data",
                         "--method", "lnq_guided", "--bits", 3, "--g", 4, "--seed", self.seed + i,
                         "--hessian-cache", d / "hessian", "--out", quant)
        rc_e = None
        if rc_q == 0:
            rc_e, log_e = _cli("eval", "--model", d / "model", "--data", d / "data",
                               "--quant", quant, "--csv", evcsv)
            log += log_e
        return rc_q, rc_e, quant, evcsv, log

    def check(self, out) -> tuple[list, list[str]]:
        rc_q, rc_e, quant, evcsv, log = out
        try:
            for cmd, rc in (("quantize", rc_q), ("eval", rc_e)):
                if rc != 0:
                    return [], [f"glq {cmd} exited {rc}: {log.strip()[-300:]}"]
            fails = manifest_failures(quant)
            if fails:
                return [], fails
            qlayers, _ = glq.artifacts.load_quantized(quant)
            fails += trace_failures(qlayers, "lnq_guided")
            qrow = csv_row((quant / "report.csv").read_text())
            fails += loss_failures({k: qrow[k] for k in ("end_loss_before", "end_loss_after")},
                                   "quantize")
            fails += eval_mismatch_failures(qrow, csv_row(evcsv.read_text()))
            return qlayers, fails
        finally:
            shutil.rmtree(quant, ignore_errors=True)
            evcsv.unlink(missing_ok=True)


class WideLayer:
    """One 512 -> 256 layer quantized with lnq_guided."""

    name = "wide_layer"
    why = ("a single 512x256 layer on 1024 samples; BLAS-bound Fisher rebuild "
           "in eval and CD over 512 rows show flop and memory effects")
    SIZES = {
        "full": {"n": 1024, "d": 512, "c": 256, "steps": 100},
        "small": {"n": 64, "d": 32, "c": 16, "steps": 10},
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.cfg = self.SIZES[size]

    def build(self, rep: int) -> None:
        c = self.cfg
        self.data = glq.gen_dataset(self.seed, c["n"], c["d"], c["c"], task=TASK)
        model = glq.random_model([c["d"], c["c"]], self.seed + 1, loss=TASK)
        self.model = glq.train(model, self.data, steps=c["steps"], lr=LR)

    def run(self, i: int):
        return glq.run_job(self.model, self.data,
                           glq.QuantJob(method="lnq_guided", bits=3, g=4, seed=self.seed + i))

    def check(self, out) -> tuple[list, list[str]]:
        _, qlayers, report = out
        fails = loss_failures({"end_loss_before": report.end_loss_before,
                               "end_loss_after": report.end_loss_after}, "lnq_guided")
        return qlayers, fails + trace_failures(qlayers, "lnq_guided")


WORKLOADS = {w.name: w for w in (ToyRanking, MidMlpCli, WideLayer)}
