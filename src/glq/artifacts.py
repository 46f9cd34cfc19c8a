"""Directory layouts for pipeline artifacts.

Every artifact is a directory of tensor files plus a small JSON header,
tied together by a manifest that hashes each file. Layouts:

* dataset:    inputs.gqt, targets.gqt, dataset.json
* model:      layer.<i>.weight.gqt, model.json
* quantized:  codebook.L<l>.gqt (d_out x m, float64),
              assign.L<l>.gqt (d_in x d_out, uint8),
              traces.json (per layer, per channel objective traces),
              quant.json (the QuantJob fields plus n_layers),
              report.csv

Loads reject directories whose manifest is missing or stale, so a
half-copied artifact fails loudly instead of quietly feeding garbage
downstream. ``load_quantized`` raises CorruptFile naming the directory
when ``quant.json``'s bits or n_layers is not an integer or n_layers
disagrees with the codebook files in the manifest, and naming the layer
too when a layer fails its ``QuantizedLayer`` checks (shapes,
m = 2**bits, finite sorted codebooks, slots in range, one trace per
channel).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .calib_model import Dataset, MlpModel
from .errors import CorruptFile, GlqError
from .guidedquant import CSV_COLUMNS, QuantReport
from .scalar_quant import QuantizedLayer
from .tensorio import (
    read_manifest,
    read_tensor,
    verify_manifest,
    write_json_atomic,
    write_manifest,
    write_tensor,
)


def _check(dir_path: str | Path) -> Path:
    d = Path(dir_path)
    bad = verify_manifest(d)
    if bad:
        raise CorruptFile(f"{d}: manifest mismatch for {bad}")
    return d


def save_dataset(dir_path: str | Path, data: Dataset, task: str) -> None:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    write_tensor(d / "inputs.gqt", data.inputs)
    write_tensor(d / "targets.gqt", data.targets)
    write_json_atomic(
        d / "dataset.json",
        {"seed": data.seed, "task": task, "n": data.n,
         "d0": data.inputs.shape[1], "dt": data.targets.shape[1]},
    )
    write_manifest(d, {"kind": "dataset"},
                   ["inputs.gqt", "targets.gqt", "dataset.json"])


def load_dataset(dir_path: str | Path) -> tuple[Dataset, str]:
    d = _check(dir_path)
    meta = json.loads((d / "dataset.json").read_text())
    data = Dataset(
        inputs=read_tensor(d / "inputs.gqt"),
        targets=read_tensor(d / "targets.gqt"),
        seed=meta["seed"],
    )
    return data, meta["task"]


def save_model(dir_path: str | Path, model: MlpModel) -> None:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    names = []
    for i, W in enumerate(model.layers):
        name = f"layer.{i}.weight.gqt"
        write_tensor(d / name, W)
        names.append(name)
    write_json_atomic(
        d / "model.json",
        {"activation": model.activation, "loss": model.loss,
         "n_layers": model.n_layers},
    )
    write_manifest(d, {"kind": "model"}, names + ["model.json"])


def load_model(dir_path: str | Path) -> MlpModel:
    d = _check(dir_path)
    meta = json.loads((d / "model.json").read_text())
    layers = [
        read_tensor(d / f"layer.{i}.weight.gqt") for i in range(meta["n_layers"])
    ]
    return MlpModel(layers=layers, activation=meta["activation"], loss=meta["loss"])


def report_csv_text(rows: list[dict]) -> str:
    """CSV text over CSV_COLUMNS with float values in shortest
    round-trip form; identical inputs give identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                         for c in CSV_COLUMNS])
    return buf.getvalue()


def save_quantized(
    dir_path: str | Path,
    qlayers: list[QuantizedLayer],
    report: QuantReport,
    job_meta: dict,
) -> None:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    names = []
    for ql in qlayers:
        cb_name = f"codebook.L{ql.layer_idx}.gqt"
        as_name = f"assign.L{ql.layer_idx}.gqt"
        write_tensor(d / cb_name, ql.codebook_matrix())
        write_tensor(d / as_name, ql.assign_matrix().astype(np.uint8))
        names += [cb_name, as_name]
    traces = {str(ql.layer_idx): [list(map(float, tr)) for tr in ql.traces] for ql in qlayers}
    write_json_atomic(d / "traces.json", traces)
    write_json_atomic(d / "quant.json", dict(job_meta, bits=report.bits,
                                             n_layers=len(qlayers)))
    (d / "report.csv").write_text(report_csv_text([report.csv_row()]))
    write_manifest(d, {"kind": "quantized"},
                   names + ["traces.json", "quant.json", "report.csv"])


def load_quantized(dir_path: str | Path) -> tuple[list[QuantizedLayer], dict]:
    d = _check(dir_path)
    meta = json.loads((d / "quant.json").read_text())
    for key in ("bits", "n_layers"):
        if type(meta.get(key)) is not int:
            raise CorruptFile(f"{d}: quant.json: {key} must be an integer, got {meta.get(key)!r}")
    codebooks = sorted(n for n in read_manifest(d).get("files", {}) if n.startswith("codebook.L"))
    if codebooks != sorted(f"codebook.L{l}.gqt" for l in range(meta["n_layers"])):
        raise CorruptFile(f"{d}: quant.json: n_layers is {meta['n_layers']}, but the manifest "
                          f"holds {codebooks}")
    traces = json.loads((d / "traces.json").read_text())
    qlayers = []
    for l in range(meta["n_layers"]):
        C = read_tensor(d / f"codebook.L{l}.gqt")
        A = read_tensor(d / f"assign.L{l}.gqt")
        try:
            qlayers.append(QuantizedLayer(l, meta["bits"], C, A, traces[str(l)]))
        except (GlqError, ValueError, KeyError) as exc:
            raise CorruptFile(f"{d}: layer {l}: {exc}") from exc
    return qlayers, meta
