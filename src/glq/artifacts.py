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
downstream. Each load reads its JSON files through one check: a file
that is not a JSON object, a field it reads that is missing or of the
wrong type, an n_layers that disagrees with the layer files in the
manifest, or a dataset's n, d0 and dt that disagree with its tensors,
raises CorruptFile naming the directory or the file. So do an unknown
task and a dataset or model that fails its own checks, and
``load_quantized`` names the layer too when a layer fails its
``QuantizedLayer`` checks (shapes, m = 2**bits, finite sorted
codebooks, slots in range, one trace per channel).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .calib_model import LOSSES, Dataset, MlpModel
from .errors import CorruptFile, GlqError
from .guidedquant import CSV_COLUMNS, QuantReport
from .scalar_quant import QuantizedLayer
from .tensorio import (
    read_json_object,
    read_manifest,
    read_tensor,
    stale_files,
    write_json_atomic,
    write_manifest,
    write_tensor,
)


def _check(dir_path: str | Path) -> tuple[Path, dict]:
    """Artifact directory `dir_path` and its manifest, read once; refuses
    a directory whose files fail their hashes."""
    d = Path(dir_path)
    entry = read_manifest(d)
    bad = stale_files(d, entry)
    if bad:
        raise CorruptFile(f"{d}: manifest mismatch for {bad}")
    return d, entry


_KINDS = {int: "an integer", str: "a string"}


def _header(d: Path, name: str, fields: dict[str, type]) -> dict:
    """The JSON header `name` of artifact directory d; refuses a field of
    `fields` that is missing or not of its type (bool is no integer)."""
    meta = read_json_object(d / name)
    for key, kind in fields.items():
        if type(meta.get(key)) is not kind:
            raise CorruptFile(f"{d}: {name}: {key} must be {_KINDS[kind]}, "
                              f"got {meta.get(key)!r}")
    return meta


def _layer_files(d: Path, entry: dict, name: str, n_layers: int, pattern: str) -> None:
    """Refuse an n_layers in header `name` that disagrees with the files
    `pattern`.format(l) that `entry`, the manifest of d, holds."""
    prefix = pattern[:pattern.index("{")]
    held = sorted(f for f in entry.get("files", {}) if f.startswith(prefix))
    if held != sorted(pattern.format(l) for l in range(n_layers)):
        raise CorruptFile(f"{d}: {name}: n_layers is {n_layers}, but the manifest holds {held}")


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
    d, _ = _check(dir_path)
    meta = _header(d, "dataset.json",
                   {"seed": int, "task": str, "n": int, "d0": int, "dt": int})
    if meta["task"] not in LOSSES:
        raise CorruptFile(f"{d}: dataset.json: unknown task {meta['task']!r}")
    try:
        data = Dataset(inputs=read_tensor(d / "inputs.gqt"),
                       targets=read_tensor(d / "targets.gqt"), seed=meta["seed"])
    except (GlqError, ValueError) as exc:
        raise CorruptFile(f"{d}: {exc}") from exc
    header = (meta["n"], meta["d0"], meta["dt"])
    held = (data.n, data.inputs.shape[1], data.targets.shape[1])
    if header != held:
        raise CorruptFile(f"{d}: dataset.json: (n, d0, dt) is {header}, "
                          f"but the tensors hold {held}")
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
    d, entry = _check(dir_path)
    meta = _header(d, "model.json", {"activation": str, "loss": str, "n_layers": int})
    _layer_files(d, entry, "model.json", meta["n_layers"], "layer.{}.weight.gqt")
    layers = [read_tensor(d / f"layer.{i}.weight.gqt") for i in range(meta["n_layers"])]
    try:
        return MlpModel(layers=layers, activation=meta["activation"], loss=meta["loss"])
    except (GlqError, ValueError) as exc:
        raise CorruptFile(f"{d}: {exc}") from exc


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
    d, entry = _check(dir_path)
    meta = _header(d, "quant.json", {"bits": int, "n_layers": int})
    _layer_files(d, entry, "quant.json", meta["n_layers"], "codebook.L{}.gqt")
    traces = read_json_object(d / "traces.json")
    qlayers = []
    for l in range(meta["n_layers"]):
        C = read_tensor(d / f"codebook.L{l}.gqt")
        A = read_tensor(d / f"assign.L{l}.gqt")
        try:
            qlayers.append(QuantizedLayer(l, meta["bits"], C, A, traces[str(l)]))
        except (GlqError, ValueError, KeyError, TypeError) as exc:
            raise CorruptFile(f"{d}: layer {l}: {exc}") from exc
    return qlayers, meta
