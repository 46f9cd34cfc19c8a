"""Output checks applied to every benchmark op.

Each check returns a list of failure messages; an empty list means the
output passed. A failure counts the op as failed in ``fail_frac`` but never
aborts the run.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

# Acceptance criterion 2: a trace may rise by at most 1e-12 * (1 + |f|).
TRACE_SLACK = 1e-12

# glq eval recomputes these from the artifact, so they must equal the
# values glq quantize wrote. damped_objective is left out: quantize takes it
# under the method's Hessian, eval under the plain one.
EVAL_MATCH_COLUMNS = ("end_loss_after", "plain_objective", "guided_objective")


def trace_failures(qlayers, label: str) -> list[str]:
    """Every channel's objective trace must be non-increasing within slack."""
    out = []
    for ql in qlayers:
        for j, st in enumerate(ql.channels):
            tr = st.objective_trace
            for k, (a, b) in enumerate(zip(tr, tr[1:])):
                if b > a + TRACE_SLACK * (1.0 + abs(a)):
                    out.append(f"{label}: layer {ql.layer_idx} channel {j} trace rose "
                               f"at step {k + 1}: {a!r} -> {b!r}")
                    break
    return out


def loss_failures(values: dict, label: str) -> list[str]:
    """End losses must be finite."""
    return [f"{label}: {k} = {v!r} is not finite"
            for k, v in values.items() if not math.isfinite(float(v))]


def manifest_failures(dir_path: Path) -> list[str]:
    """The directory's manifest must list files whose hashes still match."""
    from glq.errors import GlqError
    from glq.tensorio import verify_manifest

    try:
        bad = verify_manifest(dir_path)
    except (GlqError, OSError, ValueError) as exc:
        return [f"{dir_path.name}: unreadable manifest: {exc}"]
    return [f"{dir_path.name}: manifest mismatch for {bad}"] if bad else []


def csv_row(text: str) -> dict[str, str]:
    """The single data row of a glq report CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def eval_mismatch_failures(quant_row: dict, eval_row: dict) -> list[str]:
    """glq eval must reproduce the quantize report's recomputable columns."""
    return [f"eval {c} = {eval_row.get(c)} but quantize wrote {quant_row.get(c)}"
            for c in EVAL_MATCH_COLUMNS if eval_row.get(c) != quant_row.get(c)]


def digest_update(h, qlayers) -> None:
    """Feed every layer's codebooks and assignments into h, in layer order."""
    for ql in qlayers:
        h.update(np.ascontiguousarray(ql.codebook_matrix(), dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(ql.assign_matrix(), dtype="<i8").tobytes())
