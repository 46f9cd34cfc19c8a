"""The benchmark's trace targets still name functions of the package.

``bench/spans.py`` times glq functions it finds by (module, attribute)
name and skips a name it cannot find, so a rename would silently zero
that function's per-layer metrics. ``lnq.cd_cycle`` has no attribute
name: ``default_cd_cycle`` resolves it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


spans = _spans()


@pytest.mark.parametrize("name,module,attr", spans.TARGETS, ids=[t[0] for t in spans.TARGETS])
def test_target_resolves(name, module, attr):
    home = importlib.import_module(f"glq.{module}")
    if attr is None:
        attr = spans.default_cd_cycle(home)
        assert attr == "cd_cycle"
    obj = home
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_recorder_finds_every_target():
    with spans.Recorder() as rec:
        assert rec.absent == []


def test_hooks_count_a_toy_cli_pipeline(tmp_path):
    # each hook reads arguments by name (lloyd's `trace`, cd_cycle's `A`
    # and `cycles`, eval_objectives' `calib`, guided_hessians' `calib` and
    # `partition`) or a loaded set's `layer_idx`; a rename there would
    # zero its metric without an error, so every counter must be positive
    from glq.cli import main

    data, model, cache = tmp_path / "data", tmp_path / "model", tmp_path / "hc"
    assert main(["gen-data", "--seed", "0", "--n", "32", "--d0", "6", "--dt", "4",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--hidden", "8", "--steps", "60",
                 "--out", str(model)]) == 0
    assert main(["hessian", "--model", str(model), "--data", str(data), "--g", "2",
                 "--out", str(cache)]) == 0
    with spans.Recorder() as rec:
        for method in ("squeezellm", "lnq_guided"):
            assert main(["quantize", "--model", str(model), "--data", str(data),
                         "--method", method, "--bits", "2", "--g", "2",
                         "--hessian-cache", str(cache), "--out", str(tmp_path / method)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--quant", str(tmp_path / "lnq_guided")]) == 0
    counters = rec.counters[rec.phase]
    for name in ("lloyd.iters", "cd.visits", "eval.flops", "guided.flops", "cache.loads"):
        assert counters[name] > 0, name
    assert counters["cache.hits"] == counters["cache.loads"]
    loads = [s for s in rec.spans if s.name == "hessian.HessianCache.load"]
    assert loads and all(s.layer is not None for s in loads)
    # the solver spans find their model layer through the Hessian set
    # they are given: one lnq_quantize per layer, T = 2 CD calls in each
    solves = [s.layer for s in rec.spans if s.name == "lnq.lnq_quantize"]
    cds = [s.layer for s in rec.spans if s.name == "lnq.cd_cycle"]
    assert solves == [0, 1] and cds == [0, 0, 1, 1]
