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
