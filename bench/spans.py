"""Span recorder that times glq's public functions from outside the package.

Each target function is wrapped at every binding its callers look up: the
module globals that name it (``glq.guidedquant.squeezellm_quantize``,
``glq.cli.run_train``, ...) or, for a method, its class attribute
(``glq.hessian.HessianCache.load``). Nothing under ``src/`` changes.

``calib_model.calibrate`` and ``calib_model.end_loss`` keep their home
binding unwrapped: ``train`` calls them through it thousands of times per
model, and those inner calls are training, not calibration.

A call opens a span carrying its name, phase (``setup``, ``op`` or
``check``), op index, model-layer index and input shape. The layer index
comes from a ``layer_idx`` argument or an argument that carries one, else
from the enclosing span, else from the result. Self time is the span's
duration minus the durations of its direct children; calls are strictly
nested because the workloads run single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (metric name, module under glq, attribute path); the order is the report order.
TARGETS = (
    ("cli.cmd_quantize", "cli", "cmd_quantize"),
    ("cli.cmd_eval", "cli", "cmd_eval"),
    ("artifacts.load_model", "artifacts", "load_model"),
    ("artifacts.load_dataset", "artifacts", "load_dataset"),
    ("artifacts.save_quantized", "artifacts", "save_quantized"),
    ("artifacts.load_quantized", "artifacts", "load_quantized"),
    ("calib_model.train", "calib_model", "train"),
    ("calib_model.calibrate", "calib_model", "calibrate"),
    ("calib_model.end_loss", "calib_model", "end_loss"),
    ("hessian.guided_hessians", "hessian", "guided_hessians"),
    ("hessian.plain_hessian", "hessian", "plain_hessian"),
    ("hessian.fisher_diag", "hessian", "fisher_diag"),
    ("hessian.HessianCache.load", "hessian", "HessianCache.load"),
    ("hessian.HessianCache.store", "hessian", "HessianCache.store"),
    ("scalar_quant.squeezellm_quantize", "scalar_quant", "squeezellm_quantize"),
    ("scalar_quant.kmeans_pp_init", "scalar_quant", "kmeans_pp_init"),
    ("scalar_quant.lloyd", "scalar_quant", "lloyd"),
    ("lnq.lnq_quantize", "lnq", "lnq_quantize"),
    ("lnq.codebook_closed_form", "lnq", "codebook_closed_form"),
    ("lnq.cd_cycle", "lnq", None),  # resolved by default_cd_cycle()
    ("linalg.cholesky", "linalg", "cholesky"),
    ("linalg.least_squares", "linalg", "least_squares"),
    ("guidedquant.run_job", "guidedquant", "run_job"),
    ("guidedquant.eval_objectives", "guidedquant", "eval_objectives"),
    ("guidedquant.damped_quadratic", "guidedquant", "damped_quadratic"),
)

# Home bindings left alone so that calls made inside train() are not spans.
SKIP_HOME = {"calib_model.calibrate", "calib_model.end_loss"}

MODEL_LAYERS = 3  # the deepest workload model has three weight layers


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _, _ in TARGETS:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.busy_s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    out += [
        ("scalar_quant.lloyd.useful_iter_frac", "ratio", "higher"),
        ("lnq.cd_cycle.changed_frac", "ratio", "higher"),
        ("lnq.cd_cycle.coord_visits", "count", "lower"),
        ("hessian.cache.hit_frac", "ratio", "higher"),
        ("guidedquant.eval_objectives.flops", "flop", "lower"),
        ("hessian.guided_hessians.flops", "flop", "lower"),
    ]
    out += [(f"model_layer.{l}.self_s", "s", "lower") for l in range(MODEL_LAYERS)]
    out.append(("traced.op_ref_p50", "ratio", "lower"))
    return out


def default_cd_cycle(lnq) -> str | None:
    """Name of the CD function the default engine runs, or None."""
    fields = getattr(getattr(lnq, "LnqConfig", None), "__dataclass_fields__", {})
    engine = getattr(fields.get("cd_engine"), "default", None)
    cands = ([f"cd_cycle_{engine}"] if isinstance(engine, str) else []) + ["cd_cycle"]
    return next((c for c in cands if callable(getattr(lnq, c, None))), None)


@dataclass
class Span:
    name: str
    phase: str
    op: int
    layer: int | None
    shape: tuple | None
    dur: float = 0.0
    self_s: float = 0.0
    child: float = 0.0
    top: bool = False


def _layer_of(args: dict) -> int | None:
    if isinstance(args.get("layer_idx"), int):
        return args["layer_idx"]
    for v in args.values():
        if isinstance(getattr(v, "layer_idx", None), int):
            return v.layer_idx
    return None


def _shape_of(args: dict) -> tuple | None:
    for v in args.values():
        if isinstance(v, np.ndarray):
            return tuple(v.shape)
        if isinstance(getattr(v, "X", None), np.ndarray):  # LayerCalibration
            return tuple(v.X.shape)
        if isinstance(getattr(v, "dims", None), list):  # MlpModel
            return tuple(v.dims)
        if isinstance(getattr(v, "x", None), np.ndarray):  # WeightedPoints
            return tuple(v.x.shape)
    return None


# Hooks: (bound arguments, counters) -> after(result) callback.


def _hook_lloyd(args: dict, ctr: dict):
    trace = args.get("trace")
    start = len(trace) if trace is not None else None

    def after(_result):
        if start is None:
            return
        # trace holds sse(assign), sse(update) per iteration plus a final
        # sse(assign); iteration k helped when the nearest-assignment SSE
        # after it (seg[2k+2]) is below the one before it (seg[2k]).
        seg = trace[start:]
        iters = (len(seg) - 1) // 2
        ctr["lloyd.iters"] += iters
        ctr["lloyd.useful"] += sum(seg[2 * k + 2] < seg[2 * k] for k in range(iters))

    return after


def _hook_cd(args: dict, ctr: dict):
    A = args.get("A")
    cycles = args.get("cycles")
    if not isinstance(A, np.ndarray) or not isinstance(cycles, int):
        return lambda _result: None
    before = A.copy()

    def after(_result):
        ctr["cd.changed"] += int(np.count_nonzero(A != before))
        ctr["cd.visits"] += cycles * A.size

    return after


def _hook_cache_load(args: dict, ctr: dict):
    def after(result):
        ctr["cache.loads"] += 1
        ctr["cache.hits"] += result is not None

    return after


def _hook_eval_flops(args: dict, ctr: dict):
    # Computed from shapes, not measured: E = X (W - W_hat) costs 2ndc,
    # the per-channel Fisher rebuild X^T Diag(g_j^2) X costs c(nd + 2nd^2),
    # its quadratic forms 2cd^2, the two objectives about 4nc.
    flops = 0
    for c in args.get("calib") or []:
        n, d = c.X.shape
        k = c.gradZ.shape[1]
        flops += 2 * n * d * k + k * (n * d + 2 * n * d * d) + 2 * k * d * d + 4 * n * k
    ctr["eval.flops"] += flops
    return lambda _result: None


def _hook_guided_flops(args: dict, ctr: dict):
    # Computed from shapes: squared grads 3nc, then per group B = X*sqrt(s)
    # (nd) and B^T B (2nd^2).
    calib, part = args.get("calib"), args.get("partition")
    if calib is not None and part is not None:
        n, d = calib.X.shape
        ctr["guided.flops"] += 3 * n * calib.gradZ.shape[1] + part.g * (n * d + 2 * n * d * d)
    return lambda _result: None


HOOKS = {
    "scalar_quant.lloyd": _hook_lloyd,
    "lnq.cd_cycle": _hook_cd,
    "hessian.HessianCache.load": _hook_cache_load,
    "guidedquant.eval_objectives": _hook_eval_flops,
    "hessian.guided_hessians": _hook_guided_flops,
}


class Recorder:
    """Installs the wrappers and keeps spans and counters in memory.

    Use as a context manager: every patched binding is restored on exit.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase = "setup"
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        import glq.cli  # noqa: F401  (imports every module the targets live in)

        mods = {n: m for n, m in sys.modules.items() if n == "glq" or n.startswith("glq.")}
        for name, mod_name, attr in TARGETS:
            home = mods.get(f"glq.{mod_name}")
            if attr is None and home is not None:
                attr = default_cd_cycle(home)
            owner, leaf = home, attr
            if home is not None and attr is not None and "." in attr:
                cls_name, leaf = attr.split(".", 1)
                owner = getattr(home, cls_name, None)
            fn = getattr(owner, leaf, None) if owner is not None and leaf else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if owner is not home:  # a method: its class attribute is the binding
                self._patch(owner, leaf, wrapper)
                continue
            for mod in mods.values():
                if mod is home and name in SKIP_HOME:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def _patch(self, obj, key: str, new) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        hook = HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs).arguments
            except TypeError:
                bound = {}
            parent = rec._stack[-1] if rec._stack else None
            layer = _layer_of(bound)
            if layer is None and parent is not None:
                layer = parent.layer
            span = Span(name, rec.phase, rec.op, layer, _shape_of(bound), top=parent is None)
            after = hook(bound, rec.counters[rec.phase]) if hook else None
            rec._stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - t0
                rec._stack.pop()
                span.self_s = span.dur - span.child
                if parent is not None:
                    parent.child += span.dur
                rec.spans.append(span)
            if span.layer is None and isinstance(getattr(result, "layer_idx", None), int):
                span.layer = result.layer_idx  # e.g. a HessianSet from the cache
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- reports ---------------------------------------------------------

    def op_spans(self) -> list[Span]:
        return [s for s in self.spans if s.phase == "op"]

    def metrics(self, n_ops: int, traced_ref_p50: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged per timed op, keyed as per_layer_names()."""
        units = {n: u for n, u, _ in per_layer_names()}
        per = max(n_ops, 1)
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        by_layer = defaultdict(float)
        for s in self.op_spans():
            calls[s.name] += 1
            busy[s.name] += s.dur
            own[s.name] += s.self_s
            if s.layer is not None:
                by_layer[s.layer] += s.self_s
        ctr = self.counters["op"]
        vals: dict[str, float] = {}
        for name, _, _ in TARGETS:
            vals[f"{name}.calls"] = calls[name] / per
            vals[f"{name}.busy_s"] = busy[name] / per
            vals[f"{name}.self_s"] = own[name] / per
        vals["scalar_quant.lloyd.useful_iter_frac"] = _ratio(ctr["lloyd.useful"], ctr["lloyd.iters"])
        vals["lnq.cd_cycle.changed_frac"] = _ratio(ctr["cd.changed"], ctr["cd.visits"])
        vals["lnq.cd_cycle.coord_visits"] = ctr["cd.visits"] / per
        vals["hessian.cache.hit_frac"] = _ratio(ctr["cache.hits"], ctr["cache.loads"])
        vals["guidedquant.eval_objectives.flops"] = ctr["eval.flops"] / per
        vals["hessian.guided_hessians.flops"] = ctr["guided.flops"] / per
        for l in range(MODEL_LAYERS):
            vals[f"model_layer.{l}.self_s"] = by_layer[l] / per
        vals["traced.op_ref_p50"] = traced_ref_p50
        return {k: (v, units[k]) for k, v in vals.items()}

    def table(self, phase: str, n_ops: int) -> list[str]:
        """Text table of spans per (function, model layer) for one phase:
        calls, busy and self seconds divided by n_ops, and the most common
        input shape, sorted by self time, largest first; preceded by self
        time summed per module and per model layer ("-" for spans that
        belong to no layer)."""
        per = max(n_ops, 1)
        rows: dict[tuple, list] = {}
        for s in self.spans:
            if s.phase != phase:
                continue
            row = rows.setdefault((s.name, s.layer), [0, 0.0, 0.0, defaultdict(int)])
            row[0] += 1
            row[1] += s.dur
            row[2] += s.self_s
            row[3][s.shape] += 1
        if not rows:
            return ["(no spans)"]
        by_mod, by_layer = defaultdict(float), defaultdict(float)
        for (name, layer), (_, _, o, _) in rows.items():
            by_mod[name.split(".")[0]] += o / per
            by_layer["-" if layer is None else layer] += o / per
        lines = [
            "self_s by module: " + ", ".join(
                f"{k} {v:.4f}" for k, v in sorted(by_mod.items(), key=lambda kv: -kv[1])),
            "self_s by model layer: " + ", ".join(
                f"{k} {v:.4f}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])),
        ]
        lines += [f"{'function':34} {'layer':>5} {'calls':>9} {'busy_s':>10} "
                 f"{'self_s':>10}  shape"]
        for (name, layer), (c, b, o, shapes) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            shape = max(shapes.items(), key=lambda kv: kv[1])[0]
            lay = "-" if layer is None else str(layer)
            lines.append(f"{name:34} {lay:>5} {c / per:9.1f} {b / per:10.4f} {o / per:10.4f}  "
                         f"{'x'.join(map(str, shape)) if shape else '-'}")
        return lines


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0
