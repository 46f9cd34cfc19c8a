"""Command-line pipeline driver.

Subcommands: gen-data, train, calibrate, hessian, quantize, eval,
sweep, verify. Exit code 0 on success, 1 on a usage error (bad flags,
unknown subcommand), 2 on a computation or I/O error. All randomness
is keyed by explicit --seed flags, and every artifact write is atomic,
so rerunning a command with the same inputs reproduces its outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import artifacts
from .calib_model import calibrate as run_calibrate
from .calib_model import end_loss, gen_dataset, random_model, train as run_train
from .errors import GlqError
from .guidedquant import (
    QuantJob,
    QuantReport,
    damped_quadratic,
    eval_objectives,
    format_table,
    run_job,
    sweep as run_sweep,
)
from .hessian import HessianCache, layer_hessians, plain_hessian
from .runconfig import RunConfig
from .tensorio import write_json_atomic
from .verify import run_verify


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we want 1
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc


def _str_list(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok != ""]


def build_parser() -> _Parser:
    p = _Parser(prog="glq", description=__doc__)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    g = sub.add_parser("gen-data", help="draw a synthetic teacher dataset")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--d0", type=int, default=8)
    g.add_argument("--dt", type=int, default=4)
    g.add_argument("--task", default="squared_error",
                   choices=["squared_error", "softmax_cross_entropy"])
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a fresh model on a dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--hidden", type=_int_list, default=[16, 16])
    t.add_argument("--steps", type=int, default=300)
    t.add_argument("--lr", type=float, default=2e-3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("calibrate", help="record per-layer inputs and gradients")
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_calibrate)

    h = sub.add_parser("hessian", help="build and cache layer Hessians")
    h.add_argument("--model", required=True)
    h.add_argument("--data", required=True)
    h.add_argument("--kind", default="guided", choices=["plain", "guided"])
    h.add_argument("--g", type=int, default=4)
    h.add_argument("--grad-scale", type=float, default=1e3)
    h.add_argument("--damping-rel", type=float, default=1e-7)
    h.add_argument("--out", required=True)
    h.set_defaults(func=cmd_hessian)

    q = sub.add_parser("quantize", help="quantize a model end to end")
    q.add_argument("--model", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--config", help="JSON RunConfig supplying defaults for "
                                    "the flags below")
    q.add_argument("--method", choices=["rtn", "squeezellm", "lnq_plain", "lnq_guided"])
    q.add_argument("--bits", type=int)
    q.add_argument("--g", type=int)
    q.add_argument("--seed", type=int)
    q.add_argument("--T", type=int)
    q.add_argument("--K", type=int)
    q.add_argument("--grad-scale", type=float)
    q.add_argument("--damping-rel", type=float)
    q.add_argument("--hessian-cache")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_quantize)

    e = sub.add_parser("eval", help="re-evaluate a quantized artifact")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--quant", required=True)
    e.add_argument("--csv", help="also write the one-row summary CSV here")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="grid of quantization jobs -> CSV table")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--methods", type=_str_list,
                   default=["rtn", "squeezellm", "lnq_plain", "lnq_guided"])
    s.add_argument("--bits", type=_int_list, default=[2])
    s.add_argument("--g", type=_int_list, default=[4])
    s.add_argument("--seeds", type=_int_list, default=[0])
    s.add_argument("--T", type=int, default=2)
    s.add_argument("--K", type=int, default=4)
    s.add_argument("--grad-scale", type=float, default=1e3)
    s.add_argument("--damping-rel", type=float, default=1e-7)
    s.add_argument("--out", help="CSV output path")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the self-check property suite")
    v.add_argument("--quick", action="store_true")
    v.set_defaults(func=cmd_verify)
    return p


def cmd_gen_data(args) -> int:
    data = gen_dataset(args.seed, args.n, args.d0, args.dt, task=args.task)
    artifacts.save_dataset(args.out, data, task=args.task)
    print(f"wrote dataset n={args.n} d0={args.d0} dt={args.dt} to {args.out}")
    return 0


def cmd_train(args) -> int:
    data, task = artifacts.load_dataset(args.data)
    dims = [data.inputs.shape[1], *args.hidden, data.targets.shape[1]]
    model = random_model(dims, args.seed, loss=task)
    before = end_loss(model, data)
    model = run_train(model, data, steps=args.steps, lr=args.lr)
    after = end_loss(model, data)
    artifacts.save_model(args.out, model)
    print(f"trained dims={dims}: loss {before:.6g} -> {after:.6g}; wrote {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    calib = run_calibrate(model, data)
    artifacts.save_calibration(args.out, calib)
    print(f"wrote calibration for {len(calib)} layers to {args.out}")
    return 0


def cmd_hessian(args) -> int:
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    calib = run_calibrate(model, data)
    # always rebuilt and rewritten, so a rerun replaces a damaged entry
    entries = layer_hessians(model, data, calib, args.kind, args.g, args.grad_scale,
                             args.damping_rel, cache=HessianCache(args.out), reuse=False)
    index = {str(l): key for l, (key, _hset) in enumerate(entries)}
    write_json_atomic(Path(args.out) / "index.json",
                      {"kind": args.kind, "layers": index})
    print(f"wrote {len(index)} hessian sets ({args.kind}) to {args.out}")
    return 0


def cmd_quantize(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()

    def pick(flag, fallback):
        return fallback if flag is None else flag

    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    job = QuantJob(
        method=pick(args.method, cfg.method),
        bits=pick(args.bits, cfg.bits),
        g=pick(args.g, cfg.g),
        seed=pick(args.seed, cfg.seed),
        grad_scale=pick(args.grad_scale, cfg.grad_scale),
        damping_rel=pick(args.damping_rel, cfg.damping_rel),
        T=pick(args.T, cfg.T),
        K=pick(args.K, cfg.K),
    )
    cache = HessianCache(args.hessian_cache) if args.hessian_cache else None
    _, qlayers, report = run_job(model, data, job, hessian_cache=cache)
    meta = {
        "method": job.method, "g": job.g, "seed": job.seed,
        "grad_scale": job.grad_scale, "damping_rel": job.damping_rel,
        "T": job.T, "K": job.K,
    }
    artifacts.save_quantized(args.out, qlayers, report, meta)
    print(format_table([report.csv_row()]))
    print(f"wrote quantized layers to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    qlayers, meta = artifacts.load_quantized(args.quant)
    calib = run_calibrate(model, data)
    w_hats = [ql.W_hat for ql in qlayers]
    rows = eval_objectives(model, w_hats, calib)
    # reporting convention: the damped quadratic here is always taken
    # under the plain per-layer Hessian, whatever method produced the
    # artifact, so artifacts stay comparable
    for l, row in enumerate(rows):
        hset = plain_hessian(calib[l], layer_idx=l,
                             damping_rel=meta.get("damping_rel", 1e-7))
        row["damped_objective"] = damped_quadratic(hset, model.layers[l], w_hats[l])
    quantized = model.with_layers(w_hats)
    report = QuantReport(
        method=meta.get("method", "?"),
        bits=meta["bits"],
        g=meta.get("g", 1),
        seed=meta.get("seed", 0),
        end_loss_before=end_loss(model, data),
        end_loss_after=end_loss(quantized, data),
        layers=rows,
        fisher_quadratic=sum(r["fisher_quadratic"] for r in rows),
    )
    print(format_table([report.csv_row()]))
    if args.csv:
        Path(args.csv).write_text(artifacts.report_csv_text([report.csv_row()]))
    return 0


def cmd_sweep(args) -> int:
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    jobs = []
    for seed in args.seeds:
        for method in args.methods:
            for bits in args.bits:
                gs = args.g if method == "lnq_guided" else [1]
                for g in gs:
                    jobs.append(QuantJob(
                        method=method, bits=bits, g=g, seed=seed,
                        grad_scale=args.grad_scale, damping_rel=args.damping_rel,
                        T=args.T, K=args.K,
                    ))
    rows = run_sweep(model, data, jobs)
    print(format_table(rows))
    if args.out:
        Path(args.out).write_text(artifacts.report_csv_text(rows))
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_verify(args) -> int:
    return 0 if run_verify(quick=args.quick) else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        print("usage error: no subcommand given (try --help)", file=sys.stderr)
        return 1
    try:
        return int(args.func(args))
    except GlqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a computation error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
