"""Command-line pipeline driver.

Subcommands: gen-data, train, hessian, quantize, eval, sweep. Exit code
0 on success, 1 on a usage error (bad flags, unknown subcommand), 2 on a
configuration, computation or I/O error. All randomness is keyed by
explicit --seed flags, and every artifact write is atomic, so rerunning
a command with the same inputs reproduces its outputs byte for byte.

``quantize`` builds its QuantJob from three layers, each overriding the
one before: QUANTIZE_DEFAULTS, the ``--config`` JSON object, the flags.
``hessian``, ``quantize`` and ``eval`` each calibrate the model on the
dataset themselves and walk its layers holding one layer's calibration
and at most one Hessian set at a time; no calibration artifact is
written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import artifacts
from .calib_model import calibrate as run_calibrate
from .calib_model import end_loss, gen_dataset, random_model, train as run_train
from .calib_model import walk_calibration
from .errors import ConfigError, CorruptFile, DivergedLoss, GlqError
from .guidedquant import (
    JOB_KEYS,
    METHODS,
    QuantJob,
    format_table,
    job_report,
    run_job,
    sweep as run_sweep,
)
from .hessian import DEFAULT_DAMPING_REL, HessianCache, layer_hessians
from .tensorio import read_json_object, write_json_atomic

# What quantize runs when neither --config nor a flag says otherwise; every
# other default a flag shows is QuantJob's own.
QUANTIZE_DEFAULTS = {"method": "lnq_guided", "bits": 2, "g": 4}


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


def _seed(text: str) -> int:
    """A --seed value: numpy's seeding takes only integers >= 0."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _seed_list(text: str) -> list[int]:
    return [_seed(tok) for tok in text.split(",") if tok != ""]


def _str_list(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok != ""]


def build_parser() -> _Parser:
    p = _Parser(prog="glq", description=__doc__)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    g = sub.add_parser("gen-data", help="draw a synthetic teacher dataset")
    g.add_argument("--seed", type=_seed, default=0)
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
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    h = sub.add_parser("hessian", help="build and cache layer Hessians")
    h.add_argument("--model", required=True)
    h.add_argument("--data", required=True)
    h.add_argument("--kind", default="guided", choices=["plain", "guided"])
    h.add_argument("--g", type=int, default=QUANTIZE_DEFAULTS["g"])
    h.add_argument("--damping-rel", type=float, default=DEFAULT_DAMPING_REL)
    h.add_argument("--out", required=True)
    h.set_defaults(func=cmd_hessian)

    q = sub.add_parser("quantize", help="quantize a model end to end")
    q.add_argument("--model", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--config", help="JSON object of QuantJob fields; the flags "
                                    "below override it")
    q.add_argument("--method", choices=METHODS)
    q.add_argument("--bits", type=int)
    q.add_argument("--g", type=int)
    q.add_argument("--seed", type=_seed)
    q.add_argument("--T", type=int)
    q.add_argument("--K", type=int)
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
    s.add_argument("--methods", type=_str_list, default=list(METHODS))
    s.add_argument("--bits", type=_int_list, default=[QUANTIZE_DEFAULTS["bits"]])
    s.add_argument("--g", type=_int_list, default=[QUANTIZE_DEFAULTS["g"]])
    s.add_argument("--seeds", type=_seed_list, default=[QuantJob.seed])
    s.add_argument("--T", type=int, default=QuantJob.T)
    s.add_argument("--K", type=int, default=QuantJob.K)
    s.add_argument("--damping-rel", type=float, default=QuantJob.damping_rel)
    s.add_argument("--out", help="CSV output path")
    s.set_defaults(func=cmd_sweep)
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
    try:
        model = run_train(model, data, steps=args.steps, lr=args.lr)
    except DivergedLoss as exc:
        raise DivergedLoss(f"{exc}: training diverged at --lr {args.lr:g} on n={data.n} "
                           f"samples. The loss is summed over the samples, not averaged, "
                           f"so the step grows with n: try a smaller --lr") from exc
    after = end_loss(model, data)
    artifacts.save_model(args.out, model)
    print(f"trained dims={dims}: loss {before:.6g} -> {after:.6g}; wrote {args.out}")
    return 0


def cmd_hessian(args) -> int:
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    # always rebuilt and rewritten, so a rerun replaces a damaged entry
    layer_set = layer_hessians(model, data, args.kind, args.g, args.damping_rel,
                               cache=HessianCache(args.out), reuse=False)
    records = walk_calibration(model, run_calibrate(model, data))
    # each set is stored as it is built and only its key kept, so one
    # layer's record and set are held at a time
    index = {str(l): layer_set(l, next(records))[0] for l in range(model.n_layers)}
    write_json_atomic(Path(args.out) / "index.json",
                      {"kind": args.kind, "layers": index})
    print(f"wrote {len(index)} hessian sets ({args.kind}) to {args.out}")
    return 0


def _read_config(path: str) -> dict:
    try:
        return read_json_object(path)
    except (OSError, CorruptFile) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc  # exc names the file


def cmd_quantize(args) -> int:
    raw = dict(QUANTIZE_DEFAULTS)
    if args.config:
        raw.update(_read_config(args.config))
    raw.update({k: getattr(args, k) for k in JOB_KEYS if getattr(args, k) is not None})
    job = QuantJob.from_dict(raw)
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    cache = HessianCache(args.hessian_cache) if args.hessian_cache else None
    _, qlayers, report = run_job(model, data, job, hessian_cache=cache)
    artifacts.save_quantized(args.out, qlayers, report, asdict(job))
    print(format_table([report.csv_row()]))
    print(f"wrote quantized layers to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = artifacts.load_model(args.model)
    data, _ = artifacts.load_dataset(args.data)
    qlayers, meta = artifacts.load_quantized(args.quant)
    # job keys an older artifact lacks take today's QuantJob defaults
    job = QuantJob.from_dict({k: meta[k] for k in JOB_KEYS if k in meta})
    quantized = model.with_layers([ql.W_hat for ql in qlayers])
    del qlayers  # only the quantized weights are read from here on
    # one layer's calibration and set at a time
    report = job_report(model, quantized, data, job)
    print(format_table([report.csv_row()]))
    if args.csv:
        artifacts.write_report_csv(args.csv, [report.csv_row()])
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
                    jobs.append(QuantJob(method=method, bits=bits, g=g, seed=seed,
                                         damping_rel=args.damping_rel, T=args.T, K=args.K))
    rows = run_sweep(model, data, jobs)
    print(format_table(rows))
    if args.out:
        artifacts.write_report_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


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
