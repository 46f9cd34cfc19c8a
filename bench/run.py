"""glq benchmark: one workload in one process, result as JSON on the last line.

    python3 bench/run.py --workload toy_ranking --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (``end_to_end`` in
BENCHMARK.json); ``--trace 1`` wraps glq's public functions (see spans.py)
and reports the per-layer metrics instead. Set-up imports glq, builds the
workload's inputs SETUP_REPS times (``setup_s`` takes the median build) and
runs one warm-up op; then ops run back to back, each checked after it ends,
until ``--seconds`` have passed and at least MIN_OPS ops are done.

The latency metric is ``op_ref_p50``: the median over timed ops of the op's
wall time divided by that of ``reference_s()``, a fixed task that does not
touch glq, run just before the op. The host this was sized on changes speed
by up to 1.8x for minutes at a time, with no steal time to show it, and the
reference slows with it; raw op seconds (fastest, median, mean rate) are
printed but not reported as metrics. ``wide_layer`` is left out of
BENCHMARK.json to keep a full set of runs of every listed workload within
its time budget at this run length; it runs by hand.

glq is imported from the ``src/`` directory next to this file's parent. The
run's artifacts go to a fresh directory under ``.bench_tmp/`` in that
checkout, deleted at exit. Without the sources the run exits with status 2.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_OPS = 3  # also the number of timed ops in the comparable digest
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread on one pinned CPU: the reference task then runs where the
# op runs, and a slow second vCPU cannot stall the op behind a BLAS barrier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("toy_ranking", "mid_mlp_cli", "wide_layer")


@dataclass
class Result:
    import_s: float
    build_s: list[float]
    warmup_s: float
    op_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference run before each timed op
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    digest_head: str = ""
    digest_all: str = ""

    @property
    def setup_s(self) -> float:
        return self.import_s + statistics.median(self.build_s) + self.warmup_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small shrinks every shape; for the benchmark's own tests")
    return p.parse_args(argv)


def reference_s() -> float:
    """Seconds taken by a fixed CPU task that shares no code with glq.

    It mixes what the ops spend their time on: Python bytecode, the small
    numpy calls of an 8-16-4 MLP training step and 128x128 matrix products.
    Timed just before an op, it measures how fast the host runs then.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    x = rng.standard_normal((64, 8))
    w0 = rng.standard_normal((8, 16))
    w1 = rng.standard_normal((16, 4))
    t = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i
    for _ in range(1000):
        h = np.tanh(x @ w0)
        z = h @ w1
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[:, 0] -= 1.0
        w0 -= 1e-3 * (x.T @ ((p @ w1.T) * (1.0 - h * h)))
        w1 -= 1e-3 * (h.T @ p)
    b = a
    for _ in range(80):
        b = np.tanh(a @ b * 0.01)
    return time.perf_counter() - t


def one_op(wl, i: int, rec, phase: str):
    """Run op i, then check it. Returns (op seconds, qlayers, failures)."""
    if rec is not None:
        rec.phase, rec.op = phase, i
    t = time.perf_counter()
    try:
        out = wl.run(i)
    except Exception:  # any error raised by the program fails this op only
        dt = time.perf_counter() - t
        return dt, [], [f"op {i}: {traceback.format_exc().strip()}"]
    dt = time.perf_counter() - t
    if rec is not None:
        rec.phase = "check"
    try:
        qlayers, fails = wl.check(out)
    except Exception:  # unreadable output fails this op only
        qlayers, fails = [], [f"op {i} check: {traceback.format_exc().strip()}"]
    return dt, qlayers, [f"op {i}: {f}" for f in fails]


def run_workload(wl, seconds: float, rec, t0: float) -> Result:
    """Set up, warm up, then run timed ops until `seconds` have passed."""
    from checks import digest_update

    import_s = time.perf_counter() - t0
    builds = []
    for rep in range(SETUP_REPS):
        if rec is not None:
            rec.phase = "setup"
        t = time.perf_counter()
        wl.build(rep)
        builds.append(time.perf_counter() - t)
    head, full = hashlib.sha256(), hashlib.sha256()
    res = None
    i = 0
    deadline = None
    while res is None or len(res.op_s) < MIN_OPS or time.perf_counter() < deadline:
        ref = reference_s()
        dt, qlayers, fails = one_op(wl, i, rec, "warmup" if i == 0 else "op")
        if res is None:
            res = Result(import_s=import_s, build_s=builds, warmup_s=dt)
            deadline = time.perf_counter() + seconds
        else:
            res.op_s.append(dt)
            res.ref_s.append(ref)
        res.attempted += 1
        res.failed += bool(fails)
        res.failures += fails
        for h in (head, full) if i <= MIN_OPS else (full,):
            h.update(f"op {i} {'failed' if fails else 'ok'}".encode())
            digest_update(h, qlayers)
        i += 1
    res.digest_head, res.digest_all = head.hexdigest(), full.hexdigest()
    return res


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info(np) -> str:
    """BLAS name, version and the thread count the library reports."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = str(fn())
                break
    return f"blas={info.get('name')} {info.get('version')} blas_threads={threads}"


def print_report(args, res: Result, rec, np) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    n = len(res.op_s)
    p50 = statistics.median(res.op_s)
    print(f"glq bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"env: nproc={NPROC} {blas_info(np)} python={platform.python_version()} "
          f"numpy={np.__version__} commit={git_commit()}")
    print(f"setup: import {res.import_s:.3f} s, build {statistics.median(res.build_s):.3f} s "
          f"(median of {[round(b, 3) for b in res.build_s]}), warm-up op {res.warmup_s:.3f} s")
    print(f"ops: {n} timed + 1 warm-up = {res.attempted} attempted, {res.failed} failed; "
          f"op seconds {[round(t, 3) for t in res.op_s]}")
    print(f"digest ops 0-{MIN_OPS}: {res.digest_head}")
    print(f"digest all {res.attempted} ops: {res.digest_all}")
    for f in res.failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    ref_p50 = statistics.median(o / r for o, r in zip(res.op_s, res.ref_s))
    e2e = {
        "op_ref_p50": (ref_p50, "ratio"),
        "setup_s": (res.setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {"op_ref_p50": f"median of {n} ops, each over the reference run before it"}
    for name, (v, unit) in e2e.items():
        print(f"{name:12} {v:.6g} {unit}  {notes.get(name, '')}".rstrip())
    # Raw seconds follow the host's speed swings, so they are printed only.
    print(f"{'op_s_p50':12} {p50:.6g} s  median of {n} ops (not a JSON metric)")
    print(f"{'op_s_min':12} {min(res.op_s):.6g} s  fastest of {n} ops (not a JSON metric)")
    print(f"{'ops_per_s':12} {n / sum(res.op_s):.6g} 1/s  {n} ops (not a JSON metric)")
    print(f"{'ref_s_p50':12} {statistics.median(res.ref_s):.6g} s  reference task, median of "
          f"{n} (host speed; not a JSON metric)")
    print(f"{'fail_frac':12} {res.failed / res.attempted:.6g}  ({res.failed}/{res.attempted} ops)")
    if rec is None:
        return e2e
    print(f"traced run: op_ref_p50 above includes wrapper overhead; absent: {rec.absent or 'none'}")
    for phase, k in (("op", n), ("setup", SETUP_REPS)):
        print(f"-- spans per {'timed op' if phase == 'op' else 'set-up build'} ({phase}) --")
        print("\n".join(rec.table(phase, k)))
    layer = rec.metrics(n, ref_p50)
    for name, (v, unit) in layer.items():
        print(f"{name:44} {v:.6g} {unit}")
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "glq" / "__init__.py").is_file():
        print(f"bench: no glq sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np

    import glq

    if Path(glq.__file__).resolve().parent != (SRC / "glq").resolve():
        print(f"bench: glq imported from {glq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS, SetupFailed

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        with spans.Recorder() if args.trace else contextlib.nullcontext() as rec:
            res = run_workload(wl, args.seconds, rec, _T0)
    except SetupFailed as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # fails while another run still uses it
    metrics = print_report(args, res, rec, np)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
