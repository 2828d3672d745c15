"""Benchmark entry point for the tada classifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds a traced pass and reports
the per-layer metrics instead, writing its spans to
``.bench_out/<workload>-seed<seed>.spans.jsonl``.  The process exits 1 when
a correctness check fails and 2 when the tada sources cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train_short", "train_long", "eval_stream")


def pin_threads() -> int:
    """One BLAS thread (never more than nproc); returns nproc.

    tada's matrices are small, so extra BLAS threads buy nothing and only
    add scheduling noise.  Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_tada() -> None:
    """Import tada from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import tada
    except ImportError as e:
        _die(f"cannot import tada from {src}: {e}")
    if not os.path.abspath(tada.__file__).startswith(src + os.sep):
        _die(f"tada resolved to {tada.__file__}, not under {src}")


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(nproc: int, loadavg) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "loadavg_at_start": list(loadavg),
    }


def _non_finite(metrics: dict) -> list[str]:
    return [k for k, (v, _) in metrics.items() if not isinstance(v, (int, float))
            or v != v or v in (float("inf"), float("-inf"))]


def run_one(args) -> int:
    loadavg = os.getloadavg()
    nproc = pin_threads()
    import_tada()
    import workloads

    env = environment(nproc, loadavg)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if out.tracer is not None:
        out.tracer.write(stem + ".spans.jsonl")
    out.problems += [f"metric {k} is not a finite number" for k in _non_finite(out.metrics)]
    correct = not out.problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "detail": out.detail,
              "problems": out.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}}
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    print("shape " + json.dumps(out.detail.get("shape")))
    for k, (v, u) in out.metrics.items():
        print(f"  {k:40s} {v:14.6g} {u}")
    for p in out.problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; nonzero if any of them fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
