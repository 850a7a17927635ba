"""End-to-end benchmark of the repository: one command, four workloads.

    python3 e2ebench/run.py --workload detect --seed 1 --seconds 20 --trace 0

Run from the repository root. It writes the workload's seeded inputs in
a child process, runs the workload for about ``--seconds`` seconds,
checks its outputs, and prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the layer wrappers record spans
and the metrics are its per-layer metrics. The line before it holds the
environment (kernel backend, nproc, versions, BLAS), sample counts and
any failed check. Scratch files go under ``.e2ebench_work/`` and the
spans of a traced run are kept there as ``spans.jsonl``.

A failed output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the workloads
# already keep both cores busy (two mp workers, or a server thread beside
# the main one), and a second BLAS thread on a shared 2-core host made the
# spectral cold start both slower and far less repeatable (4.1-6.3 s
# against 4.1-4.6 s over the same seeds). The value is in the env record.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".e2ebench_work"
WORKLOADS = ("detect", "detect-mp", "stream", "serve")


def environment() -> dict:
    import numpy as np

    from repro.config import AMMSBConfig
    from repro.core import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS") if k in os.environ}
    return {
        "kernel_backend": kernels.resolve_backend(AMMSBConfig().kernel_backend).name,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "library default (no *_NUM_THREADS set)",
    }


def stop_children() -> None:
    """Join the engine's worker processes and stop the multiprocessing
    resource tracker that shared memory starts, so no process outlives
    the run. The tracker only exits once its pipe closes; left to the
    interpreter's exit it would end after this process, unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny shapes for the benchmark's own tests")
    args = p.parse_args(argv)

    # The default kernel backend is what gets measured.
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    gen = [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(inputs)]
    subprocess.run(gen + (["--quick"] if args.quick else []), check=True, timeout=150)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from inputs import shape_of
    from spans import Tracer

    run = workloads.Run(
        shape=shape_of(args.workload, args.quick),
        inputs=inputs,
        work=work,
        meta=json.loads((inputs / "meta.json").read_text()),
        tracer=Tracer(run_id=work.name, enabled=False),
        trace=bool(args.trace),
    )
    start = time.perf_counter()
    if args.trace:
        run.trace_on()
    if args.workload == "detect":
        workloads.run_detect(run, "seq")
    elif args.workload == "detect-mp":
        workloads.run_detect(run, "mp")
    elif args.workload == "stream":
        workloads.run_stream(run)
    else:
        workloads.run_serve(run)
    run.trace_off()
    wall = time.perf_counter() - start

    if args.trace:
        values = workloads.per_layer_metrics(run)
        wanted = spec["per_layer"]
        run.tracer.write(work / "spans.jsonl")
    else:
        values = workloads.end_to_end_metrics(run)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"workload {args.workload} did not produce {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = run.failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall,
        "env": environment(),
        "samples": workloads.sample_counts(run),
        "failures": run.failures,
    }
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps({**detail, **result}, indent=1) + "\n")
    # Inputs and artifacts are tens of MB a run; keep only the records.
    for child in work.iterdir():
        if child.name not in ("result.json", "spans.jsonl"):
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
