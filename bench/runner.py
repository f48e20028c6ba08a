"""How one benchmark run is measured.

Set-up is done ``SETUP_REPEATS`` times: each repeat starts a fresh
interpreter that imports ``ivforest.cli`` (what every ``ivf`` command
pays) and builds the workload's inputs in this process; ``setup_s`` is
the median import time plus the median build time. The workload's pass is
then repeated until the next one would end after ``seconds``. A pass-level
time is the mean over passes and a rate is total work over total time:
this machine's speed flips between states about 1.5x apart from one pass
to the next, and the median of six or so passes jumps between them while
the mean moves with the share of time spent in each. The first pass is checked
against independent computations, and every later pass must give the same
outputs byte for byte.

A traced run (``trace=True``) sets up once under the tracer, alternates
untraced and traced passes (at least one of each), and reports per-layer
metrics as the sum over phase kinds (set-up, pass, post) of the mean per
phase. Its overhead is the mean traced pass time minus the mean untraced
one.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
from checks import CheckFailed
from workloads import WORKLOADS

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "rf_model_mb": "MB",
    "rf_rows_per_s": "rows/s",
    "ke_rows_per_s": "rows/s",
    "rf_r2": "R2",
    "ke_r2": "R2",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "forest.fit_s": "s",
    "forest.nodes_per_s": "nodes/s",
    "forest.oob_s": "s",
    "forest.predict_s": "s",
    "forest.to_json_s": "s",
    "forest.from_json_s": "s",
    "forest.nodes": "count",
    "forest.leaves": "count",
    "kernel.fit_s": "s",
    "kernel.bandwidth_s": "s",
    "kernel.predict_s": "s",
    "kernel.edge_bandwidths": "count",
    "kernel.extrapolated_rows": "count",
    "linear.fit_s": "s",
    "linear.predict_s": "s",
    "linear.active_constraints": "count",
    "frame.load_csv_s": "s",
    "frame.write_csv_s": "s",
    "frame.split_s": "s",
    "simulate.busy_s": "s",
    "evaluate.score_s": "s",
    "trace.overhead_s": "s",
}


def machine() -> dict:
    threads = None
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": threads,
    }


def import_time() -> float:
    """Wall time of a fresh interpreter importing ivforest.cli."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ivforest.cli"], env=env, check=True)
    return time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, traced: bool, outdir: Path) -> int:
    wl = WORKLOADS[name]
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = outdir / f"work-{name}-{seed}-{os.getpid()}"
    try:
        return _run(wl, seed, seconds, traced, outdir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, traced, outdir, workdir) -> int:
    tracer = spans.Tracer() if traced else None

    # set-up
    setup_samples, build_metrics = [], []
    for _ in range(1 if traced else SETUP_REPEATS):
        imp = 0.0 if traced else import_time()
        t0 = time.perf_counter()
        with _phase(tracer, "setup"):
            inputs, extra = wl.build(workdir, seed)
        setup_samples.append((imp, time.perf_counter() - t0))
        build_metrics.append(extra)

    # timed passes
    passes, kinds, calls = [], [], []
    start = time.perf_counter()
    while True:
        is_traced = traced and len(passes) % 2 == 1
        t = tracer if is_traced else spans.Tracer(wl.untraced_functions, capture=not passes)
        t0 = time.perf_counter()
        with t:
            p = wl.run_pass(inputs, t)
        took = time.perf_counter() - t0
        if not passes:
            calls = t.calls
        passes.append(p)
        kinds.append("traced" if is_traced else "untraced")
        if traced and len(passes) < 2:
            continue
        if time.perf_counter() - start + took > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    ok = [p for p in passes if not p.failed]
    if not ok:
        print(f"bench: every pass of {wl.name} failed", file=sys.stderr)
        return 1

    # checks and the untimed post step
    problem = None
    try:
        if passes[0].failed:
            raise CheckFailed("the first pass failed, so its outputs cannot be checked")
        wl.check(inputs, passes[0], calls)
        for i, p in enumerate(passes[1:], start=1):
            if not p.failed and p.fingerprint != passes[0].fingerprint:
                raise CheckFailed(f"pass {i} ({kinds[i]}) gave other outputs than pass 0")
        with _phase(tracer, "post"):
            post = wl.post(inputs, passes[0], calls)
    except CheckFailed as exc:
        problem = str(exc)
    except Exception as exc:  # an output the checks cannot read is a failed check too
        traceback.print_exc()
        problem = f"{type(exc).__name__}: {exc}"
    if problem:
        post = {}
        print(f"bench: check failed: {problem}", file=sys.stderr)

    if traced:
        metrics = _per_layer(tracer, passes, kinds)
        names = PER_LAYER
    else:
        metrics = {k: _pass_mean(k, [p.metrics[k] for p in ok]) for k in ok[0].metrics}
        for k in build_metrics[0]:
            metrics[k] = statistics.median(b[k] for b in build_metrics)
        metrics.update(post)
        metrics["setup_s"] = (statistics.median(s[0] for s in setup_samples)
                              + statistics.median(s[1] for s in setup_samples))
        metrics["peak_rss_mb"] = peak_rss_mb
        names = END_TO_END

    detail = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine(),
        "setup_samples_s": setup_samples,
        "passes": [{"kind": k, "wall_s": p.wall_s, "attempted": p.attempted, "failed": p.failed,
                    **p.metrics} for k, p in zip(kinds, passes)],
        "check": problem or "ok",
    }
    suffix = f"{wl.name}-seed{seed}-trace{int(traced)}"
    (outdir / f"run-{suffix}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        (outdir / f"spans-{suffix}.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(detail))

    missing = [k for k in names if k not in metrics]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in names.items()},
    }
    print(json.dumps(result))
    return 0


def _pass_mean(name: str, values: list) -> float:
    """Mean time per pass; for a rate (same work every pass), total work over total time."""
    return statistics.harmonic_mean(values) if name.endswith("_per_s") else statistics.fmean(values)


@contextlib.contextmanager
def _phase(tracer, kind: str):
    """A phase under the tracer of a traced run; nothing for an untraced one."""
    if tracer is None:
        yield
    else:
        with tracer, tracer.phase(kind):
            yield


def _per_layer(tracer, passes, kinds) -> dict:
    by_kind: dict = {}
    for span in tracer.spans:
        if span["name"] == "phase":
            by_kind.setdefault(span["kind"], []).append(tracer.layer_totals(span["id"]))
    metrics = {}
    for key in PER_LAYER:
        metrics[key] = sum(statistics.fmean(t.get(key, 0) for t in phases)
                           for phases in by_kind.values())
    growth = metrics["forest.fit_s"] - metrics["forest.oob_s"]
    metrics["forest.nodes_per_s"] = metrics["forest.nodes"] / growth if growth > 0 else 0.0

    def mean_wall(kind):
        return statistics.fmean(p.wall_s for p, k in zip(passes, kinds) if k == kind and not p.failed)

    metrics["trace.overhead_s"] = mean_wall("traced") - mean_wall("untraced")
    return metrics
