"""VAD benchmark: one workload, one seed, one run.

    python3 vadbench/run.py --workload predict-long --seed 1 --seconds 25 --trace 0

Run from a checkout; the package is imported from its ``src``. Set-up
builds the workload's inputs from the seed (several times, to time it)
in a temporary directory under ``.vadbench-run/`` in the checkout, which
the run removes when it ends; a separate process runs the timed calls,
and the outputs are checked against the float64 reference in
``reference.py``. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. A JSON record of
the run (and the spans, when traced) is kept under ``.vadbench-results/``.

``setup_s`` and ``frames_per_ref_s`` are timed in CPU seconds of the
process doing the work, which is single-threaded (one BLAS thread), and
scaled to reference seconds by a calibration kernel run in the same
process (``calibration.py``): CPU time leaves out the time the process
was not running, and the scaling takes out how fast the shared machine
runs at the time. CPU seconds, wall-time rates and kernel times are
printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".vadbench-run"
RESULTS_DIR = ROOT / ".vadbench-results"
WORKLOADS = ("train-b8", "eval-manifest", "predict-long")
SETUP_REPEATS = 21
TIME_LIMIT_S = 170.0
# One BLAS thread: the model's GEMMs are small (at most a few thousand
# rows by 760 columns) and its time goes to per-frame Python work, so more
# threads buy little and make timings depend on whatever else the cores run.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="length of the timed part")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "load_generators": 1,
    }


def end_to_end(setup_times: list[float], setup_bursts: list[list[float]], records: list[dict], peak_rss_mb: float) -> dict:
    """The end-to-end metrics; times are in reference seconds (see
    calibration.py), each scaled by the kernel bursts around it."""
    import calibration
    import stats

    return {
        "setup_s": (statistics.median(calibration.ref_seconds(setup_times, setup_bursts)), "s"),
        "frames_per_ref_s": (statistics.median(stats.call_rates(records, to_reference=True)), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def tracing_overhead_pct(records: list[dict]) -> float:
    """100 * (traced / untraced - 1), comparing the median time per frame,
    in reference seconds, of the traced and the untraced calls of one run."""
    import stats

    rate = {
        traced: statistics.median(stats.call_rates([r for r in records if r["traced"] == traced], to_reference=True))
        for traced in (False, True)
    }
    return 100.0 * (rate[False] / rate[True] - 1.0)


def run(args, tmp: Path) -> int:
    import calibration
    import stats
    import tracing
    import workloads

    started = time.monotonic()
    tracer = tracing.Tracer() if args.trace else None
    setup_times, setup_bursts = [], [calibration.sample(0.0)]
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(tmp / f"inputs-{i - 1}")
        if tracer:
            tracer.install()
        t0 = time.process_time()
        spec = workloads.setup(args.workload, args.seed, tmp / f"inputs-{i}")
        setup_times.append(time.process_time() - t0)
        if tracer:
            tracer.uninstall()
        setup_bursts.append(calibration.sample(setup_times[-1]))
    pre_errors, state = workloads.pre_checks(spec)

    job = {
        "src": str(SRC),
        "spec": str(tmp / f"inputs-{SETUP_REPEATS - 1}" / "spec.json"),
        "out": str(tmp / "outputs"),
        "seconds": args.seconds,
        "trace": args.trace,
        "result": str(tmp / "timed.json"),
    }
    (tmp / "job.json").write_text(json.dumps(job), encoding="utf-8")
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(tmp / "job.json")],
        stdout=subprocess.DEVNULL,
        timeout=remaining,
    )
    if proc.returncode != 0:
        print(f"error: the timed process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    timed = json.loads((tmp / "timed.json").read_text(encoding="utf-8"))
    records = timed["records"]
    try:
        post_errors = workloads.post_checks(spec, records, state)
    except (OSError, ValueError) as e:  # an output file missing or unreadable
        post_errors = [f"call outputs could not be read: {e!r}"]
    errors = pre_errors + post_errors
    attempted, failed = len(records), stats.failed_count(records)

    untraced = [r for r in records if not r["traced"]]
    e2e = end_to_end(setup_times, setup_bursts, untraced, timed["peak_rss_mb"])
    setup_kernel_s = [t for burst in setup_bursts for t in burst]
    if args.trace:
        spans = tracing.merge(
            (tracer.spans, calibration.ref_per_cpu_s(setup_kernel_s)),
            (timed["spans"], calibration.ref_per_cpu_s(stats.kernel_times(records))),
        )
        metrics = tracing.layer_metrics(spans)
        metrics["trace.overhead_pct"] = (tracing_overhead_pct(records), "%")
    else:
        metrics = e2e
    env = environment()

    print(f"vadbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"calls: attempted={attempted} failed={failed} (untraced {len(untraced)})")
    for r in records:
        if not r["ok"]:
            print(f"failed call {r['op']} in round {r['round']}:\n{r['error']}")
    print(f"checks: {'pass' if not errors else 'FAIL'} on {attempted - failed} call outputs")
    for e in errors:
        print(f"  check failed: {e}")
    done = [r for r in untraced if r["ok"]]
    rates = stats.summarize(stats.call_rates(done)) if done else {}
    wall_rates = stats.summarize([r["frames"] / r["seconds"] for r in done]) if done else {}
    call_ms = stats.summarize([1e3 * r["seconds"] for r in done]) if done else {}
    cpu_share = sum(r["cpu_s"] for r in done) / sum(r["seconds"] for r in done) if done else 0.0
    print(f"frames per CPU second, per call or training epoch: {rates}")
    print(f"frames per wall second, per call: {wall_rates}")
    print(f"wall ms per call: {call_ms}")
    print(f"CPU time over wall time of the timed calls: {cpu_share:.3f}")
    kernel_ms = [1e3 * t for t in stats.kernel_times(records)]
    print(f"calibration kernel, CPU ms: set-up {stats.summarize([1e3 * t for t in setup_kernel_s])}, timed {stats.summarize(kernel_ms)}")
    print(f"set-up CPU s: {stats.summarize(setup_times)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "env": env,
        "setup_cpu_s": setup_times,
        "setup_bursts": setup_bursts,
        "calls": [{k: v for k, v in r.items() if k != "out"} for r in records],
        "frames_per_cpu_s": rates,
        "frames_per_wall_s": wall_rates,
        "call_ms": call_ms,
        "cpu_share": cpu_share,
        "end_to_end_untraced": {k: v[0] for k, v in e2e.items()},
        "metrics": {k: v[0] for k, v in metrics.items()},
        "check_errors": errors,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlnetvad" / "__init__.py").is_file():
        print(f"error: no mlnetvad package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    # a terminated run still removes its inputs, and subprocess.run kills
    # the timed process on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
