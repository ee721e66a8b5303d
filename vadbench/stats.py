"""The benchmark's own arithmetic: timed rounds, failure counting,
frames-per-second accounting and the percentile rule."""

from __future__ import annotations

import statistics
import time
import traceback
from pathlib import Path

import calibration

TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 40
SAMPLES_BEYOND_TAIL = 10


def tail_percentile(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    or None below forty samples, where only the median is reported."""
    if n < MIN_TAIL_SAMPLES:
        return None
    # in tenths of a percent, so that 90% of 100 leaves exactly 10
    fits = [p for p in TAIL_PERCENTILES if n * (1000 - round(10 * p)) >= 1000 * SAMPLES_BEYOND_TAIL]
    return max(fits)


def summarize(values: list[float]) -> dict:
    """Median, sample count and, when the sample allows one, a tail."""
    out = {"n": len(values), "median": statistics.median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return out


def frames_per_second(frames: int, seconds: float) -> float:
    if seconds <= 0:
        raise ValueError(f"a call cannot take {seconds} s")
    return frames / seconds


def kernel_times(records: list[dict]) -> list[float]:
    """The kernel times of the bursts that followed each call."""
    return [t for r in records for burst in r["bursts"][1:] for t in burst]


def call_rates(records: list[dict], to_reference: bool = False) -> list[float]:
    """Frames per CPU second of each successful call, or of each part of it
    when the call reports its CPU time split into ``parts_cpu_s``, each
    part passing an equal share of its frames. With ``to_reference``,
    frames per reference second: each part's CPU time scaled by the
    calibration bursts right before and after it."""
    rates = []
    for r in records:
        if not r["ok"]:
            continue
        parts = r["out"].get("parts_cpu_s") or [r["cpu_s"]]
        if to_reference:
            parts = calibration.ref_seconds(parts, r["bursts"])
        rates += [frames_per_second(r["frames"] / len(parts), s) for s in parts]
    return rates


def run_rounds(
    ops,
    seconds: float,
    out: Path,
    tracer=None,
    clock=time.perf_counter,
    cpu_clock=time.process_time,
    calibrate=calibration.sample,
    min_rounds: int = 1,
) -> list[dict]:
    """Run whole rounds of ``ops`` until ``seconds`` of wall time have passed.

    Every round runs every op once, so the failed share of the attempted
    calls does not depend on how long the run is. A call that raises is
    counted as failed and the run goes on. Each call records its wall time
    (``seconds``), this process's CPU time (``cpu_s``) and the bursts of the
    calibration kernel around it (``bursts``): the one before it, those it
    ran between its parts and returned as ``bursts``, and the one after it. With a tracer,
    every second round is traced, so traced and untraced calls interleave.
    """
    records: list[dict] = []
    start = clock()
    before = calibrate(0.0)
    rounds = 0
    while rounds < min_rounds or clock() - start < seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                record = {"round": rounds, "op": op.name, "frames": op.frames, "traced": traced}
                t0, c0 = clock(), cpu_clock()
                try:
                    record["out"] = op.run(out / f"r{rounds}-{i}")
                    record["ok"] = True
                except Exception:  # a failed call is counted, not fatal
                    record["ok"] = False
                    record["error"] = traceback.format_exc(limit=3)
                record["seconds"] = clock() - t0
                record["cpu_s"] = cpu_clock() - c0
                after = calibrate(record["cpu_s"])
                record["bursts"] = [before, *record.get("out", {}).pop("bursts", []), after]
                before = after
                records.append(record)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    return records


def failed_count(records: list[dict]) -> int:
    return sum(1 for r in records if not r["ok"])
