"""A fixed piece of work that measures how fast the machine runs now, so
that times can be given in reference seconds.

On a shared host the CPU time of the same code changes by a factor of two
or more over minutes, while other tenants load the cores, caches and
memory: no share of it is steal or waiting, so neither wall time nor CPU
time is steady. The benchmark therefore runs this kernel in bursts
between the pieces of timed work, a few percent of their CPU time each,
and scales each piece's CPU time by ``REF_KERNEL_S`` over the mean kernel
time of the bursts right before and right after it: a reference second
is the time in which the kernel runs 1 / REF_KERNEL_S times.

The kernel is the reference log-mel frontend on 3 s of fixed noise and
one Bi-LSTM layer (64 units, both directions) over its frames: per-frame
Python with small numpy operations, one FFT and a few GEMMs, the same mix
as the program's hot path. It uses only the benchmark's own code, so no
change to the program can move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

import reference as ref

# the kernel's CPU time at the reference speed: a round figure near its
# time in the fast state of the 2-core x86-64 virtual machine the
# README's figures come from (about 19 ms in its slow state)
REF_KERNEL_S = 0.01
# the kernel's share of the CPU time it is run next to
DUTY = 0.05

_rng = np.random.default_rng(0)
_SIGNAL = 0.1 * _rng.standard_normal(3 * ref.SAMPLE_RATE)
_HIDDEN = 64
_W_X = 0.1 * _rng.standard_normal((ref.N_MELS, 4 * _HIDDEN))
_W_H = 0.1 * _rng.standard_normal((_HIDDEN, 4 * _HIDDEN))
_B = np.zeros(4 * _HIDDEN)


def kernel_cpu_s() -> float:
    """CPU seconds of one run of the kernel, with the cyclic garbage
    collector held off so that it does not scan the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        feats = ref.logmel(_SIGNAL)
        ref.lstm(feats, _W_X, _W_H, _B, reverse=False)
        ref.lstm(feats, _W_X, _W_H, _B, reverse=True)
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def sample(busy_cpu_s: float) -> list[float]:
    """Kernel times from runs of the kernel until together they reach
    DUTY times ``busy_cpu_s``; at least one."""
    times = [kernel_cpu_s()]
    while sum(times) < DUTY * busy_cpu_s:
        times.append(kernel_cpu_s())
    return times


def ref_per_cpu_s(kernel_times: list[float]) -> float:
    """Reference seconds per CPU second, from kernel times.

    The mean, not the median: the machine switches between a fast and a
    slow state (kernel times near 10 and near 19 ms) within seconds, timed
    work averages over both, and the median of the kernel times would snap
    to whichever state they met more often."""
    return REF_KERNEL_S / statistics.fmean(kernel_times)


def ref_seconds(cpu_s: list[float], bursts: list[list[float]]) -> list[float]:
    """CPU times of consecutive pieces of work in reference seconds, each
    scaled by the kernel bursts run right before and right after it.
    ``bursts`` holds the burst before the first piece and then at least
    one burst after each piece; all those after the last piece count for
    it."""
    out = []
    for i, cpu in enumerate(cpu_s):
        after = bursts[i + 1] if i + 1 < len(cpu_s) else [t for burst in bursts[i + 1 :] for t in burst]
        out.append(cpu * ref_per_cpu_s(bursts[i] + after))
    return out
