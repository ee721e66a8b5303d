"""The benchmark's own arithmetic: percentiles, frame accounting, rounds
and failure counting."""

import pickle
from pathlib import Path

import pytest

import calibration
import reference as ref
import run
import stats
import workloads
from workloads import PREDICT_SAMPLES, TRAIN_EPOCHS, Op


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond_and_needs_forty(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summary_is_the_median_alone_below_forty_samples():
    values = [float(v) for v in range(39)]
    assert stats.summarize(values) == {"n": 39, "median": 19.0}
    forty = stats.summarize(values + [39.0])
    assert forty["median"] == 19.5
    assert forty["p75"] == pytest.approx(29.25)


def test_frame_counts_follow_the_framing_rule():
    assert ref.n_frames(399) == 0
    assert ref.n_frames(400) == 1
    assert ref.n_frames(559) == 1
    assert ref.n_frames(560) == 2
    assert ref.n_frames(PREDICT_SAMPLES) == 1 + (PREDICT_SAMPLES - 400) // 160 == 2998


def test_frames_per_cpu_second_counts_only_successful_calls():
    records = [
        {"ok": True, "frames": 3000, "seconds": 1.5, "cpu_s": 0.75, "out": {}},
        {"ok": False, "frames": 3000, "seconds": 0.01, "cpu_s": 0.01},
        {"ok": True, "frames": 2 * 4000, "seconds": 4.5, "cpu_s": 4.0, "out": {}},
    ]
    assert stats.call_rates(records) == [4000.0, 2000.0]


def test_a_call_split_into_parts_gives_one_rate_per_part():
    # a two-epoch training call over 4000 training frames: 2000 frames per epoch
    record = {"ok": True, "frames": 2 * 2000, "seconds": 3.0, "cpu_s": 2.6, "out": {"parts_cpu_s": [1.0, 1.6]}}
    assert stats.call_rates([record]) == [2000.0, 1250.0]
    with pytest.raises(ValueError):
        stats.frames_per_second(10, 0.0)


def test_frames_per_call_match_the_inputs(tmp_path):
    spec = workloads.setup(workloads.TRAIN, 5, tmp_path / "train")
    with open(tmp_path / "train" / "utterances.pkl", "rb") as fh:
        train_utts, dev_utts = pickle.load(fh)
    assert (len(train_utts), len(dev_utts)) == (8, 2)
    # a training call passes every training frame once per epoch; dev frames are not counted
    assert spec["frames_per_op"] == TRAIN_EPOCHS * sum(len(u.labels) for u in train_utts)

    spec = workloads.setup(workloads.EVAL, 5, tmp_path / "eval")
    base = Path(spec["manifest"]).parent
    rows = [line.split("\t") for line in Path(spec["manifest"]).read_text().splitlines()[2:]]
    wavs = [base / row[1] for row in rows if row[3] == "eval"]
    assert len(wavs) == workloads.EVAL_UTTS
    assert spec["frames_per_op"] == sum(ref.n_frames(ref.read_wav(w).size) for w in wavs)


def test_calibration_runs_a_share_of_the_busy_time_at_least_once():
    assert len(calibration.sample(0.0)) == 1
    times = calibration.sample(2.0)
    assert sum(times) >= calibration.DUTY * 2.0
    assert sum(times[:-1]) < calibration.DUTY * 2.0


def test_end_to_end_times_are_scaled_by_the_kernel_bursts_around_them():
    # a burst of kernel times k times the reference makes a CPU second next
    # to it worth 1/k reference seconds; a piece of work counts the mean of
    # the bursts right before and right after it
    r = calibration.REF_KERNEL_S
    # set-ups between bursts of 1, 3, 1 and 1 r: 0.2 / 2, 0.2 / 2, 0.2 / 1
    setup_bursts = [[r], [3 * r], [r], [r]]
    records = [
        # two epochs of 2000 frames: bursts (2, 2, 2) r around the first and
        # (2, 2, 4, 4) r around the second, which holds the call's tail
        {"ok": True, "frames": 4000, "cpu_s": 2.0, "bursts": [[2 * r], [2 * r, 2 * r], [4 * r], [4 * r]],
         "out": {"parts_cpu_s": [1.0, 1.0]}},
        {"ok": False, "frames": 3000, "cpu_s": 0.1, "bursts": [[4 * r], [8 * r]]},
        {"ok": True, "frames": 3000, "cpu_s": 0.5, "bursts": [[8 * r], [4 * r]], "out": {}},
    ]
    metrics = run.end_to_end([0.2, 0.2, 0.2], setup_bursts, records, 80.0)
    assert metrics["setup_s"] == (pytest.approx(0.1), "s")
    # 2000 / 0.5, 2000 / (1 / 3) and 3000 / (0.5 / 6)
    assert metrics["frames_per_ref_s"] == (pytest.approx(6000.0), "1/s")
    assert sorted(stats.call_rates(records, to_reference=True)) == pytest.approx([4000.0, 6000.0, 36000.0])
    assert metrics["peak_rss_mb"] == (80.0, "MB")


def test_tracing_overhead_compares_time_per_frame():
    records = [
        {"ok": True, "traced": False, "seconds": 3.0, "cpu_s": 2.0, "frames": 100, "bursts": [[0.02], [0.02]], "out": {}},
        {"ok": True, "traced": True, "seconds": 2.2, "cpu_s": 2.2, "frames": 200, "bursts": [[0.01], [0.01]], "out": {}},
        {"ok": False, "traced": True, "seconds": 9.0, "cpu_s": 9.0, "frames": 100, "bursts": [[0.01], [0.01]]},
    ]
    assert run.tracing_overhead_pct(records) == pytest.approx(10.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeTracer:
    def __init__(self):
        self.installs = self.uninstalls = 0

    def install(self):
        self.installs += 1

    def uninstall(self):
        self.uninstalls += 1


def _ops(clock, fail_every=None):
    calls = {"n": 0}

    def make(cost):
        def run(out):
            calls["n"] += 1
            clock.now += cost
            if fail_every and calls["n"] % fail_every == 0:
                raise RuntimeError("call failed")
            return {"out": str(out)}

        return run

    return [Op("a", 100, make(1.0)), Op("b", 100, make(0.5))]


def _calibrate(busy_cpu_s):
    return [0.02]


def test_runs_whole_rounds_until_time_is_up(tmp_path):
    clock = FakeClock()
    records = stats.run_rounds(_ops(clock), 4.0, tmp_path, clock=clock, cpu_clock=clock, calibrate=_calibrate)
    # rounds take 1.5 s; the third round starts at 3.0 s and is finished
    assert [r["op"] for r in records] == ["a", "b"] * 3
    assert [r["round"] for r in records] == [0, 0, 1, 1, 2, 2]
    assert [r["seconds"] for r in records] == [1.0, 0.5] * 3
    assert [r["cpu_s"] for r in records] == [1.0, 0.5] * 3
    assert [r["bursts"] for r in records] == [[[0.02], [0.02]]] * 6
    assert stats.failed_count(records) == 0


def test_a_call_keeps_the_kernel_bursts_around_it_and_those_it_ran(tmp_path):
    clock = FakeClock()
    op = Op("train", 100, lambda out: {"bursts": [[0.01], [0.03]]})
    records = stats.run_rounds([op, op], 0.0, tmp_path, clock=clock, cpu_clock=clock, calibrate=_calibrate)
    assert records[0]["bursts"] == [[0.02], [0.01], [0.03], [0.02]]
    assert "bursts" not in records[0]["out"]
    assert stats.kernel_times(records) == [0.01, 0.03, 0.02] * 2


def test_failed_calls_are_counted_and_the_run_goes_on(tmp_path):
    clock = FakeClock()
    records = stats.run_rounds(_ops(clock, fail_every=2), 10.0, tmp_path, clock=clock, cpu_clock=clock, calibrate=_calibrate)
    assert len(records) % 2 == 0
    assert stats.failed_count(records) == len(records) // 2
    assert all(not r["ok"] and "call failed" in r["error"] for r in records if r["op"] == "b")


def test_failed_share_does_not_depend_on_run_length(tmp_path):
    shares = set()
    for seconds in (1.0, 2.9, 7.3):
        clock = FakeClock()
        records = stats.run_rounds(_ops(clock, fail_every=2), seconds, tmp_path, clock=clock, cpu_clock=clock, calibrate=_calibrate)
        shares.add(stats.failed_count(records) / len(records))
    assert shares == {0.5}


def test_traced_rounds_alternate_with_untraced_ones(tmp_path):
    clock = FakeClock()
    tracer = FakeTracer()
    records = stats.run_rounds(_ops(clock), 0.0, tmp_path, tracer, clock=clock, cpu_clock=clock, calibrate=_calibrate, min_rounds=2)
    assert [r["traced"] for r in records] == [False, False, True, True]
    assert tracer.installs == tracer.uninstalls == 1
