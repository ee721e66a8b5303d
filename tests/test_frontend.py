"""Frontend tests: framing arithmetic, log-mel contracts, WAV round-trips."""

import math
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import frame_signal, logmel
from mlnetvad import frontend
from mlnetvad.errors import ConfigError, FormatError, ShapeMismatch
from mlnetvad.frontend import (
    FEATURE_BLOCK,
    FrontendConfig,
    Waveform,
    featurize,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    num_frames,
    preemphasize,
)
from mlnetvad.wavio import read_wav, write_wav

SR = 16000
CFG = FrontendConfig()


def tone(freq: float, seconds: float, sr: int = SR, amp: float = 0.5) -> Waveform:
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sample_rate=sr)


class TestFraming:
    def test_exactly_one_frame(self):
        w = Waveform(np.ones(400) * 0.1)
        assert frame_signal(w, CFG).shape == (1, 400)

    def test_two_frames(self):
        w = Waveform(np.ones(640) * 0.1)
        assert frame_signal(w, CFG).shape[0] == 2

    def test_one_second_gives_98_frames(self):
        expected = 1 + (16000 - 400) // 160
        assert expected == 98
        assert frame_signal(tone(440, 1.0), CFG).shape[0] == 98

    def test_shorter_than_frame_is_empty(self):
        assert frame_signal(Waveform(np.ones(399) * 0.1), CFG).shape[0] == 0

    def test_preemphasis_applied(self):
        x = np.linspace(-0.5, 0.5, 400)
        frames = frame_signal(Waveform(x), CFG)
        assert frames[0, 0] == x[0]
        np.testing.assert_allclose(frames[0, 1:], x[1:] - 0.97 * x[:-1], atol=1e-12)

    @pytest.mark.parametrize("coeff", [0.97, 0.5, 0.123, 0.999])
    def test_preemphasize_is_the_formula_exactly(self, coeff):
        # the in-place (-c * x[n-1]) + x[n] is bit-identical to x[n] - c * x[n-1]
        rng = np.random.default_rng(int(coeff * 1000))
        for n in (1, 2, 3, 401, 48000):
            x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-4, 0)
            y = preemphasize(x, coeff)
            np.testing.assert_array_equal(y, np.concatenate([x[:1], x[1:] - coeff * x[:-1]]))

    @given(st.integers(0, 10 * SR))
    def test_frame_count_formula_randomized(self, n):
        w = Waveform(np.zeros(n))
        assert frame_signal(w, CFG).shape[0] == num_frames(n, 400, 160)


class TestLogMel:
    def test_zero_frame_hits_log_floor(self):
        out = logmel(np.zeros(400), CFG)
        np.testing.assert_allclose(out, math.log(1e-10), atol=1e-12)
        assert out.shape == (40,)

    def test_wrong_frame_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            logmel(np.zeros(399), CFG)

    @pytest.mark.parametrize("band", [5, 12, 20, 28, 35])
    def test_sinusoid_at_filter_center_peaks_in_that_band(self, band):
        edges = mel_to_hz(
            np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2), CFG.n_mels + 2)
        )
        fc = edges[band + 1]
        t = np.arange(400) / SR
        frame = 0.5 * np.sin(2 * np.pi * fc * t)
        out = logmel(frame, CFG)
        assert int(np.argmax(out)) == band

    def test_doubling_amplitude_adds_ln4(self):
        rng = np.random.default_rng(5)
        frame = rng.normal(scale=0.1, size=400)
        lo = logmel(frame, CFG)
        hi = logmel(2.0 * frame, CFG)
        above = lo > math.log(1e-10) + 1e-9
        assert above.any()
        np.testing.assert_allclose(hi[above] - lo[above], math.log(4.0), atol=1e-9)

    def test_filterbank_rows_nonnegative(self):
        bank = mel_filterbank(SR, CFG)
        assert (bank >= 0).all()

    def test_each_bin_feeds_at_most_two_filters(self):
        bank = mel_filterbank(SR, CFG)
        assert ((bank > 0).sum(axis=0) <= 2).all()

    def test_filterbank_matches_direct_triangle_summation(self):
        # Independent oracle: per-band energy by explicit per-bin triangle
        # weights on the power spectrum of a random frame.
        rng = np.random.default_rng(9)
        frame = rng.normal(scale=0.2, size=400)
        windowed = frame * np.hanning(400)
        power = np.abs(np.fft.rfft(windowed, n=512)) ** 2
        edges = mel_to_hz(
            np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2), CFG.n_mels + 2)
        )
        expected = np.zeros(40)
        for m in range(40):
            left, center, right = edges[m], edges[m + 1], edges[m + 2]
            for k in range(257):
                f = k * SR / 512
                if left < f < right:
                    w = (f - left) / (center - left) if f <= center else (right - f) / (right - center)
                    expected[m] += w * power[k]
        expected = np.log(np.maximum(expected, 1e-10))
        np.testing.assert_allclose(logmel(frame, CFG), expected, atol=1e-9)


class TestFeaturize:
    def test_silence_second_is_all_floor(self):
        feats = featurize(Waveform(np.zeros(SR)), CFG)
        assert feats.frames.shape == (98, 40)
        np.testing.assert_allclose(feats.frames, math.log(1e-10), atol=1e-12)

    def test_empty_waveform_gives_empty_sequence(self):
        feats = featurize(Waveform(np.array([])), CFG)
        assert len(feats) == 0
        assert feats.frames.shape == (0, 40)

    def test_two_second_tone(self):
        feats = featurize(tone(440, 2.0), CFG)
        assert feats.frames.shape == (198, 40)
        assert np.isfinite(feats.frames).all()

    def test_frame_times_follow_hop(self):
        feats = featurize(tone(200, 0.5), CFG)
        np.testing.assert_allclose(np.diff(feats.frame_times), 0.010, atol=1e-12)
        assert feats.frame_times[0] == 0.0

    def test_hop_shift_moves_features_by_one_frame(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.uniform(-0.5, 0.5, size=SR))
        shifted = Waveform(w.samples[160:])
        a = featurize(w, CFG).frames
        b = featurize(shifted, CFG).frames
        # frame 0 of the shifted signal differs through the pre-emphasis
        # boundary sample; every later frame must line up.
        np.testing.assert_allclose(b[1:], a[2 : 1 + b.shape[0]], atol=1e-9)

    def test_deterministic_bit_identical(self):
        w = tone(333, 0.7)
        a = featurize(w, CFG).frames
        b = featurize(w, CFG).frames
        np.testing.assert_array_equal(a, b)

    def test_normalize_flag(self):
        # a pure tone leaves some bands constant (std ~ 0, guarded divide),
        # so only near-zero mean is asserted, not unit variance
        cfg = FrontendConfig(normalize=True)
        feats = featurize(tone(440, 1.0), cfg)
        np.testing.assert_allclose(feats.frames.mean(axis=0), 0.0, atol=1e-5)


def preemphasized_frames(x: np.ndarray, t: int) -> np.ndarray:
    """The pre-emphasized frames of ``x`` sliced one by one."""
    y = np.concatenate([x[:1], x[1:] - 0.97 * x[:-1]])
    return np.stack([y[i * 160 : i * 160 + 400] for i in range(t)])


class TestBlockedFrontend:
    """``featurize`` works in blocks of ``FEATURE_BLOCK`` frames; it must
    agree with the single-frame ``logmel`` on every frame, across block
    edges."""

    def test_frame_signal_is_explicit_slicing(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.5, 0.5, 400 + 40 * 160 + 77)
        frames = frame_signal(Waveform(x), CFG)
        np.testing.assert_array_equal(frames, preemphasized_frames(x, 41))
        # a strided view of one pre-emphasized signal, not a copy per frame
        assert frames.strides == (160 * 8, 8)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "t", [1, FEATURE_BLOCK - 1, FEATURE_BLOCK, FEATURE_BLOCK + 1, 2 * FEATURE_BLOCK + 7]
    )
    def test_matches_logmel_of_each_frame(self, t, normalize):
        rng = np.random.default_rng(t)
        x = rng.uniform(-0.5, 0.5, 400 + (t - 1) * 160 + int(rng.integers(0, 160)))
        expected = np.stack([logmel(f, CFG) for f in preemphasized_frames(x, t)])
        if normalize:
            std = np.maximum(expected.std(axis=0), 1e-8)
            expected = (expected - expected.mean(axis=0)) / std
        feats = featurize(Waveform(x), FrontendConfig(normalize=normalize))
        assert feats.frames.shape == (t, 40)
        np.testing.assert_allclose(feats.frames, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg", [CFG, FrontendConfig(preemphasis=0.0), FrontendConfig(hop_ms=30.0)])
    @pytest.mark.parametrize("t", [3 * FEATURE_BLOCK, 4 * FEATURE_BLOCK + 5])
    def test_blocks_preemphasize_as_the_whole_signal_bit_for_bit(self, cfg, t):
        # each block pre-emphasizes its own samples, with the one before
        # them as its halo; the rows equal those of frame_signal's one copy
        rng = np.random.default_rng(t)
        hop, flen = cfg.hop_samples(SR), cfg.frame_len_samples(SR)
        w = Waveform(rng.uniform(-0.5, 0.5, flen + (t - 1) * hop + int(rng.integers(0, hop))))
        frames = frame_signal(w, cfg)
        tables = frontend._analysis_tables(SR, cfg)
        expected = np.concatenate([
            frontend._logmel_rows(frames[lo : lo + FEATURE_BLOCK], *tables, cfg)
            for lo in range(0, t, FEATURE_BLOCK)
        ])
        assert expected.shape == (t, 40)
        np.testing.assert_array_equal(featurize(w, cfg).frames, expected)


class TestAnalysisTables:
    def test_cached_tables_are_built_once_and_read_only(self):
        bank, window = frontend._analysis_tables(SR, CFG)
        assert frontend._analysis_tables(SR, FrontendConfig())[0] is bank
        assert not bank.flags.writeable and not window.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        with pytest.raises(ValueError):
            window[0] = 1.0

    @pytest.mark.parametrize(
        "sr, cfg",
        [
            (SR, CFG),
            (SR, FrontendConfig(normalize=True)),
            (8000, FrontendConfig(frame_len_ms=32.0, n_mels=24, mel_fmin=100.0, mel_fmax=3500.0)),
            (SR, FrontendConfig(fft_size=1024, hop_ms=5.0, preemphasis=0.0)),
        ],
    )
    def test_featurize_and_logmel_equal_an_uncached_build(self, monkeypatch, sr, cfg):
        rng = np.random.default_rng(sr)
        w = Waveform(rng.normal(scale=0.2, size=sr), sr)
        frame = rng.normal(scale=0.2, size=cfg.frame_len_samples(sr))
        featurize(w, cfg)  # the second call of each reads the cache
        cached = featurize(w, cfg).frames, logmel(frame, cfg, sr)
        monkeypatch.setattr(frontend, "_analysis_tables", frontend._analysis_tables.__wrapped__)
        np.testing.assert_array_equal(cached[0], featurize(w, cfg).frames)
        np.testing.assert_array_equal(cached[1], logmel(frame, cfg, sr))


class TestConfigValidation:
    def test_fft_shorter_than_frame_rejected(self):
        with pytest.raises(ConfigError):
            featurize(tone(440, 0.5), FrontendConfig(fft_size=256))

    def test_bad_preemphasis_rejected(self):
        with pytest.raises(ConfigError):
            FrontendConfig(preemphasis=1.0)

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ConfigError):
            Waveform(np.zeros(10), sample_rate=0)

    @pytest.mark.parametrize("field", ["frame_len_ms", "hop_ms", "log_floor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            FrontendConfig(**{field: value})

    @pytest.mark.parametrize(
        "edges, message",
        [
            (dict(mel_fmin=-1.0), "mel_fmin must be >= 0"),
            (dict(mel_fmin=5000.0, mel_fmax=4000.0), "mel_fmax must be above mel_fmin"),
            (dict(mel_fmin=300.0, mel_fmax=300.0), "mel_fmax must be above mel_fmin"),
            (dict(mel_fmax=-100.0), "mel_fmax must be above mel_fmin"),
        ],
    )
    def test_band_edges_out_of_order_rejected(self, edges, message):
        with pytest.raises(ConfigError, match=message):
            FrontendConfig(**edges)

    @pytest.mark.parametrize("sr", [8000, 11025, 16000])
    @pytest.mark.parametrize("n_mels", [40, 80])
    def test_default_edges_leave_no_band_empty(self, sr, n_mels):
        assert mel_filterbank(sr, FrontendConfig(n_mels=n_mels)).any(axis=1).all()

    @pytest.mark.parametrize(
        "edges, empty", [(dict(mel_fmax=20000.0), 9), (dict(mel_fmin=7999.0), 39), (dict(mel_fmin=7000.0, n_mels=80), 17)]
    )
    def test_edges_that_leave_a_band_empty_rejected(self, edges, empty):
        cfg = FrontendConfig(**edges)
        with pytest.raises(ConfigError, match=f"^{empty} of {cfg.n_mels} mel bands between "):
            mel_filterbank(SR, cfg)


class TestWavIO:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        w = Waveform(rng.uniform(-0.9, 0.9, size=2000))
        path = tmp_path / "a.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == SR
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32767)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(SR)
            fh.writeframes(b"\x00\x00" * 64)
        with pytest.raises(FormatError, match="mono"):
            read_wav(path)

    def test_rejects_8bit(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(SR)
            fh.writeframes(b"\x00" * 64)
        with pytest.raises(FormatError, match="16-bit"):
            read_wav(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not RIFF data")
        with pytest.raises(FormatError):
            read_wav(path)
