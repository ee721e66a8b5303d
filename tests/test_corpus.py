"""Corpus construction tests: pads, SNR mixing, labeling, synthesis, I/O."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlnetvad.corpus import (
    NOISE_KINDS,
    LabeledUtterance,
    ManifestEntry,
    MixSpec,
    label_frames,
    load_manifest_utterances,
    _fast_fft_len,
    mix_noise,
    noise_surrogate,
    pad_silence,
    read_manifest,
    read_mask,
    split_train_dev,
    synth_corpus,
    synth_raw_corpus,
    write_corpus_dir,
    write_manifest,
    write_mask,
)
from mlnetvad.errors import ConfigError, CorpusError
from mlnetvad.frontend import FrontendConfig, Waveform, featurize, num_frames

SR = 16000
CFG = FrontendConfig()


def measured_snr_db(clean: np.ndarray, noise: np.ndarray, mask=None) -> float:
    if mask is not None:
        clean, noise = clean[mask > 0], noise[mask > 0]
    return 10.0 * math.log10(np.mean(clean**2) / np.mean(noise**2))


class TestPadSilence:
    def test_one_second_speech_becomes_five(self):
        w = Waveform(0.3 * np.ones(SR))
        padded, mask = pad_silence(w, MixSpec())
        assert len(padded) == 5 * SR
        assert mask.sum() == SR
        np.testing.assert_array_equal(padded.samples[:2 * SR], 0.0)

    def test_zero_pad_is_identity(self):
        w = Waveform(0.3 * np.ones(100))
        padded, mask = pad_silence(w, MixSpec(silence_pad_s=0.0))
        np.testing.assert_array_equal(padded.samples, w.samples)
        assert mask.all()

    def test_first_speech_sample_index(self):
        w = Waveform(0.3 * np.ones(SR // 2))
        _, mask = pad_silence(w, MixSpec())
        assert int(np.flatnonzero(mask)[0]) == 2 * SR

    def test_middle_preserved_bit_exact(self):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.5, 0.5, 1000))
        padded, _ = pad_silence(w, MixSpec())
        np.testing.assert_array_equal(padded.samples[2 * SR : 2 * SR + 1000], w.samples)

    def test_mask_inherited(self):
        w = Waveform(0.3 * np.ones(10))
        inner = np.array([0, 1] * 5, dtype=np.int8)
        _, mask = pad_silence(w, MixSpec(silence_pad_s=0.001), inner)
        np.testing.assert_array_equal(mask[16:26], inner)


class TestMixNoise:
    def test_gain_for_zero_db(self):
        # clean power 0.01, noise power 0.04, 0 dB target -> gain 0.5
        clean = Waveform(np.full(1000, 0.1))
        noise = Waveform(np.full(1000, 0.2))
        res = mix_noise(clean, noise, 0.0)
        assert abs(res.gain - 0.5) < 1e-12

    def test_identical_signals_at_zero_db_gain_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.3, 0.3, 500)
        res = mix_noise(Waveform(x), Waveform(x.copy()), 0.0)
        assert abs(res.gain - 1.0) < 1e-12

    def test_snr_100db_measured(self):
        rng = np.random.default_rng(2)
        clean = Waveform(rng.uniform(-0.4, 0.4, 4000))
        noise = Waveform(rng.standard_normal(4000) * 0.1)
        res = mix_noise(clean, noise, 100.0)
        snr = measured_snr_db(res.clean_scaled, res.noise_scaled)
        assert abs(snr - 100.0) < 0.1

    def test_zero_power_clean_rejected(self):
        with pytest.raises(CorpusError, match="zero power"):
            mix_noise(Waveform(np.zeros(100)), Waveform(np.ones(100)), 0.0)

    def test_zero_power_noise_rejected(self):
        with pytest.raises(CorpusError, match="zero power"):
            mix_noise(Waveform(np.ones(100)), Waveform(np.zeros(100)), 0.0)

    def test_short_noise_is_tiled(self):
        clean = Waveform(0.1 * np.ones(1000))
        noise = Waveform(0.1 * np.ones(300))
        res = mix_noise(clean, noise, 10.0)
        assert len(res.mixed) == 1000

    def test_clipping_rescales_but_keeps_snr(self):
        rng = np.random.default_rng(3)
        clean = Waveform(0.95 * np.sin(2 * np.pi * 100 * np.arange(2000) / SR))
        noise = Waveform(rng.standard_normal(2000))
        res = mix_noise(clean, noise, -5.0)
        assert np.max(np.abs(res.mixed.samples)) <= 0.99 + 1e-9
        assert res.rescale < 1.0
        snr = measured_snr_db(res.clean_scaled, res.noise_scaled)
        assert abs(snr - (-5.0)) < 0.1

    def test_snr_over_speech_region_only(self):
        mask = np.zeros(3000, dtype=np.int8)
        mask[1000:2000] = 1
        clean_samples = np.zeros(3000)
        clean_samples[1000:2000] = 0.1
        clean = Waveform(clean_samples)
        noise = Waveform(np.full(3000, 0.2))
        res = mix_noise(clean, noise, 0.0, mask)
        assert abs(res.gain - 0.5) < 1e-12

    def test_random_mixes_hit_target(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(500, 3000))
            clean = Waveform(rng.uniform(-0.3, 0.3, n))
            noise = Waveform(rng.standard_normal(n) * rng.uniform(0.05, 0.5))
            target = float(rng.uniform(-5, 20))
            res = mix_noise(clean, noise, target)
            assert abs(measured_snr_db(res.clean_scaled, res.noise_scaled) - target) < 0.1


class TestLabelFrames:
    def test_all_ones(self):
        labels = label_frames(np.ones(SR, dtype=np.int8), CFG, SR)
        assert labels.shape == (98,)
        assert labels.all()

    def test_all_zeros(self):
        labels = label_frames(np.zeros(SR, dtype=np.int8), CFG, SR)
        assert not labels.any()

    def test_exact_half_is_zero(self):
        # 200 of 400 samples speech: not strictly more than half
        mask = np.zeros(400, dtype=np.int8)
        mask[:200] = 1
        assert label_frames(mask, CFG, SR)[0] == 0
        mask[200] = 1
        assert label_frames(mask, CFG, SR)[0] == 1

    @pytest.mark.parametrize("field", ["frame_len_ms", "hop_ms"])
    def test_frame_or_hop_shorter_than_one_sample_rejected(self, field):
        cfg = FrontendConfig(**{field: 0.01})
        with pytest.raises(ConfigError, match="at least one sample"):
            label_frames(np.ones(SR, dtype=np.int8), cfg, SR)

    @pytest.mark.parametrize("n", [0, 399, 400, 401, 559, 560, 561, 4321, SR, 3 * SR + 97])
    def test_matches_per_frame_loop(self, n):
        rng = np.random.default_rng(n)
        for p_speech in (0.1, 0.5, 0.9):
            mask = (rng.random(n) < p_speech).astype(np.int8)
            expected = np.zeros(num_frames(n, 400, 160), dtype=np.int8)
            for i in range(expected.size):
                expected[i] = 1 if mask[i * 160 : i * 160 + 400].sum() * 2 > 400 else 0
            labels = label_frames(mask, CFG, SR)
            assert labels.dtype == np.int8
            np.testing.assert_array_equal(labels, expected)

    @given(st.integers(0, 3 * SR))
    def test_length_matches_featurize(self, n):
        mask = np.ones(n, dtype=np.int8)
        labels = label_frames(mask, CFG, SR)
        feats = featurize(Waveform(np.zeros(n)), CFG)
        assert labels.shape[0] == len(feats)


class TestSynthCorpus:
    def test_deterministic(self):
        a = synth_raw_corpus(4, MixSpec(), seed=7)
        b = synth_raw_corpus(4, MixSpec(), seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.waveform.samples, y.waveform.samples)
            np.testing.assert_array_equal(x.speech_mask, y.speech_mask)
            assert x.snr_db == y.snr_db

    def test_mean_snr_near_midpoint(self):
        raws = synth_raw_corpus(100, MixSpec(), seed=11)
        snrs = [r.snr_db for r in raws]
        assert all(-5.0 <= s <= 20.0 for s in snrs)
        assert abs(np.mean(snrs) - 7.5) < 1.0

    def test_both_classes_in_every_utterance(self):
        for utt in synth_corpus(5, MixSpec(), seed=3):
            assert utt.labels.any() and not utt.labels.all()

    def test_labels_match_feature_length(self):
        for utt in synth_corpus(3, MixSpec(), seed=5):
            assert utt.labels.shape == (len(utt.features),)

    def test_mismatched_labels_rejected(self):
        utt = synth_corpus(1, MixSpec(), seed=1)[0]
        with pytest.raises(CorpusError):
            LabeledUtterance(utt.features, utt.labels[:-1], "bad")


def is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def exact_length_noise(rng: np.random.Generator, sample_rate: int, n: int, kind: str) -> np.ndarray:
    """The noise formula before 5-smooth FFT lengths: shaped at exactly n samples."""
    base = rng.standard_normal(n)
    if kind == "white":
        out = base
    else:
        spectrum = np.fft.rfft(base)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        if kind == "pink":
            scale = np.ones_like(freqs)
            nonzero = freqs > 0
            scale[nonzero] = 1.0 / np.sqrt(freqs[nonzero] / freqs[nonzero][0])
            out = np.fft.irfft(spectrum * scale, n=n)
        else:
            band = ((freqs >= 150.0) & (freqs <= 3500.0)).astype(float)
            t = np.arange(n) / sample_rate
            env = 1.0 + 0.5 * np.sin(
                2.0 * np.pi * rng.uniform(1.0, 4.0) * t + rng.uniform(0, 2 * np.pi)
            )
            out = np.fft.irfft(spectrum * band, n=n) * env
    rms = float(np.sqrt(np.mean(out**2)))
    return 0.1 * out / rms


# a prime, a length with large prime factors (7 * 31 * 383) and 2^4 * 3^2 * 5^4
NOISE_LENGTHS = (90001, 83111, 90000)


class TestNoiseSurrogate:
    def test_fast_fft_len_matches_brute_force(self):
        expected, nxt = {}, None
        for n in range(6000, 0, -1):
            if is_5_smooth(n):
                nxt = n
            expected[n] = nxt
        assert [_fast_fft_len(n) for n in range(1, 5001)] == [expected[n] for n in range(1, 5001)]

    @given(st.integers(5001, 10**12))
    def test_fast_fft_len_is_the_next_5_smooth_number(self, n):
        exponents = range(n.bit_length() + 1)
        smooth = [2**a * 3**b * 5**c for a in exponents for b in exponents for c in exponents]
        m = _fast_fft_len(n)
        assert m >= n and is_5_smooth(m)
        assert m == min(x for x in smooth if x >= n)

    @pytest.mark.parametrize("n", NOISE_LENGTHS)
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_length_rms_and_finite(self, kind, n):
        out = noise_surrogate(np.random.default_rng(n), SR, n, kind)
        assert out.shape == (n,)
        assert np.isfinite(out).all()
        assert abs(float(np.sqrt(np.mean(out**2))) - 0.1) < 1e-12

    # at 16 kHz no bin of a length-m FFT lies in babble's 150-3500 Hz band
    # for m <= 4; at 48 kHz none does for m = 12
    @pytest.mark.parametrize(
        "kind, n, sr",
        [(kind, n, SR) for kind in NOISE_KINDS for n in range(7)] + [("babble", 12, 48000)],
    )
    def test_tiny_lengths_are_finite_or_rejected(self, kind, n, sr):
        if n < 1 or (kind == "babble" and (n <= 4 or sr == 48000)):
            with pytest.raises(CorpusError, match=rf"{kind} noise of n={n} samples at {sr} Hz"):
                noise_surrogate(np.random.default_rng(n), sr, n, kind)
            return
        out = noise_surrogate(np.random.default_rng(n), sr, n, kind)
        assert out.shape == (n,)
        assert np.isfinite(out).all()
        assert abs(float(np.sqrt(np.mean(out**2))) - 0.1) < 1e-12

    @pytest.mark.parametrize("n", NOISE_LENGTHS)
    def test_babble_keeps_its_band(self, n):
        out = noise_surrogate(np.random.default_rng(n), SR, n, "babble")
        power = np.abs(np.fft.rfft(out)) ** 2
        freqs = np.fft.rfftfreq(n, d=1.0 / SR)
        in_band = (freqs >= 150.0) & (freqs <= 3500.0)
        assert power[in_band].sum() >= 0.999 * power.sum()

    @pytest.mark.parametrize("n", [2**10 * 3**2 * 5, 90000])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_5_smooth_length_is_the_exact_length_formula(self, kind, n):
        np.testing.assert_array_equal(
            noise_surrogate(np.random.default_rng(3), SR, n, kind),
            exact_length_noise(np.random.default_rng(3), SR, n, kind),
        )

    @pytest.mark.parametrize("n", NOISE_LENGTHS)
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_draws_n_normals_and_babble_two_uniforms(self, kind, n):
        used = np.random.default_rng(5)
        noise_surrogate(used, SR, n, kind)
        expected = np.random.default_rng(5)
        expected.standard_normal(n)
        if kind == "babble":
            expected.uniform(size=2)
        np.testing.assert_array_equal(used.standard_normal(4), expected.standard_normal(4))

    def test_corpus_synthesis_runs_only_5_smooth_transforms(self, monkeypatch):
        lengths = []

        def guard(transform, default_len):
            def run(a, n=None, *args, **kwargs):
                lengths.append(default_len(np.shape(a)[-1]) if n is None else n)
                return transform(a, n, *args, **kwargs)
            return run

        monkeypatch.setattr(np.fft, "rfft", guard(np.fft.rfft, lambda size: size))
        monkeypatch.setattr(np.fft, "irfft", guard(np.fft.irfft, lambda size: 2 * (size - 1)))
        raws = synth_raw_corpus(20, MixSpec(), seed=4)
        shaped = [len(r.waveform) for r in raws if r.noise_kind != "white"]
        assert not all(is_5_smooth(n) for n in shaped)
        assert len(lengths) == 2 * len(shaped)
        assert all(is_5_smooth(m) for m in lengths), lengths


class TestSplit:
    def test_partition_and_determinism(self):
        items = list(range(40))
        train1, dev1 = split_train_dev(items, 0.05, seed=9)
        train2, dev2 = split_train_dev(items, 0.05, seed=9)
        assert train1 == train2 and dev1 == dev2
        assert sorted(train1 + dev1) == items
        assert len(dev1) == 2

    def test_dev_gets_at_least_one(self):
        train, dev = split_train_dev([1, 2, 3], 0.05, seed=0)
        assert len(dev) == 1 and len(train) == 2


class TestCorpusIO:
    def test_mask_rle_round_trip(self, tmp_path, rng):
        for _ in range(5):
            mask = (rng.random(int(rng.integers(1, 500))) > 0.5).astype(np.int8)
            path = tmp_path / "m.mask"
            write_mask(path, mask)
            np.testing.assert_array_equal(read_mask(path), mask)

    def test_manifest_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("a", "wav/a.wav", "mask/a.mask", "train", 3.25),
            ManifestEntry("b", "wav/b.wav", "mask/b.mask", "dev", -1.5),
        ]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_corpus_dir_round_trip(self, tmp_path):
        raws = synth_raw_corpus(3, MixSpec(silence_pad_s=0.2), seed=2)
        manifest = write_corpus_dir(tmp_path, raws, dev_fraction=0.34, split_seed=1)
        utts = load_manifest_utterances(manifest)
        assert len(utts) == 3
        direct = [
            featurize(r.waveform, CFG, source_id=r.source_id) for r in raws
        ]
        # WAV quantization perturbs features, but frame geometry and
        # labels survive the disk round trip exactly.
        for utt, feats, raw in zip(utts, direct, raws):
            assert len(utt.features) == len(feats)
            np.testing.assert_array_equal(
                utt.labels, label_frames(raw.speech_mask, CFG, SR)
            )

    def test_split_tags_written(self, tmp_path):
        raws = synth_raw_corpus(4, MixSpec(silence_pad_s=0.1), seed=2)
        manifest = write_corpus_dir(tmp_path, raws, dev_fraction=0.25, split_seed=1)
        splits = [e.split for e in read_manifest(manifest)]
        assert splits.count("dev") == 1 and splits.count("train") == 3
