"""Corpus construction tests: pads, SNR mixing, labeling, synthesis, I/O."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlnetvad.corpus import (
    LabeledUtterance,
    ManifestEntry,
    MixSpec,
    label_frames,
    load_manifest_utterances,
    mix_noise,
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
from mlnetvad.errors import CorpusError
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
