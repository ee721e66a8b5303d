"""CLI tests: subcommand behaviour, exit codes, file formats."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import read_features
from mlnetvad import autodiff as ad
from mlnetvad import cli
from mlnetvad.checkpoint import load_checkpoint, save_checkpoint
from mlnetvad.cli import PREDICT_HEADER, TSV_BLOCK_ROWS, main
from mlnetvad.corpus import (
    ManifestEntry,
    MixSpec,
    load_manifest_utterances,
    pad_silence,
    read_manifest,
    write_manifest,
    write_mask,
)
from mlnetvad.frontend import FrontendConfig, Waveform, featurize
from mlnetvad.metrics import evaluate
from mlnetvad.model import VARIANTS, ModelConfig, init_params, mlnet_forward
from mlnetvad.training import TrainConfig
from mlnetvad.wavio import read_wav, write_wav

SMALL_MODEL = [
    "--receptive-fields", "1,3",
    "--gated-dim", "16",
    "--attn-hidden", "16",
    "--lstm-hidden", "16",
    "--fc-hidden", "16",
]


def make_tone_corpus(tmp_path, n=16, seed=8):
    """Hand-written manifest of tone-between-silence recordings."""
    (tmp_path / "wav").mkdir()
    (tmp_path / "mask").mkdir()
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        dur = rng.uniform(0.3, 0.6)
        t = np.arange(int(dur * 16000)) / 16000
        tone = Waveform(0.5 * np.sin(2 * np.pi * rng.uniform(200, 1200) * t), 16000)
        padded, mask = pad_silence(tone, MixSpec(silence_pad_s=0.3))
        write_wav(tmp_path / f"wav/t{i}.wav", padded)
        write_mask(tmp_path / f"mask/t{i}.mask", mask)
        split = "dev" if i >= n - 3 else "train"
        entries.append(ManifestEntry(f"t{i}", f"wav/t{i}.wav", f"mask/t{i}.mask", split, 99.0))
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, entries)
    return manifest


def make_corpus(tmp_path, n=8, seed=3, pad="0.3", extra=()):
    out = tmp_path / "corpus"
    code = main(
        ["mix", "--out", str(out), "--n", str(n), "--seed", str(seed),
         "--pad-s", pad, "--dev-fraction", "0.25", *extra]
    )
    assert code == 0
    return out / "manifest.tsv"


def train_small(tmp_path, manifest, run="run", epochs="2", extra=()):
    out = tmp_path / run
    code = main(
        ["train", "--manifest", str(manifest), "--out-dir", str(out),
         "--epochs", epochs, "--batch-size", "4", "--lr", "0.01",
         "--seed", "1", "--normalize", *SMALL_MODEL, *extra]
    )
    assert code == 0
    return out


class TestMix:
    def test_deterministic_manifests(self, tmp_path, capsys):
        m1 = make_corpus(tmp_path / "a", n=5, seed=7)
        m2 = make_corpus(tmp_path / "b", n=5, seed=7)
        assert m1.read_text() == m2.read_text()
        wav1 = sorted((m1.parent / "wav").iterdir())
        wav2 = sorted((m2.parent / "wav").iterdir())
        for p1, p2 in zip(wav1, wav2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_snrs_within_bounds(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=12, extra=["--snr-min", "-5", "--snr-max", "20"])
        entries = read_manifest(manifest)
        assert all(-5.0 <= e.snr_db <= 20.0 for e in entries)

    def test_n_zero_is_usage_error(self, tmp_path, capsys):
        assert main(["mix", "--out", str(tmp_path / "c"), "--n", "0"]) == 2

    def test_nonempty_dir_needs_force(self, tmp_path, capsys):
        out = tmp_path / "c"
        out.mkdir()
        (out / "junk").write_text("x")
        args = ["mix", "--out", str(out), "--n", "1", "--pad-s", "0.1"]
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_first_line_reports_real_time_factor(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4, extra=["--n-eval", "1"])
        first = capsys.readouterr().out.splitlines(keepends=True)[0]
        m = re.fullmatch(
            r"wrote (\d+) utterances to (.+): (\d+\.\d{2}) s of audio in (\d+\.\d{3}) s wall, "
            r"real-time factor (\d+\.\d{4})\n",
            first,
        )
        assert m is not None, first
        assert int(m[1]) == 5 and m[2] == str(manifest.parent)
        wavs = [read_wav(manifest.parent / e.wav_path) for e in read_manifest(manifest)]
        audio_s, wall_s, rtf = float(m[3]), float(m[4]), float(m[5])
        assert audio_s == round(sum(w.duration_s for w in wavs), 2)
        assert wall_s > 0
        assert rtf == pytest.approx(wall_s / audio_s, abs=1e-3)

    def test_eval_split_tagged(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4, extra=["--n-eval", "2"])
        splits = [e.split for e in read_manifest(manifest)]
        assert splits.count("eval") == 2 and splits.count("dev") == 1


class TestFeaturize:
    def test_dump_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.5, 0.5, 16000))
        wav = tmp_path / "x.wav"
        write_wav(wav, w)
        out = tmp_path / "x.mlfb"
        assert main(["featurize", "--wav", str(wav), "--out", str(out)]) == 0
        dumped = read_features(out)
        assert dumped.shape == (98, 40)
        direct = featurize(Waveform(np.round(np.clip(w.samples, -1, 1) * 32767) / 32767), FrontendConfig())
        np.testing.assert_allclose(dumped, direct.frames.astype(np.float32), rtol=1e-5)

    @pytest.mark.parametrize("flag", ["--frame-ms", "--hop-ms"])
    def test_frame_or_hop_shorter_than_one_sample_is_exit_2(self, tmp_path, capsys, flag):
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(16000)))
        out = tmp_path / "x.mlfb"
        assert main(["featurize", "--wav", str(wav), "--out", str(out), flag, "0.01"]) == 2
        assert "at least one sample" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mel-fmax", "20000"], "9 of 40 mel bands between 0.0 and 20000.0 Hz cover no FFT bin"),
            (["--mel-fmin", "7999"], "39 of 40 mel bands between 7999.0 and 8000.0 Hz cover no FFT bin"),
        ],
    )
    def test_band_edges_that_leave_a_band_empty_are_exit_2(self, tmp_path, capsys, flags, message):
        # at 16 kHz: edges above Nyquist, or bands narrower than the bin spacing
        wav = tmp_path / "x.wav"
        write_wav(wav, Waveform(np.zeros(16000)))
        out = tmp_path / "x.mlfb"
        assert main(["featurize", "--wav", str(wav), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} at 16000 Hz") and err.count("\n") == 1
        assert not out.exists()

    def test_unreadable_wav_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"nope")
        assert main(["featurize", "--wav", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestTrain:
    def test_smoke_two_variants_and_determinism(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=8)
        d1 = train_small(tmp_path, manifest, run="r1", extra=["--variant", "full_attention"])
        d2 = train_small(tmp_path, manifest, run="r2", extra=["--variant", "bilstm_base"])
        d3 = train_small(tmp_path, manifest, run="r3", extra=["--variant", "full_attention"])
        assert (d1 / "best.mlnt").exists() and (d2 / "best.mlnt").exists()
        assert (d1 / "epoch_2.mlnt").read_bytes() == (d3 / "epoch_2.mlnt").read_bytes()
        assert (d1 / "best.mlnt").read_bytes() == (d3 / "best.mlnt").read_bytes()

    def test_defaults_echoed(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4)
        train_small(tmp_path, manifest, epochs="1")
        capsys.readouterr()
        code = main(
            ["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "d"),
             "--epochs", "1", *SMALL_MODEL]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lr=0.001" in out and "batch_size=32" in out

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        code = main(
            ["train", "--manifest", str(tmp_path / "none.tsv"), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_log_lines_are_tsv(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4)
        out = train_small(tmp_path, manifest, epochs="1")
        body = capsys.readouterr().out
        data_lines = [
            ln for ln in body.splitlines() if ln and ln[0].isdigit()
        ]
        assert len(data_lines) == 1
        assert len(data_lines[0].split("\t")) == 4


class TestEval:
    def test_report_files_and_schema(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=8)
        run = train_small(tmp_path, manifest)
        code = main(
            ["eval", "--manifest", str(manifest), "--checkpoint", str(run / "best.mlnt"),
             "--normalize", "--report-out", str(tmp_path / "rep")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert set(doc) == {"theta", "macro", "micro", "recordings"}
        assert 0.0 <= doc["macro"]["f1"] <= 1.0
        assert 0.0 <= doc["macro"]["dcf"] <= 1.0
        for rec in doc["recordings"]:
            assert set(rec) == {"id", "f1", "dcf", "tp", "fp", "fn", "tn", "degenerate"}
        assert (tmp_path / "rep.tsv").read_text().startswith("#eval-report\tv1")

    def test_theta_zero_predicts_all_speech(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=8)
        run = train_small(tmp_path, manifest)
        code = main(
            ["eval", "--manifest", str(manifest), "--checkpoint", str(run / "best.mlnt"),
             "--normalize", "--theta", "0.0", "--report-out", str(tmp_path / "rep0")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "rep0.json").read_text())
        # every frame predicted speech: no misses, all-negative frames false alarms
        for rec in doc["recordings"]:
            assert rec["fn"] == 0
            assert rec["tn"] == 0
        assert abs(doc["macro"]["dcf"] - 0.25) < 1e-12

    def test_last_line_reports_real_time_factor(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=8)
        ckpt = tmp_path / "model.mlnt"
        save_checkpoint(ckpt, init_params(ModelConfig(
            receptive_fields=(1, 3), gated_dim=8, attn_hidden=8, lstm_hidden=8, fc_hidden=8
        ), seed=0))
        prefix = tmp_path / "rep"
        capsys.readouterr()
        args = ["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--normalize"]
        assert main(args + ["--report-out", str(prefix)]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        table = prefix.with_suffix(".tsv").read_text()
        assert "".join(lines[:-2]) == table
        assert lines[-2] == f"reports: {prefix}.json {prefix}.tsv\n"
        m = re.fullmatch(
            r"scored (\d+) frames: (\d+\.\d{2}) s of audio in (\d+\.\d{3}) s wall, "
            r"real-time factor (\d+\.\d{4})\n",
            lines[-1],
        )
        assert m is not None, lines[-1]
        dev = [e for e in read_manifest(manifest) if e.split == "dev"]
        wavs = [read_wav(manifest.parent / e.wav_path) for e in dev]
        frontend = FrontendConfig(normalize=True)
        assert int(m[1]) == sum(len(featurize(w, frontend)) for w in wavs)
        audio_s, wall_s, rtf = float(m[2]), float(m[3]), float(m[4])
        assert audio_s == round(sum(w.duration_s for w in wavs), 2)
        assert wall_s > 0
        assert rtf == pytest.approx(wall_s / audio_s, abs=1e-3)
        # without report files the speed line follows the table
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith(table) and out[len(table):].startswith("scored ")

    def test_variant_mismatch_exit_2(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4)
        run = train_small(tmp_path, manifest)
        code = main(
            ["eval", "--manifest", str(manifest), "--checkpoint", str(run / "best.mlnt"),
             "--normalize", "--variant", "bilstm_base"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "full_attention" in err and "bilstm_base" in err


class TestPredict:
    def test_one_second_gives_98_rows(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4)
        run = train_small(tmp_path, manifest)
        wav = tmp_path / "in.wav"
        write_wav(wav, Waveform(0.4 * np.sin(2 * np.pi * 220 * np.arange(16000) / 16000)))
        out = tmp_path / "pred.tsv"
        code = main(
            ["predict", "--wav", str(wav), "--checkpoint", str(run / "best.mlnt"),
             "--normalize", "--out", str(out), "--dump-attention"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "#predictions\tv1"
        assert lines[1].split("\t") == ["time_s", "prob", "label", "p0", "p1"]
        rows = lines[2:]
        assert len(rows) == 98
        for row in rows:
            cells = row.split("\t")
            weights = [float(c) for c in cells[3:]]
            assert abs(sum(weights) - 1.0) <= 1e-6
            assert cells[2] in ("0", "1")

    def test_silence_wav_majority_nonspeech(self, tmp_path, capsys):
        # a corpus the smoke budget can actually learn: loud tones between
        # digital-silence pads (see the training tests)
        manifest = make_tone_corpus(tmp_path)
        run = tmp_path / "run"
        code = main(
            ["train", "--manifest", str(manifest), "--out-dir", str(run),
             "--epochs", "5", "--batch-size", "2", "--lr", "0.01", "--seed", "3",
             "--normalize", *SMALL_MODEL]
        )
        assert code == 0

        def speech_fraction(samples, name):
            wav = tmp_path / f"{name}.wav"
            write_wav(wav, Waveform(samples))
            out = tmp_path / f"{name}.tsv"
            assert main(
                ["predict", "--wav", str(wav), "--checkpoint", str(run / "best.mlnt"),
                 "--normalize", "--out", str(out)]
            ) == 0
            rows = out.read_text().splitlines()[2:]
            labels = [int(r.split("\t")[2]) for r in rows]
            return sum(labels) / len(labels)

        assert speech_fraction(np.zeros(16000), "silence") < 0.5
        tone = 0.5 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        assert speech_fraction(tone, "tone") > 0.5

    def test_unreadable_wav_exit_2(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4)
        run = train_small(tmp_path, manifest)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        code = main(["predict", "--wav", str(bad), "--checkpoint", str(run / "best.mlnt")])
        assert code == 2

    def test_dump_attention_needs_attention_variant(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=4)
        run = train_small(tmp_path, manifest, run="base", extra=["--variant", "bilstm_base"])
        wav = tmp_path / "in.wav"
        write_wav(wav, Waveform(np.zeros(16000)))
        code = main(
            ["predict", "--wav", str(wav), "--checkpoint", str(run / "best.mlnt"),
             "--dump-attention"]
        )
        assert code == 2


def per_row_predict_tsv(times, probs, theta, weights=None) -> str:
    """The predict TSV formatted one row at a time with f-strings."""
    header = "time_s\tprob\tlabel"
    if weights is not None:
        header += "".join(f"\tp{i}" for i in range(weights.shape[1]))
    lines = [PREDICT_HEADER, header]
    for t in range(len(times)):
        label = 1 if probs[t] >= theta else 0
        row = f"{times[t]:.3f}\t{probs[t]:.6f}\t{label}"
        if weights is not None:
            row += "".join(f"\t{p:.6f}" for p in weights[t])
        lines.append(row)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="class")
def long_prediction(tmp_path_factory):
    """A trained checkpoint, a WAV of more than two TSV blocks and the
    model's outputs on it, computed without the CLI."""
    tmp_path = tmp_path_factory.mktemp("predict")
    ckpt = train_small(tmp_path, make_corpus(tmp_path, n=4)) / "best.mlnt"
    wav = tmp_path / "long.wav"
    rng = np.random.default_rng(12)
    write_wav(wav, Waveform(rng.uniform(-0.4, 0.4, 400 + (2 * TSV_BLOCK_ROWS + 40) * 160 + 33)))
    feats = featurize(read_wav(wav), FrontendConfig(normalize=True))
    with ad.no_grad():
        out = mlnet_forward(feats, load_checkpoint(ckpt))
    # a theta equal to one of the probabilities: both labels occur and
    # the >= edge is exercised
    theta = float(np.sort(out.probs.data)[len(feats) // 2])
    return ckpt, wav, feats, out, theta


class TestPredictTsv:
    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("dump", [False, True])
    def test_matches_per_row_formatter(self, long_prediction, tmp_path, capsys, dump, to_file):
        ckpt, wav, feats, out, theta = long_prediction
        weights = out.branch_weights.data if dump else None
        expected = per_row_predict_tsv(feats.frame_times, out.probs.data, theta, weights)
        assert {row.split("\t")[2] for row in expected.splitlines()[2:]} == {"0", "1"}
        args = ["predict", "--wav", str(wav), "--checkpoint", str(ckpt), "--normalize",
                "--theta", repr(theta), *(["--dump-attention"] if dump else [])]
        tsv = tmp_path / "pred.tsv"
        assert main(args + (["--out", str(tsv)] if to_file else [])) == 0
        stdout = capsys.readouterr().out
        if to_file:
            assert tsv.read_bytes() == expected.encode("utf-8")
            assert stdout.startswith(f"wrote {len(feats)} frames to {tsv}")
        else:
            # nothing but the TSV goes to standard output
            assert stdout == expected

    def test_out_line_reports_real_time_factor(self, long_prediction, tmp_path, capsys):
        ckpt, wav, feats, _, _ = long_prediction
        tsv = tmp_path / "pred.tsv"
        args = ["predict", "--wav", str(wav), "--checkpoint", str(ckpt), "--normalize",
                "--out", str(tsv)]
        assert main(args) == 0
        line = capsys.readouterr().out
        m = re.fullmatch(
            r"wrote (\d+) frames to (.+): (\d+\.\d{2}) s of audio in (\d+\.\d{3}) s wall, "
            r"real-time factor (\d+\.\d{4})\n",
            line,
        )
        assert m is not None, line
        assert int(m[1]) == len(feats) and m[2] == str(tsv)
        audio_s, wall_s, rtf = float(m[3]), float(m[4]), float(m[5])
        assert audio_s == round(read_wav(wav).duration_s, 2)
        assert wall_s > 0
        assert rtf == pytest.approx(wall_s / audio_s, abs=1e-3)


class TestAblate:
    def test_four_variant_rows(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, n=6)
        code = main(
            ["ablate", "--manifest", str(manifest), "--epochs", "1", "--batch-size", "4",
             "--seed", "2", "--normalize", *SMALL_MODEL]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln for ln in lines if ln.split("\t")[0] in
                ("bilstm_base", "gated_unit", "non_attention", "full_attention")]
        assert len(rows) == 4
        for row in rows:
            cells = row.split("\t")
            assert 0.0 <= float(cells[1]) <= 100.0
            assert 0.0 <= float(cells[2]) <= 100.0

    def _ablate(self, manifest, monkeypatch, capsys):
        """ablate's variant rows, what ``train`` returned for each variant,
        and the utterance lists ablate itself scored."""
        results, scored = [], []
        real_train, real_evaluate = cli.train, cli.evaluate

        def recording_train(*args, **kwargs):
            results.append(real_train(*args, **kwargs))
            return results[-1]

        def recording_evaluate(utts, *args, **kwargs):
            scored.append(utts)
            return real_evaluate(utts, *args, **kwargs)

        monkeypatch.setattr(cli, "train", recording_train)
        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        code = main(
            ["ablate", "--manifest", str(manifest), "--epochs", "2", "--batch-size", "4",
             "--seed", "2", "--normalize", *SMALL_MODEL]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-5] == "variant\tdev_f1\tdev_dcf\teval_f1\teval_dcf"
        rows = [line.split("\t") for line in lines[-4:]]
        assert [row[0] for row in rows] == list(VARIANTS)
        return rows, results, scored

    def test_dev_columns_with_a_dev_split_are_the_best_parameters_scored_on_it(
        self, tmp_path, monkeypatch, capsys
    ):
        manifest = make_corpus(tmp_path, n=6)
        rows, results, scored = self._ablate(manifest, monkeypatch, capsys)
        assert scored == []  # train's dev scores are read, not recomputed
        dev = load_manifest_utterances(manifest, FrontendConfig(normalize=True), split="dev")
        for row, result in zip(rows, results, strict=True):
            report = evaluate(dev, result.best_params)
            assert row[1:3] == [f"{report.macro_f1 * 100:.2f}", f"{report.macro_dcf * 100:.2f}"]

    def test_dev_columns_without_a_dev_split_score_the_held_out_part(self, tmp_path, monkeypatch, capsys):
        manifest = make_corpus(tmp_path, n=8)
        entries = read_manifest(manifest)
        write_manifest(manifest, [ManifestEntry(**{**vars(e), "split": "train"}) for e in entries])
        rows, results, scored = self._ablate(manifest, monkeypatch, capsys)
        assert scored == []
        for row, result in zip(rows, results, strict=True):
            best = result.history[result.best_epoch - 1]
            assert row[1:3] == [f"{best.dev_f1 * 100:.2f}", f"{best.dev_dcf * 100:.2f}"]


class TestConfigFile:
    def test_config_used_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nseed=9\npad_s=0.2\n")
        out1 = tmp_path / "c1"
        assert main(["mix", "--out", str(out1), "--config", str(cfg)]) == 0
        assert len([e for e in read_manifest(out1 / "manifest.tsv")]) == 3
        out2 = tmp_path / "c2"
        assert main(["mix", "--out", str(out2), "--config", str(cfg), "--n", "2"]) == 0
        assert len([e for e in read_manifest(out2 / "manifest.tsv")]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nbogus_key=1\n")
        assert main(["mix", "--out", str(tmp_path / "c"), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["mix", "train"])
    def test_config_not_utf8_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=3\n\xff\n")
        args = {"mix": ["--out", str(tmp_path / "c")],
                "train": ["--manifest", str(tmp_path / "m.tsv"), "--out-dir", str(tmp_path / "run")]}
        assert main([command, *args[command], "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text (") and err.count("\n") == 1


    @pytest.mark.parametrize("command, key", [("mix", "n"), ("train", "epochs")])
    def test_repeated_config_key_exit_2(self, tmp_path, capsys, command, key):
        # a later line must not overwrite an earlier one without a word
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=1\n# a comment\n\n{key} = 2\nseed=4\n")
        args = {"mix": ["--out", str(tmp_path / "c")],
                "train": ["--manifest", str(tmp_path / "m.tsv"), "--out-dir", str(tmp_path / "run")]}
        assert main([command, *args[command], "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:4: key '{key}' repeats line 1\n"
        assert not (tmp_path / "c").exists() and not (tmp_path / "run").exists()

class TestUnreadablePaths:
    """A path that cannot be read (here a directory) is a usage error:
    exit 2 with one ``error:`` line, not a traceback."""

    @pytest.fixture
    def paths(self, tmp_path):
        ckpt = tmp_path / "m.mlnt"
        save_checkpoint(ckpt, init_params(ModelConfig(), seed=0))
        directory = tmp_path / "d"
        directory.mkdir()
        return ckpt, directory

    @pytest.mark.parametrize("what", ["checkpoint", "input"])
    def test_predict_directory_exit_2(self, paths, capsys, what):
        ckpt, d = paths
        args = ["predict", "--wav", str(d), "--checkpoint", str(d if what == "checkpoint" else ckpt)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("what", ["checkpoint", "input"])
    def test_eval_directory_exit_2(self, paths, capsys, what):
        ckpt, d = paths
        args = ["eval", "--manifest", str(d), "--checkpoint", str(d if what == "checkpoint" else ckpt)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")


# every train flag with a non-default value: (flag, value, config, field, parsed value)
TRAIN_FLAGS = [
    ("--frame-ms", "20", FrontendConfig, "frame_len_ms", 20.0),
    ("--hop-ms", "8", FrontendConfig, "hop_ms", 8.0),
    ("--n-mels", "24", FrontendConfig, "n_mels", 24),
    ("--fft-size", "1024", FrontendConfig, "fft_size", 1024),
    ("--preemphasis", "0.9", FrontendConfig, "preemphasis", 0.9),
    ("--log-floor", "1e-8", FrontendConfig, "log_floor", 1e-8),
    ("--mel-fmin", "50", FrontendConfig, "mel_fmin", 50.0),
    ("--mel-fmax", "7000", FrontendConfig, "mel_fmax", 7000.0),
    ("--normalize", None, FrontendConfig, "normalize", True),
    ("--variant", "non_attention", ModelConfig, "variant", "non_attention"),
    ("--receptive-fields", "0,2,4", ModelConfig, "receptive_fields", (0, 2, 4)),
    ("--gated-dim", "8", ModelConfig, "gated_dim", 8),
    ("--attn-hidden", "9", ModelConfig, "attn_hidden", 9),
    ("--lstm-hidden", "10", ModelConfig, "lstm_hidden", 10),
    ("--lstm-layers", "3", ModelConfig, "lstm_layers", 3),
    ("--fc-hidden", "11", ModelConfig, "fc_hidden", 11),
    ("--single-sigmoid", None, ModelConfig, "double_sigmoid", False),
    ("--seed", "5", TrainConfig, "seed", 5),
    ("--lr", "0.01", TrainConfig, "lr", 0.01),
    ("--batch-size", "4", TrainConfig, "batch_size", 4),
    ("--epochs", "3", TrainConfig, "epochs", 3),
    ("--attention-loss-weight", "0.5", TrainConfig, "attention_loss_weight", 0.5),
]


class TestTrainConfigMapping:
    """``mlnetvad train`` builds its three configs from the flags; the model
    and trainer are replaced by probes that record what they receive."""

    def run_train(self, tmp_path, monkeypatch, args):
        seen = {}

        def load(manifest, frontend, split):
            seen.setdefault("frontend", frontend)
            return [SimpleNamespace(utt_id=split)]

        def train(train_utts, train_cfg, model_cfg, **kw):
            seen.update(train=train_cfg, model=model_cfg, theta=kw["theta"])
            return SimpleNamespace(best_epoch=1, history=[SimpleNamespace(dev_f1=0.5)])

        monkeypatch.setattr(cli, "load_manifest_utterances", load)
        monkeypatch.setattr(cli, "train", train)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("")
        base = ["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")]
        assert main(base + args) == 0
        return seen

    def test_no_flags_give_the_dataclass_defaults(self, tmp_path, monkeypatch, capsys):
        seen = self.run_train(tmp_path, monkeypatch, [])
        assert seen["frontend"] == FrontendConfig()
        assert seen["model"] == ModelConfig()
        assert seen["train"] == TrainConfig()
        assert seen["theta"] == 0.5

    def expected(self):
        values = {FrontendConfig: {}, ModelConfig: {"n_mels": 24}, TrainConfig: {}}
        for _, _, cls, field, value in TRAIN_FLAGS:
            values[cls][field] = value
        return {"frontend": FrontendConfig(**values[FrontendConfig]),
                "model": ModelConfig(**values[ModelConfig]),
                "train": TrainConfig(**values[TrainConfig])}

    def test_every_flag_lands_in_its_field(self, tmp_path, monkeypatch, capsys):
        args = ["--theta", "0.3"]
        for flag, value, *_ in TRAIN_FLAGS:
            args += [flag] if value is None else [flag, value]
        seen = self.run_train(tmp_path, monkeypatch, args)
        for key, cfg in self.expected().items():
            assert seen[key] == cfg
        assert seen["theta"] == 0.3
        for _, _, cls, field, value in TRAIN_FLAGS:
            assert getattr(cls(), field) != value

    def test_every_config_key_lands_in_its_field(self, tmp_path, monkeypatch, capsys):
        lines = ["theta=0.3"]
        for flag, value, *_ in TRAIN_FLAGS:
            lines.append(f"{flag[2:].replace('-', '_')}={'true' if value is None else value}")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")
        seen = self.run_train(tmp_path, monkeypatch, ["--config", str(cfg_file)])
        for key, cfg in self.expected().items():
            assert seen[key] == cfg
        assert seen["theta"] == 0.3

    def test_invalid_config_value_is_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("")
        args = ["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")]
        assert main(args + ["--lstm-hidden", "0"]) == 2
        assert capsys.readouterr().err == "error: lstm_hidden must be >= 1\n"
        assert main(args + ["--lr", "-1"]) == 2
        assert capsys.readouterr().err == "error: lr must be positive\n"


# every subcommand with --theta, with its required arguments; the paths
# need not exist, since flags are checked before any input is read
THETA_COMMANDS = {
    "train": ["--manifest", "m.tsv", "--out-dir", "out"],
    "eval": ["--manifest", "m.tsv", "--checkpoint", "m.mlnt"],
    "predict": ["--wav", "in.wav", "--checkpoint", "m.mlnt"],
    "ablate": ["--manifest", "m.tsv"],
}
BAD_THETAS = ["nan", "inf", "-inf", "-1", "2", "1.0000001"]


class TestThetaRange:
    """The decision threshold is a probability: NaN, infinities and values
    outside [0, 1] are usage errors, from the flag and from a config file."""

    @pytest.mark.parametrize("value", BAD_THETAS)
    @pytest.mark.parametrize("command", THETA_COMMANDS)
    def test_flag_outside_the_unit_interval_is_exit_2(self, command, value, capsys):
        assert main([command, *THETA_COMMANDS[command], f"--theta={value}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad value for --theta: must lie in [0, 1], got {value}\n"

    @pytest.mark.parametrize("value", BAD_THETAS)
    @pytest.mark.parametrize("command", THETA_COMMANDS)
    def test_config_value_outside_the_unit_interval_is_exit_2(self, command, value, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"theta={value}\n")
        assert main([command, *THETA_COMMANDS[command], "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad config value for theta: must lie in [0, 1], got {value}\n"

    @pytest.mark.parametrize("value", ["0", "0.0", "0.5", "1", "1.0"])
    def test_bounds_are_valid(self, value):
        assert cli._parse_theta(value) == float(value)


# every subcommand with frontend flags, and those with training flags
FRONTEND_COMMANDS = {"featurize": ["--wav", "in.wav", "--out", "f.bin"], **THETA_COMMANDS}
TRAIN_COMMANDS = {name: THETA_COMMANDS[name] for name in ("train", "ablate")}
# the frontend commands with a lower band edge of 5000 Hz given as a flag
FMIN_5000_COMMANDS = {name: [*args, "--mel-fmin=5000"] for name, args in FRONTEND_COMMANDS.items()}
MIX_COMMAND = {"mix": ["--out", "corpus", "--n", "2"]}
# (commands, flag, value, error message): values that the ordered range
# checks let through, band edges out of order, a sample rate that is not
# positive, and a dev fraction that mix would check only after
# synthesizing the corpus
BAD_CONFIG_VALUES = [
    (FRONTEND_COMMANDS, "frame-ms", "nan", "frame_len_ms must be finite, got nan"),
    (FRONTEND_COMMANDS, "frame-ms", "inf", "frame_len_ms must be finite, got inf"),
    (FRONTEND_COMMANDS, "hop-ms", "nan", "hop_ms must be finite, got nan"),
    (FRONTEND_COMMANDS, "hop-ms", "inf", "hop_ms must be finite, got inf"),
    (FRONTEND_COMMANDS, "mel-fmin", "nan", "mel_fmin must be finite, got nan"),
    (FRONTEND_COMMANDS, "mel-fmin", "-inf", "mel_fmin must be finite, got -inf"),
    (FRONTEND_COMMANDS, "mel-fmax", "nan", "mel_fmax must be finite, got nan"),
    (FRONTEND_COMMANDS, "mel-fmax", "inf", "mel_fmax must be finite, got inf"),
    (FRONTEND_COMMANDS, "mel-fmin", "-5", "mel_fmin must be >= 0, got -5.0"),
    (FRONTEND_COMMANDS, "mel-fmax", "-100", "mel_fmax must be above mel_fmin, got -100.0 <= 0.0"),
    (FMIN_5000_COMMANDS, "mel-fmax", "4000", "mel_fmax must be above mel_fmin, got 4000.0 <= 5000.0"),
    (FMIN_5000_COMMANDS, "mel-fmax", "5000", "mel_fmax must be above mel_fmin, got 5000.0 <= 5000.0"),
    (TRAIN_COMMANDS, "lr", "nan", "lr must be finite, got nan"),
    (TRAIN_COMMANDS, "lr", "inf", "lr must be finite, got inf"),
    (TRAIN_COMMANDS, "attention-loss-weight", "nan", "attention_loss_weight must be finite, got nan"),
    (TRAIN_COMMANDS, "attention-loss-weight", "inf", "attention_loss_weight must be finite, got inf"),
    (MIX_COMMAND, "snr-min", "nan", "snr_db_min must be finite, got nan"),
    (MIX_COMMAND, "snr-min", "-inf", "snr_db_min must be finite, got -inf"),
    (MIX_COMMAND, "snr-max", "nan", "snr_db_max must be finite, got nan"),
    (MIX_COMMAND, "snr-max", "inf", "snr_db_max must be finite, got inf"),
    (MIX_COMMAND, "pad-s", "nan", "silence_pad_s must be finite, got nan"),
    (MIX_COMMAND, "pad-s", "inf", "silence_pad_s must be finite, got inf"),
    (MIX_COMMAND, "sample-rate", "0", "--sample-rate must be >= 1, got 0"),
    (MIX_COMMAND, "sample-rate", "-5", "--sample-rate must be >= 1, got -5"),
    (MIX_COMMAND, "dev-fraction", "1.5", "--dev-fraction must be in (0, 1), got 1.5"),
    (MIX_COMMAND, "dev-fraction", "nan", "--dev-fraction must be in (0, 1), got nan"),
]
BAD_CONFIG_CASES = [
    pytest.param(command, args, flag, value, message, id=f"{command}-{flag}={value}")
    for commands, flag, value, message in BAD_CONFIG_VALUES
    for command, args in commands.items()
]


class TestNonFiniteConfigValues:
    """NaN, infinities, a sample rate below 1 and a dev fraction outside
    (0, 1) are usage errors, from the flag and from a config file, on every
    subcommand that takes the value: one error line and exit code 2 before
    any input is read or output is written."""

    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("command, args, flag, value, message", BAD_CONFIG_CASES)
    def test_flag_is_exit_2(self, command, args, flag, value, message, tmp_path, capsys):
        assert main([command, *args, f"--{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, args, flag, value, message", BAD_CONFIG_CASES)
    def test_config_value_is_exit_2(self, command, args, flag, value, message, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{flag.replace('-', '_')}={value}\n")
        assert main([command, *args, "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg_file]


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


class TestHelp:
    @pytest.mark.parametrize("sub", ["mix", "featurize", "train", "eval", "predict", "ablate"])
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0

    def test_train_help_lists_documented_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = capsys.readouterr().out
        assert "0.001" in text       # learning rate
        assert "32" in text          # batch size
        assert "150" in text         # epochs
        assert "1,3,5,7,9" in text   # receptive fields
