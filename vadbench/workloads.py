"""The three workloads: the inputs each builds in set-up, the calls one
timed round makes, and the checks made on what those calls wrote.

- train-b8: ``training.train`` at batch 8, lr 0.01, on standard synthetic
  utterances, with the default full_attention model. The frontend runs in
  set-up only; the timed part is graph building, backward, clipped Adam,
  the dev evaluation and the epoch checkpoints.
- eval-manifest: ``mlnetvad eval --report-out`` over a manifest of many
  independent standard utterances: WAV and mask reading, the frontend,
  no-graph inference, scoring and the report writers.
- predict-long: ``mlnetvad predict --dump-attention`` on long recordings
  built by joining synthetic segments, one file per call.

All inputs follow from the run's seed; the model checkpoint used by eval
and predict follows from a fixed seed, so that every run scores with the
same network.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import calibration
import checks
import reference as ref
from mlnetvad import autodiff, checkpoint, cli, corpus, model, training
from mlnetvad.frontend import FeatureSequence, FrontendConfig, Waveform
from mlnetvad.wavio import write_wav

TRAIN, EVAL, PREDICT = "train-b8", "eval-manifest", "predict-long"
WORKLOADS = (TRAIN, EVAL, PREDICT)

SAMPLE_RATE = 16000
# near the median speech probability the benchmark's model gives on these
# inputs (0.79 to 0.81), so that both labels are common and the label and
# confusion checks see many frames on each side
THETA = 0.8
FRONTEND = FrontendConfig(normalize=True)
FRONTEND_FLAGS = ["--normalize"]

TRAIN_UTTS, DEV_UTTS = 8, 2
TRAIN_EPOCHS = 2  # one step per epoch: two steps, each followed by the dev evaluation
TRAIN_CONFIG = dict(lr=0.01, batch_size=8, epochs=TRAIN_EPOCHS)
EVAL_UTTS = 8
PREDICT_FILES = 2
PREDICT_SAMPLES = 30 * SAMPLE_RATE  # every file is exactly 30 s, so per-file times compare across seeds

MODEL_SEED = 20200812
# At the initial weight scale every probability sits within 1e-3 of 0.53,
# so every frame gets the same label; with eight times larger weights the
# 5th to 95th percentiles of the probabilities span about 0.57 to 0.93 on
# these inputs, and float32 stays within 1e-6 of the float64 reference.
WEIGHT_SCALE = 8.0


# -- set-up ------------------------------------------------------------------


def write_model(path: Path) -> None:
    params = model.init_params(model.ModelConfig(), MODEL_SEED)
    for tensor in params.tensors():
        if tensor.data.ndim == 2:
            tensor.data *= WEIGHT_SCALE
    checkpoint.save_checkpoint(path, params)


def standard_utterances(seed: int, n: int) -> list[corpus.RawUtterance]:
    """Utterances made the way synth_raw_corpus makes them: a speech
    surrogate between 2 s silence pads, mixed with one noise at an SNR drawn
    from [-5, 20] dB, 4.5 to 7 s in all.

    synth_raw_corpus draws each speech duration at random, and the noise
    FFTs cost up to ten times more at some lengths than at others (59 ms
    against 5 ms for 90001 and 90000 samples), so set-up time and frames
    per call would change with the seed. Here the durations form a fixed
    ladder over [0.5, 3] s and the noise kinds cycle: every seed gives the
    same lengths and work, and the seed draws the content."""
    spec = corpus.MixSpec()
    raws = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        speech = Waveform(corpus.speech_surrogate(rng, SAMPLE_RATE, 0.5 + 2.5 * (i + 0.5) / n), SAMPLE_RATE)
        padded, mask = corpus.pad_silence(speech, spec)
        kind = corpus.NOISE_KINDS[i % len(corpus.NOISE_KINDS)]
        noise = Waveform(corpus.noise_surrogate(rng, SAMPLE_RATE, len(padded), kind), SAMPLE_RATE)
        snr = float(rng.uniform(spec.snr_db_min, spec.snr_db_max))
        mixed = corpus.mix_noise(padded, noise, snr, mask).mixed
        raws.append(corpus.RawUtterance(mixed, mask, snr, f"utt-{i:04d}", kind))
    return raws


def long_recording(rng: np.random.Generator, kind: str) -> Waveform:
    """Speech segments between random silence pads, joined and cut to
    PREDICT_SAMPLES, then mixed with one noise at one SNR, as a recording
    made in one place would be."""
    parts, masks, total = [], [], 0
    while total < PREDICT_SAMPLES:
        speech = Waveform(corpus.speech_surrogate(rng, SAMPLE_RATE, rng.uniform(0.5, 3.0)), SAMPLE_RATE)
        padded, mask = corpus.pad_silence(speech, corpus.MixSpec(silence_pad_s=rng.uniform(0.2, 1.0)))
        parts.append(padded.samples)
        masks.append(mask)
        total += len(padded)
    clean = Waveform(np.concatenate(parts)[:PREDICT_SAMPLES], SAMPLE_RATE)
    noise = Waveform(corpus.noise_surrogate(rng, SAMPLE_RATE, PREDICT_SAMPLES, kind), SAMPLE_RATE)
    return corpus.mix_noise(clean, noise, rng.uniform(-5.0, 20.0), np.concatenate(masks)[:PREDICT_SAMPLES]).mixed


def setup(workload: str, seed: int, d: Path) -> dict:
    """Build one workload's inputs under ``d``; returns the JSON spec the
    timed process reads."""
    d.mkdir(parents=True)
    spec = {"workload": workload, "seed": seed, "dir": str(d)}
    if workload == TRAIN:
        raws = standard_utterances(seed, TRAIN_UTTS + DEV_UTTS)
        # a fixed split seed keeps the same lengths in the dev split for every seed
        manifest = corpus.write_corpus_dir(d / "corpus", raws, dev_fraction=DEV_UTTS / (TRAIN_UTTS + DEV_UTTS))
        train_utts = corpus.load_manifest_utterances(manifest, FRONTEND, split="train")
        dev_utts = corpus.load_manifest_utterances(manifest, FRONTEND, split="dev")
        with open(d / "utterances.pkl", "wb") as fh:
            pickle.dump((train_utts, dev_utts), fh)
        spec["frames_per_op"] = TRAIN_EPOCHS * sum(len(u.labels) for u in train_utts)
    elif workload == EVAL:
        # write_corpus_dir needs one utterance outside the eval split
        raws = standard_utterances(seed, EVAL_UTTS + 1)
        spec["manifest"] = str(corpus.write_corpus_dir(d / "corpus", raws[:1], eval_raws=raws[1:]))
        write_model(d / "model.mlnt")
        spec["frames_per_op"] = sum(ref.n_frames(len(r.waveform)) for r in raws[1:])
    elif workload == PREDICT:
        spec["wavs"] = []
        for i in range(PREDICT_FILES):
            path = d / f"long-{i}.wav"
            kind = corpus.NOISE_KINDS[i % len(corpus.NOISE_KINDS)]
            write_wav(path, long_recording(np.random.default_rng([seed, i]), kind))
            spec["wavs"].append(str(path))
        write_model(d / "model.mlnt")
        spec["frames_per_op"] = ref.n_frames(PREDICT_SAMPLES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (d / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


# -- one timed round -----------------------------------------------------------


@dataclass
class Op:
    """One call through a public entry point. ``run(out)`` writes its
    outputs under the path ``out`` and returns a JSON-able record of them;
    it raises when the call fails."""

    name: str
    frames: int
    run: Callable[[Path], dict]


class CallFailed(Exception):
    pass


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise CallFailed(f"mlnetvad {argv[0]} exited with code {code}")


def make_round(spec: dict) -> list[Op]:
    workload, d = spec["workload"], Path(spec["dir"])
    if workload == TRAIN:
        with open(d / "utterances.pkl", "rb") as fh:
            train_utts, dev_utts = pickle.load(fh)
        cfg = training.TrainConfig(seed=spec["seed"], **TRAIN_CONFIG)

        def train(out: Path) -> dict:
            # train() reports each finished epoch through log_fn, which splits
            # the call's CPU time into one part per epoch; the last part also
            # holds the final checkpoint writes. The calibration kernel runs
            # there too, outside the parts, so that a call of a few long
            # epochs is not calibrated from its end alone.
            parts, bursts, start = [], [], [time.process_time()]

            def epoch_done(line: str) -> None:
                parts.append(time.process_time() - start[0])
                bursts.append(calibration.sample(parts[-1]))
                start[0] = time.process_time()

            result = training.train(
                train_utts, cfg, model.ModelConfig(), dev=dev_utts, out_dir=out, log_fn=epoch_done
            )
            parts[-1] += time.process_time() - start[0]
            return {
                "dir": str(out),
                "losses": [r.train_loss for r in result.history],
                "parts_cpu_s": parts,
                "bursts": bursts,
            }

        return [Op("train", spec["frames_per_op"], train)]
    ckpt = str(d / "model.mlnt")
    if workload == EVAL:

        def evaluate(out: Path) -> dict:
            _cli(["eval", "--manifest", spec["manifest"], "--checkpoint", ckpt, "--split", "eval",
                  "--theta", str(THETA), "--report-out", str(out), *FRONTEND_FLAGS])
            return {"report": str(out)}

        return [Op("eval", spec["frames_per_op"], evaluate)]

    def predictor(wav: str) -> Callable[[Path], dict]:
        def predict(out: Path) -> dict:
            _cli(["predict", "--wav", wav, "--checkpoint", ckpt, "--theta", str(THETA),
                  "--dump-attention", "--out", str(out), *FRONTEND_FLAGS])
            return {"wav": wav, "tsv": str(out)}

        return predict

    return [Op(f"predict:{Path(w).name}", spec["frames_per_op"], predictor(w)) for w in spec["wavs"]]


def _slice(utt: corpus.LabeledUtterance, start: int, stop: int) -> corpus.LabeledUtterance:
    feats = FeatureSequence(utt.features.frames[start:stop], utt.features.frame_times[start:stop])
    return corpus.LabeledUtterance(feats, utt.labels[start:stop], f"{utt.source_id}[{start}:{stop}]")


def warm_up(spec: dict, ops: list[Op], out: Path) -> None:
    """Run each call once untimed so lazy imports and caches settle; a
    training call is replaced by one loss and backward on a short slice."""
    if spec["workload"] != TRAIN:
        for i, op in enumerate(ops):
            op.run(out / f"warm-{i}")
        return
    with open(Path(spec["dir"]) / "utterances.pkl", "rb") as fh:
        train_utts, _ = pickle.load(fh)
    params = model.init_params(model.ModelConfig(), 0)
    loss, _, _ = training.utterance_loss(_slice(train_utts[0], 0, 50), params, training.TrainConfig())
    loss.backward()


# -- checks ----------------------------------------------------------------------


def first_batch(train_utts: list, cfg: training.TrainConfig) -> tuple[model.MlnetParams, dict]:
    """The parameters train() starts from, with the gradient of its first
    batch accumulated on them, and float64 copies of both.

    train() draws its initial parameters and its epoch order from the first
    and second of three seeds spawned from TrainConfig.seed. Summing the
    batch in the same order makes the gradient bit-identical to the one
    train() steps with."""
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    params = model.init_params(model.ModelConfig(), np.random.default_rng(streams[0]))
    order = np.random.default_rng(streams[1]).permutation(len(train_utts))
    for i in order[: cfg.batch_size]:
        loss, _, _ = training.utterance_loss(train_utts[i], params, cfg)
        loss.backward()
    return params, {
        "before": {k: t.data.astype(np.float64) for k, t in params.named().items()},
        "grads": {k: t.grad.astype(np.float64) for k, t in params.named().items()},
    }


def pre_checks(spec: dict) -> tuple[list[str], dict]:
    """Checks made before timing. Returns (errors, state for post_checks)."""
    if spec["workload"] != TRAIN:
        return [], {}
    with open(Path(spec["dir"]) / "utterances.pkl", "rb") as fh:
        train_utts, _ = pickle.load(fh)
    cfg = training.TrainConfig(seed=spec["seed"], **TRAIN_CONFIG)
    params, state = first_batch(train_utts, cfg)
    # a window around the first speech onset (the silence pads are 2 s), so both classes appear
    numeric, analytic = directional_derivatives(params, _slice(train_utts[0], 170, 230), cfg)
    return checks.check_directional_derivative(numeric, analytic), state


def directional_derivatives(params, utt, cfg: training.TrainConfig) -> tuple[float, float]:
    """(central difference, program gradient) of the loss along a random
    unit direction, on a float64 copy of ``params``."""
    named = {k: t.data.astype(np.float64) for k, t in params.named().items()}
    rng = np.random.default_rng(cfg.seed)
    direction = {k: rng.standard_normal(v.shape) for k, v in named.items()}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))

    def loss_at(step: float, grad: bool = False):
        moved = {k: v + step * direction[k] / norm for k, v in named.items()}
        p64 = model.build_params(
            params.config, lambda name, shape, kind: autodiff.Tensor(moved[name], requires_grad=True)
        )
        loss, _, _ = training.utterance_loss(utt, p64, cfg)
        if grad:
            loss.backward()
            return p64
        return loss.item()

    p64 = loss_at(0.0, grad=True)
    analytic = sum(float(np.sum(t.grad * direction[k])) for k, t in p64.named().items()) / norm
    h = checks.FD_STEP
    return (loss_at(h) - loss_at(-h)) / (2 * h), analytic


def _reference_scores(spec: dict) -> dict[str, tuple[np.ndarray, ...]]:
    ckpt = ref.read_checkpoint(Path(spec["dir"]) / "model.mlnt")
    out = {}
    if spec["workload"] == EVAL:
        base = Path(spec["manifest"]).parent
        rows = [line.split("\t") for line in Path(spec["manifest"]).read_text().splitlines()[2:]]
        for utt_id, wav, mask, split, _ in rows:
            if split == "eval":
                probs, _ = ref.mlnet_forward(ref.logmel(ref.read_wav(base / wav)), ckpt)
                out[utt_id] = (probs, ref.frame_labels(ref.read_mask(base / mask)))
    else:
        for wav in spec["wavs"]:
            out[wav] = ref.mlnet_forward(ref.logmel(ref.read_wav(wav)), ckpt)
    return out


def post_checks(spec: dict, records: list[dict], state: dict) -> list[str]:
    """Checks on every successful call's outputs."""
    done = [r for r in records if r["ok"]]
    if not done:
        return []
    workload = spec["workload"]
    errors: list[str] = []
    if workload == TRAIN:
        first = done[0]["out"]
        after = ref.read_checkpoint(Path(first["dir"]) / "epoch_1.mlnt").params
        errors += checks.check_first_step(state["before"], after, state["grads"], TRAIN_CONFIG["lr"])
        errors += checks.check_loss_decrease(first["losses"])
        if any(r["out"]["losses"] != first["losses"] for r in done):
            errors.append("repeated training calls with one seed gave different losses")
        return errors
    scores = _reference_scores(spec)
    for r in done:
        out = r["out"]
        if workload == EVAL:
            errors += checks.check_eval_report(
                Path(out["report"] + ".json").read_text(), Path(out["report"] + ".tsv").read_text(), scores, THETA
            )
        else:
            probs, weights = scores[out["wav"]]
            errors += checks.check_predict_tsv(Path(out["tsv"]).read_text(), probs, weights, THETA)
    return errors
