"""Dump the bits that a change meant to keep outputs identical must keep.

Run it in two checkouts with the same BLAS thread count, then compare the
two directories byte for byte::

    OPENBLAS_NUM_THREADS=1 python3 tools/same_bits.py /tmp/bits-old   # in the old checkout
    OPENBLAS_NUM_THREADS=1 python3 tools/same_bits.py /tmp/bits-new   # in the new one
    diff -r /tmp/bits-old /tmp/bits-new && echo same bits

Repeat with ``OPENBLAS_NUM_THREADS=2``: a GEMM's blocking, and so its
rounding, can depend on the thread count. The script imports the package
from the ``src`` directory of the checkout it sits in, needs only numpy,
and writes only under the directory it is given. It writes:

- ``layer/``: ``autodiff.bilstm_layer`` on random inputs, for H of 5, 16
  and 64, float32 and float64, and packed lengths of one row, one step
  past a scan block, several blocks, a ragged batch and the ten lengths
  of the benchmark's training utterances. Each case holds the output
  without a graph, the output with one and all seven gradients after two
  backward passes into the same leaves, as ``.npy`` files.
- ``predict/``: ``mlnetvad predict`` TSVs of a 30 s and a 5 min synthetic
  recording under each of the four variants (with ``--dump-attention``
  for ``full_attention``), and the no-graph probabilities and branch
  weights of the 30 s recording as ``.npy``. The checkpoints use eight
  times the initial weights, so that the probabilities spread.
- ``score/``: the ``metrics.score_utterances`` probabilities of nine
  ragged synthetic utterances, one of a single frame, under the default
  ``full_attention`` model with eight times the initial weights, one
  ``.npy`` file per utterance.
- ``featurize/``: ``mlnetvad featurize`` dumps of the 30 s recording,
  under the default frontend and under ``--normalize``.
- ``train/``: two-epoch ``mlnetvad train`` runs at batch sizes 1 and 3,
  their checkpoints and ``train.log``, and an ``eval`` report of the last
  checkpoint.

A whole run takes about ten seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mlnetvad import autodiff as ad  # noqa: E402
from mlnetvad import checkpoint, cli, corpus, metrics, model  # noqa: E402
from mlnetvad.frontend import FeatureSequence, FrontendConfig, Waveform, featurize  # noqa: E402
from mlnetvad.wavio import read_wav, write_wav  # noqa: E402

SAMPLE_RATE = 16000
H_DIMS = (5, 16, 64)
DTYPES = (np.float32, np.float64)
# one row; one step past a scan block; several blocks; a ragged batch
# with a one-frame utterance; the benchmark's training utterance lengths
LENGTHS = ([1], [65], [577], [65, 1, 30, 64], [461 + 25 * i for i in range(10)])
GRAD_NAMES = ("seq", "w_x_f", "w_h_f", "b_f", "w_x_b", "w_h_b", "b_b")
WEIGHT_SCALE = 8.0
RECORDING_SECONDS = (30, 300)  # the first also gives the .npy outputs
SCORE_LENGTHS = (461, 40, 636, 1, 300, 575, 65, 520, 700)  # more than one scoring batch holds
TRAIN_UTTERANCES = 8
EPOCHS = 2


def layer_case(out_dir: Path, h_dim: int, dtype, lengths: list[int]) -> Path:
    """Write one ``bilstm_layer`` case under ``out_dir``; returns its directory."""
    name = np.dtype(dtype).name
    case = out_dir / "layer" / f"h{h_dim}-{name}-{'_'.join(map(str, lengths))}"
    case.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([h_dim, len(lengths), sum(lengths)])
    in_dim, rows = 2 * h_dim, sum(lengths)
    seq = ad.Tensor(rng.normal(size=(rows, in_dim)).astype(dtype), requires_grad=True)
    dirs = []
    for _ in range(2):
        arrays = (
            rng.normal(size=(in_dim, 4 * h_dim)) / in_dim**0.5,
            rng.normal(size=(h_dim, 4 * h_dim)) / h_dim**0.5,
            rng.normal(size=4 * h_dim) * 0.1,
        )
        dirs.append([ad.Tensor(a.astype(dtype), requires_grad=True) for a in arrays])
    with ad.no_grad():
        np.save(case / "out.npy", ad.bilstm_layer(seq, *dirs, lengths=lengths).data)
    for _ in range(2):
        out = ad.bilstm_layer(seq, *dirs, lengths=lengths)
        (out * ad.Tensor(rng.normal(size=out.shape).astype(dtype))).sum().backward()
    np.save(case / "graph_out.npy", out.data)
    for name, t in zip(GRAD_NAMES, [seq, *dirs[0], *dirs[1]], strict=True):
        np.save(case / f"grad_{name}.npy", t.grad)
    return case


def recording(rng: np.random.Generator, seconds: int) -> Waveform:
    """Speech surrogates between silences, cut to ``seconds`` and mixed
    with pink noise at one SNR."""
    n = seconds * SAMPLE_RATE
    parts, masks, total = [], [], 0
    while total < n:
        speech = Waveform(corpus.speech_surrogate(rng, SAMPLE_RATE, rng.uniform(0.5, 3.0)), SAMPLE_RATE)
        padded, mask = corpus.pad_silence(speech, corpus.MixSpec(silence_pad_s=rng.uniform(0.2, 1.0)))
        parts.append(padded.samples)
        masks.append(mask)
        total += len(padded)
    clean = Waveform(np.concatenate(parts)[:n], SAMPLE_RATE)
    noise = Waveform(corpus.noise_surrogate(rng, SAMPLE_RATE, n, "pink"), SAMPLE_RATE)
    return corpus.mix_noise(clean, noise, 5.0, np.concatenate(masks)[:n]).mixed


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # timings go to stdout
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mlnetvad {' '.join(argv)} exited {code}")


def scaled_params(variant: str) -> model.MlnetParams:
    """The variant's default model with ``WEIGHT_SCALE`` times its initial
    weights, so that the probabilities spread."""
    params = model.init_params(model.ModelConfig(variant=variant), 20200812)
    for t in params.tensors():
        if t.data.ndim == 2:
            t.data *= WEIGHT_SCALE
    return params


def score_cases(out_dir: Path) -> None:
    d = out_dir / "score"
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(len(SCORE_LENGTHS))
    n_mels = model.ModelConfig().n_mels
    utts = [
        corpus.LabeledUtterance(
            FeatureSequence(rng.normal(size=(t_len, n_mels)), np.arange(t_len) * 0.01),
            np.zeros(t_len, np.int8),
            f"utt-{i}",
        )
        for i, t_len in enumerate(SCORE_LENGTHS)
    ]
    for utt_id, probs, _ in metrics.score_utterances(utts, scaled_params("full_attention")):
        np.save(d / f"{utt_id}.npy", probs)


def predict_cases(out_dir: Path) -> None:
    d = out_dir / "predict"
    d.mkdir(parents=True, exist_ok=True)
    wavs = {}
    for seconds in RECORDING_SECONDS:
        wavs[seconds] = d / f"rec-{seconds}s.wav"
        write_wav(wavs[seconds], recording(np.random.default_rng(seconds), seconds))
    first = RECORDING_SECONDS[0]
    feats = featurize(read_wav(wavs[first]), FrontendConfig(normalize=True))
    for variant in model.VARIANTS:
        params = scaled_params(variant)
        ckpt = d / f"{variant}.mlnt"
        checkpoint.save_checkpoint(ckpt, params)
        with ad.no_grad():
            out = model.mlnet_forward(feats, params)
        np.save(d / f"{variant}-{first}s-probs.npy", out.probs.data)
        if out.branch_weights is not None:
            np.save(d / f"{variant}-{first}s-branch-weights.npy", out.branch_weights.data)
        dump = ["--dump-attention"] if variant == "full_attention" else []
        for seconds, wav in wavs.items():
            tsv = d / f"{variant}-{seconds}s.tsv"
            _cli(["predict", "--wav", str(wav), "--checkpoint", str(ckpt), "--out", str(tsv),
                  "--normalize", "--theta", "0.8", *dump])


def featurize_cases(out_dir: Path) -> None:
    d = out_dir / "featurize"
    d.mkdir(parents=True, exist_ok=True)
    seconds = RECORDING_SECONDS[0]
    wav = d / f"rec-{seconds}s.wav"
    write_wav(wav, recording(np.random.default_rng(seconds), seconds))
    for name, flags in (("default", []), ("normalize", ["--normalize"])):
        _cli(["featurize", "--wav", str(wav), "--out", str(d / f"{name}.mlfb"), *flags])


def train_cases(out_dir: Path) -> None:
    d = out_dir / "train"
    raws = corpus.synth_raw_corpus(TRAIN_UTTERANCES, corpus.MixSpec(), seed=7)
    manifest = corpus.write_corpus_dir(d / "corpus", raws, dev_fraction=0.25)
    for batch in (1, 3):
        run = d / f"batch-{batch}"
        _cli(["train", "--manifest", str(manifest), "--out-dir", str(run), "--epochs", str(EPOCHS),
              "--batch-size", str(batch), "--lr", "0.01", "--seed", "3", "--normalize"])
        _cli(["eval", "--manifest", str(manifest), "--checkpoint", str(run / f"epoch_{EPOCHS}.mlnt"),
              "--split", "dev", "--report-out", str(run / "eval-report")])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path, help="directory to write; compare two with diff -r")
    args = parser.parse_args(argv)
    for h_dim in H_DIMS:
        for dtype in DTYPES:
            for lengths in LENGTHS:
                layer_case(args.out_dir, h_dim, dtype, lengths)
    score_cases(args.out_dir)
    predict_cases(args.out_dir)
    featurize_cases(args.out_dir)
    train_cases(args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
