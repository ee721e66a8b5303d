"""Time two checkouts of the package side by side in one process.

Usage::

    python3 tools/ab.py OLD_CHECKOUT NEW_CHECKOUT [--rounds N] [--tiny] [--differs SHAPE ...]

Each checkout's ``src/mlnetvad`` is imported as a package of its own name,
``mlnetvad_old`` and ``mlnetvad_new``, so both run in this process on the
same inputs, with one BLAS thread (pinned before numpy loads). The machine's
speed drifts between minutes, and a benchmark's reference kernel moves with
what ran before it; calls of the two sides interleaved in one process see
the same machine. The shapes:

- ``forward-30s``: a no-graph forward of one 30 s utterance (2998 frames),
  as ``mlnetvad predict`` runs it;
- ``packed-8``: a no-graph forward of 8 utterances of 461 to 636 frames
  packed into one batch, as ``mlnetvad eval`` scores them;
- ``train-b8``: ``training.train`` at batch 8, lr 0.01, for 2 epochs on 8
  utterances of 461 to 636 frames with 2 dev utterances, on normalized
  features, with the default model;
- ``epoch-c6``: one epoch of ``training.train`` shaped like acceptance
  criterion 6: the ``full_attention`` model 16 wide, batch 1, raw log-mel
  features of the synthetic corpus.

The default model uses eight times its initial weights in the forward
shapes, so that the probabilities spread. Each shape runs once on each side
before any timing, and their outputs are compared bit for bit: a difference
is an error (exit 1) unless the shape is named in ``--differs``, in which
case the largest absolute difference is reported. Then every round times
each shape on both sides in CPU seconds, alternating which side runs
first. The report is one JSON block on stdout: per shape, each side's
median, the quartiles of the new/old ratio and the rounds the new side
won. ``--tiny`` shrinks every shape to a few frames for a quick check.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SHAPES = ("forward-30s", "packed-8", "train-b8", "epoch-c6")
WEIGHT_SCALE = 8.0
SEED = 20200812
FULL = {
    "forward": 2998,
    "packed": [461 + 25 * i for i in range(8)],
    "train": [461 + 25 * i for i in range(10)],  # the last two are the dev set
    "c6_utterances": 30,
}
TINY = {
    "forward": 90,
    "packed": [20 + 3 * i for i in range(8)],
    "train": [20 + 3 * i for i in range(10)],
    "c6_utterances": 5,
}


def load(root: Path, name: str):
    """The package under ``root / "src" / "mlnetvad"``, imported as ``name``."""
    pkg = root / "src" / "mlnetvad"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    if spec is None:
        raise SystemExit(f"{pkg}: no package to load")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("autodiff", "corpus", "frontend", "model", "training"):
        importlib.import_module(f"{name}.{sub}")
    return module


def inputs(sizes: dict, pkg) -> dict:
    """The shapes' inputs as plain arrays, one draw for both sides:
    (frames, labels) pairs of float32 features and int8 labels."""
    rng = np.random.default_rng(SEED)
    n_mels = pkg.model.ModelConfig().n_mels

    def utterance(t_len: int):
        labels = (np.arange(t_len) // 40) % 2
        return rng.normal(size=(t_len, n_mels)).astype(np.float32), labels.astype(np.int8)

    corpus, frontend_cfg = pkg.corpus, pkg.frontend.FrontendConfig()  # raw log-mel features
    raw = corpus.synth_corpus(sizes["c6_utterances"], corpus.MixSpec(seed=777), cfg=frontend_cfg)
    train_c6, dev_c6 = corpus.split_train_dev(raw, 0.25, seed=5)
    return {
        "forward": rng.normal(size=(sizes["forward"], n_mels)).astype(np.float32),
        "packed": [utterance(t)[0] for t in sizes["packed"]],
        "train": [utterance(t) for t in sizes["train"]],
        "c6": [[(u.features.frames, np.asarray(u.labels)) for u in part] for part in (train_c6, dev_c6)],
    }


class Side:
    """One checkout's package and its shapes as calls that return their
    outputs as a list of arrays."""

    def __init__(self, pkg, data: dict):
        self.pkg, self.data = pkg, data
        model = pkg.model
        self.params = model.init_params(model.ModelConfig(), SEED)
        for t in self.params.tensors():
            if t.data.ndim == 2:
                t.data *= WEIGHT_SCALE

    def utterances(self, pairs, prefix: str) -> list:
        corpus, frontend = self.pkg.corpus, self.pkg.frontend
        return [
            corpus.LabeledUtterance(frontend.FeatureSequence(f, np.arange(len(f)) * 0.01), y, f"{prefix}-{i}")
            for i, (f, y) in enumerate(pairs)
        ]

    def forward(self, batch) -> list:
        with self.pkg.autodiff.no_grad():
            out = self.pkg.model.mlnet_forward(batch, self.params)
        return [out.probs.data] + ([] if out.branch_weights is None else [out.branch_weights.data])

    def train(self, train_pairs, dev_pairs, cfg: dict, model_cfg: dict) -> list:
        training = self.pkg.training
        result = training.train(
            self.utterances(train_pairs, "train"),
            training.TrainConfig(**cfg),
            self.pkg.model.ModelConfig(**model_cfg),
            dev=self.utterances(dev_pairs, "dev"),
        )
        losses = np.array([r.train_loss for r in result.history])
        return [losses, *(t.data for t in result.params.tensors())]

    def run(self, shape: str) -> list:
        data = self.data
        if shape == "forward-30s":
            return self.forward(data["forward"])
        if shape == "packed-8":
            return self.forward(data["packed"])
        if shape == "train-b8":
            return self.train(data["train"][:8], data["train"][8:], dict(lr=0.01, batch_size=8, epochs=2), {})
        train_c6, dev_c6 = data["c6"]
        width = dict(variant="full_attention", gated_dim=16, attn_hidden=16, lstm_hidden=16, fc_hidden=16)
        return self.train(train_c6, dev_c6, dict(lr=0.01, epochs=1, batch_size=1, seed=0), width)


def largest_difference(old: list, new: list) -> float | None:
    """None when the outputs are the same bits, else the largest absolute
    difference (inf for a shape mismatch)."""
    if len(old) != len(new) or any(a.shape != b.shape or a.dtype != b.dtype for a, b in zip(old, new)):
        return float("inf")
    if all(a.tobytes() == b.tobytes() for a, b in zip(old, new)):
        return None
    return max(float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max()) for a, b in zip(old, new))


def cpu_seconds(call) -> float:
    gc.collect()
    start = time.process_time()
    call()
    return time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the parent checkout")
    parser.add_argument("new", type=Path, help="the changed checkout")
    parser.add_argument("--rounds", type=int, default=11, help="timed rounds per shape (default 11)")
    parser.add_argument("--tiny", action="store_true", help="a few frames per shape, for a quick check")
    parser.add_argument("--differs", nargs="*", default=[], choices=SHAPES, metavar="SHAPE",
                        help=f"shapes whose outputs the change declares to differ: {', '.join(SHAPES)}")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    old_pkg, new_pkg = load(args.old.resolve(), "mlnetvad_old"), load(args.new.resolve(), "mlnetvad_new")
    data = inputs(TINY if args.tiny else FULL, new_pkg)
    sides = {"old": Side(old_pkg, data), "new": Side(new_pkg, data)}

    report = {
        "old": str(args.old), "new": str(args.new), "blas_threads": 1, "rounds": args.rounds, "shapes": {},
    }
    failed = []
    for shape in SHAPES:
        diff = largest_difference(sides["old"].run(shape), sides["new"].run(shape))
        report["shapes"][shape] = {"bits": "identical" if diff is None else {"largest_difference": diff}}
        if diff is not None and shape not in args.differs:
            failed.append(shape)
    if failed:
        print(json.dumps(report, indent=2))
        print(f"error: outputs differ where no change was declared: {', '.join(failed)}", file=sys.stderr)
        return 1

    for shape in SHAPES:
        times = {"old": [], "new": []}
        for r in range(args.rounds):
            for name in ("old", "new") if r % 2 == 0 else ("new", "old"):
                times[name].append(cpu_seconds(lambda: sides[name].run(shape)))
        ratios = np.array(times["new"]) / np.array(times["old"])
        q1, median, q3 = np.percentile(ratios, [25, 50, 75])
        report["shapes"][shape].update(
            old_ms=round(1e3 * float(np.median(times["old"])), 2),
            new_ms=round(1e3 * float(np.median(times["new"])), 2),
            ratio={"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)},
            new_won=int((ratios < 1.0).sum()),
        )
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
