"""Spans around the calls into each layer's public functions.

The program has no spans of its own, so the tracer wraps the public
functions where the calling module looks them up (``cli.featurize``,
``corpus.read_mask``, ``model.classifier_forward`` ...) and restores them
afterwards. A span is (id, name, start, end, parent) plus the frames it
covered and whether a graph was being built; start and end are the
process's CPU time, scaled to reference seconds (see calibration.py) when
the spans of the run's processes are merged. Spans stay in memory until
the run writes them out. The per-layer metrics are derived from them.
"""

from __future__ import annotations

import statistics
import time

import reference as ref
from mlnetvad import autodiff, checkpoint, cli, corpus, metrics, model, training


def graph_nodes(loss) -> int:
    """Graph nodes reachable from ``loss``, the loss included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _wav_frames(result, args) -> int:
    return ref.n_frames(len(result))


def _forward_frames(result, args) -> int:
    return result.probs.shape[0]


def _input_frames(result, args) -> int:
    return args[0].shape[0]


# (module whose attribute is wrapped, attribute, span name, frames counter)
LAYER_CALLS = [
    (cli, "main", "cli.main", None),
    (cli, "load_checkpoint", "checkpoint.load", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", None),
    (training, "save_checkpoint", "checkpoint.save", None),
    (cli, "read_wav", "wavio.read", _wav_frames),
    (corpus, "read_wav", "wavio.read", _wav_frames),
    (cli, "featurize", "frontend.featurize", lambda result, args: len(result)),
    (corpus, "featurize", "frontend.featurize", lambda result, args: len(result)),
    (corpus, "read_mask", "corpus.read_mask", lambda result, args: ref.n_frames(result.size)),
    (corpus, "label_frames", "corpus.label_frames", lambda result, args: result.size),
    (corpus, "load_manifest_utterances", "corpus.load_manifest", None),
    (cli, "load_manifest_utterances", "corpus.load_manifest", None),
    (cli, "mlnet_forward", "model.forward", _forward_frames),
    (metrics, "mlnet_forward", "model.forward", _forward_frames),
    (training, "mlnet_forward", "model.forward", _forward_frames),
    (model, "classifier_forward", "model.classifier", _input_frames),
    (training, "cross_entropy_loss", "training.cross_entropy_loss", _input_frames),
    (training, "attention_loss", "training.attention_loss", None),
    (autodiff, "backward", "autodiff.backward", None),
    (training, "adam_step", "training.adam_step", None),
    (training, "evaluate", "training.dev_eval", None),
    (metrics, "evaluate_scored", "metrics.evaluate_scored", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, frames_of=None):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "grad": autodiff.grad_enabled(),
            }
            if name == "autodiff.backward":
                span["nodes"] = graph_nodes(args[0])  # counted before the span starts
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.process_time()
                self._open.pop()
            if frames_of is not None:
                span["frames"] = frames_of(result, args)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, frames_of in LAYER_CALLS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, frames_of))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def merge(*parts: tuple[list[dict], float]) -> list[dict]:
    """One list of spans from several tracers (processes), each given with
    its process's reference seconds per CPU second: times are scaled to
    reference seconds and ids renumbered so that they stay unique."""
    merged: list[dict] = []
    for spans, scale in parts:
        offset = len(merged)
        for s in spans:
            parent = s["parent"]
            merged.append({
                **s,
                "id": s["id"] + offset,
                "parent": None if parent is None else parent + offset,
                "start": scale * s["start"],
                "end": scale * s["end"],
            })
    return merged


# -- per-layer metrics ---------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self_times(spans: list[dict], name: str, grad=None) -> list[tuple[float, dict]]:
    """(duration minus direct children, span) for each span of ``name``."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _duration(s)
    return [(_duration(s) - children.get(s["id"], 0.0), s) for s in _select(spans, name, grad)]


def _select(spans, name, grad=None):
    return [s for s in spans if s["name"] == name and (grad is None or s["grad"] == grad)]


def _us_per_frame(seconds: float, frames: int) -> float:
    return 1e6 * seconds / frames if frames else 0.0


def _per_frame(spans, name, grad=None) -> float:
    sel = _select(spans, name, grad)
    return _us_per_frame(sum(map(_duration, sel)), sum(s["frames"] for s in sel))


def _median_duration(spans, name, scale: float) -> float:
    durations = [_duration(s) for s in _select(spans, name)]
    return scale * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, (value, unit). A layer that did no work in
    the run reads 0."""
    grad_frames = sum(s["frames"] for s in _select(spans, "model.forward", grad=True))
    out = {
        "model.classifier_us_per_frame": (_per_frame(spans, "model.classifier", False), "us"),
        "model.classifier_grad_us_per_frame": (_per_frame(spans, "model.classifier", True), "us"),
        "model.forward_us_per_frame": (_per_frame(spans, "model.forward", False), "us"),
        "model.forward_grad_us_per_frame": (_per_frame(spans, "model.forward", True), "us"),
    }
    for suffix, grad in (("", False), ("_grad", True)):
        selfs = _self_times(spans, "model.forward", grad)
        value = _us_per_frame(sum(t for t, _ in selfs), sum(s["frames"] for _, s in selfs))
        out[f"model.branches_attention{suffix}_us_per_frame"] = (value, "us")
    backward = _select(spans, "autodiff.backward")
    out["autodiff.backward_us_per_frame"] = (_us_per_frame(sum(map(_duration, backward)), grad_frames), "us")
    out["autodiff.nodes_per_frame"] = (sum(s["nodes"] for s in backward) / grad_frames if grad_frames else 0.0, "count")
    losses = _select(spans, "training.cross_entropy_loss") + _select(spans, "training.attention_loss")
    loss_frames = sum(s["frames"] for s in _select(spans, "training.cross_entropy_loss"))
    out["training.loss_us_per_frame"] = (_us_per_frame(sum(map(_duration, losses)), loss_frames), "us")
    out["training.adam_step_ms"] = (_median_duration(spans, "training.adam_step", 1e3), "ms")
    out["training.dev_eval_s"] = (_median_duration(spans, "training.dev_eval", 1.0), "s")
    out["frontend.featurize_us_per_frame"] = (_per_frame(spans, "frontend.featurize"), "us")
    out["wavio.read_us_per_frame"] = (_per_frame(spans, "wavio.read"), "us")
    out["corpus.read_mask_us_per_frame"] = (_per_frame(spans, "corpus.read_mask"), "us")
    out["corpus.label_frames_us_per_frame"] = (_per_frame(spans, "corpus.label_frames"), "us")
    out["corpus.load_manifest_s"] = (_median_duration(spans, "corpus.load_manifest", 1.0), "s")
    out["metrics.evaluate_scored_ms"] = (_median_duration(spans, "metrics.evaluate_scored", 1e3), "ms")
    out["checkpoint.load_ms"] = (_median_duration(spans, "checkpoint.load", 1e3), "ms")
    out["checkpoint.save_ms"] = (_median_duration(spans, "checkpoint.save", 1e3), "ms")
    cli_self = [t for t, _ in _self_times(spans, "cli.main")]
    out["cli.self_ms"] = (1e3 * statistics.median(cli_self) if cli_self else 0.0, "ms")
    return out
