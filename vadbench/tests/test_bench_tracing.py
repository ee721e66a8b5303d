"""Per-layer metrics derived from spans."""

import pytest

import tracing
from mlnetvad import autodiff, model


def _span(i, name, start, end, parent=None, grad=False, **extra):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "grad": grad, **extra}


def test_self_time_and_per_frame_figures():
    spans = [
        _span(0, "cli.main", 0.0, 1.0),
        _span(1, "checkpoint.load", 0.0, 0.1, parent=0),
        _span(2, "model.forward", 0.2, 0.7, parent=0, frames=1000),
        _span(3, "model.classifier", 0.3, 0.7, parent=2, frames=1000),
        _span(4, "model.forward", 0.0, 2.0, grad=True, frames=1000),
        _span(5, "model.classifier", 0.1, 2.0, parent=4, grad=True, frames=1000),
        _span(6, "autodiff.backward", 2.0, 3.5, grad=True, nodes=28300),
    ]
    m = {k: v for k, (v, unit) in tracing.layer_metrics(spans).items()}
    assert m["cli.self_ms"] == pytest.approx(400.0)
    assert m["checkpoint.load_ms"] == pytest.approx(100.0)
    assert m["model.forward_us_per_frame"] == pytest.approx(500.0)
    assert m["model.classifier_us_per_frame"] == pytest.approx(400.0)
    assert m["model.branches_attention_us_per_frame"] == pytest.approx(100.0)
    assert m["model.branches_attention_grad_us_per_frame"] == pytest.approx(100.0)
    assert m["autodiff.backward_us_per_frame"] == pytest.approx(1500.0)
    assert m["autodiff.nodes_per_frame"] == 28.3
    assert m["training.adam_step_ms"] == 0.0


def test_merged_spans_keep_their_parents_and_scale_their_times():
    first = [_span(0, "a", 0, 1), _span(1, "b", 0, 1, parent=0)]
    second = [_span(0, "c", 1, 2), _span(1, "d", 1, 1.5, parent=0)]
    merged = tracing.merge((first, 1.0), (second, 0.5))
    assert [(s["id"], s["parent"]) for s in merged] == [(0, None), (1, 0), (2, None), (3, 2)]
    assert [(s["start"], s["end"]) for s in merged] == [(0, 1), (0, 1), (0.5, 1.0), (0.5, 0.75)]


def test_tracer_restores_the_wrapped_functions():
    before = model.classifier_forward
    tracer = tracing.Tracer()
    tracer.install()
    assert model.classifier_forward is not before
    tracer.uninstall()
    assert model.classifier_forward is before


def test_graph_node_count():
    x = autodiff.Tensor([1.0, 2.0], requires_grad=True)
    loss = ((x * x).sum() + x.sum()).sum()
    # x, x*x, its sum, x.sum(), the add, the final sum
    assert tracing.graph_nodes(loss) == 6
