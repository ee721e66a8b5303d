"""Each correctness check passes on the program's real output and fails
once that output is perturbed."""

import json

import numpy as np
import pytest

import checks
import reference as ref
import workloads
from mlnetvad import checkpoint, cli, corpus, model, training
from mlnetvad.wavio import write_wav

SMALL = model.ModelConfig(receptive_fields=(1, 3), gated_dim=8, attn_hidden=8, lstm_hidden=8, fc_hidden=8)


def _midpoint(probs) -> float:
    """A threshold that splits the frames, so that both labels appear."""
    return round(float(np.median(probs)), 4)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    params = model.init_params(SMALL, 3)
    for t in params.tensors():
        if t.data.ndim == 2:
            t.data *= workloads.WEIGHT_SCALE
    checkpoint.save_checkpoint(d / "model.mlnt", params)
    return d


@pytest.fixture(scope="module")
def predicted(work):
    raw = corpus.synth_raw_corpus(1, corpus.MixSpec(silence_pad_s=0.5, seed=4))[0]
    write_wav(work / "one.wav", raw.waveform)
    probs, weights = ref.mlnet_forward(ref.logmel(ref.read_wav(work / "one.wav")), ref.read_checkpoint(work / "model.mlnt"))
    theta = _midpoint(probs)
    argv = ["predict", "--wav", str(work / "one.wav"), "--checkpoint", str(work / "model.mlnt"), "--theta", str(theta),
            "--dump-attention", "--out", str(work / "one.tsv"), *workloads.FRONTEND_FLAGS]
    assert cli.main(argv) == 0
    return (work / "one.tsv").read_text(), probs, weights, theta


def _edit(text, fn):
    lines = text.splitlines()
    rows = [line.split("\t") for line in lines[2:]]
    fn(rows)
    return "\n".join(lines[:2] + ["\t".join(r) for r in rows]) + "\n"


def _clear_row(rows):
    """Index of a row whose probability is not within 0.001 of the threshold."""
    probs = [float(r[1]) for r in rows]
    theta = _midpoint(probs)
    return next(i for i, p in enumerate(probs) if abs(p - theta) > 1e-3)


def _flip_label(rows):
    i = _clear_row(rows)
    rows[i][2] = "0" if rows[i][2] == "1" else "1"


def _shift_prob(rows):
    i = _clear_row(rows)
    rows[i][1] = f"{float(rows[i][1]) + 0.001:.6f}"


def _scale_weights(rows):
    rows[3][3:] = [f"{1.01 * float(w):.6f}" for w in rows[3][3:]]


def _swap_weights(rows):
    rows[3][3], rows[3][4] = rows[3][4], rows[3][3]


def _shift_time(rows):
    rows[5][0] = f"{float(rows[5][0]) + 0.01:.3f}"


def _drop_last(rows):
    rows.pop()


def _ragged_row(rows):
    rows[4].pop()


def _non_numeric_field(rows):
    rows[4][1] = "nan?"


def test_predict_output_passes(predicted):
    text, probs, weights, theta = predicted
    assert checks.check_predict_tsv(text, probs, weights, theta) == []


@pytest.mark.parametrize(
    "perturb",
    [_flip_label, _shift_prob, _scale_weights, _swap_weights, _shift_time, _drop_last, _ragged_row, _non_numeric_field],
)
def test_predict_check_fails_on_perturbed_output(predicted, perturb):
    text, probs, weights, theta = predicted
    assert checks.check_predict_tsv(_edit(text, perturb), probs, weights, theta)


@pytest.fixture(scope="module")
def evaluated(work):
    raws = corpus.synth_raw_corpus(4, corpus.MixSpec(silence_pad_s=0.5, seed=5))
    manifest = corpus.write_corpus_dir(work / "corpus", raws[:1], eval_raws=raws[1:])
    spec = {"workload": workloads.EVAL, "dir": str(work), "manifest": str(manifest)}
    refs = workloads._reference_scores(spec)
    theta = _midpoint(np.concatenate([probs for probs, _ in refs.values()]))
    argv = ["eval", "--manifest", str(manifest), "--checkpoint", str(work / "model.mlnt"), "--split", "eval",
            "--theta", str(theta), "--report-out", str(work / "report"), *workloads.FRONTEND_FLAGS]
    assert cli.main(argv) == 0
    return (work / "report.json").read_text(), (work / "report.tsv").read_text(), refs, theta


def test_eval_report_passes(evaluated):
    doc, tsv, refs, theta = evaluated
    assert checks.check_eval_report(doc, tsv, refs, theta) == []


def _move_hit_to_miss(doc):
    # a consistent report (f1, dcf and averages recomputed) that the reference contradicts
    rec = next(r for r in doc["recordings"] if r["tp"] > 0)
    rec["tp"] -= 1
    rec["fn"] += 1
    rec["f1"], rec["dcf"] = ref.f1(rec), ref.dcf(rec)
    doc["macro"]["f1"] = float(np.mean([r["f1"] for r in doc["recordings"]]))
    doc["macro"]["dcf"] = float(np.mean([r["dcf"] for r in doc["recordings"]]))
    pooled = {k: sum(r[k] for r in doc["recordings"]) for k in ("tp", "fp", "fn", "tn")}
    doc["micro"] = {"f1": ref.f1(pooled), "dcf": ref.dcf(pooled)}


def _nudge_f1(doc):
    doc["recordings"][0]["f1"] += 1e-3


def _nudge_macro(doc):
    doc["macro"]["dcf"] += 1e-3


def _drop_recording(doc):
    doc["recordings"].pop()


@pytest.mark.parametrize("perturb", [_move_hit_to_miss, _nudge_f1, _nudge_macro, _drop_recording])
def test_eval_check_fails_on_perturbed_report(evaluated, perturb):
    doc_text, tsv, refs, theta = evaluated
    doc = json.loads(doc_text)
    perturb(doc)
    assert checks.check_eval_report(json.dumps(doc), tsv, refs, theta)


def _without_tp(doc_text):
    doc = json.loads(doc_text)
    del doc["recordings"][0]["tp"]
    return json.dumps(doc)


@pytest.mark.parametrize("malform", [lambda text: text[: len(text) // 2], lambda text: "[]", _without_tp])
def test_eval_check_reports_a_malformed_report(evaluated, malform):
    doc, tsv, refs, theta = evaluated
    errors = checks.check_eval_report(malform(doc), tsv, refs, theta)
    assert errors and errors[0].startswith("malformed JSON report")


def test_eval_check_fails_on_perturbed_tsv(evaluated):
    doc, tsv, refs, theta = evaluated
    lines = tsv.splitlines()
    lines[2] = lines[2].replace("\tno", "\tyes") if "\tno" in lines[2] else lines[2].replace("\tyes", "\tno")
    assert checks.check_eval_report(doc, "\n".join(lines) + "\n", refs, theta)


@pytest.fixture(scope="module")
def first_step(tmp_path_factory):
    d = tmp_path_factory.mktemp("train")
    utts = corpus.synth_corpus(8, corpus.MixSpec(silence_pad_s=0.1, seed=6), cfg=workloads.FRONTEND)
    cfg = training.TrainConfig(lr=0.01, batch_size=8, epochs=1, seed=9)
    training.train(utts, cfg, model.ModelConfig(), dev=utts[:1], out_dir=d)
    params, state = workloads.first_batch(utts, cfg)
    after = ref.read_checkpoint(d / "epoch_1.mlnt").params
    return state, after, params, utts, cfg


def test_first_step_follows_clipped_adam(first_step):
    state, after, _, _, _ = first_step
    assert checks.check_first_step(state["before"], after, state["grads"], 0.01) == []


def test_first_step_check_fails_on_perturbed_parameters(first_step):
    state, after, _, _, _ = first_step
    moved = {k: v.copy() for k, v in after.items()}
    moved["head.b_out"][0] += 1e-5
    assert checks.check_first_step(state["before"], moved, state["grads"], 0.01)
    assert checks.check_first_step(state["before"], after, state["grads"], 0.005)
    flipped = {k: v.copy() for k, v in state["grads"].items()}
    flipped["lstm0.fwd.b"][0] *= -1.0
    assert checks.check_first_step(state["before"], after, flipped, 0.01)


def test_gradient_agrees_with_finite_difference(first_step):
    _, _, params, utts, cfg = first_step
    numeric, analytic = workloads.directional_derivatives(params, utts[0], cfg)
    assert checks.check_directional_derivative(numeric, analytic) == []
    assert checks.check_directional_derivative(numeric, analytic * (1 + 1e-3) + 1e-3)


def test_loss_decrease_check():
    assert checks.check_loss_decrease([1321.3, 1278.5]) == []
    assert checks.check_loss_decrease([1.0, 1.0])
    assert checks.check_loss_decrease([1.0, 1.2])
