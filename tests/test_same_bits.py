"""The same-bits probe in ``tools/`` still runs: its smallest layer case
twice, and its score, predict, featurize and train parts once at a tiny
size."""

import importlib.util
from pathlib import Path

import numpy as np

from mlnetvad import model


def _probe():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
    spec = importlib.util.spec_from_file_location("same_bits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_layer_case_writes_every_array_the_same_twice(tmp_path):
    probe = _probe()
    first = probe.layer_case(tmp_path / "a", 5, np.float32, [1])
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(["out.npy", "graph_out.npy", *(f"grad_{n}.npy" for n in probe.GRAD_NAMES)])
    assert all(np.load(first / name).dtype == np.float32 for name in names)
    again = probe.layer_case(tmp_path / "b", 5, np.float32, [1])
    assert again.relative_to(tmp_path / "b") == first.relative_to(tmp_path / "a")
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_predict_and_train_parts_write_their_outputs(tmp_path, monkeypatch):
    # 1 s and 2 s recordings, 4 utterances, 1 epoch: the CLI calls and their
    # flags as a whole run makes them
    probe = _probe()
    monkeypatch.setattr(probe, "RECORDING_SECONDS", (1, 2))
    monkeypatch.setattr(probe, "TRAIN_UTTERANCES", 4)
    monkeypatch.setattr(probe, "EPOCHS", 1)
    probe.predict_cases(tmp_path)
    probe.train_cases(tmp_path)
    predict = {p.name for p in (tmp_path / "predict").iterdir()}
    for variant in model.VARIANTS:
        assert {f"{variant}-1s.tsv", f"{variant}-2s.tsv", f"{variant}-1s-probs.npy"} <= predict
    assert "full_attention-1s-branch-weights.npy" in predict
    columns = (tmp_path / "predict" / "full_attention-1s.tsv").read_text().splitlines()[1].split("\t")
    assert columns[3:] == [f"p{i}" for i in range(model.ModelConfig().n_branches)]  # --dump-attention
    for batch in (1, 3):
        run = tmp_path / "train" / f"batch-{batch}"
        assert (run / "epoch_1.mlnt").is_file() and (run / "train.log").is_file()
        assert (run / "eval-report.json").is_file() and (run / "eval-report.tsv").is_file()


def test_featurize_part_writes_both_dumps(tmp_path, monkeypatch):
    probe = _probe()
    monkeypatch.setattr(probe, "RECORDING_SECONDS", (1,))
    probe.featurize_cases(tmp_path)
    dumps = [(tmp_path / "featurize" / name).read_bytes() for name in ("default.mlfb", "normalize.mlfb")]
    assert all(dumps) and dumps[0] != dumps[1]


def test_score_part_writes_one_array_per_utterance(tmp_path, monkeypatch):
    probe = _probe()
    monkeypatch.setattr(probe, "SCORE_LENGTHS", (3, 1, 5))
    probe.score_cases(tmp_path)
    arrays = [np.load(tmp_path / "score" / f"utt-{i}.npy") for i in range(3)]
    assert [a.shape for a in arrays] == [(3,), (1,), (5,)]
    assert all(a.dtype == np.float32 and ((a > 0) & (a < 1)).all() for a in arrays)
