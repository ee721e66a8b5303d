"""The same-process A/B timer in ``tools/`` still runs: at its tiny size,
with this checkout on both sides, and against a copy whose outputs
differ. It runs in a subprocess, since it pins one BLAS thread before
numpy loads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ["forward-30s", "packed-8", "train-b8", "epoch-c6"]


def _ab(old: Path, new: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(old), str(new), "--tiny", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_both_sides_one_checkout_give_same_bits_and_one_ratio_per_shape():
    run = _ab(ROOT, ROOT, "--rounds", "2")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["blas_threads"] == 1 and report["rounds"] == 2
    assert list(report["shapes"]) == SHAPES
    for shape, row in report["shapes"].items():
        assert row["bits"] == "identical", shape
        assert row["old_ms"] > 0 and row["new_ms"] > 0, shape
        assert row["ratio"]["q1"] <= row["ratio"]["median"] <= row["ratio"]["q3"], shape
        assert 0 <= row["new_won"] <= 2, shape


def test_a_difference_fails_unless_declared(tmp_path):
    # a copy whose leaky ReLU slope differs: every shape's bits move
    shutil.copytree(ROOT / "src" / "mlnetvad", tmp_path / "src" / "mlnetvad",
                    ignore=shutil.ignore_patterns("__pycache__"))
    autodiff = tmp_path / "src" / "mlnetvad" / "autodiff.py"
    text = autodiff.read_text(encoding="utf-8")
    assert "LEAKY_SLOPE = 0.01\n" in text
    autodiff.write_text(text.replace("LEAKY_SLOPE = 0.01\n", "LEAKY_SLOPE = 0.02\n"), encoding="utf-8")
    undeclared = _ab(ROOT, tmp_path, "--rounds", "1", "--differs", *SHAPES[1:])
    assert undeclared.returncode == 1
    assert undeclared.stderr.strip().endswith(": forward-30s")
    declared = _ab(ROOT, tmp_path, "--rounds", "1", "--differs", *SHAPES)
    assert declared.returncode == 0, declared.stderr
    for shape, row in json.loads(declared.stdout)["shapes"].items():
        assert 0.0 < row["bits"]["largest_difference"] < 1.0, shape
        assert row["new_won"] in (0, 1), shape
