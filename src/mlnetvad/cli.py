"""Command-line interface: mix, featurize, train, eval, predict, ablate.

Exit codes: 0 on success, 2 for usage or configuration problems
(including unreadable inputs), 1 for runtime failures. Every subcommand
is deterministic for a fixed --seed. A key=value config file can be
merged under the flags; explicit flags always win, unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import struct
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint
from .corpus import MixSpec, load_manifest_utterances, synth_raw_corpus, write_corpus_dir
from .errors import ConfigError, FormatError, MlnetVadError
from .frontend import FrontendConfig, featurize
from .metrics import evaluate
from .model import VARIANTS, MlnetParams, ModelConfig, mlnet_forward
from .training import TrainConfig, train
from .wavio import read_wav

FEATURE_MAGIC = b"MLFB"
FEATURE_VERSION = 1
PREDICT_HEADER = "#predictions\tv1"
TSV_BLOCK_ROWS = 256  # predict TSV rows per %-format call and write


class UsageError(MlnetVadError):
    """Bad flags, bad config values, unreadable inputs: exit code 2."""


# -- flag registry with config-file merging ------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_fields(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


@dataclass
class Flag:
    dest: str
    convert: Callable[[str], object]
    default: object


class Command:
    """One subcommand: its parser plus the merge table for its flags."""

    def __init__(self, sub, name: str, help_text: str):
        self.parser = sub.add_parser(name, help=help_text, description=help_text)
        self.flags: dict[str, Flag] = {}
        self.parser.add_argument(
            "--config", default=None, metavar="FILE",
            help="key=value file merged under explicit flags",
        )

    def add(self, *names, dest=None, convert=str, default=None, metavar=None, help=""):
        dest = dest or names[0].lstrip("-").replace("-", "_")
        if default is not None:
            shown = ",".join(str(v) for v in default) if isinstance(default, tuple) else default
            help = f"{help} (default: {shown})" if help else f"(default: {shown})"
        if convert is _parse_bool and metavar is None:
            self.parser.add_argument(
                *names, dest=dest, action="store_const", const=True, default=None, help=help
            )
        else:
            self.parser.add_argument(
                *names, dest=dest, default=None, metavar=metavar, help=help
            )
        self.flags[dest] = Flag(dest, convert, default)

    def resolve(self, ns: argparse.Namespace) -> dict:
        """Merge precedence: explicit flag > config file > built-in default."""
        config: dict[str, str] = {}
        if ns.config is not None:
            path = Path(ns.config)
            if not path.exists():
                raise UsageError(f"config file not found: {path}")
            for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                config[key.strip().replace("-", "_")] = value.strip()
            unknown = sorted(set(config) - set(self.flags))
            if unknown:
                raise UsageError(f"{path}: unknown config keys {unknown}")
        out = {}
        for dest, flag in self.flags.items():
            raw = getattr(ns, dest)
            if raw is not None:
                try:
                    out[dest] = raw if not isinstance(raw, str) else flag.convert(raw)
                except ValueError as exc:
                    raise UsageError(f"bad value for --{dest.replace('_', '-')}: {exc}")
            elif dest in config:
                try:
                    out[dest] = flag.convert(config[dest])
                except ValueError as exc:
                    raise UsageError(f"bad config value for {dest}: {exc}")
            else:
                out[dest] = flag.default
        return out


def _add_frontend_flags(cmd: Command) -> None:
    d = FrontendConfig
    cmd.add("--frame-ms", convert=float, default=d.frame_len_ms, metavar="MS", help="frame length")
    cmd.add("--hop-ms", convert=float, default=d.hop_ms, metavar="MS", help="frame hop")
    cmd.add("--n-mels", convert=int, default=d.n_mels, metavar="N", help="mel bands")
    cmd.add("--fft-size", convert=int, default=d.fft_size, metavar="N", help="FFT length")
    cmd.add("--preemphasis", convert=float, default=d.preemphasis, metavar="C", help="pre-emphasis coefficient")
    cmd.add("--log-floor", convert=float, default=d.log_floor, metavar="E", help="energy floor before the log")
    cmd.add("--mel-fmin", convert=float, default=d.mel_fmin, metavar="HZ", help="lowest mel band edge")
    cmd.add("--mel-fmax", convert=float, default=d.mel_fmax, metavar="HZ", help="highest mel band edge (default: Nyquist)")
    cmd.add("--normalize", convert=_parse_bool, default=d.normalize,
            help="per-utterance mean/variance feature normalization")


def _add_model_flags(cmd: Command) -> None:
    d = ModelConfig
    cmd.add("--variant", convert=str, default=d.variant,
            help=f"model variant, one of {', '.join(VARIANTS)}")
    cmd.add("--receptive-fields", convert=_parse_fields, default=d.receptive_fields,
            metavar="R,R,...", help="branch receptive fields")
    cmd.add("--gated-dim", convert=int, default=d.gated_dim, metavar="N", help="gated unit output size")
    cmd.add("--attn-hidden", convert=int, default=d.attn_hidden, metavar="N", help="attention hidden width")
    cmd.add("--lstm-hidden", convert=int, default=d.lstm_hidden, metavar="N", help="LSTM units per direction")
    cmd.add("--lstm-layers", convert=int, default=d.lstm_layers, metavar="N", help="stacked Bi-LSTM layers")
    cmd.add("--fc-hidden", convert=int, default=d.fc_hidden, metavar="N", help="classifier hidden width")
    cmd.add("--single-sigmoid", convert=_parse_bool, default=not d.double_sigmoid,
            help="normalize raw scores directly instead of sigmoid-of-sigmoid")


def _add_train_flags(cmd: Command) -> None:
    d = TrainConfig
    cmd.add("--lr", convert=float, default=d.lr, metavar="F", help="Adam learning rate")
    cmd.add("--batch-size", convert=int, default=d.batch_size, metavar="N", help="utterances per optimizer step")
    cmd.add("--epochs", convert=int, default=d.epochs, metavar="N", help="training epochs")
    cmd.add("--attention-loss-weight", convert=float, default=d.attention_loss_weight, metavar="F",
            help="weight of the branch-sharpening loss term")
    cmd.add("--theta", convert=float, default=0.5, metavar="F", help="decision threshold for dev metrics")


# the two config fields whose flag has another name
_RENAMED_FIELDS = {
    "frame_len_ms": lambda a: a["frame_ms"],
    "double_sigmoid": lambda a: not a["single_sigmoid"],
}


def _config(cls, a: dict):
    """A config dataclass from the merged flags named like its fields;
    fields without a flag keep their defaults."""
    values = {}
    for f in fields(cls):
        if f.name in _RENAMED_FIELDS:
            values[f.name] = _RENAMED_FIELDS[f.name](a)
        elif f.name in a:
            values[f.name] = a[f.name]
    return cls(**values)


# -- feature dump ---------------------------------------------------------


def write_features(path, frames: np.ndarray) -> None:
    """Binary dump: magic, u32 version, u32 T, u32 n_mels, f32 LE row-major."""
    t_len, n_mels = frames.shape
    blob = (
        FEATURE_MAGIC
        + struct.pack("<III", FEATURE_VERSION, t_len, n_mels)
        + np.ascontiguousarray(frames, dtype="<f4").tobytes()
    )
    Path(path).write_bytes(blob)


def read_features(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a feature dump")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header, {len(blob)} of 16 bytes")
    version, t_len, n_mels = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature dump version {version}")
    expected = 16 + 4 * t_len * n_mels
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    return np.frombuffer(blob[16:], dtype="<f4").reshape(t_len, n_mels)


# -- subcommands ------------------------------------------------------------


def cmd_mix(a: dict) -> int:
    started = time.perf_counter()
    if a["n"] is None:
        raise UsageError("--n is required")
    if a["n"] < 1:
        raise UsageError(f"--n must be >= 1, got {a['n']}")
    if a["n_eval"] < 0:
        raise UsageError("--n-eval must be >= 0")
    out = Path(a["out"])
    if out.exists() and any(out.iterdir()) and not a["force"]:
        raise UsageError(f"{out} is not empty; pass --force to write into it")
    spec = MixSpec(
        snr_db_min=a["snr_min"],
        snr_db_max=a["snr_max"],
        silence_pad_s=a["pad_s"],
        seed=a["seed"],
    )
    raws = synth_raw_corpus(a["n"] + a["n_eval"], spec, a["seed"], a["sample_rate"])
    train_pool, eval_pool = raws[: a["n"]], raws[a["n"] :]
    manifest = write_corpus_dir(
        out,
        train_pool,
        dev_fraction=a["dev_fraction"],
        split_seed=a["seed"],
        eval_raws=eval_pool or None,
    )
    snrs = [r.snr_db for r in raws]
    audio_s = sum(r.waveform.duration_s for r in raws)
    print(f"wrote {len(raws)} utterances to {out}: {_speed(audio_s, started)}")
    print(f"manifest: {manifest}")
    print(f"snr_db: min={min(snrs):.2f} max={max(snrs):.2f} mean={float(np.mean(snrs)):.2f}")
    return 0


def cmd_featurize(a: dict) -> int:
    cfg = _config(FrontendConfig, a)
    w = read_wav(a["wav"])
    feats = featurize(w, cfg, source_id=Path(a["wav"]).stem)
    write_features(a["out"], feats.frames)
    print(f"{a['wav']}: {feats.frames.shape[0]} frames x {feats.frames.shape[1]} mels -> {a['out']}")
    return 0


def _require_manifest(path_str: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise UsageError(f"manifest not found: {path}")
    return path


def cmd_train(a: dict) -> int:
    manifest = _require_manifest(a["manifest"])
    frontend = _config(FrontendConfig, a)
    model_cfg = _config(ModelConfig, a)
    train_cfg = _config(TrainConfig, a)
    print(
        "config\t"
        f"lr={train_cfg.lr}\tbatch_size={train_cfg.batch_size}\t"
        f"epochs={train_cfg.epochs}\tvariant={model_cfg.variant}\tseed={train_cfg.seed}"
    )
    train_utts = load_manifest_utterances(manifest, frontend, split="train")
    dev_utts = load_manifest_utterances(manifest, frontend, split="dev")
    if not train_utts:
        raise UsageError(f"{manifest}: no utterances tagged split=train")
    result = train(
        train_utts,
        train_cfg,
        model_cfg,
        dev=dev_utts or None,
        out_dir=a["out_dir"],
        log_fn=print,
        theta=a["theta"],
    )
    print(f"best\tepoch={result.best_epoch}\tdev_f1={max(r.dev_f1 for r in result.history):.6f}")
    return 0


def _load_model(a: dict) -> tuple[MlnetParams, FrontendConfig]:
    """The checkpoint's parameters and the frontend that feeds them."""
    ckpt = Path(a["checkpoint"])
    if not ckpt.exists():
        raise UsageError(f"checkpoint not found: {ckpt}")
    params = load_checkpoint(ckpt)
    frontend = _config(FrontendConfig, a)
    if frontend.n_mels != params.config.n_mels:
        raise UsageError(
            f"frontend n_mels {frontend.n_mels} does not match checkpoint "
            f"n_mels {params.config.n_mels}"
        )
    return params, frontend


def _speed(audio_s: float, started: float) -> str:
    """How long the work since ``started`` took against the audio it covered."""
    wall = time.perf_counter() - started
    return f"{audio_s:.2f} s of audio in {wall:.3f} s wall, real-time factor {wall / audio_s:.4f}"


def cmd_eval(a: dict) -> int:
    started = time.perf_counter()
    manifest = _require_manifest(a["manifest"])
    params, frontend = _load_model(a)
    if a["variant"] is not None and a["variant"] != params.config.variant:
        raise UsageError(
            "checkpoint variant does not match --variant:\n"
            f"  checkpoint: {params.config}\n"
            f"  requested variant: {a['variant']}"
        )
    utts = load_manifest_utterances(manifest, frontend, split=a["split"])
    if not utts:
        raise UsageError(f"{manifest}: no utterances tagged split={a['split']}")
    report = evaluate(utts, params, theta=a["theta"])
    sys.stdout.write(report.to_tsv())
    if a["report_out"] is not None:
        prefix = Path(a["report_out"])
        prefix.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}.json").write_text(report.to_json(), encoding="utf-8")
        Path(f"{prefix}.tsv").write_text(report.to_tsv(), encoding="utf-8")
        print(f"reports: {prefix}.json {prefix}.tsv")
    frames = sum(len(u.features) for u in utts)
    print(f"scored {frames} frames: {_speed(sum(u.features.duration_s for u in utts), started)}")
    return 0


def cmd_predict(a: dict) -> int:
    """Per-frame probabilities and labels for one WAV as a TSV; with
    ``--dump-attention`` one more column per branch, read from the
    forward pass's ``branch_weights``."""
    started = time.perf_counter()
    params, frontend = _load_model(a)
    if a["dump_attention"] and params.config.variant != "full_attention":
        raise UsageError(
            f"--dump-attention needs a full_attention checkpoint, got {params.config.variant}"
        )
    w = read_wav(a["wav"])
    feats = featurize(w, frontend, source_id=Path(a["wav"]).stem)
    if len(feats) == 0:
        raise UsageError(f"{a['wav']}: shorter than one frame, nothing to predict")
    with ad.no_grad():
        out = mlnet_forward(feats, params)
    probs = out.probs.data
    header, row = "time_s\tprob\tlabel", "%.3f\t%.6f\t%d"
    columns = [feats.frame_times, probs, probs >= a["theta"]]
    if a["dump_attention"]:
        header += "".join(f"\tp{i}" for i in range(params.config.n_branches))
        row += "\t%.6f" * params.config.n_branches
        columns.append(out.branch_weights.data)
    table = np.column_stack(columns)
    with nullcontext(sys.stdout) if a["out"] is None else open(a["out"], "w", encoding="utf-8") as stream:
        stream.write(f"{PREDICT_HEADER}\n{header}\n")
        for lo in range(0, len(table), TSV_BLOCK_ROWS):
            block = table[lo : lo + TSV_BLOCK_ROWS]
            stream.write(f"{row}\n" * len(block) % tuple(block.ravel().tolist()))
    if a["out"] is not None:
        print(f"wrote {len(feats)} frames to {a['out']}: {_speed(w.duration_s, started)}")
    return 0


def cmd_ablate(a: dict) -> int:
    manifest = _require_manifest(a["manifest"])
    frontend = _config(FrontendConfig, a)
    train_cfg = _config(TrainConfig, a)
    train_utts = load_manifest_utterances(manifest, frontend, split="train")
    dev_utts = load_manifest_utterances(manifest, frontend, split="dev")
    eval_utts = load_manifest_utterances(manifest, frontend, split="eval")
    if not train_utts:
        raise UsageError(f"{manifest}: no utterances tagged split=train")
    out_dir = Path(a["out_dir"]) if a["out_dir"] is not None else None
    rows = []
    for variant in VARIANTS:
        model_cfg = _config(ModelConfig, {**a, "variant": variant})
        ckpt_dir = out_dir / variant if out_dir is not None else None
        result = train(
            train_utts,
            train_cfg,
            model_cfg,
            dev=dev_utts or None,
            out_dir=ckpt_dir,
            theta=a["theta"],
        )
        dev_report = evaluate(dev_utts or train_utts, result.best_params, theta=a["theta"])
        if eval_utts:
            eval_report = evaluate(eval_utts, result.best_params, theta=a["theta"])
            eval_f1, eval_dcf = (
                f"{eval_report.macro_f1 * 100:.2f}",
                f"{eval_report.macro_dcf * 100:.2f}",
            )
        else:
            eval_f1 = eval_dcf = "-"
        rows.append(
            (
                variant,
                f"{dev_report.macro_f1 * 100:.2f}",
                f"{dev_report.macro_dcf * 100:.2f}",
                eval_f1,
                eval_dcf,
            )
        )
    print("variant\tdev_f1\tdev_dcf\teval_f1\teval_dcf")
    for row in rows:
        print("\t".join(row))
    return 0


# -- parser wiring -----------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple[Command, Callable]]]:
    parser = argparse.ArgumentParser(
        prog="mlnetvad",
        description="Multi-receptive-field gated-attention voice activity detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, tuple[Command, Callable]] = {}

    mix = Command(sub, "mix", "synthesize a labeled corpus: WAVs, masks, manifest")
    mix.parser.add_argument("--out", required=True, metavar="DIR", help="output corpus directory")
    mix.add("--n", convert=int, default=None, metavar="N", help="number of train-pool utterances (required)")
    mix.add("--n-eval", convert=int, default=0, metavar="N", help="extra utterances tagged split=eval")
    mix.add("--seed", convert=int, default=0, metavar="S", help="corpus seed")
    mix.add("--snr-min", convert=float, default=-5.0, metavar="DB", help="lowest mixing SNR")
    mix.add("--snr-max", convert=float, default=20.0, metavar="DB", help="highest mixing SNR")
    mix.add("--pad-s", convert=float, default=2.0, metavar="S", help="silence pad on each side")
    mix.add("--sample-rate", convert=int, default=16000, metavar="HZ", help="sample rate")
    mix.add("--dev-fraction", convert=float, default=0.05, metavar="F", help="share of the pool tagged dev")
    mix.add("--force", convert=_parse_bool, default=False, help="allow writing into a non-empty directory")
    commands["mix"] = (mix, cmd_mix)

    feat = Command(sub, "featurize", "dump log-mel features of one WAV")
    feat.parser.add_argument("--wav", required=True, metavar="FILE", help="input WAV")
    feat.parser.add_argument("--out", required=True, metavar="FILE", help="output feature dump")
    _add_frontend_flags(feat)
    commands["featurize"] = (feat, cmd_featurize)

    tr = Command(sub, "train", "train a model on a mixed corpus")
    tr.parser.add_argument("--manifest", required=True, metavar="FILE", help="corpus manifest")
    tr.parser.add_argument("--out-dir", required=True, metavar="DIR", help="checkpoint/log directory")
    tr.add("--seed", convert=int, default=TrainConfig.seed, metavar="S", help="training seed")
    _add_train_flags(tr)
    _add_model_flags(tr)
    _add_frontend_flags(tr)
    commands["train"] = (tr, cmd_train)

    ev = Command(sub, "eval", "score a checkpoint against a manifest split")
    ev.parser.add_argument("--manifest", required=True, metavar="FILE", help="corpus manifest")
    ev.parser.add_argument("--checkpoint", required=True, metavar="FILE", help="model checkpoint")
    ev.add("--theta", convert=float, default=0.5, metavar="F", help="decision threshold")
    ev.add("--split", convert=str, default="dev", help="manifest split to score")
    ev.add("--variant", convert=str, default=None, help="require the checkpoint to have this variant")
    ev.add("--report-out", convert=str, default=None, metavar="PREFIX",
           help="write PREFIX.json and PREFIX.tsv reports")
    _add_frontend_flags(ev)
    commands["eval"] = (ev, cmd_eval)

    pr = Command(sub, "predict", "per-frame probabilities and labels for one WAV")
    pr.parser.add_argument("--wav", required=True, metavar="FILE", help="input WAV")
    pr.parser.add_argument("--checkpoint", required=True, metavar="FILE", help="model checkpoint")
    pr.add("--out", convert=str, default=None, metavar="FILE", help="output TSV (default: stdout)")
    pr.add("--theta", convert=float, default=0.5, metavar="F", help="decision threshold")
    pr.add("--dump-attention", convert=_parse_bool, default=False,
           help="append per-branch attention weights to every row")
    _add_frontend_flags(pr)
    commands["predict"] = (pr, cmd_predict)

    ab = Command(sub, "ablate", "train and score all four variants on one corpus")
    ab.parser.add_argument("--manifest", required=True, metavar="FILE", help="corpus manifest")
    ab.add("--out-dir", convert=str, default=None, metavar="DIR", help="per-variant checkpoint directory")
    ab.add("--seed", convert=int, default=TrainConfig.seed, metavar="S", help="shared training seed")
    _add_train_flags(ab)
    _add_model_flags(ab)
    _add_frontend_flags(ab)
    commands["ablate"] = (ab, cmd_ablate)

    return parser, commands


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    ns = parser.parse_args(argv)
    command, runner = commands[ns.command]
    try:
        merged = command.resolve(ns)
        # required positional-style options live on the namespace only
        for dest in ("out", "manifest", "checkpoint", "wav", "out_dir"):
            if hasattr(ns, dest) and dest not in merged:
                merged[dest] = getattr(ns, dest)
        return runner(merged)
    except (UsageError, ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MlnetVadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
