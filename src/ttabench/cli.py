"""Command-line surface: ingest, adapt, evaluate, analyze, report.

Exit codes: 0 success, 2 validation error (bad arguments, config, or input
files), 3 runtime error, 4 partial completion (the run finished but some
utterances were flagged). The ``TTABENCH_CACHE`` environment variable sets
the default parent directory for outputs when ``--out`` is omitted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    GainCorrelation,
    bhattacharyya_distance,
    correlate_gains,
    gaussian_summary,
    project_2d,
    within_speaker_variance,
    write_correlations_csv,
    write_projection_input,
)
from .corpus.audio import read_audio
from .corpus.features import compute_mfcc
from .corpus.manifest import (
    CorpusManifest,
    Split,
    Utterance,
    duration_stats,
    filter_max_duration,
    load_manifest,
    save_manifest,
    word_duration,
)
from .corpus.vad import detect_nonspeech, ems_energy
from .engine.artifacts import (
    RunWriter,
    read_run_config,
    read_run_records,
    sha256_file,
    speaker_wers_from_records,
)
from .engine.config import AdaptationConfig, resolve_config
from .engine.runner import run_experiment
from .errors import (
    AnalysisError,
    CheckpointError,
    ConfigError,
    EvaluationError,
    ManifestError,
    SpeakerSetMismatchError,
    TtaBenchError,
    UnknownGroupError,
    UnsupportedFormatError,
)
from .evaluation import (
    SpeakerReport,
    build_delta_table,
    format_delta_table,
    rank_speakers_by_baseline,
    unweighted_mean_wer,
    write_delta_table_csv,
    write_speaker_gains_csv,
)
from .model.reference import checkpoint_fingerprint, load_checkpoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_PARTIAL = 4

_VALIDATION_ERRORS = (
    ManifestError,
    ConfigError,
    CheckpointError,
    EvaluationError,
    AnalysisError,
    UnknownGroupError,
    UnsupportedFormatError,
    FileNotFoundError,
)

METRIC_COLUMNS = ("ems_energy", "word_duration_s", "within_variance", "bhattacharyya_to_pool")


def _default_out(name: str) -> Path:
    return Path(os.environ.get("TTABENCH_CACHE", ".ttabench")) / name


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation of cmd_adapt: flags merged over the ``--config``
    file. Only its ``adaptation`` part is written to the run directory."""

    manifest_path: str
    checkpoint_ref: str
    output_dir: str
    adaptation: AdaptationConfig
    methods: tuple[str, ...] = ("suta",)
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in ("none", "suta", "sgem"):
                raise ConfigError(f"unknown method {m!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def validate_paths(self) -> None:
        if not Path(self.manifest_path).exists():
            raise ConfigError(f"manifest not found: {self.manifest_path}")
        if not Path(self.checkpoint_ref).exists():
            raise ConfigError(f"checkpoint not found: {self.checkpoint_ref}")
        out = Path(self.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ConfigError(f"output directory not writable: {out}")


# the keys an ``adapt --config`` file may hold, with the JSON type of each
_CONFIG_FILE_KEYS = {
    "adaptation": dict,
    "seed": int,
    "methods": list,
    "manifest_path": str,
    "checkpoint_ref": str,
    "output_dir": str,
    "workers": int,
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_FILE_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}; known: {sorted(_CONFIG_FILE_KEYS)}")
    for key, value in data.items():
        kind = _CONFIG_FILE_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(
                f"config key {key!r} must be {kind.__name__}, got {type(value).__name__}"
            )
    return data


# --- ingest ---------------------------------------------------------------------


def _discover_source(source: Path) -> list[Utterance]:
    """Scan <source>/<speaker_id>/<utterance_id>.wav with .txt transcripts."""
    utterances: list[Utterance] = []
    wavs = sorted(source.glob("*/*.wav"))
    if not wavs:
        raise ManifestError(f"no <speaker>/<utterance>.wav files under {source}")
    for wav in wavs:
        txt = wav.with_suffix(".txt")
        if not txt.exists():
            raise ManifestError(f"missing transcript file: {txt}")
        w = read_audio(wav)
        utterances.append(
            Utterance(
                utterance_id=wav.stem,
                speaker_id=wav.parent.name,
                audio_path=str(wav),
                transcript=txt.read_text(encoding="utf-8").strip(),
                duration_s=w.duration_s,
            )
        )
    return utterances


def cmd_ingest(args: argparse.Namespace) -> int:
    if bool(args.source) == bool(args.from_manifest):
        raise ConfigError("exactly one of --source or --from-manifest is required")
    split = Split(args.split)
    if args.source:
        manifest = CorpusManifest(split=split, utterances=tuple(_discover_source(Path(args.source))))
    else:
        manifest = load_manifest(Path(args.from_manifest), split=split)
    if args.max_duration is not None:
        manifest = filter_max_duration(manifest, args.max_duration)
        if not manifest.utterances:
            raise ManifestError(f"no utterances shorter than {args.max_duration}s")
    out = Path(args.out) if args.out else _default_out("manifest.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(manifest, out)
    stats = duration_stats(manifest)
    print(f"wrote {out}")
    print(
        f"split={manifest.split.value} utterances={len(manifest)} "
        f"speakers={stats.n_speakers} "
        f"duration mean={stats.mean_duration_s:.2f}s sd={stats.sd_duration_s:.2f}s "
        f"total={stats.total_hours:.3f}h"
    )
    return EXIT_OK


# --- adapt ----------------------------------------------------------------------


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config)
    adaptation_base = dict(file_cfg.get("adaptation", {}))
    if "seed" in file_cfg and "seed" not in adaptation_base:
        adaptation_base["seed"] = file_cfg["seed"]
    overrides = {
        "steps_n": args.steps,
        "alpha": args.alpha,
        "lam": args.lam,
        "temperature": args.temperature,
        "rho": args.rho,
        "neg_k": args.neg_k,
        "mode": args.mode,
        "learning_rate": args.lr,
        "optimizer": args.optimizer,
        "seed": args.seed,
    }
    if args.groups is not None:
        overrides["adapted_groups"] = tuple(g for g in args.groups.split(",") if g)
    if args.exclude_blank_frames:
        overrides["exclude_blank_frames"] = True
    adaptation = resolve_config(adaptation_base, overrides)

    methods = args.method.split(",") if args.method else file_cfg.get("methods", ["suta"])
    manifest_path = args.manifest or file_cfg.get("manifest_path")
    checkpoint = args.checkpoint or file_cfg.get("checkpoint_ref")
    output_dir = args.out or file_cfg.get("output_dir") or str(_default_out("runs"))
    if manifest_path is None:
        raise ConfigError("--manifest (or manifest_path in the config file) is required")
    if checkpoint is None:
        raise ConfigError("--checkpoint (or checkpoint_ref in the config file) is required")
    return RunConfig(
        manifest_path=str(manifest_path),
        checkpoint_ref=str(checkpoint),
        output_dir=str(output_dir),
        adaptation=adaptation,
        methods=tuple(methods),
        workers=args.workers if args.workers is not None else file_cfg.get("workers", 1),
    )


def cmd_adapt(args: argparse.Namespace) -> int:
    run_cfg = _build_run_config(args)
    run_cfg.validate_paths()
    manifest = load_manifest(Path(run_cfg.manifest_path))
    fingerprint = checkpoint_fingerprint(Path(run_cfg.checkpoint_ref))
    factory = functools.partial(load_checkpoint, Path(run_cfg.checkpoint_ref))

    any_flagged = False
    for method in run_cfg.methods:
        config = dataclasses.replace(run_cfg.adaptation, method=method)
        out_dir = Path(run_cfg.output_dir)
        if len(run_cfg.methods) > 1:
            out_dir = out_dir / method
        writer = RunWriter(out_dir, config)
        completed = writer.completed_speakers() if args.resume else {}
        result = run_experiment(
            factory,
            manifest,
            config,
            workers=run_cfg.workers,
            completed=completed,
            on_speaker_done=writer.speaker_done,
        )
        results_path = writer.finalize(
            result,
            manifest_path=Path(run_cfg.manifest_path),
            checkpoint_fingerprint=fingerprint,
        )
        flagged = sum(1 for r in result.records() if r.flags)
        any_flagged = any_flagged or flagged > 0
        mean = result.mean_speaker_wer()
        print(
            f"method={method} speakers={len(result.speakers)} "
            f"mean_speaker_wer={mean:.4f} flagged={flagged} -> {results_path}"
        )
    return EXIT_PARTIAL if any_flagged else EXIT_OK


# --- evaluate -------------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    records = read_run_records(Path(args.run))
    config = read_run_config(Path(args.run))
    by_speaker = speaker_wers_from_records(records)
    mean = unweighted_mean_wer(list(by_speaker.values()))
    print(f"method={config.method.value} speakers={len(by_speaker)} mean_speaker_wer={mean:.4f}")
    for speaker_id, value in by_speaker.items():
        print(f"  {speaker_id}: wer={value:.4f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["speaker_id", "wer"])
            for speaker_id, value in by_speaker.items():
                writer.writerow([speaker_id, repr(value)])
        print(f"wrote {args.csv}")
    return EXIT_OK


# --- analyze --------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if not Path(args.manifest).exists():
        raise ConfigError(f"manifest not found: {args.manifest}")
    manifest = load_manifest(Path(args.manifest))
    out_dir = Path(args.out) if args.out else _default_out("analysis")
    out_dir.mkdir(parents=True, exist_ok=True)

    want_ems = "ems_energy" in args.metrics
    want_wd = "word_duration_s" in args.metrics
    want_dist = "within_variance" in args.metrics or "bhattacharyya_to_pool" in args.metrics

    per_speaker: dict[str, dict[str, float]] = {}
    means_by_speaker: dict[str, list[np.ndarray]] = {}
    ids: list[str] = []
    mean_vectors: list[np.ndarray] = []
    for speaker_id, utterances in sorted(manifest.speakers().items()):
        ems_values: list[float] = []
        wd_values: list[float] = []
        for u in utterances:
            if want_wd:
                wd_values.append(word_duration(u))
            if want_ems or want_dist or args.projection != "none":
                w = read_audio(Path(u.audio_path))
                if want_ems:
                    ems_values.append(ems_energy(w, detect_nonspeech(w)).value)
                if want_dist or args.projection != "none":
                    vec = compute_mfcc(w).frames.mean(axis=0)
                    means_by_speaker.setdefault(speaker_id, []).append(vec)
                    ids.append(u.utterance_id)
                    mean_vectors.append(vec)
        row: dict[str, float] = {"n_utterances": float(len(utterances))}
        if want_ems:
            row["ems_energy"] = float(np.mean(ems_values))
        if want_wd:
            row["word_duration_s"] = float(np.mean(wd_values))
        per_speaker[speaker_id] = row

    if want_dist:
        pooled = gaussian_summary(np.vstack([v for vs in means_by_speaker.values() for v in vs]))
        for speaker_id, vectors in means_by_speaker.items():
            points = np.vstack(vectors)
            if "within_variance" in args.metrics:
                per_speaker[speaker_id]["within_variance"] = within_speaker_variance(points)
            if "bhattacharyya_to_pool" in args.metrics:
                per_speaker[speaker_id]["bhattacharyya_to_pool"] = bhattacharyya_distance(
                    gaussian_summary(points), pooled
                )

    metrics_path = out_dir / "speaker_metrics.csv"
    columns = ["speaker_id", "n_utterances"] + [m for m in METRIC_COLUMNS if m in args.metrics]
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for speaker_id in sorted(per_speaker):
            row = per_speaker[speaker_id]
            writer.writerow(
                [speaker_id, int(row["n_utterances"])]
                + [repr(row[m]) for m in columns[2:]]
            )
    print(f"wrote {metrics_path}")

    if args.projection == "pca":
        projection = project_2d(np.vstack(mean_vectors))
        proj_path = out_dir / "projection_2d.csv"
        with open(proj_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["point_id", "x", "y"])
            for point_id, (x, y) in zip(ids, projection.points):
                writer.writerow([point_id, repr(float(x)), repr(float(y))])
        print(f"wrote {proj_path}")
    elif args.projection == "export":
        proj_path = out_dir / "projection_points.csv"
        write_projection_input(ids, np.vstack(mean_vectors), proj_path)
        print(f"wrote {proj_path} (feed to an external embedding tool)")
    return EXIT_OK


# --- report ---------------------------------------------------------------------


def _read_metrics_csv(path: Path) -> dict[str, dict[str, float]]:
    """speaker_metrics.csv -> {metric: {speaker: value}}."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "speaker_id" not in reader.fieldnames:
            raise AnalysisError(f"{path} lacks a speaker_id column")
        out: dict[str, dict[str, float]] = {
            name: {} for name in reader.fieldnames if name in METRIC_COLUMNS
        }
        for row in reader:
            for name in out:
                out[name][row["speaker_id"]] = float(row[name])
    return out


def cmd_report(args: argparse.Namespace) -> int:
    run_dirs = [Path(r) for r in args.runs]
    if len(run_dirs) < 2:
        raise EvaluationError("need at least two completed runs (a baseline and an adapted run)")
    runs: dict[str, dict[str, float]] = {}
    for run_dir in run_dirs:
        config = read_run_config(run_dir)
        method = config.method.value
        if method in runs:
            raise ConfigError(f"two runs share method {method!r}; pass one run per method")
        runs[method] = speaker_wers_from_records(read_run_records(run_dir))
    if "none" not in runs:
        raise EvaluationError('a baseline run (method "none") is required')
    baseline = runs["none"]
    adapted_methods = [m for m in runs if m != "none"]
    if not adapted_methods:
        raise EvaluationError("no adapted runs to compare against the baseline")
    for method in adapted_methods:
        if set(runs[method]) != set(baseline):
            raise SpeakerSetMismatchError(
                f"run {method!r} covers different speakers than the baseline"
            )

    out_dir = Path(args.out) if args.out else _default_out("report")
    # validate the correlation inputs before any file is written, so a bad
    # flag combination leaves no partial report behind
    all_metrics: dict[str, dict[str, float]] = {}
    metric_names: list[str] = []
    if args.correlations:
        if not args.metrics_csv:
            raise ConfigError("--correlations requires --metrics-csv from the analyze command")
        metric_names = [m for m in args.correlations.split(",") if m]
        all_metrics = _read_metrics_csv(Path(args.metrics_csv))
        missing = [m for m in metric_names if m not in all_metrics]
        if missing:
            raise AnalysisError(f"metrics not present in {args.metrics_csv}: {missing}")

    out_dir.mkdir(parents=True, exist_ok=True)
    setting = args.setting

    per_method = {
        method: [
            SpeakerReport(speaker_id=s, baseline_wer=baseline[s], adapted_wer=runs[method][s])
            for s in sorted(baseline)
        ]
        for method in adapted_methods
    }
    table = build_delta_table({(setting, m): reports for m, reports in per_method.items()})
    print(format_delta_table(table))
    delta_path = out_dir / "delta_table.csv"
    write_delta_table_csv(table, delta_path)

    ranking = rank_speakers_by_baseline(next(iter(per_method.values())))
    gains_path = out_dir / "speaker_gains.csv"
    write_speaker_gains_csv(per_method, ranking, gains_path)

    inventory = {delta_path.name: sha256_file(delta_path), gains_path.name: sha256_file(gains_path)}

    if args.correlations:
        # compute every row before opening the file so a failed correlation
        # (for example a constant metric) leaves no partial csv behind
        corr_rows: list[tuple[str, GainCorrelation]] = []
        for method in adapted_methods:
            gains = {s: baseline[s] - runs[method][s] for s in baseline}
            rows = correlate_gains(
                gains, {m: all_metrics[m] for m in metric_names}, alpha=args.alpha
            )
            corr_rows.extend((method, row) for row in rows)
        corr_path = out_dir / "correlations.csv"
        write_correlations_csv(corr_rows, corr_path)
        inventory[corr_path.name] = sha256_file(corr_path)
        print(f"wrote {corr_path}")

    summary = {
        "mean_wer": {
            "none": unweighted_mean_wer(list(baseline.values())),
            **{m: unweighted_mean_wer(list(runs[m].values())) for m in adapted_methods},
        },
        "rows": [dataclasses.asdict(r) for r in table],
        "files": inventory,
    }
    summary_path = out_dir / "run_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {delta_path}")
    print(f"wrote {gains_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttabench",
        description="Test-time adaptation benchmark for CTC speech recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build or validate a corpus manifest")
    p.add_argument("--source", help="directory of <speaker>/<utterance>.wav + .txt files")
    p.add_argument("--from-manifest", help="existing manifest to validate/filter")
    p.add_argument("--split", default="test", choices=[s.value for s in Split])
    p.add_argument("--max-duration", type=float, default=None, help="keep utterances < this many seconds")
    p.add_argument("--out", help="output manifest path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("adapt", help="run test-time adaptation over a manifest")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.add_argument("--method", help="comma-separated subset of none,suta,sgem")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--neg-k", type=int, default=None, dest="neg_k")
    p.add_argument("--mode", choices=["episodic", "continual"], default=None)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--groups", default=None, help="comma-separated parameter groups to adapt")
    p.add_argument("--exclude-blank-frames", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help="speaker-level parallelism")
    p.add_argument("--no-resume", dest="resume", action="store_false")
    p.set_defaults(func=cmd_adapt, resume=True)

    p = sub.add_parser("evaluate", help="summarize WER for one finished run")
    p.add_argument("--run", required=True, help="run directory from adapt")
    p.add_argument("--csv", help="optional per-speaker WER CSV output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="compute per-speaker shift metrics from audio")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.add_argument(
        "--metrics",
        default=",".join(METRIC_COLUMNS),
        help=f"comma-separated subset of {','.join(METRIC_COLUMNS)}",
    )
    p.add_argument("--projection", choices=["none", "pca", "export"], default="none")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="compare runs: delta table, gains, correlations")
    p.add_argument("--runs", nargs="+", required=True, help="run directories (include a method=none baseline)")
    p.add_argument("--out")
    p.add_argument("--setting", default="default", help="label for the corpus/setting column")
    p.add_argument("--correlations", help="comma-separated metric names to correlate with gains")
    p.add_argument("--metrics-csv", help="speaker_metrics.csv from the analyze command")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level for corrections")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "metrics"):
        requested = [m for m in args.metrics.split(",") if m]
        unknown = [m for m in requested if m not in METRIC_COLUMNS]
        if unknown:
            print(f"error: unknown metrics {unknown}", file=sys.stderr)
            return EXIT_VALIDATION
        args.metrics = requested
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TtaBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
