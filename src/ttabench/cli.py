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
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    METRIC_COLUMNS,
    GainCorrelation,
    correlate_gains,
    project_2d,
    speaker_shift_metrics,
    write_correlations_csv,
)
from .corpus.audio import read_audio
from .corpus.manifest import (
    CorpusManifest,
    Utterance,
    duration_stats,
    filter_max_duration,
    load_manifest,
    save_manifest,
)
from .engine.artifacts import (
    RunWriter,
    read_run_config,
    read_run_records,
    sha256_file,
    speaker_wers_from_records,
)
from .engine.config import ADAPTATION_FIELDS, AdaptationConfig, AdaptationMethod, resolve_config
from .engine.runner import run_experiment
from .errors import (
    AnalysisError,
    CheckpointError,
    ConfigError,
    EvaluationError,
    ManifestError,
    TtaBenchError,
    UnsupportedFormatError,
)
from .evaluation import (
    build_delta_table,
    format_delta_table,
    unweighted_mean_wer,
    write_csv,
    write_delta_table_csv,
    write_speaker_gains_csv,
)
from .jsonfields import INTEGER, STRING, STRINGS, Fields, check_object, object_of
from .model.reference import load_checkpoint

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
    UnsupportedFormatError,
    FileNotFoundError,
)


def _default_out(name: str) -> Path:
    return Path(os.environ.get("TTABENCH_CACHE", ".ttabench")) / name


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(item for item in text.split(",") if item)


# the keys an ``adapt --config`` file may hold, each optional, with the JSON type of each
_CONFIG_FILE_TYPES = {
    "adaptation": object_of(ADAPTATION_FIELDS),
    "methods": STRINGS,
    **dict.fromkeys(("manifest_path", "checkpoint_ref", "output_dir"), STRING),
    "workers": INTEGER,
}
_CONFIG_FILE_FIELDS = Fields(_CONFIG_FILE_TYPES, optional=_CONFIG_FILE_TYPES)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    raw = Path(path).read_bytes()
    return check_object(raw, _CONFIG_FILE_FIELDS, f"config file {path}", ConfigError)


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
        try:
            transcript = txt.read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ManifestError(f"transcript file {txt} is not UTF-8: {exc}") from exc
        w = read_audio(wav)
        utterances.append(
            Utterance(
                utterance_id=wav.stem,
                speaker_id=wav.parent.name,
                audio_path=str(wav),
                transcript=transcript,
                duration_s=w.duration_s,
            )
        )
    return utterances


def cmd_ingest(args: argparse.Namespace) -> int:
    if bool(args.source) == bool(args.from_manifest):
        raise ConfigError("exactly one of --source or --from-manifest is required")
    if args.max_duration is not None and not args.max_duration > 0:
        raise ConfigError(f"--max-duration must be positive, got {args.max_duration}")
    if args.source:
        manifest = CorpusManifest(utterances=tuple(_discover_source(Path(args.source))))
    else:
        manifest = load_manifest(Path(args.from_manifest))
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
        f"utterances={len(manifest)} "
        f"speakers={stats.n_speakers} "
        f"duration mean={stats.mean_duration_s:.2f}s sd={stats.sd_duration_s:.2f}s "
        f"total={stats.total_hours:.3f}h"
    )
    return EXIT_OK


# --- adapt ----------------------------------------------------------------------


def cmd_adapt(args: argparse.Namespace) -> int:
    # flags override the --config file; only the adaptation settings reach the run directory
    file_cfg = _load_config_file(args.config)
    adaptation_base = file_cfg.get("adaptation", {})
    if "method" in adaptation_base:
        # each method of a run gets its own config, so a single one here would go unread
        raise ConfigError(
            "config key 'adaptation.method' is not read; list methods in 'methods' or pass --method"
        )
    # each adapt flag's dest is the field it sets, None when the flag is left out
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(AdaptationConfig)}
    adaptation = resolve_config(adaptation_base, overrides)

    methods = args.methods if args.methods is not None else tuple(file_cfg.get("methods", ["suta"]))
    manifest_path = args.manifest or file_cfg.get("manifest_path")
    checkpoint = args.checkpoint or file_cfg.get("checkpoint_ref")
    output_dir = Path(args.out or file_cfg.get("output_dir") or _default_out("runs"))
    workers = args.workers if args.workers is not None else file_cfg.get("workers", 1)
    if manifest_path is None:
        raise ConfigError("--manifest (or manifest_path in the config file) is required")
    if checkpoint is None:
        raise ConfigError("--checkpoint (or checkpoint_ref in the config file) is required")
    if not methods:
        raise ConfigError("at least one method is required")
    for m in methods:
        if m not in {k.value for k in AdaptationMethod}:
            raise ConfigError(f"unknown method {m!r}")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    # the manifest and the checkpoint are checked as they are read
    output_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(output_dir, os.W_OK):
        raise ConfigError(f"output directory not writable: {output_dir}")

    # each input is read once, and the run records the sha256 of the bytes it parsed
    manifest = load_manifest(Path(manifest_path))
    model = load_checkpoint(Path(checkpoint))
    inputs = {
        "checkpoint_fingerprint": model.source_sha256,
        "corpus_manifest_sha256": manifest.source_sha256,
    }
    if "sgem" in methods:
        # sgem keeps the top neg_k of the checkpoint's output classes per frame
        n_classes = len(model.vocabulary())
        if adaptation.neg_k >= n_classes:
            raise ConfigError(
                f"neg_k must be below the checkpoint's {n_classes} output classes, "
                f"got {adaptation.neg_k}"
            )

    any_flagged = False
    for method in methods:
        config = dataclasses.replace(adaptation, method=method)
        out_dir = output_dir / method if len(methods) > 1 else output_dir
        writer = RunWriter(out_dir, config, inputs, resume=args.resume)
        completed = writer.completed_speakers() if args.resume else {}
        result = run_experiment(
            model,
            manifest,
            config,
            workers=workers,
            completed=completed,
            on_speaker_done=writer.speaker_done,
        )
        results_path = writer.finalize(result)
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
        write_csv(args.csv, ["speaker_id", "wer"], ([s, repr(v)] for s, v in by_speaker.items()))
        print(f"wrote {args.csv}")
    return EXIT_OK


# --- analyze --------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.metrics:
        raise ConfigError("at least one metric is required")
    unknown = [m for m in args.metrics if m not in METRIC_COLUMNS]
    if unknown:
        raise ConfigError(f"unknown metrics {unknown}")
    if not Path(args.manifest).exists():
        raise ConfigError(f"manifest not found: {args.manifest}")
    manifest = load_manifest(Path(args.manifest))
    out_dir = Path(args.out) if args.out else _default_out("analysis")
    out_dir.mkdir(parents=True, exist_ok=True)

    per_speaker, points = speaker_shift_metrics(
        manifest, args.metrics, points=args.projection == "pca"
    )
    metrics_path = out_dir / "speaker_metrics.csv"
    columns = ["speaker_id", "n_utterances"] + [m for m in METRIC_COLUMNS if m in args.metrics]
    rows = (
        [s, per_speaker[s]["n_utterances"], *(repr(per_speaker[s][m]) for m in columns[2:])]
        for s in sorted(per_speaker)
    )
    write_csv(metrics_path, columns, rows)
    print(f"wrote {metrics_path}")

    if args.projection == "pca":
        projection = project_2d(np.vstack([v for _, v in points]))
        proj_path = out_dir / "projection_2d.csv"
        rows = ([p, repr(float(x)), repr(float(y))] for (p, _), (x, y) in zip(points, projection))
        write_csv(proj_path, ["point_id", "x", "y"], rows)
        print(f"wrote {proj_path}")
    return EXIT_OK


# --- report ---------------------------------------------------------------------


def _read_metrics_csv(path: Path) -> dict[str, dict[str, float]]:
    """speaker_metrics.csv -> {metric: {speaker: value}}."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise AnalysisError(f"{path} is not UTF-8: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None or "speaker_id" not in reader.fieldnames:
        raise AnalysisError(f"{path} lacks a speaker_id column")
    out: dict[str, dict[str, float]] = {
        name: {} for name in reader.fieldnames if name in METRIC_COLUMNS
    }
    for row in reader:
        for name in out:
            try:
                value = float(row[name])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise AnalysisError(
                    f"{path} line {reader.line_num}, column {name!r}: "
                    f"not a finite number: {row[name]!r}"
                )
            out[name][row["speaker_id"]] = value
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
    baseline = runs.pop("none")
    if not runs:
        raise EvaluationError("no adapted runs to compare against the baseline")

    table = build_delta_table(args.setting, baseline, runs)
    # compute every output before writing any, so a bad flag, a bad metrics
    # file or a failed correlation (for example a constant metric) leaves no
    # partial report behind
    if args.correlations is not None:
        if not args.correlations:
            raise ConfigError("at least one metric is required")
        if not args.metrics_csv:
            raise ConfigError("--correlations requires --metrics-csv from the analyze command")
        all_metrics = _read_metrics_csv(Path(args.metrics_csv))
        missing = [m for m in args.correlations if m not in all_metrics]
        if missing:
            raise AnalysisError(f"metrics not present in {args.metrics_csv}: {missing}")
        metrics = {m: all_metrics[m] for m in args.correlations}
    print(format_delta_table(table))
    corr_rows: list[tuple[str, GainCorrelation]] = []
    if args.correlations:
        for method, wers in runs.items():
            gains = {s: baseline[s] - wers[s] for s in baseline}
            rows = correlate_gains(gains, metrics, alpha=args.alpha)
            corr_rows.extend((method, row) for row in rows)

    out_dir = Path(args.out) if args.out else _default_out("report")
    out_dir.mkdir(parents=True, exist_ok=True)
    delta_path = out_dir / "delta_table.csv"
    write_delta_table_csv(table, delta_path)
    gains_path = out_dir / "speaker_gains.csv"
    write_speaker_gains_csv(baseline, runs, gains_path)
    inventory = {delta_path.name: sha256_file(delta_path), gains_path.name: sha256_file(gains_path)}
    if args.correlations:
        corr_path = out_dir / "correlations.csv"
        write_correlations_csv(corr_rows, corr_path)
        inventory[corr_path.name] = sha256_file(corr_path)
        print(f"wrote {corr_path}")

    summary = {
        "mean_wer": {
            "none": unweighted_mean_wer(list(baseline.values())),
            **{m: unweighted_mean_wer(list(wers.values())) for m, wers in runs.items()},
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
    p.add_argument("--max-duration", type=float, default=None, help="keep utterances < this many seconds")
    p.add_argument("--out", help="output manifest path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("adapt", help="run test-time adaptation over a manifest")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.add_argument("--method", dest="methods", type=_comma_list,
                   help="comma-separated subset of none,suta,sgem")
    # each setting's dest is its AdaptationConfig field, which cmd_adapt reads by name
    p.add_argument("--steps", type=int, default=None, dest="steps_n")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--neg-k", type=int, default=None, dest="neg_k")
    p.add_argument("--mode", choices=["episodic", "continual"], default=None)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=None)
    p.add_argument("--lr", type=float, default=None, dest="learning_rate")
    p.add_argument("--groups", type=_comma_list, dest="adapted_groups",
                   help="comma-separated parameter groups to adapt")
    p.add_argument("--exclude-blank-frames", action="store_true", default=None)
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
        type=_comma_list,
        default=",".join(METRIC_COLUMNS),
        help=f"comma-separated subset of {','.join(METRIC_COLUMNS)}",
    )
    p.add_argument("--projection", choices=["none", "pca"], default="none")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="compare runs: delta table, gains, correlations")
    p.add_argument("--runs", nargs="+", required=True, help="run directories (include a method=none baseline)")
    p.add_argument("--out")
    p.add_argument("--setting", default="default", help="label for the corpus/setting column")
    p.add_argument("--correlations", type=_comma_list,
                   help="comma-separated metric names to correlate with gains")
    p.add_argument("--metrics-csv", help="speaker_metrics.csv from the analyze command")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level for corrections")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
