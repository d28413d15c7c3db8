"""Where the tracer's wrappers go, and the per-layer metrics read off the spans.

Layers are the package's modules: corpus, model, objectives, engine,
evaluation, analysis, synthetic and cli. The convolution, GELU and
layer-norm helpers are private to ``model/reference.py`` and are measured
together inside ``model.gradient`` and ``model.forward``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from .tracer import SpanTable, Tracer

PER_LAYER = (
    ("model.gradient.calls", "count", "lower"),
    ("model.gradient.frames", "count", "lower"),
    ("model.gradient.self_s", "s", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.forward.s", "s", "lower"),
    ("model.forward_per_decode", "ratio", "lower"),
    ("model.load_checkpoint.calls", "count", "lower"),
    ("model.load_checkpoint.s", "s", "lower"),
    ("model.apply_update.s", "s", "lower"),
    ("model.snapshot_restore.s", "s", "lower"),
    ("model.greedy_ctc_decode.calls", "count", "lower"),
    ("model.greedy_ctc_decode.s", "s", "lower"),
    ("objectives.suta_loss_and_grad.calls", "count", "lower"),
    ("objectives.suta_loss_and_grad.s", "s", "lower"),
    ("objectives.sgem_loss_and_grad.calls", "count", "lower"),
    ("objectives.sgem_loss_and_grad.s", "s", "lower"),
    ("synthetic.frame_ce.s", "s", "lower"),
    ("synthetic.build_training_set.s", "s", "lower"),
    ("synthetic.build_shifted_corpus.s", "s", "lower"),
    ("engine.adapt_utterance.calls", "count", "lower"),
    ("engine.adapt_utterance.self_s", "s", "lower"),
    ("engine.split_waveform.chunks", "count", "lower"),
    ("engine.optim_step.calls", "count", "lower"),
    ("engine.optim_step.s", "s", "lower"),
    ("engine.adapt_speaker.max_s", "s", "lower"),
    ("engine.worker_busy_ratio", "ratio", "higher"),
    ("engine.cpu_util", "ratio", "lower"),
    ("engine.artifacts.write_s", "s", "lower"),
    ("engine.artifacts.bytes", "B", "lower"),
    ("corpus.read_audio.calls", "count", "lower"),
    ("corpus.read_audio.s", "s", "lower"),
    ("corpus.compute_mfcc.s", "s", "lower"),
    ("corpus.detect_nonspeech.calls", "count", "lower"),
    ("corpus.detect_nonspeech.s", "s", "lower"),
    ("evaluation.wer.calls", "count", "lower"),
    ("evaluation.wer.s", "s", "lower"),
    ("evaluation.report_stats.s", "s", "lower"),
    ("analysis.s", "s", "lower"),
    ("cli.adapt.s", "s", "lower"),
    ("cli.analyze.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def _frames(args, kwargs, result):
    model, w = args[0], args[1]
    return {"frames": model.output_length(len(w.samples))}


def _chunks(args, kwargs, result):
    return {"chunks": len(result)}


def _speaker_file_bytes(args, kwargs, result):
    writer, speaker = args[0], args[1]
    return {"bytes": (Path(writer.out_dir) / "speakers" / f"{speaker.speaker_id}.jsonl").stat().st_size}


def _finalize_bytes(args, kwargs, result):
    out_dir = Path(args[0].out_dir)
    return {"bytes": sum((out_dir / n).stat().st_size for n in ("results.jsonl", "run_manifest.json"))}


def _nonzero_exit(args, kwargs, result):
    return {"nonzero": int(result != 0)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; undo with ``tracer.uninstall``."""
    import ttabench.cli  # noqa: F401  (loads every module that binds the names below)
    import ttabench.synthetic as synthetic
    from ttabench.engine.artifacts import RunWriter
    from ttabench.engine.optim import Adam, Sgd
    from ttabench.model.reference import ReferenceModel

    fn = tracer.install_function
    fn("ttabench.corpus.audio", "read_audio", "corpus.read_audio")
    fn("ttabench.corpus.features", "compute_mfcc", "corpus.compute_mfcc")
    fn("ttabench.corpus.vad", "detect_nonspeech", "corpus.detect_nonspeech")
    fn("ttabench.model.reference", "load_checkpoint", "model.load_checkpoint")
    fn("ttabench.model.decode", "greedy_ctc_decode", "model.greedy_ctc_decode")
    fn("ttabench.objectives", "suta_loss_and_grad", "objectives.suta_loss_and_grad")
    fn("ttabench.objectives", "sgem_loss_and_grad", "objectives.sgem_loss_and_grad")
    fn("ttabench.synthetic", "build_training_set", "synthetic.build_training_set")
    fn("ttabench.synthetic", "build_shifted_corpus", "synthetic.build_shifted_corpus")
    fn("ttabench.engine.runner", "adapt_utterance", "engine.adapt_utterance")
    fn("ttabench.engine.runner", "split_waveform", "engine.split_waveform", counter=_chunks)
    # pool workers write their spans out after each speaker they finish
    fn("ttabench.engine.runner", "adapt_speaker", "engine.adapt_speaker", spill=True)
    fn("ttabench.engine.runner", "run_experiment", "engine.run_experiment")
    fn("ttabench.evaluation", "wer", "evaluation.wer")
    fn("ttabench.evaluation", "build_delta_table", "evaluation.report_stats")
    for name in ("gaussian_summary", "bhattacharyya_distance", "within_speaker_variance",
                 "project_2d", "correlate_gains"):
        fn("ttabench.analysis", name, "analysis")
    fn("ttabench.cli", "cmd_adapt", "cli.adapt")
    fn("ttabench.cli", "cmd_analyze", "cli.analyze")
    fn("ttabench.cli", "cmd_report", "cli.report")
    fn("ttabench.cli", "main", "cli.main", counter=_nonzero_exit)

    tracer.install_method(ReferenceModel, "forward", "model.forward")
    tracer.install_method(ReferenceModel, "gradient", "model.gradient", counter=_frames)
    tracer.install_method(ReferenceModel, "apply_update", "model.apply_update")
    tracer.install_method(ReferenceModel, "snapshot", "model.snapshot_restore")
    tracer.install_method(ReferenceModel, "restore", "model.snapshot_restore")
    tracer.install_method(Adam, "step", "engine.optim_step")
    tracer.install_method(Sgd, "step", "engine.optim_step")
    tracer.install_method(RunWriter, "speaker_done", "engine.artifacts.write", counter=_speaker_file_bytes)
    tracer.install_method(RunWriter, "finalize", "engine.artifacts.write", counter=_finalize_bytes)

    make_frame_ce = synthetic.frame_ce_functional

    def frame_ce_functional(labels):
        return tracer.wrap(make_frame_ce(labels), "synthetic.frame_ce")

    tracer.replace(synthetic, "frame_ce_functional", frame_ce_functional)


def layer_metrics(
    timed: SpanTable,
    setup: SpanTable,
    traced_walls: list[float],
    untraced_walls: list[float],
    cpu_s: float,
    workers: int,
    nproc: int,
) -> dict[str, float]:
    """Per-layer metrics per traced iteration; set-up spans come from one set-up."""
    n = len(traced_walls)
    traced_wall_s = sum(traced_walls)
    t = timed
    decodes = t.calls("model.greedy_ctc_decode")
    experiment_s = t.total_s("engine.run_experiment")
    values = {
        "model.gradient.calls": t.calls("model.gradient") / n,
        "model.gradient.frames": t.count("model.gradient", "frames") / n,
        "model.gradient.self_s": t.total_self_s("model.gradient") / n,
        "model.forward.calls": t.calls("model.forward") / n,
        "model.forward.s": t.total_s("model.forward") / n,
        "model.forward_per_decode": t.calls("model.forward") / decodes if decodes else 0.0,
        "model.load_checkpoint.calls": t.calls("model.load_checkpoint") / n,
        "model.load_checkpoint.s": t.total_s("model.load_checkpoint") / n,
        "model.apply_update.s": t.total_s("model.apply_update") / n,
        "model.snapshot_restore.s": t.total_s("model.snapshot_restore") / n,
        "model.greedy_ctc_decode.calls": decodes / n,
        "model.greedy_ctc_decode.s": t.total_s("model.greedy_ctc_decode") / n,
        "objectives.suta_loss_and_grad.calls": t.calls("objectives.suta_loss_and_grad") / n,
        "objectives.suta_loss_and_grad.s": t.total_s("objectives.suta_loss_and_grad") / n,
        "objectives.sgem_loss_and_grad.calls": t.calls("objectives.sgem_loss_and_grad") / n,
        "objectives.sgem_loss_and_grad.s": t.total_s("objectives.sgem_loss_and_grad") / n,
        "synthetic.frame_ce.s": t.total_s("synthetic.frame_ce") / n,
        "synthetic.build_training_set.s": t.total_s("synthetic.build_training_set") / n,
        "synthetic.build_shifted_corpus.s": setup.total_s("synthetic.build_shifted_corpus"),
        "engine.adapt_utterance.calls": t.calls("engine.adapt_utterance") / n,
        "engine.adapt_utterance.self_s": t.total_self_s("engine.adapt_utterance") / n,
        "engine.split_waveform.chunks": t.count("engine.split_waveform", "chunks") / n,
        "engine.optim_step.calls": t.calls("engine.optim_step") / n,
        "engine.optim_step.s": t.total_s("engine.optim_step") / n,
        "engine.adapt_speaker.max_s": t.max_s("engine.adapt_speaker"),
        "engine.worker_busy_ratio": (
            t.total_s("engine.adapt_speaker") / (workers * experiment_s) if experiment_s else 0.0
        ),
        "engine.cpu_util": cpu_s / (traced_wall_s * nproc),
        "engine.artifacts.write_s": t.total_s("engine.artifacts.write") / n,
        "engine.artifacts.bytes": t.count("engine.artifacts.write", "bytes") / n,
        "corpus.read_audio.calls": t.calls("corpus.read_audio") / n,
        "corpus.read_audio.s": t.total_s("corpus.read_audio") / n,
        "corpus.compute_mfcc.s": t.total_s("corpus.compute_mfcc") / n,
        "corpus.detect_nonspeech.calls": t.calls("corpus.detect_nonspeech") / n,
        "corpus.detect_nonspeech.s": t.total_s("corpus.detect_nonspeech") / n,
        "evaluation.wer.calls": t.calls("evaluation.wer") / n,
        "evaluation.wer.s": t.total_s("evaluation.wer") / n,
        "evaluation.report_stats.s": t.total_s("evaluation.report_stats") / n,
        "analysis.s": t.total_s("analysis") / n,
        "cli.adapt.s": t.total_s("cli.adapt") / n,
        "cli.analyze.s": t.total_s("cli.analyze") / n,
        "cli.report.s": t.total_s("cli.report") / n,
        "cli.exit_nonzero": t.count("cli.main", "nonzero") / n,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.coverage": t.total_self_s() / traced_wall_s,
    }
    return values
