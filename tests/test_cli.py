"""End-to-end tests of the command-line surface and its exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from helpers import sine, write_tone_corpus
import ttabench
from ttabench import cli, errors
from ttabench.corpus.audio import Waveform, write_wav
from ttabench.corpus.manifest import (
    CorpusManifest,
    Utterance,
    load_manifest,
    save_manifest,
)
from ttabench.engine.artifacts import (
    RunWriter,
    read_run_config,
    read_run_records,
    sha256_file,
)
from ttabench.engine.config import AdaptationConfig
from ttabench.engine.runner import (
    AdaptationTrace,
    ExperimentResult,
    SpeakerRunResult,
    UtteranceRecord,
)
from ttabench.evaluation import WerCount
from ttabench.model.reference import build_reference_model, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[Path, Path]:
    root = tmp_path_factory.mktemp("cli_corpus")
    manifest_path = write_tone_corpus(
        root,
        {"alpha": ["ad ga", "jm ps"], "bravo": ["vy da", "ga jd"]},
    )
    return root, manifest_path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli_ckpt") / "model.npz"
    save_checkpoint(build_reference_model(seed=5), path)
    return path


@pytest.fixture(scope="module")
def baseline_run(corpus, checkpoint, tmp_path_factory) -> Path:
    _, manifest_path = corpus
    out = tmp_path_factory.mktemp("cli_run_none")
    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "none",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def suta_run(corpus, checkpoint, tmp_path_factory) -> Path:
    _, manifest_path = corpus
    out = tmp_path_factory.mktemp("cli_run_suta")
    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "suta",
            "--steps", "2",
            "--seed", "0",
        ]
    )
    assert code == 0
    return out


# --- ingest ---------------------------------------------------------------------


def test_ingest_discovers_speaker_directories(tmp_path, capsys):
    source = tmp_path / "raw"
    for speaker, utt in [("spk1", "u1"), ("spk2", "u2")]:
        d = source / speaker
        d.mkdir(parents=True)
        write_wav(d / f"{utt}.wav", sine(440.0, 0.2))
        (d / f"{utt}.txt").write_text("hello there\n", encoding="utf-8")
    out = tmp_path / "manifest.jsonl"

    code = cli.main(["ingest", "--source", str(source), "--out", str(out)])

    assert code == 0
    assert "wrote" in capsys.readouterr().out
    manifest = load_manifest(out)
    assert len(manifest) == 2
    assert sorted(manifest.speakers()) == ["spk1", "spk2"]
    assert manifest.utterances[0].transcript == "hello there"


def test_ingest_requires_exactly_one_input(tmp_path):
    assert cli.main(["ingest"]) == 2
    assert (
        cli.main(
            ["ingest", "--source", str(tmp_path), "--from-manifest", str(tmp_path / "m.jsonl")]
        )
        == 2
    )


def test_ingest_missing_transcript_is_validation_error(tmp_path):
    d = tmp_path / "raw" / "spk1"
    d.mkdir(parents=True)
    write_wav(d / "u1.wav", sine(440.0, 0.2))

    assert cli.main(["ingest", "--source", str(d.parent)]) == 2


def test_ingest_non_utf8_transcript_is_validation_error_naming_the_file(tmp_path, capsys):
    d = tmp_path / "raw" / "spk1"
    d.mkdir(parents=True)
    write_wav(d / "u1.wav", sine(440.0, 0.2))
    (d / "u1.txt").write_bytes(b"ab\xff")
    out = tmp_path / "manifest.jsonl"

    assert cli.main(["ingest", "--source", str(d.parent), "--out", str(out)]) == 2
    assert str(d / "u1.txt") in capsys.readouterr().err
    assert not out.exists()


def test_ingest_filters_by_duration(corpus, tmp_path):
    _, manifest_path = corpus
    out = tmp_path / "filtered.jsonl"

    code = cli.main(
        [
            "ingest",
            "--from-manifest", str(manifest_path),
            "--max-duration", "100",
            "--out", str(out),
        ]
    )

    assert code == 0
    assert len(load_manifest(out)) == len(load_manifest(manifest_path))


@pytest.mark.parametrize("max_duration", ["0", "-1.5"])
def test_ingest_rejects_non_positive_max_duration(corpus, tmp_path, capsys, max_duration):
    _, manifest_path = corpus
    out = tmp_path / "filtered.jsonl"

    code = cli.main(
        [
            "ingest",
            "--from-manifest", str(manifest_path),
            f"--max-duration={max_duration}",
            "--out", str(out),
        ]
    )

    assert code == 2
    assert "--max-duration must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_filter_that_drops_everything(corpus, tmp_path):
    _, manifest_path = corpus
    out = tmp_path / "empty.jsonl"

    code = cli.main(
        [
            "ingest",
            "--from-manifest", str(manifest_path),
            "--max-duration", "0.01",
            "--out", str(out),
        ]
    )

    assert code == 2
    assert not out.exists()


def test_default_output_honors_cache_env(corpus, tmp_path, monkeypatch):
    _, manifest_path = corpus
    monkeypatch.setenv("TTABENCH_CACHE", str(tmp_path / "cache"))

    code = cli.main(["ingest", "--from-manifest", str(manifest_path)])

    assert code == 0
    assert (tmp_path / "cache" / "manifest.jsonl").exists()


# --- adapt ----------------------------------------------------------------------


def test_adapt_baseline_writes_run_artifacts(baseline_run):
    assert (baseline_run / "results.jsonl").exists()
    assert (baseline_run / "run_manifest.json").exists()
    assert (baseline_run / "config.json").exists()

    records = read_run_records(baseline_run)
    assert len(records) == 4
    assert all(r.count is not None for r in records)
    assert read_run_config(baseline_run).method.value == "none"

    blob = (baseline_run / "results.jsonl").read_bytes()
    assert b"started_at" not in blob and b"wall" not in blob


def test_adapt_suta_records_loss_trace(suta_run):
    records = read_run_records(suta_run)
    assert len(records) == 4
    for record in records:
        assert record.trace.initial_total is not None
        assert len(record.trace.steps) == 2
        assert all(np.isfinite(s.total) for s in record.trace.steps)


def test_adapt_requires_manifest_and_checkpoint(corpus, checkpoint, tmp_path):
    _, manifest_path = corpus
    assert cli.main(["adapt", "--checkpoint", str(checkpoint)]) == 2
    assert cli.main(["adapt", "--manifest", str(manifest_path)]) == 2
    assert (
        cli.main(
            [
                "adapt",
                "--manifest", str(manifest_path),
                "--checkpoint", str(tmp_path / "missing.npz"),
            ]
        )
        == 2
    )


def test_adapt_rejects_unknown_method(corpus, checkpoint, tmp_path):
    _, manifest_path = corpus
    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "run"),
            "--method", "dropout",
        ]
    )
    assert code == 2


def test_adapt_flags_short_audio_and_reports_partial(checkpoint, tmp_path):
    manifest_path = write_tone_corpus(tmp_path, {"solo": ["ad"]})
    short_path = tmp_path / "audio" / "solo-nub.wav"
    write_wav(short_path, Waveform(samples=np.full(50, 0.01), sample_rate_hz=16000))
    base = load_manifest(manifest_path)
    extended = CorpusManifest(
        utterances=(
            *base.utterances,
            Utterance(
                utterance_id="solo-nub",
                speaker_id="solo",
                audio_path=str(short_path),
                transcript="ad",
                duration_s=50 / 16000,
            ),
        ),
    )
    save_manifest(extended, manifest_path)
    out = tmp_path / "run"

    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "none",
        ]
    )

    assert code == 4
    flagged = [r for r in read_run_records(out) if r.flags]
    assert len(flagged) == 1
    assert flagged[0].flags == ("audio_too_short",)
    assert flagged[0].hypothesis == ""


def test_adapt_resume_skips_completed_speakers(checkpoint, tmp_path):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad"], "bravo": ["ga"]})
    out = tmp_path / "run"
    argv = [
        "adapt",
        "--manifest", str(manifest_path),
        "--checkpoint", str(checkpoint),
        "--out", str(out),
        "--method", "none",
    ]
    assert cli.main(argv) == 0
    first = (out / "results.jsonl").read_bytes()

    for wav in (tmp_path / "audio").glob("*.wav"):
        wav.unlink()

    assert cli.main(argv) == 0
    assert (out / "results.jsonl").read_bytes() == first
    assert cli.main(argv + ["--no-resume"]) == 3


@pytest.mark.parametrize("changed", ["checkpoint", "manifest"])
def test_adapt_refuses_to_resume_a_run_of_other_inputs(changed, checkpoint, tmp_path, capsys):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad"], "bravo": ["ga"]})
    out = tmp_path / "run"
    argv = [
        "adapt",
        "--manifest", str(manifest_path),
        "--checkpoint", str(checkpoint),
        "--out", str(out),
        "--method", "suta",
        "--steps", "1",
    ]
    assert cli.main(argv) == 0
    finished = {name: (out / name).read_bytes() for name in ("results.jsonl", "run_manifest.json")}

    if changed == "checkpoint":
        other = tmp_path / "other.npz"
        save_checkpoint(build_reference_model(seed=6), other)
        argv[argv.index(str(checkpoint))] = str(other)
        field = "checkpoint_fingerprint"
    else:
        manifest = load_manifest(manifest_path)
        first = dataclasses.replace(manifest.utterances[0], transcript="da")
        save_manifest(CorpusManifest(utterances=(first, *manifest.utterances[1:])), manifest_path)
        field = "corpus_manifest_sha256"
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"this run's {field};" in err and "--no-resume" in err
    assert {name: (out / name).read_bytes() for name in finished} == finished

    assert cli.main(argv + ["--no-resume"]) == 0
    run_manifest = json.loads((out / "run_manifest.json").read_text())
    checkpoint_used = Path(argv[argv.index("--checkpoint") + 1])
    assert run_manifest["checkpoint_fingerprint"] == sha256_file(checkpoint_used)
    assert run_manifest["corpus_manifest_sha256"] == sha256_file(manifest_path)
    if changed == "manifest":
        assert read_run_records(out)[0].reference == "DA"
    # the recomputed run is now the one a resume continues
    assert cli.main(argv) == 0


# counts the opens of the files named by argv[1] and argv[2] while cli.main runs on
# the rest of argv, through the interpreter's audit hook, which sees every open
_COUNT_OPENS = """
import collections, os, sys
from ttabench import cli

opens = collections.Counter()

def hook(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        opens[os.fsdecode(args[0])] += 1

sys.addaudithook(hook)
code = cli.main(sys.argv[3:])
print(code, opens[sys.argv[1]], opens[sys.argv[2]])
"""


def test_adapt_reads_the_checkpoint_and_the_manifest_once(checkpoint, tmp_path):
    manifest_path = write_tone_corpus(
        tmp_path, {"alpha": ["ad"], "bravo": ["ga"], "charlie": ["da"]}
    )
    src = str(Path(ttabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [
            sys.executable, "-c", _COUNT_OPENS, str(checkpoint), str(manifest_path),
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "runs"),
            "--method", "none,suta,sgem",
            "--steps", "1",
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    # exit code, checkpoint opens, manifest opens
    assert done.stdout.split()[-3:] == ["0", "1", "1"]


def test_adapt_checkpoint_replaced_mid_run_does_not_split_the_run(
    checkpoint, tmp_path, monkeypatch
):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad"], "bravo": ["ga"]})
    path = tmp_path / "model.npz"
    shutil.copyfile(checkpoint, path)
    other = tmp_path / "other.npz"
    save_checkpoint(build_reference_model(seed=6), other)

    def adapt(out: Path) -> int:
        return cli.main(
            [
                "adapt",
                "--manifest", str(manifest_path),
                "--checkpoint", str(path),
                "--out", str(out),
                "--method", "suta",
                "--steps", "1",
            ]
        )

    assert adapt(tmp_path / "clean") == 0
    speaker_done = RunWriter.speaker_done

    def replace_checkpoint_after(writer, result):
        speaker_done(writer, result)
        shutil.copyfile(other, path)

    monkeypatch.setattr(RunWriter, "speaker_done", replace_checkpoint_after)
    assert adapt(tmp_path / "replaced") == 0
    clean, replaced = tmp_path / "clean", tmp_path / "replaced"
    for name in ("results.jsonl", "inputs.json"):
        assert (replaced / name).read_bytes() == (clean / name).read_bytes(), name
    inputs = json.loads((replaced / "inputs.json").read_text())
    run_manifest = json.loads((replaced / "run_manifest.json").read_text())
    assert inputs["checkpoint_fingerprint"] == sha256_file(checkpoint)
    assert run_manifest["checkpoint_fingerprint"] == sha256_file(checkpoint)


def _rewritten(checkpoint: Path, path: Path, edit) -> Path:
    """A copy of ``checkpoint`` whose metadata and tensors ``edit`` changed."""
    with np.load(checkpoint) as data:
        arrays = {k: data[k] for k in data.files}
    meta = edit(json.loads(str(arrays.pop("__meta__"))), arrays)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
    return path


def _set_tensor(name, value):
    def edit(meta, arrays):
        arrays[name] = value(arrays[name])
        return meta

    return edit


# each defect, and a word the one error line must hold
_CHECKPOINT_DEFECTS = {
    "no_symbols": (lambda m, a: {k: v for k, v in m.items() if k != "symbols"}, "'symbols'"),
    "metadata_is_a_list": (lambda m, a: sorted(m), "JSON object"),
    "feature_dim_2": (lambda m, a: {**m, "feature_dim": 2}, "'feature_dim'"),
    "blank_index_99": (lambda m, a: {**m, "blank_index": 99}, "blank_index"),
    "nan_head_b": (_set_tensor("head_b", lambda t: np.full_like(t, np.nan)), "head_b"),
    "rate_8000": (lambda m, a: {**m, "sample_rate_hz": 8000}, "'sample_rate_hz'"),
    "seed_negative": (lambda m, a: {**m, "seed": -1}, "'seed'"),
    "integer_tensor": (_set_tensor("conv1_b", lambda t: t.astype(np.int64)), "conv1_b"),
    "unknown_group": (lambda m, a: {**m, "selected_groups": ["decoder"]}, "'selected_groups'"),
}


@pytest.mark.parametrize("defect", sorted(_CHECKPOINT_DEFECTS))
def test_adapt_malformed_checkpoint_is_validation_error(
    defect, corpus, checkpoint, tmp_path, capsys
):
    edit, word = _CHECKPOINT_DEFECTS[defect]
    bad = _rewritten(checkpoint, tmp_path / "bad.npz", edit)
    _, manifest_path = corpus
    out = tmp_path / "run"
    code = cli.main(
        ["adapt", "--manifest", str(manifest_path), "--checkpoint", str(bad),
         "--out", str(out), "--method", "none"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err, err
    assert list(out.iterdir()) == []


def test_checkpoint_rewritten_unchanged_still_loads(checkpoint, tmp_path):
    # the control for the defects above: rewriting alone breaks nothing
    same = load_checkpoint(_rewritten(checkpoint, tmp_path / "same.npz", lambda m, a: m))
    for name, value in load_checkpoint(checkpoint).snapshot().parameters.items():
        assert np.array_equal(same.snapshot().parameters[name], value), name


def test_adapt_wav_declaring_rate_zero_is_a_flagged_record(checkpoint, tmp_path, caplog):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad", "ga"], "bravo": ["da"]})
    wav = tmp_path / "audio" / "alpha-000.wav"
    wavfile.write(wav, 0, wavfile.read(wav)[1])
    out = tmp_path / "run"

    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "suta",
            "--steps", "2",
        ]
    )

    # the corrupt utterance is flagged; the others, its speaker's included, still adapt
    assert code == 4
    records = {r.utterance_id: r for r in read_run_records(out)}
    assert sorted(records) == ["alpha-000", "alpha-001", "bravo-000"]
    assert records["alpha-000"].flags == ("corrupt_audio",)
    assert records["alpha-000"].hypothesis == ""
    for utt in ("alpha-001", "bravo-000"):
        assert records[utt].flags == ()
        assert records[utt].trace.n_steps == 2
    assert "sample rate 0 Hz" in caplog.text


def test_adapt_float_wav_beyond_full_scale_is_a_flagged_record(checkpoint, tmp_path, caplog):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad", "ga"], "bravo": ["da"]})
    wav = tmp_path / "audio" / "alpha-001.wav"
    wavfile.write(wav, 16000, np.full(len(wavfile.read(wav)[1]), 5.0, dtype=np.float32))
    out = tmp_path / "run"

    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "suta",
            "--steps", "2",
        ]
    )

    assert code == 4
    records = {r.utterance_id: r for r in read_run_records(out)}
    assert sorted(records) == ["alpha-000", "alpha-001", "bravo-000"]
    assert records["alpha-001"].flags == ("corrupt_audio",)
    assert records["alpha-001"].hypothesis == ""
    for utt in ("alpha-000", "bravo-000"):
        assert records[utt].flags == ()
        assert records[utt].trace.n_steps == 2
    assert "|x| = 5" in caplog.text


def test_run_manifest_names_the_library_version_and_results_do_not(checkpoint, tmp_path):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad"]})
    out = tmp_path / "run"
    argv = ["adapt", "--manifest", str(manifest_path), "--checkpoint", str(checkpoint),
            "--out", str(out), "--method", "none"]
    assert cli.main(argv) == 0
    run_manifest = json.loads((out / "run_manifest.json").read_text())
    assert run_manifest["ttabench_version"] == ttabench.__version__
    assert "version" not in (out / "results.jsonl").read_text()


def test_adapt_same_seed_reproduces_results_bytes(checkpoint, tmp_path):
    manifest_path = write_tone_corpus(tmp_path, {"alpha": ["ad ga"]})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = cli.main(
            [
                "adapt",
                "--manifest", str(manifest_path),
                "--checkpoint", str(checkpoint),
                "--out", str(out),
                "--method", "suta",
                "--steps", "2",
                "--seed", "9",
            ]
        )
        assert code == 0

    assert (outs[0] / "results.jsonl").read_bytes() == (outs[1] / "results.jsonl").read_bytes()


def test_adapt_worker_count_does_not_change_run_files(corpus, checkpoint, tmp_path):
    # in continual mode a speaker run in-process after another would start from
    # the other's updates, were the model not restored between them
    _, manifest_path = corpus
    for mode in ("episodic", "continual"):
        outs = {workers: tmp_path / f"{mode}-w{workers}" for workers in (1, 2)}
        for workers, out in outs.items():
            if workers == 2:
                # the in-process run started the model's helper thread, which the
                # forked pool workers do not inherit and must replace
                assert any(t.name.startswith("ttabench-span") for t in threading.enumerate())
            code = cli.main(
                [
                    "adapt",
                    "--manifest", str(manifest_path),
                    "--checkpoint", str(checkpoint),
                    "--out", str(out),
                    "--method", "suta",
                    "--steps", "2",
                    "--mode", mode,
                    "--workers", str(workers),
                ]
            )
            assert code == 0

        names = sorted(p.name for p in (outs[1] / "speakers").glob("*.jsonl"))
        assert names == ["alpha.jsonl", "bravo.jsonl"]
        assert sorted(p.name for p in (outs[2] / "speakers").glob("*.jsonl")) == names
        for rel in ["results.jsonl"] + [f"speakers/{n}" for n in names]:
            assert (outs[1] / rel).read_bytes() == (outs[2] / rel).read_bytes(), (mode, rel)


def test_adapt_results_do_not_depend_on_blas_thread_count(corpus, checkpoint, tmp_path):
    _, manifest_path = corpus
    src = str(Path(ttabench.__file__).resolve().parents[1])
    outs = {}
    for n_threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": n_threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        outs[n_threads] = tmp_path / f"blas{n_threads}"
        done = subprocess.run(
            [
                sys.executable, "-m", "ttabench.cli", "adapt",
                "--manifest", str(manifest_path),
                "--checkpoint", str(checkpoint),
                "--out", str(outs[n_threads]),
                "--method", "none,suta,sgem",
                "--steps", "3",
            ],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr

    for method in ("none", "suta", "sgem"):
        a, b = (outs[n] / method for n in ("1", "2"))
        assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes(), method
        for run in (a, b):
            assert json.loads((run / "run_manifest.json").read_text())["blas_threads"] == 1


def test_adapt_multiple_methods_nest_output_directories(corpus, checkpoint, tmp_path):
    _, manifest_path = corpus
    out = tmp_path / "runs"

    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "none,suta",
            "--steps", "2",
        ]
    )

    assert code == 0
    assert (out / "none" / "results.jsonl").exists()
    assert (out / "suta" / "results.jsonl").exists()
    assert read_run_config(out / "suta").method.value == "suta"


def test_adapt_reads_config_file_with_flag_overrides(corpus, checkpoint, tmp_path):
    _, manifest_path = corpus
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "adaptation": {"steps_n": 2, "seed": 4},
                "methods": ["none"],
                "manifest_path": str(manifest_path),
                "checkpoint_ref": str(checkpoint),
                "output_dir": str(out),
            }
        ),
        encoding="utf-8",
    )

    assert cli.main(["adapt", "--config", str(cfg), "--method", "suta"]) == 0
    config = read_run_config(out)
    assert config.method.value == "suta"
    assert config.steps_n == 2
    assert config.seed == 4


def test_adapt_config_file_errors_are_validation_errors(corpus, checkpoint, tmp_path, capsys):
    assert cli.main(["adapt", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["adapt", "--config", str(bad)]) == 2

    # a complete, valid file plus one wrongly typed or unknown top-level key
    _, manifest_path = corpus
    valid = {
        "methods": ["none"],
        "manifest_path": str(manifest_path),
        "checkpoint_ref": str(checkpoint),
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in [
        ("workers", "two"),
        ("workers", True),
        ("adaptation", "fast"),
        ("adaptation", [1, 2]),
        ("methods", "none"),
        ("seed", 4),
        ("analyze_ems", False),
        ("analyze_distances", True),
        ("unknown_knob", 1),
    ]:
        bad.write_text(json.dumps({**valid, key: value}), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["adapt", "--config", str(bad)]) == 2, (key, value)
        assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_adapt_config_file_method_is_a_validation_error(corpus, checkpoint, tmp_path, capsys):
    # methods come from "methods" or --method; a method inside "adaptation" would go unread
    _, manifest_path = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "adaptation": {"method": "sgem"},
                "manifest_path": str(manifest_path),
                "checkpoint_ref": str(checkpoint),
                "output_dir": str(tmp_path / "run"),
            }
        ),
        encoding="utf-8",
    )

    assert cli.main(["adapt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "adaptation.method" in err and "methods" in err and "--method" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags, config, field",
    [
        (["--lr", "nan"], None, "'learning_rate'"),
        (["--rho", "nan"], None, "'rho'"),
        (["--temperature", "inf"], None, "'temperature'"),
        (["--lam", "nan"], None, "'lam'"),
        ([], {"alpha": float("nan")}, "'adaptation.alpha'"),
        ([], {"max_utterance_s": float("inf")}, "'adaptation.max_utterance_s'"),
    ],
    ids=["lr-nan", "rho-nan", "temperature-inf", "lam-nan", "config-NaN", "config-Infinity"],
)
def test_adapt_non_finite_setting_is_validation_error(
    corpus, checkpoint, tmp_path, capsys, flags, config, field
):
    # every range check passes NaN, and inf is a temperature or a duration in range
    _, manifest_path = corpus
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"adaptation": config}), encoding="utf-8")  # NaN, Infinity
        flags = ["--config", str(cfg)]
    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "run"),
            "--method", "suta",
            *flags,
        ]
    )

    assert code == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and field in lines[0]
    assert not (tmp_path / "run").exists()


def test_adapt_empty_method_list_is_validation_error(corpus, checkpoint, tmp_path, capsys):
    # an empty --method does not fall back to the default method
    _, manifest_path = corpus
    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "run"),
            "--method", ",",
        ]
    )

    assert code == 2
    assert "at least one method is required" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_adapt_neg_k_must_be_below_vocabulary_size(corpus, checkpoint, tmp_path, capsys):
    _, manifest_path = corpus
    n_classes = len(build_reference_model(seed=5).vocabulary())
    out = tmp_path / "runs"

    def adapt(neg_k: int) -> int:
        return cli.main(
            [
                "adapt",
                "--manifest", str(manifest_path),
                "--checkpoint", str(checkpoint),
                "--out", str(out),
                "--method", "none,sgem",
                "--steps", "1",
                "--neg-k", str(neg_k),
            ]
        )

    assert adapt(n_classes) == 2
    err = capsys.readouterr().err
    assert f"neg_k must be below the checkpoint's {n_classes} output classes" in err
    assert not (out / "none").exists() and not (out / "sgem").exists()
    assert adapt(n_classes - 1) == 0


def test_adapt_with_no_scoreable_utterance_is_validation_error(checkpoint, tmp_path, capsys):
    manifest_path = write_tone_corpus(tmp_path, {"solo": ["ad"]})
    base = load_manifest(manifest_path)
    unscoreable = dataclasses.replace(base.utterances[0], transcript="?!")
    save_manifest(CorpusManifest(utterances=(unscoreable,)), manifest_path)

    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "run"),
            "--method", "none",
        ]
    )

    assert code == 2
    assert "no speaker has a scoreable utterance" in capsys.readouterr().err


def test_adapt_diverging_updates_are_flagged_partial(corpus, checkpoint, tmp_path):
    _, manifest_path = corpus
    out = tmp_path / "run"

    code = cli.main(
        [
            "adapt",
            "--manifest", str(manifest_path),
            "--checkpoint", str(checkpoint),
            "--out", str(out),
            "--method", "suta",
            "--optimizer", "sgd",
            "--lr", "1e300",
            "--groups", "feature_extractor,layer_norm,head",
        ]
    )

    assert code == 4
    records = read_run_records(out)
    assert records and all(r.flags == ("non_finite_loss",) for r in records)
    assert all(r.trace.final_total is None for r in records)


@pytest.mark.parametrize("command", ["adapt", "analyze", "ingest"])
def test_undecodable_manifest_is_validation_error(command, checkpoint, tmp_path, capsys):
    manifest_path = tmp_path / "m.jsonl"
    manifest_path.write_bytes(b"\xff\xfe")
    argv = {
        "adapt": ["adapt", "--manifest", str(manifest_path), "--checkpoint", str(checkpoint),
                  "--out", str(tmp_path / "run")],
        "analyze": ["analyze", "--manifest", str(manifest_path)],
        "ingest": ["ingest", "--from-manifest", str(manifest_path)],
    }[command]

    assert cli.main(argv) == 2
    assert "cannot read manifest" in capsys.readouterr().err


# --- JSON inputs of the wrong type ------------------------------------------------

# (input, the fields it overrides, the key the one error line names)
_MISTYPED = {
    "config-steps_n-float": ("config", {"steps_n": 2.5}, "adaptation.steps_n"),
    "config-neg_k-float-sgem": ("config", {"neg_k": 2.5}, "adaptation.neg_k"),
    "config-alpha-bool": ("config", {"alpha": True}, "adaptation.alpha"),
    "config-exclude_blank_frames-string": (
        "config", {"exclude_blank_frames": "yes"}, "adaptation.exclude_blank_frames"
    ),
    "config-seed-float": ("config", {"seed": 1.5}, "adaptation.seed"),
    "config-durations-bool": (
        "config", {"max_utterance_s": True, "chunk_target_s": True}, "adaptation.max_utterance_s"
    ),
    "config-adapted_groups-string": (
        "config", {"adapted_groups": "layer_norm"}, "adaptation.adapted_groups"
    ),
    "config-learning_rate-string": ("config", {"learning_rate": "0.1"}, "adaptation.learning_rate"),
    "results-speaker_id-int": ("results", {"speaker_id": 5}, "speaker_id"),
    "results-substitutions-float": ("results", {"substitutions": 0.5}, "substitutions"),
    "results-flags-string": ("results", {"flags": "oops"}, "flags"),
    "manifest-utterance_id-empty": ("manifest", {"utterance_id": ""}, "utterance_id"),
}


def _with_first_line(path: Path, fields: dict) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), **fields}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(_MISTYPED))
def test_mistyped_json_input_is_one_validation_error(
    case, corpus, checkpoint, baseline_run, tmp_path, capsys
):
    kind, fields, key = _MISTYPED[case]
    _, manifest_path = corpus
    out = tmp_path / "out"
    if kind == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "adaptation": fields,
            "methods": ["sgem" if "neg_k" in fields else "suta"],
            "manifest_path": str(manifest_path),
            "checkpoint_ref": str(checkpoint),
            "output_dir": str(out),
        }), encoding="utf-8")
        argv, where = ["adapt", "--config", str(cfg)], str(cfg)
    elif kind == "results":
        shutil.copytree(baseline_run, tmp_path / "run")
        bad = tmp_path / "run" / "results.jsonl"
        _with_first_line(bad, fields)
        argv, where = ["evaluate", "--run", str(tmp_path / "run")], f"{bad} line 1"
    else:
        bad = tmp_path / "manifest.jsonl"
        shutil.copyfile(manifest_path, bad)
        _with_first_line(bad, fields)
        argv, where = ["ingest", "--from-manifest", str(bad), "--out", str(out)], f"{bad} line 1"

    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert where in err and f"'{key}'" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("name", ["cfg.json", "results.jsonl", "config.json"])
def test_json_input_that_is_not_utf8_is_validation_error(name, baseline_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(baseline_run, run)
    if name == "cfg.json":
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe{")
        argv = ["adapt", "--config", str(bad)]
    else:
        bad = run / name
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        argv = ["evaluate", "--run", str(run)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err, err


# --- evaluate -------------------------------------------------------------------


def test_evaluate_prints_speaker_summary(baseline_run, tmp_path, capsys):
    csv_path = tmp_path / "wer.csv"

    code = cli.main(["evaluate", "--run", str(baseline_run), "--csv", str(csv_path)])

    assert code == 0
    out = capsys.readouterr().out
    assert "method=none" in out and "mean_speaker_wer=" in out
    assert "alpha:" in out and "bravo:" in out
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "speaker_id,wer"
    assert len(lines) == 3


def test_evaluate_rejects_unfinished_run(tmp_path):
    assert cli.main(["evaluate", "--run", str(tmp_path / "nowhere")]) == 2


_NEGATIVE_COUNT = json.dumps({
    "utterance_id": "a", "speaker_id": "alpha", "reference": "AD", "hypothesis": "",
    "substitutions": -1, "deletions": 1, "insertions": 0, "reference_words": 1,
    "flags": [], "loss": {"initial": None, "final": None, "steps": []},
})


@pytest.mark.parametrize(
    "name, mode, text",
    [
        pytest.param("results.jsonl", "a", '{"utterance_id": ', id="results.jsonl"),
        pytest.param("config.json", "a", '{"utterance_id": ', id="config.json"),
        pytest.param("results.jsonl", "a", '{"utterance_id": "a"}\n', id="results.jsonl-missing-field"),
        pytest.param("results.jsonl", "a", "[1,2]\n", id="results.jsonl-not-an-object"),
        pytest.param("results.jsonl", "a", _NEGATIVE_COUNT + "\n", id="results.jsonl-negative-count"),
        pytest.param("config.json", "w", "3\n", id="config.json-not-an-object"),
    ],
)
def test_evaluate_truncated_run_file_is_validation_error(
    baseline_run, tmp_path, capsys, name, mode, text
):
    run = tmp_path / "run"
    shutil.copytree(baseline_run, run)
    with open(run / name, mode, encoding="utf-8") as fh:
        fh.write(text)
    lines = (run / name).read_text(encoding="utf-8").splitlines()

    assert cli.main(["evaluate", "--run", str(run)]) == 2
    err = capsys.readouterr().err
    assert str(run / name) in err
    assert "Traceback" not in err
    if name == "results.jsonl":
        assert f"line {len(lines)}" in err


# --- analyze --------------------------------------------------------------------


@pytest.fixture(scope="module")
def analyze_corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli_analyze")
    return write_tone_corpus(
        root,
        {"s0": ["ad", "ga"], "s1": ["jm", "ps"], "s2": ["vy", "ad ga"]},
    )


def test_analyze_writes_metrics_and_projection(analyze_corpus, tmp_path):
    out = tmp_path / "analysis"

    code = cli.main(
        ["analyze", "--manifest", str(analyze_corpus), "--out", str(out), "--projection", "pca"]
    )

    assert code == 0
    lines = (out / "speaker_metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "speaker_id,n_utterances,ems_energy,word_duration_s,within_variance,bhattacharyya_to_pool"
    )
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[1]) == 2
        assert all(np.isfinite(float(v)) for v in fields[2:])

    proj = (out / "projection_2d.csv").read_text(encoding="utf-8").splitlines()
    assert proj[0] == "point_id,x,y"
    assert len(proj) == 7


def test_analyze_metric_subset_limits_columns(analyze_corpus, tmp_path):
    out = tmp_path / "analysis"

    code = cli.main(
        [
            "analyze",
            "--manifest", str(analyze_corpus),
            "--out", str(out),
            "--metrics", "word_duration_s",
        ]
    )

    assert code == 0
    lines = (out / "speaker_metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "speaker_id,n_utterances,word_duration_s"


def test_analyze_unknown_metric_is_validation_error(analyze_corpus, capsys):
    code = cli.main(["analyze", "--manifest", str(analyze_corpus), "--metrics", "loudness"])

    assert code == 2
    assert "unknown metrics" in capsys.readouterr().err


@pytest.mark.parametrize("metrics", ["", ","])
def test_analyze_empty_metric_list_is_validation_error(analyze_corpus, tmp_path, capsys, metrics):
    out = tmp_path / "analysis"
    code = cli.main(
        ["analyze", "--manifest", str(analyze_corpus), "--out", str(out), "--metrics", metrics]
    )

    assert code == 2
    assert "at least one metric is required" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_missing_manifest_is_validation_error(tmp_path):
    assert cli.main(["analyze", "--manifest", str(tmp_path / "none.jsonl")]) == 2


@pytest.mark.parametrize("projection", ["none", "pca"])
def test_analyze_empty_manifest_is_validation_error(tmp_path, capsys, projection):
    manifest_path = tmp_path / "empty.jsonl"
    manifest_path.write_text("", encoding="utf-8")

    code = cli.main(
        ["analyze", "--manifest", str(manifest_path), "--out", str(tmp_path / "a"),
         "--projection", projection]
    )

    assert code == 2
    err = capsys.readouterr().err
    assert "no utterances" in err and "Traceback" not in err
    assert not (tmp_path / "a" / "speaker_metrics.csv").exists()


def test_analyze_single_utterance_speaker_names_speaker_and_metric(tmp_path, capsys):
    manifest_path = write_tone_corpus(tmp_path, {"spk00": ["ad"], "spk01": ["ga", "jm"]})

    code = cli.main(["analyze", "--manifest", str(manifest_path), "--out", str(tmp_path / "a")])

    assert code == 2
    err = capsys.readouterr().err
    assert "'spk00'" in err and "within_variance" in err and "2 utterances" in err
    assert "Traceback" not in err


# --- report ---------------------------------------------------------------------


def _fake_record(speaker_id: str, idx: int, errors: int) -> UtteranceRecord:
    trace = AdaptationTrace(
        steps=(), initial_total=None, final_total=None,
        wall_time_s=0.0, parameters_restored=False,
    )
    return UtteranceRecord(
        utterance_id=f"{speaker_id}-{idx:03d}",
        speaker_id=speaker_id,
        reference="a b c d",
        hypothesis="a b c d",
        count=WerCount(substitutions=errors, deletions=0, insertions=0, reference_words=4),
        trace=trace,
    )


def _fake_run(out_dir: Path, method: str, errors_by_speaker: dict[str, int]) -> Path:
    config = AdaptationConfig(method=method)
    inputs = {"checkpoint_fingerprint": "0" * 64, "corpus_manifest_sha256": "0" * 64}
    writer = RunWriter(Path(out_dir), config, inputs)
    speakers = tuple(
        SpeakerRunResult(
            speaker_id=s,
            records=(_fake_record(s, 0, errors_by_speaker[s]),),
            wer=errors_by_speaker[s] / 4,
            wall_time_s=0.0,
        )
        for s in sorted(errors_by_speaker)
    )
    writer.finalize(ExperimentResult(config=config, speakers=speakers))
    return Path(out_dir)


def test_report_compares_runs_end_to_end(baseline_run, suta_run, tmp_path, capsys):
    out = tmp_path / "report"

    code = cli.main(
        ["report", "--runs", str(baseline_run), str(suta_run), "--out", str(out)]
    )

    assert code == 0
    printed = capsys.readouterr().out
    assert "unadapted" in printed and "suta" in printed
    assert (out / "delta_table.csv").exists()
    assert (out / "speaker_gains.csv").exists()
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    assert set(summary["mean_wer"]) == {"none", "suta"}
    assert set(summary["files"]) == {"delta_table.csv", "speaker_gains.csv"}


def test_report_correlates_gains_with_metrics(tmp_path):
    base = _fake_run(tmp_path / "none", "none", {"s0": 3, "s1": 2, "s2": 1})
    adapted = _fake_run(tmp_path / "suta", "suta", {"s0": 1, "s1": 1, "s2": 1})
    metrics_csv = tmp_path / "speaker_metrics.csv"
    metrics_csv.write_text(
        "speaker_id,n_utterances,ems_energy\ns0,1,3.0\ns1,1,2.0\ns2,1,1.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "report"

    code = cli.main(
        [
            "report",
            "--runs", str(base), str(adapted),
            "--out", str(out),
            "--correlations", "ems_energy",
            "--metrics-csv", str(metrics_csv),
        ]
    )

    assert code == 0
    lines = (out / "correlations.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "setting,feature,r,raw_p,adjusted_p,reject"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:2] == ["suta", "ems_energy"]
    assert float(fields[2]) == pytest.approx(1.0)
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    assert "correlations.csv" in summary["files"]


def test_report_correlations_grouped_per_method_in_runs_order(tmp_path):
    base = _fake_run(tmp_path / "none", "none", {"s0": 3, "s1": 2, "s2": 1})
    suta = _fake_run(tmp_path / "suta", "suta", {"s0": 1, "s1": 1, "s2": 1})
    sgem = _fake_run(tmp_path / "sgem", "sgem", {"s0": 1, "s1": 2, "s2": 1})
    metrics_csv = tmp_path / "speaker_metrics.csv"
    metrics_csv.write_text(
        "speaker_id,n_utterances,ems_energy,word_duration_s\n"
        "s0,1,3.0,0.2\ns1,1,2.0,0.1\ns2,1,1.0,0.3\n",
        encoding="utf-8",
    )
    out = tmp_path / "report"

    code = cli.main(
        [
            "report",
            "--runs", str(base), str(suta), str(sgem),
            "--out", str(out),
            "--correlations", "word_duration_s,ems_energy",
            "--metrics-csv", str(metrics_csv),
        ]
    )

    assert code == 0
    lines = (out / "correlations.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "setting,feature,r,raw_p,adjusted_p,reject"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["suta", "ems_energy"],
        ["suta", "word_duration_s"],
        ["sgem", "ems_energy"],
        ["sgem", "word_duration_s"],
    ]
    assert float(rows[0][2]) == pytest.approx(1.0)


def test_report_constant_metric_leaves_no_partial_correlations(tmp_path):
    base = _fake_run(tmp_path / "none", "none", {"s0": 3, "s1": 2, "s2": 1})
    adapted = _fake_run(tmp_path / "suta", "suta", {"s0": 1, "s1": 1, "s2": 1})
    metrics_csv = tmp_path / "speaker_metrics.csv"
    metrics_csv.write_text(
        "speaker_id,n_utterances,ems_energy\ns0,1,0.0\ns1,1,0.0\ns2,1,0.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "report"

    code = cli.main(
        [
            "report",
            "--runs", str(base), str(adapted),
            "--out", str(out),
            "--correlations", "ems_energy",
            "--metrics-csv", str(metrics_csv),
        ]
    )

    assert code == 2
    assert not out.exists()


def _report_with_metrics_csv(
    tmp_path, metrics_text: str | bytes, *extra: str
) -> tuple[int, Path]:
    base = _fake_run(tmp_path / "none", "none", {"s0": 3, "s1": 2, "s2": 1})
    adapted = _fake_run(tmp_path / "suta", "suta", {"s0": 1, "s1": 1, "s2": 1})
    metrics_csv = tmp_path / "speaker_metrics.csv"
    if isinstance(metrics_text, str):
        metrics_text = metrics_text.encode("utf-8")
    metrics_csv.write_bytes(metrics_text)
    out = tmp_path / "report"
    code = cli.main(
        [
            "report",
            "--runs", str(base), str(adapted),
            "--out", str(out),
            "--correlations", "ems_energy",
            "--metrics-csv", str(metrics_csv),
            *extra,
        ]
    )
    return code, out


def test_report_invalid_alpha_writes_nothing(tmp_path, capsys):
    code, out = _report_with_metrics_csv(
        tmp_path, "speaker_id,n_utterances,ems_energy\ns0,1,3.0\ns1,1,2.0\ns2,1,1.0\n",
        "--alpha", "2",
    )

    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, bad",
    [
        pytest.param("s0,1,3.0\ns1,1,abc\ns2,1,1.0\n", "'abc'", id="not-a-number"),
        pytest.param("s0,1,3.0\ns1,1\ns2,1,1.0\n", "None", id="short-row"),
        pytest.param("s0,1,3.0\ns1,1,nan\ns2,1,1.0\n", "'nan'", id="nan"),
        pytest.param("s0,1,3.0\ns1,1,-inf\ns2,1,1.0\n", "'-inf'", id="infinite"),
    ],
)
def test_report_bad_metrics_cell_is_validation_error(tmp_path, capsys, body, bad):
    code, out = _report_with_metrics_csv(tmp_path, "speaker_id,n_utterances,ems_energy\n" + body)

    assert code == 2
    err = capsys.readouterr().err
    assert "speaker_metrics.csv line 3, column 'ems_energy'" in err and bad in err
    assert "Traceback" not in err
    assert not out.exists()


def test_report_non_utf8_metrics_csv_is_validation_error_naming_the_file(tmp_path, capsys):
    code, out = _report_with_metrics_csv(
        tmp_path, b"speaker_id,n_utterances,ems_energy\ns0,1,3.0\ns1,1,2.0\ns2,1,\xff\n"
    )

    assert code == 2
    assert str(tmp_path / "speaker_metrics.csv") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names", ["", ","])
def test_report_empty_correlations_list_is_validation_error(tmp_path, capsys, names):
    # the last --correlations wins over the helper's
    code, out = _report_with_metrics_csv(
        tmp_path, "speaker_id,n_utterances,ems_energy\ns0,1,3.0\ns1,1,2.0\ns2,1,1.0\n",
        "--correlations", names,
    )

    assert code == 2
    assert "at least one metric is required" in capsys.readouterr().err
    assert not out.exists()


def test_report_requires_two_runs_and_a_baseline(tmp_path):
    solo = _fake_run(tmp_path / "one", "suta", {"s0": 1, "s1": 2})
    assert cli.main(["report", "--runs", str(solo)]) == 2

    other = _fake_run(tmp_path / "two", "sgem", {"s0": 1, "s1": 2})
    assert cli.main(["report", "--runs", str(solo), str(other)]) == 2


def test_report_rejects_duplicate_methods(tmp_path):
    a = _fake_run(tmp_path / "a", "none", {"s0": 1})
    b = _fake_run(tmp_path / "b", "none", {"s0": 2})
    assert cli.main(["report", "--runs", str(a), str(b)]) == 2


def test_report_rejects_mismatched_speaker_sets(tmp_path):
    base = _fake_run(tmp_path / "none", "none", {"s0": 1, "s1": 2})
    adapted = _fake_run(tmp_path / "suta", "suta", {"s0": 1, "s9": 2})
    assert cli.main(["report", "--runs", str(base), str(adapted)]) == 2


def test_report_correlations_require_metrics_csv(tmp_path):
    base = _fake_run(tmp_path / "none", "none", {"s0": 3, "s1": 2, "s2": 1})
    adapted = _fake_run(tmp_path / "suta", "suta", {"s0": 1, "s1": 1, "s2": 1})
    code = cli.main(
        ["report", "--runs", str(base), str(adapted), "--correlations", "ems_energy"]
    )
    assert code == 2


# --- exit codes -----------------------------------------------------------------

# the exit code of each class in errors.py, as the README documents it: 2 for a
# validation family, 3 for every other toolkit error
_EXIT_CODES = {
    "TtaBenchError": 3,
    "ManifestError": 2,
    "UnreadableFileError": 3,
    "UnsupportedFormatError": 2,
    "CorruptFileError": 3,
    "AudioTooShortError": 3,
    "EmptyTranscriptError": 3,
    "ShapeMismatchError": 3,
    "CheckpointError": 2,
    "FrozenParameterError": 3,
    "ConfigError": 2,
    "NonFiniteLossError": 3,
    "NonFiniteLogitsError": 3,
    "EvaluationError": 2,
    "TooFewPairsError": 2,
    "AnalysisError": 2,
}
_ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_documented_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls(f"{cls.__name__} from the command")

    monkeypatch.setattr(cli, "cmd_evaluate", fail)
    assert cli.main(["evaluate", "--run", "unused"]) == _EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err == f"error: {cls.__name__} from the command\n"


def test_exit_code_table_names_every_error_class():
    assert sorted(_EXIT_CODES) == sorted(c.__name__ for c in _ERROR_CLASSES)
