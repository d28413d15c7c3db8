import collections
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttabench
from helpers import noise, sine, write_tone_corpus
from ttabench.corpus.audio import Waveform, write_wav
from ttabench.corpus.manifest import Utterance, load_manifest
from ttabench.engine.artifacts import (
    RunWriter,
    canonical_json,
    read_run_config,
    read_run_records,
    record_from_dict,
    record_to_dict,
    speaker_wers_from_records,
)
from ttabench.engine.config import (
    AdaptationConfig,
    AdaptationMethod,
    AdaptationMode,
    resolve_config,
)
from ttabench.engine.optim import Adam, Sgd, build_optimizer
from ttabench.engine.runner import (
    ExperimentResult,
    adapt_speaker,
    adapt_utterance,
    run_experiment,
    split_waveform,
)
from ttabench.errors import ConfigError, UnreadableFileError
from ttabench.model.reference import build_reference_model
from ttabench.objectives import TtaLossValue, make_loss_functional

# --- configuration ------------------------------------------------------------


def test_config_defaults_match_standard_recipe():
    c = AdaptationConfig()
    assert c.method is AdaptationMethod.SUTA
    assert c.steps_n == 10
    assert c.alpha == 0.3
    assert c.lam == 0.3
    assert c.temperature == 2.5
    assert c.learning_rate == 2e-4
    assert c.mode is AdaptationMode.EPISODIC
    assert c.adapted_groups == ("feature_extractor", "layer_norm")


def test_config_coerces_enum_strings():
    c = AdaptationConfig(method="sgem", mode="continual", optimizer="sgd")
    assert c.method is AdaptationMethod.SGEM
    assert c.mode is AdaptationMode.CONTINUAL


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps_n": -1},
        {"alpha": 1.5},
        {"lam": -0.1},
        {"temperature": 0.0},
        {"rho": 1.0},
        {"neg_k": 0},
        {"learning_rate": 0.0},
        {"adapted_groups": ("encoder",)},
        {"chunk_target_s": 90.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        AdaptationConfig(**kwargs)


def test_config_dict_round_trip():
    c = AdaptationConfig(method="sgem", steps_n=3, adapted_groups=("layer_norm",))
    assert AdaptationConfig.from_dict(c.to_dict()) == c


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        AdaptationConfig.from_dict({"stepz": 5})


def _config_fingerprint(out, config: AdaptationConfig) -> str:
    RunWriter(out, config, _INPUTS).finalize(ExperimentResult(config=config, speakers=()))
    return json.loads((out / "run_manifest.json").read_text())["config_fingerprint"]


def test_config_fingerprint_tracks_content(tmp_path):
    a = _config_fingerprint(tmp_path / "a", AdaptationConfig())
    assert a == _config_fingerprint(tmp_path / "b", AdaptationConfig())
    assert a != _config_fingerprint(tmp_path / "c", AdaptationConfig(steps_n=11))


def test_resolve_config_overrides_skip_none():
    c = resolve_config({"steps_n": 5, "alpha": 0.4}, {"alpha": 0.6, "lam": None})
    assert c.steps_n == 5
    assert c.alpha == 0.6
    assert c.lam == 0.3


# --- optimizers ------------------------------------------------------------------


def test_sgd_step():
    opt = Sgd(learning_rate=0.1)
    deltas = opt.step({"w": np.array([1.0, -2.0])})
    assert np.allclose(deltas["w"], [-0.1, 0.2])


def test_adam_first_step_is_signed_learning_rate():
    opt = Adam(learning_rate=0.01)
    deltas = opt.step({"w": np.array([3.0, -0.5, 0.0])})
    assert np.allclose(deltas["w"][:2], [-0.01, 0.01], atol=1e-6)
    assert deltas["w"][2] == 0.0


def test_build_optimizer():
    assert isinstance(build_optimizer("adam", 0.1), Adam)
    assert isinstance(build_optimizer("sgd", 0.1), Sgd)
    with pytest.raises(ValueError):
        build_optimizer("lion", 0.1)


# --- chunking ----------------------------------------------------------------------


def test_split_waveform_short_audio_passes_through():
    w = sine(440, 1.0)
    chunks = split_waveform(w, max_s=60.0, target_s=30.0)
    assert len(chunks) == 1
    assert chunks[0] is w


def test_split_waveform_cuts_long_audio_at_pauses():
    rate = 16000
    tone_a = sine(500, 3.5, amplitude=0.5).samples
    gap = np.zeros(int(0.3 * rate))
    tone_b = sine(700, 3.2, amplitude=0.5).samples
    w = Waveform(samples=np.concatenate([tone_a, gap, tone_b]))

    chunks = split_waveform(w, max_s=6.0, target_s=3.0)
    assert len(chunks) >= 2
    rebuilt = np.concatenate([c.samples for c in chunks])
    assert np.array_equal(rebuilt, w.samples)

    # one cut should land inside the silent gap (3.5 s .. 3.8 s), give or take hangover
    edges = np.cumsum([len(c.samples) for c in chunks])[:-1] / rate
    assert any(3.2 < e < 4.1 for e in edges)


@pytest.mark.parametrize("method", ["none", "sgem"])
@pytest.mark.parametrize(
    "n_samples, lengths", [(16040, [16040]), (2 * 16000 + 40, [16000, 16040])]
)
def test_a_tail_too_short_for_one_frame_joins_the_chunk_before_it(
    tmp_path, model, method, n_samples, lengths
):
    # noise with no pause, 40 samples past a whole number of seconds: cuts at the
    # 1 s target leave a last chunk shorter than the samples one output frame reads
    w = Waveform(samples=np.random.default_rng(12).normal(0.0, 0.1, n_samples))
    config = AdaptationConfig(
        method=method, steps_n=2, learning_rate=1e-3, max_utterance_s=1.0, chunk_target_s=1.0
    )
    utt = _write_utterance(tmp_path, "u1", w, "a b")
    result = adapt_speaker(model, "spk", [utt], config)
    assert result.records[0].flags == ()
    assert result.records[0].count is not None
    chunks = split_waveform(w, config.max_utterance_s, config.chunk_target_s)
    assert [len(c.samples) for c in chunks] == lengths
    assert all(len(c.samples) >= model.min_input_samples for c in chunks)
    assert np.array_equal(np.concatenate([c.samples for c in chunks]), w.samples)


# --- single-utterance adaptation ------------------------------------------------------


def _suta_config(**kwargs) -> AdaptationConfig:
    base = dict(method="suta", steps_n=2, learning_rate=1e-3)
    base.update(kwargs)
    return AdaptationConfig(**base)


def _params(model) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in model.snapshot().parameters.items()}


def test_episodic_adaptation_restores_parameters_exactly(model):
    before = _params(model)
    w = noise(0.2, rms=0.1, seed=1)
    _, trace = adapt_utterance(model, w, _suta_config())
    after = _params(model)
    assert trace.parameters_restored
    assert trace.n_steps == 2
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_trace_records_per_step_losses(model):
    w = noise(0.2, rms=0.1, seed=2)
    _, trace = adapt_utterance(model, w, _suta_config(steps_n=4))
    assert trace.n_steps == 4
    assert trace.initial_total == trace.steps[0].total
    assert all(np.isfinite(s.total) for s in trace.steps)
    assert trace.final_total is not None and np.isfinite(trace.final_total)
    assert set(trace.steps[0].components) == {"em", "mcc"}
    assert not trace.non_finite


def test_method_none_is_plain_decode(model):
    from ttabench.model.decode import greedy_ctc_decode

    w = noise(0.2, rms=0.1, seed=3)
    expected = greedy_ctc_decode(model.forward(w), model.vocabulary())
    hyp, trace = adapt_utterance(model, w, AdaptationConfig(method="none"))
    assert hyp == expected
    assert trace.steps == ()
    assert not trace.parameters_restored
    assert trace.initial_total is None and trace.final_total is None


def test_method_none_decodes_long_audio_one_chunk_at_a_time(model, monkeypatch):
    from ttabench.model.decode import greedy_ctc_decode

    config = AdaptationConfig(method="none", max_utterance_s=1.0, chunk_target_s=0.6)
    w = noise(2.0, rms=0.1, seed=4)
    chunks = split_waveform(w, config.max_utterance_s, config.chunk_target_s)
    forward = model.forward
    expected = " ".join(greedy_ctc_decode(forward(c), model.vocabulary()) for c in chunks)
    lengths = []

    def recording_forward(wave, *args):
        lengths.append(len(wave.samples))
        return forward(wave, *args)

    monkeypatch.setattr(model, "forward", recording_forward)
    hyp, _ = adapt_utterance(model, w, config)
    assert len(chunks) > 1 and lengths == [len(c.samples) for c in chunks]
    assert max(lengths) <= config.max_utterance_s * w.sample_rate_hz
    assert hyp == expected


def test_zero_steps_behaves_like_none(model):
    w = noise(0.2, rms=0.1, seed=4)
    hyp_none, _ = adapt_utterance(model, w, AdaptationConfig(method="none"))
    hyp_zero, trace = adapt_utterance(model, w, _suta_config(steps_n=0))
    assert hyp_zero == hyp_none
    assert trace.steps == ()


def test_continual_mode_keeps_updates(model):
    before = _params(model)
    w = noise(0.2, rms=0.1, seed=5)
    _, trace = adapt_utterance(model, w, _suta_config(mode="continual"))
    after = _params(model)
    assert not trace.parameters_restored
    assert any(not np.array_equal(before[n], after[n]) for n in before)
    # the frozen head must not move even in continual mode
    assert np.array_equal(before["head_w"], after["head_w"])
    assert np.array_equal(before["head_b"], after["head_b"])


def test_sgem_method_adapts(model):
    w = noise(0.2, rms=0.1, seed=6)
    _, trace = adapt_utterance(model, w, AdaptationConfig(method="sgem", steps_n=2))
    assert trace.n_steps == 2
    assert set(trace.steps[0].components) == {"gem", "ns"}


def test_non_finite_loss_aborts_and_restores(model, monkeypatch):
    from ttabench.engine import runner

    def poisoned(*args, **kwargs):
        def fn(z):
            bad = float("nan")
            value = TtaLossValue(total=bad, components={"em": bad}, weights={"em": 1.0})
            return value, np.zeros_like(z.values)

        return fn

    monkeypatch.setattr(runner, "make_loss_functional", poisoned)
    before = _params(model)
    w = noise(0.2, rms=0.1, seed=7)
    hyp, trace = adapt_utterance(model, w, _suta_config())
    after = _params(model)
    assert trace.non_finite
    assert trace.final_total is None
    assert trace.steps == ()
    for name in before:
        assert np.array_equal(before[name], after[name])
    # decoding still happened on the restored parameters
    from ttabench.model.decode import greedy_ctc_decode

    assert hyp == greedy_ctc_decode(model.forward(w), model.vocabulary())


def test_diverging_update_is_flagged_and_restored(model):
    config = AdaptationConfig(
        method="suta",
        optimizer="sgd",
        learning_rate=1e300,
        adapted_groups=("feature_extractor", "layer_norm", "head"),
    )
    before = _params(model)
    w = noise(0.2, rms=0.1, seed=7)
    hyp, trace = adapt_utterance(model, w, config)
    assert trace.non_finite
    assert trace.final_total is None
    assert not trace.parameters_restored
    after = _params(model)
    for name in before:
        assert np.array_equal(before[name], after[name]), name
    from ttabench.model.decode import greedy_ctc_decode

    assert hyp == greedy_ctc_decode(model.forward(w), model.vocabulary())


def test_adapt_utterance_runs_one_forward_per_chunk(model, monkeypatch):
    from ttabench.engine import runner

    config = AdaptationConfig(
        method="sgem",
        mode="continual",
        steps_n=2,
        adapted_groups=("layer_norm",),
        max_utterance_s=1.0,
        chunk_target_s=0.5,
    )
    w = noise(1.2, rms=0.1, seed=8)
    chunks = split_waveform(w, config.max_utterance_s, config.chunk_target_s)
    assert len(chunks) >= 2
    forward = model.forward
    calls = []

    def counted(chunk, frozen=None):
        calls.append(frozen)
        return forward(chunk, frozen)

    monkeypatch.setattr(model, "forward", counted)
    _, trace = adapt_utterance(model, w, config)
    assert len(calls) == len(chunks)
    assert all(frozen is not None for frozen in calls)
    assert trace.n_steps == 2 * len(chunks)
    # continual mode keeps the updates, so a fresh forward sees the decode's parameters
    loss_fn = runner._loss_functional(config)
    assert trace.final_total == loss_fn(forward(chunks[-1]))[0].total


def _chunked_config(groups, method="sgem", mode="continual"):
    return AdaptationConfig(
        method=method,
        mode=mode,
        steps_n=3,
        adapted_groups=groups,
        learning_rate=1e-2,
        max_utterance_s=1.0,
        chunk_target_s=0.5,
    )


@pytest.mark.parametrize(
    "groups,convs_per_chunk",
    [(("layer_norm",), 2), (("head",), 2), (("feature_extractor", "layer_norm"), 2 * (3 + 1))],
    ids=lambda g: "+".join(g) if isinstance(g, tuple) else str(g),
)
def test_adapt_utterance_runs_the_frozen_conv_stack_once_per_chunk(
    model, monkeypatch, groups, convs_per_chunk
):
    from ttabench.model import reference

    config = _chunked_config(groups)
    w = noise(1.2, rms=0.1, seed=8)
    n_chunks = len(split_waveform(w, config.max_utterance_s, config.chunk_target_s))
    assert n_chunks >= 2
    calls = []

    def counted(conv):
        def run(*args):
            calls.append(args)
            return conv(*args)

        return run

    for name in ("_conv1_phases", "_polyphase_conv"):
        monkeypatch.setattr(reference, name, counted(getattr(reference, name)))
    adapt_utterance(model, w, config)
    # each chunk runs as two frame spans, each with its own workspace (the last
    # argument); per span, conv1 and conv2 once per chunk when frozen, once per
    # step and per decode otherwise
    per_span = collections.Counter(id(args[-1]) for args in calls)
    assert sorted(per_span.values()) == [convs_per_chunk * n_chunks] * 2


@pytest.mark.parametrize("groups", [("layer_norm",), ("head",), ("layer_norm", "head")], ids="+".join)
@pytest.mark.parametrize("method", ["suta", "sgem"])
@pytest.mark.parametrize("mode", ["episodic", "continual"])
def test_frozen_features_leave_adaptation_bitwise_unchanged(monkeypatch, groups, method, mode):
    config = _chunked_config(groups, method, mode)
    utterances = [noise(1.2, rms=0.1, seed=8), noise(0.4, rms=0.2, seed=9)]

    def run(model):
        optimizer = build_optimizer("adam", config.learning_rate) if mode == "continual" else None
        out = [adapt_utterance(model, w, config, optimizer=optimizer) for w in utterances]
        return out, _params(model)

    reused, reused_params = run(build_reference_model(seed=3))
    full_model = build_reference_model(seed=3)
    monkeypatch.setattr(full_model, "frozen_features", lambda w: None)
    full, full_params = run(full_model)
    for (hyp_a, trace_a), (hyp_b, trace_b) in zip(reused, full):
        assert hyp_a == hyp_b
        assert [s.total for s in trace_a.steps] == [s.total for s in trace_b.steps]
        assert trace_a.final_total == trace_b.final_total
    for name in reused_params:
        assert np.array_equal(reused_params[name], full_params[name]), name


# --- frame budget ------------------------------------------------------------------


def _agree(got, expected, rtol: float = 1e-12) -> bool:
    """Whether ``got`` is within ``rtol`` of ``expected``, relative to its largest entry."""
    return bool(np.max(np.abs(np.subtract(got, expected))) <= rtol * np.max(np.abs(expected)))


@pytest.mark.parametrize(
    "groups", [("feature_extractor", "layer_norm"), ("layer_norm",)], ids="+".join
)
@pytest.mark.parametrize("method", ["suta", "sgem"])
def test_chunks_above_the_frame_budget_match_the_two_span_path(monkeypatch, groups, method):
    from ttabench.model import reference, types

    config = AdaptationConfig(
        method=method, mode="continual", steps_n=3, adapted_groups=groups, learning_rate=1e-2
    )
    w = noise(1.0, rms=0.1, seed=8)

    def run():
        model = build_reference_model(seed=3)
        hypothesis, trace = adapt_utterance(model, w, config)
        return hypothesis, trace, _params(model)

    hyp, trace, params = run()
    n_frames = build_reference_model(seed=3).output_length(len(w.samples))
    assert len(reference._frame_spans(n_frames)) == 2
    monkeypatch.setattr(types, "FRAME_BUDGET", 64)
    assert len(reference._frame_spans(n_frames)) == 64
    budget_hyp, budget_trace, budget_params = run()
    assert budget_hyp == hyp
    totals = [s.total for s in trace.steps] + [trace.final_total]
    budget_totals = [s.total for s in budget_trace.steps] + [budget_trace.final_total]
    assert _agree(budget_totals, totals)
    for name in params:
        assert _agree(budget_params[name], params[name]), name


@pytest.mark.parametrize("method", ["suta", "sgem"])
def test_frozen_features_above_the_frame_budget_are_bitwise_the_full_pass(monkeypatch, method):
    from ttabench.model import types

    monkeypatch.setattr(types, "FRAME_BUDGET", 64)
    model = build_reference_model(seed=3)
    model.select_adaptable(["layer_norm"])
    w = noise(1.0, rms=0.1, seed=8)
    frozen = model.frozen_features(w)
    assert model.forward(w, frozen).values.tobytes() == model.forward(w).values.tobytes()
    loss_fn = make_loss_functional(method)
    record, grads = model.gradient(w, loss_fn)
    frozen_record, frozen_grads = model.gradient(w, loss_fn, frozen)
    assert frozen_record.total == record.total
    for name, g in grads.items():
        assert frozen_grads[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize(
    "groups", [("feature_extractor", "layer_norm"), ("layer_norm",)], ids="+".join
)
@pytest.mark.parametrize("method", ["suta", "sgem"])
def test_diverging_update_above_the_frame_budget_is_flagged_and_restored(
    monkeypatch, groups, method
):
    from ttabench.model import types

    monkeypatch.setattr(types, "FRAME_BUDGET", 64)
    config = AdaptationConfig(
        method=method, optimizer="sgd", learning_rate=1e300, adapted_groups=groups
    )
    model = build_reference_model(seed=3)
    before = _params(model)
    _, trace = adapt_utterance(model, noise(1.0, rms=0.1, seed=8), config)
    assert trace.non_finite
    after = _params(model)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


_PEAK_RSS_OF_A_LONG_CHUNK = """
import resource

import numpy as np

from ttabench.corpus.audio import Waveform
from ttabench.engine.config import AdaptationConfig
from ttabench.engine.runner import adapt_utterance
from ttabench.model.reference import build_reference_model

samples = np.clip(np.random.default_rng(0).normal(0.0, 0.05, 60 * 16000), -1.0, 1.0)
adapt_utterance(
    build_reference_model(seed=0),
    Waveform(samples=samples, sample_rate_hz=16000),
    AdaptationConfig(method="suta", steps_n=2),
)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_a_60_s_chunk_adapts_in_half_the_memory_of_a_two_span_pass():
    # two suta steps on one 60 s chunk, default groups, peaked at 928 MB when
    # every chunk ran as two spans with all activations kept, at 376 MB with
    # the layer-norm output h3 a whole-chunk array, and at 317 MB with conv2's
    # im2col window; about 290 MB without it
    src = str(Path(ttabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_OF_A_LONG_CHUNK],
        capture_output=True, text=True, env=env, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb <= 305, f"peak RSS {peak_mb:.0f} MB, above 305 MB"


_PAGE_FAULTS_OF_WARM_STEPS = """
import resource

import numpy as np

from ttabench.corpus.audio import Waveform
from ttabench.engine.config import AdaptationConfig
from ttabench.engine.optim import build_optimizer
from ttabench.engine.runner import adapt_utterance
from ttabench.model.reference import build_reference_model

model = build_reference_model(seed=0)
config = AdaptationConfig(method="sgem", mode="continual", adapted_groups=("layer_norm",))
optimizer = build_optimizer(config.optimizer.value, config.learning_rate)
rng = np.random.default_rng(0)
utterances = [
    Waveform(np.clip(rng.normal(0.0, 0.1, int(0.37 * 16000)), -1.0, 1.0), 16000)
    for _ in range(6)
]
for w in utterances[:2]:
    adapt_utterance(model, w, config, optimizer=optimizer)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for w in utterances[2:]:
    adapt_utterance(model, w, config, optimizer=optimizer)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_warm_utterances_take_no_page_faults():
    # continual norm-only sgem, as a stream serves it: once warm, no step maps
    # fresh memory; with the logits, their gradient or the objectives' block
    # arrays allocated on every step, the C allocator maps and unmaps them each
    # time, and the four utterances fault about 13,500 pages in
    src = str(Path(ttabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _PAGE_FAULTS_OF_WARM_STEPS],
        capture_output=True, text=True, env=env, check=False, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])  # ru_minflt: this process's own minor faults
    assert faults <= 500, f"{faults} minor page faults over four warm utterances"


# --- speaker loop ------------------------------------------------------------------


def _write_utterance(tmp_path, utt_id, w, transcript):
    path = tmp_path / f"{utt_id}.wav"
    write_wav(path, w)
    return Utterance(
        utterance_id=utt_id,
        speaker_id="spk",
        audio_path=str(path),
        transcript=transcript,
        duration_s=w.duration_s,
    )


def test_adapt_speaker_scores_and_flags(tmp_path, model):
    utts = [
        _write_utterance(tmp_path, "u1", noise(0.2, rms=0.1, seed=8), "hello there"),
        _write_utterance(tmp_path, "u2", Waveform(samples=np.zeros(50)), "too short"),
        _write_utterance(tmp_path, "u3", noise(0.2, rms=0.1, seed=9), "..."),
    ]
    result = adapt_speaker(model, "spk", utts, _suta_config())
    by_id = {r.utterance_id: r for r in result.records}
    assert by_id["u1"].count is not None
    assert by_id["u1"].reference == "HELLO THERE"
    assert by_id["u1"].flags == ()
    assert by_id["u2"].flags == ("audio_too_short",)
    assert by_id["u2"].hypothesis == ""
    assert by_id["u2"].count is not None  # reference still scoreable: all deletions
    assert by_id["u3"].flags == ("empty_reference",)
    assert by_id["u3"].count is None
    assert result.wer is not None


def test_adapt_speaker_continual_reuses_one_optimizer(tmp_path, model):
    utts = [
        _write_utterance(tmp_path, f"u{i}", noise(0.2, rms=0.1, seed=10 + i), "a b")
        for i in range(2)
    ]
    config = _suta_config(mode="continual")
    before = _params(model)
    adapt_speaker(model, "spk", utts, config)
    after = _params(model)
    assert any(not np.array_equal(before[n], after[n]) for n in before)


# --- experiment runner -----------------------------------------------------------------


def _experiment_fixture(tmp_path):
    manifest_path = write_tone_corpus(
        tmp_path,
        {"alpha": ["ad ga", "jm sp"], "bravo": ["vy da", "ga jd"]},
    )
    return load_manifest(manifest_path)


def test_run_experiment_orders_speakers_and_scores(tmp_path, model):
    manifest = _experiment_fixture(tmp_path)
    result = run_experiment(model, manifest, _suta_config(), workers=1)
    assert [s.speaker_id for s in result.speakers] == ["alpha", "bravo"]
    assert set(result.speaker_wers()) == {"alpha", "bravo"}
    assert result.mean_speaker_wer() >= 0.0
    assert len(result.records()) == 4


def test_run_experiment_worker_count_does_not_change_results(tmp_path, model):
    manifest = _experiment_fixture(tmp_path)
    serial = run_experiment(model, manifest, _suta_config(), workers=1)
    parallel = run_experiment(model, manifest, _suta_config(), workers=2)
    a = [record_to_dict(r) for r in serial.records()]
    b = [record_to_dict(r) for r in parallel.records()]
    assert a == b


def test_run_experiment_resumes_from_completed(tmp_path, model):
    manifest = _experiment_fixture(tmp_path)
    first = run_experiment(model, manifest, _suta_config(), workers=1)
    done = {s.speaker_id: s for s in first.speakers if s.speaker_id == "alpha"}
    second = run_experiment(model, manifest, _suta_config(), workers=1, completed=done)
    assert second.speakers[0] is done["alpha"]


def test_run_experiment_reports_progress(tmp_path, model):
    manifest = _experiment_fixture(tmp_path)
    seen = []
    run_experiment(
        model, manifest, AdaptationConfig(method="none"), on_speaker_done=seen.append
    )
    assert sorted(s.speaker_id for s in seen) == ["alpha", "bravo"]


def test_run_experiment_rejects_bad_worker_count(tmp_path, model):
    manifest = _experiment_fixture(tmp_path)
    with pytest.raises(ValueError):
        run_experiment(model, manifest, _suta_config(), workers=0)



def test_run_experiment_leaves_the_model_at_its_base(tmp_path, model):
    manifest = _experiment_fixture(tmp_path)
    config = _suta_config(mode="continual")
    base = _params(model)
    run_experiment(model, manifest, config)
    assert all(np.array_equal(v, base[k]) for k, v in _params(model).items())

    # bravo adapts the model on its first utterance, then cannot read its second
    (tmp_path / "audio" / "bravo-001.wav").unlink()
    adapted = []
    with pytest.raises(UnreadableFileError):
        run_experiment(model, manifest, config, on_speaker_done=adapted.append)
    assert [r.speaker_id for r in adapted] == ["alpha"]
    assert all(np.array_equal(v, base[k]) for k, v in _params(model).items())


def test_pickled_model_carries_parameters_not_workspaces(tmp_path, model):
    # a pool task pickles the model; one that has run holds about 15 MB of workspaces
    manifest = _experiment_fixture(tmp_path)
    config = _suta_config()
    model.gradient(noise(0.79, rms=0.1, seed=4), make_loss_functional("suta"))
    first = run_experiment(model, manifest, config)
    blob = pickle.dumps(model)
    assert len(blob) < 200_000
    again = run_experiment(pickle.loads(blob), manifest, config)
    assert [record_to_dict(r) for r in again.records()] == [
        record_to_dict(r) for r in first.records()
    ]

# --- artifacts ---------------------------------------------------------------------------


def test_canonical_json_is_key_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_record_dict_round_trip(tmp_path, model):
    utts = [_write_utterance(tmp_path, "u1", noise(0.2, rms=0.1, seed=11), "one two")]
    result = adapt_speaker(model, "spk", utts, _suta_config())
    record = result.records[0]
    back = record_from_dict(json.loads(canonical_json(record_to_dict(record))))
    assert back.utterance_id == record.utterance_id
    assert back.hypothesis == record.hypothesis
    assert back.count == record.count
    assert back.flags == record.flags
    assert back.trace.initial_total == record.trace.initial_total
    assert back.trace.final_total == record.trace.final_total
    assert [s.total for s in back.trace.steps] == [s.total for s in record.trace.steps]


def test_record_dict_has_no_timestamps(tmp_path, model):
    utts = [_write_utterance(tmp_path, "u1", noise(0.2, rms=0.1, seed=12), "one")]
    result = adapt_speaker(model, "spk", utts, _suta_config())
    data = record_to_dict(result.records[0])
    blob = canonical_json(data)
    assert "time" not in blob and "wall" not in blob


# the sha256 values a run directory is tied to
_INPUTS = {"checkpoint_fingerprint": "ab" * 32, "corpus_manifest_sha256": "cd" * 32}


def test_run_writer_resume_and_finalize(tmp_path, model):
    manifest = _experiment_fixture(tmp_path / "corpus")
    config = _suta_config()
    out = tmp_path / "run"

    writer = RunWriter(out, config, _INPUTS)
    assert writer.completed_speakers() == {}
    result = run_experiment(
        model, manifest, config, workers=1, on_speaker_done=writer.speaker_done
    )
    results_path = writer.finalize(result)

    # per-speaker rows concatenated in sorted order make up results.jsonl
    speaker_rows = []
    for speaker in ["alpha", "bravo"]:
        speaker_rows.extend(
            (out / "speakers" / f"{speaker}.jsonl").read_text().splitlines()
        )
    assert results_path.read_text().splitlines() == speaker_rows

    resumed = RunWriter(out, config, _INPUTS).completed_speakers()
    assert set(resumed) == {"alpha", "bravo"}
    assert resumed["alpha"].wer == pytest.approx(result.speakers[0].wer)

    run_manifest = json.loads((out / "run_manifest.json").read_text())
    config_text = (out / "config.json").read_text(encoding="utf-8").removesuffix("\n")
    assert run_manifest["config_fingerprint"] == hashlib.sha256(config_text.encode()).hexdigest()
    assert run_manifest["checkpoint_fingerprint"] == "ab" * 32
    assert run_manifest["corpus_manifest_sha256"] == "cd" * 32
    assert run_manifest["n_utterances"] == 4

    assert read_run_config(out) == config
    records = read_run_records(out)
    wers = speaker_wers_from_records(records)
    assert wers == pytest.approx(result.speaker_wers())


def test_run_writer_failing_midway_leaves_the_earlier_files_whole(tmp_path, model, monkeypatch):
    from ttabench.engine import artifacts

    manifest = _experiment_fixture(tmp_path / "corpus")
    config = _suta_config()
    out = tmp_path / "run"
    writer = RunWriter(out, config, _INPUTS)
    result = run_experiment(
        model, manifest, config, workers=1, on_speaker_done=writer.speaker_done
    )
    results_path = writer.finalize(result)
    before = results_path.read_bytes()
    files = sorted(p.relative_to(out) for p in out.rglob("*"))

    # the second speaker's last record cannot be serialized, so writing stops partway
    last = result.speakers[-1]
    bad = dataclasses.replace(last.records[-1], hypothesis=object())
    broken_last = dataclasses.replace(last, records=(*last.records[:-1], bad))
    broken = dataclasses.replace(result, speakers=(*result.speakers[:-1], broken_last))
    with pytest.raises(TypeError):
        writer.finalize(broken)
    assert results_path.read_bytes() == before
    speaker_path = out / "speakers" / f"{last.speaker_id}.jsonl"
    speaker_rows = speaker_path.read_bytes()
    with pytest.raises(TypeError):
        writer.speaker_done(broken.speakers[-1])
    assert speaker_path.read_bytes() == speaker_rows

    # the rename fails after the new, shorter text is in the temporary file
    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(artifacts.os, "replace", failing_replace)
    with pytest.raises(OSError):
        writer.finalize(dataclasses.replace(result, speakers=result.speakers[:1]))
    assert results_path.read_bytes() == before
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == files


def test_run_writer_rejects_config_mixing(tmp_path):
    out = tmp_path / "run"
    RunWriter(out, _suta_config(), _INPUTS)
    with pytest.raises(ConfigError):
        RunWriter(out, _suta_config(steps_n=9), _INPUTS)
    with pytest.raises(ConfigError, match="different configuration"):
        RunWriter(out, _suta_config(steps_n=9), _INPUTS, resume=False)


@pytest.mark.parametrize("changed", sorted(_INPUTS))
def test_run_writer_refuses_to_resume_on_other_inputs(tmp_path, changed):
    out = tmp_path / "run"
    RunWriter(out, _suta_config(), _INPUTS)
    inputs_file = (out / "inputs.json").read_bytes()
    other = {**_INPUTS, changed: "ef" * 32}
    with pytest.raises(ConfigError, match=f"does not record this run's {changed};"):
        RunWriter(out, _suta_config(), other)
    assert (out / "inputs.json").read_bytes() == inputs_file
    # a directory with no record of its inputs is refused the same way
    (out / "inputs.json").unlink()
    with pytest.raises(ConfigError, match="checkpoint_fingerprint, corpus_manifest_sha256"):
        RunWriter(out, _suta_config(), _INPUTS)


def test_run_writer_without_resume_forgets_speakers_of_other_inputs(tmp_path, model):
    manifest = _experiment_fixture(tmp_path / "corpus")
    config = _suta_config(steps_n=1)
    out = tmp_path / "run"
    writer = RunWriter(out, config, _INPUTS)
    run_experiment(model, manifest, config, on_speaker_done=writer.speaker_done)
    assert set(RunWriter(out, config, _INPUTS).completed_speakers()) == {"alpha", "bravo"}
    # a recompute on other inputs that stops before its first speaker leaves no
    # speaker a later resume on those inputs would take as done
    other = {**_INPUTS, "checkpoint_fingerprint": "ef" * 32}
    RunWriter(out, config, other, resume=False)
    assert RunWriter(out, config, other).completed_speakers() == {}
    assert json.loads((out / "inputs.json").read_text()) == other


def test_read_run_records_requires_finalized_run(tmp_path):
    out = tmp_path / "run"
    RunWriter(out, _suta_config(), _INPUTS)
    with pytest.raises(ConfigError):
        read_run_records(out)
