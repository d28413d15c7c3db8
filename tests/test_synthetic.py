import json

import numpy as np
import pytest

from ttabench.corpus.manifest import load_manifest
from ttabench.errors import EmptyTranscriptError
from ttabench.model.types import LogitMatrix
from ttabench.synthetic import (
    AMPLITUDE,
    EDGE_SILENCE_S,
    GAP_S,
    TONE_LETTERS,
    TONE_S,
    build_shifted_corpus,
    build_training_set,
    decode_accuracy,
    frame_ce_functional,
    frame_labels_for,
    make_sentences,
    make_word_list,
    render_transcript,
    symbol_frequency,
    train_reference_model,
)

RATE = 16000

# --- tone rendering --------------------------------------------------------------


def test_symbol_frequencies_are_evenly_spaced():
    assert symbol_frequency(1) == 500.0
    assert symbol_frequency(2) == 750.0
    assert symbol_frequency(28) == 7250.0


def test_render_length_and_label_alignment():
    r = render_transcript("ad")
    edge = round(EDGE_SILENCE_S * RATE)
    tone = round(TONE_S * RATE)
    gap = round(GAP_S * RATE)
    expected = edge + 2 * (tone + gap) + (edge - gap)
    assert len(r.waveform) == expected
    assert len(r.sample_labels) == expected
    # 'a' occupies the first tone slot, 'd' the second, zeros elsewhere
    assert set(r.sample_labels[edge : edge + tone]) == {1}
    assert set(r.sample_labels[edge + tone : edge + tone + gap]) == {0}
    second = edge + tone + gap
    assert set(r.sample_labels[second : second + tone]) == {4}
    assert set(r.sample_labels[:edge]) == {0}


def test_render_normalizes_case_and_maps_specials():
    r = render_transcript("A'B c")
    assert r.transcript == "a'b c"
    assert 27 in r.sample_labels  # apostrophe
    assert 28 in r.sample_labels  # word delimiter


def test_render_amplitude_bound():
    r = render_transcript("sp jd")
    assert np.max(np.abs(r.waveform.samples)) <= AMPLITUDE + 1e-12


def test_render_rejects_empty_and_unrenderable():
    with pytest.raises(EmptyTranscriptError):
        render_transcript("!!!")
    with pytest.raises(ValueError):
        render_transcript("room 3")


def test_frame_labels_sample_receptive_field_centers(model):
    r = render_transcript("ga")
    labels = frame_labels_for(model, r.sample_labels)
    n_frames = model.output_length(len(r.sample_labels))
    assert len(labels) == n_frames
    centers = 4 * np.arange(n_frames) + 31
    assert np.array_equal(labels, r.sample_labels[centers])


# --- supervised training pieces ------------------------------------------------------


def test_frame_ce_value_and_gradient():
    rng = np.random.default_rng(0)
    z = LogitMatrix(values=rng.normal(size=(6, 5)), blank_index=0)
    labels = np.array([0, 1, 2, 3, 4, 0])
    fn = frame_ce_functional(labels)
    value, dz = fn(z)

    p = np.exp(z.values - z.values.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expected = -np.log(p[np.arange(6), labels]).mean()
    assert value.total == pytest.approx(expected, abs=1e-12)

    eps = 1e-6
    fd = np.zeros_like(z.values)
    for idx in np.ndindex(z.values.shape):
        vp, vm = z.values.copy(), z.values.copy()
        vp[idx] += eps
        vm[idx] -= eps
        fd[idx] = (
            fn(LogitMatrix(values=vp, blank_index=0))[0].total
            - fn(LogitMatrix(values=vm, blank_index=0))[0].total
        ) / (2 * eps)
    assert np.linalg.norm(dz - fd) / np.linalg.norm(fd) < 1e-7


def test_frame_ce_rejects_length_mismatch():
    z = LogitMatrix(values=np.zeros((4, 5)), blank_index=0)
    with pytest.raises(ValueError):
        frame_ce_functional(np.zeros(3, dtype=np.int64))(z)


def test_word_list_is_deterministic_and_renderable():
    a = make_word_list()
    b = make_word_list()
    assert a == b
    assert len(a) == 24
    assert len(set(a)) == 24
    assert all(set(w) <= set(TONE_LETTERS) for w in a)
    assert all(2 <= len(w) <= 4 for w in a)


def test_sentences_use_three_to_five_words():
    sentences = make_sentences(20, np.random.default_rng(1))
    assert all(3 <= len(s.split()) <= 5 for s in sentences)


def test_training_set_is_reproducible(model):
    a = build_training_set(model, n_utterances=3, seed=5)
    b = build_training_set(model, n_utterances=3, seed=5)
    assert len(a) == 3
    for ex_a, ex_b in zip(a, b):
        assert ex_a.transcript == ex_b.transcript
        assert np.array_equal(ex_a.waveform.samples, ex_b.waveform.samples)
        assert np.array_equal(ex_a.frame_labels, ex_b.frame_labels)


def test_training_reduces_frame_loss(model):
    examples = build_training_set(model, n_utterances=6, seed=5)
    history = train_reference_model(model, examples, epochs=3, learning_rate=2e-3)
    assert len(history) == 3
    assert history[-1] < history[0]
    assert model.selected_groups == ("feature_extractor", "layer_norm")


def test_decode_accuracy_bounds(model):
    examples = build_training_set(model, n_utterances=2, seed=6)
    acc = decode_accuracy(model, examples)
    assert 0.0 <= acc <= 1.0


# --- shifted benchmark corpus ----------------------------------------------------------


def test_build_shifted_corpus_layout(tmp_path):
    manifest_path, shifts = build_shifted_corpus(
        tmp_path, n_speakers=3, utterances_per_speaker=2, seed=21
    )
    manifest = load_manifest(manifest_path)
    assert len(manifest) == 6
    assert sorted(manifest.speakers()) == ["spk00", "spk01", "spk02"]
    for u in manifest:
        assert (tmp_path / "audio" / f"{u.utterance_id}.wav").exists()
        assert u.transcript == u.transcript.lower()

    assert [s.volume_gain for s in shifts] == pytest.approx([1.6, 1.0, 0.4])
    assert [s.snr_db for s in shifts] == pytest.approx([25.0, 16.5, 8.0])
    assert all(s.noise_rms > 0 for s in shifts)
    # later speakers are noisier in absolute terms as well
    assert shifts[-1].noise_rms > shifts[0].noise_rms

    meta = json.loads((tmp_path / "speakers.json").read_text())
    assert set(meta) == {"spk00", "spk01", "spk02"}
    assert meta["spk02"]["noise_rms"] == pytest.approx(shifts[-1].noise_rms)


def test_build_shifted_corpus_is_reproducible(tmp_path):
    path_a, shifts_a = build_shifted_corpus(
        tmp_path / "a", n_speakers=2, utterances_per_speaker=2, seed=33
    )
    path_b, shifts_b = build_shifted_corpus(
        tmp_path / "b", n_speakers=2, utterances_per_speaker=2, seed=33
    )
    assert shifts_a == shifts_b
    a = [u.transcript for u in load_manifest(path_a)]
    b = [u.transcript for u in load_manifest(path_b)]
    assert a == b
    wav_a = (tmp_path / "a" / "audio" / "spk00_utt000.wav").read_bytes()
    wav_b = (tmp_path / "b" / "audio" / "spk00_utt000.wav").read_bytes()
    assert wav_a == wav_b
