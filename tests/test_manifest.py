import json

import pytest

from ttabench.corpus.manifest import (
    CorpusManifest,
    Utterance,
    duration_stats,
    filter_max_duration,
    load_manifest,
    save_manifest,
    word_duration,
)
from ttabench.errors import EmptyTranscriptError, ManifestError


def _utt(i, speaker="spk1", duration=2.0, transcript="hello world"):
    return Utterance(
        utterance_id=f"u{i}",
        speaker_id=speaker,
        audio_path=f"audio/u{i}.wav",
        transcript=transcript,
        duration_s=duration,
    )


def test_utterance_validation():
    with pytest.raises(ValueError):
        _utt(1, speaker="")
    with pytest.raises(ValueError):
        Utterance("", "s", "a.wav", "x", 1.0)
    with pytest.raises(ValueError):
        Utterance("u", "s", "a.wav", "x", -1.0)
    with pytest.raises(ValueError):
        Utterance("u", "s", "a.wav", "x", float("nan"))


def test_manifest_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        CorpusManifest(utterances=(_utt(1), _utt(1)))


def test_speakers_groups_in_manifest_order():
    m = CorpusManifest(utterances=(_utt(1, "b"), _utt(2, "a"), _utt(3, "b")))
    groups = m.speakers()
    assert list(groups) == ["b", "a"]
    assert [u.utterance_id for u in groups["b"]] == ["u1", "u3"]


def test_save_load_round_trip(tmp_path):
    m = CorpusManifest(utterances=(_utt(1, duration=1.5), _utt(2, "spk2", duration=3.25)))
    path = tmp_path / "validation.jsonl"
    save_manifest(m, path)
    loaded = load_manifest(path)
    assert loaded.utterances == m.utterances


def test_transcript_with_a_line_separator_round_trips(tmp_path):
    # str.splitlines would cut the saved line inside the transcript
    m = CorpusManifest(utterances=(Utterance("u1", "s1", "a.wav", "one\u2028two", 1.0),))
    save_manifest(m, tmp_path / "m.jsonl")
    assert load_manifest(tmp_path / "m.jsonl").utterances == m.utterances


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(ManifestError, match="cannot read manifest .*nope.jsonl"):
        load_manifest(tmp_path / "nope.jsonl")


def test_load_reports_missing_field_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"utterance_id": "u1", "speaker_id": "s"}\n')
    with pytest.raises(ManifestError, match="bad.jsonl line 1: missing field 'audio_path'"):
        load_manifest(path)


def test_load_reports_bad_types(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "utterance_id": "u1",
        "speaker_id": "s",
        "audio_path": "a.wav",
        "transcript": "x",
        "duration_s": "long",
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ManifestError, match="line 1: field 'duration_s' must be a number"):
        load_manifest(path)


def test_load_rejects_duplicate_ids(tmp_path):
    record = {
        "utterance_id": "u1",
        "speaker_id": "s",
        "audio_path": "a.wav",
        "transcript": "x",
        "duration_s": 1.0,
    }
    path = tmp_path / "dup.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ManifestError, match="duplicate utterance_id 'u1' at line 2"):
        load_manifest(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "garbled.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "sparse.jsonl"
    m = CorpusManifest(utterances=(_utt(1),))
    save_manifest(m, path)
    path.write_text("\n" + path.read_text() + "\n\n")
    assert len(load_manifest(path)) == 1


def test_filter_max_duration_is_strict(tmp_path):
    m = CorpusManifest(
        utterances=(_utt(1, duration=1.0), _utt(2, duration=2.0), _utt(3, duration=3.0)),
    )
    kept = filter_max_duration(m, 2.0)
    assert [u.utterance_id for u in kept] == ["u1"]
    with pytest.raises(ValueError):
        filter_max_duration(m, 0.0)


def test_duration_stats_hand_computed():
    m = CorpusManifest(
        utterances=(
            _utt(1, "a", duration=2.0),
            _utt(2, "a", duration=4.0),
            _utt(3, "b", duration=6.0),
        ),
    )
    stats = duration_stats(m)
    assert stats.n_speakers == 2
    assert stats.mean_duration_s == pytest.approx(4.0)
    assert stats.sd_duration_s == pytest.approx(2.0)
    assert stats.total_hours == pytest.approx(12.0 / 3600.0)


def test_duration_stats_empty_manifest():
    stats = duration_stats(CorpusManifest(utterances=()))
    assert stats.n_speakers == 0
    assert stats.total_hours == 0.0


def test_word_duration():
    u = _utt(1, duration=3.0, transcript="three little words")
    assert word_duration(u) == pytest.approx(1.0)
    u = _utt(2, duration=3.0, transcript="Comma, counts once")
    assert word_duration(u) == pytest.approx(1.0)
    with pytest.raises(EmptyTranscriptError):
        word_duration(_utt(3, transcript="..."))
