import numpy as np
import pytest
from scipy.io import wavfile

from helpers import noise, sine
from ttabench.corpus.audio import CANONICAL_RATE_HZ, Waveform, read_audio, write_wav
from ttabench.corpus import vad
from ttabench.corpus.features import compute_mfcc, frame_signal, mel_filterbank
from ttabench.corpus.vad import SegmentList, detect_nonspeech, ems_energy
from ttabench.errors import (
    AudioTooShortError,
    CorruptFileError,
    UnreadableFileError,
    UnsupportedFormatError,
)

# --- waveform container ---------------------------------------------------------


def test_waveform_rejects_bad_samples():
    with pytest.raises(ValueError):
        Waveform(samples=np.array([1.5]))
    with pytest.raises(ValueError):
        Waveform(samples=np.array([np.nan]))
    with pytest.raises(ValueError):
        Waveform(samples=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Waveform(samples=np.array([]))


def test_waveform_duration():
    w = sine(440, 0.5)
    assert w.duration_s == pytest.approx(0.5)
    assert len(w) == 8000


# --- WAV io -----------------------------------------------------------------------


def test_wav_round_trip(tmp_path):
    w = sine(440, 0.25, amplitude=0.5)
    path = tmp_path / "tone.wav"
    write_wav(path, w)
    back = read_audio(path)
    assert back.sample_rate_hz == CANONICAL_RATE_HZ
    assert len(back) == len(w)
    # 16-bit quantization bounds the round-trip error
    assert np.max(np.abs(back.samples - w.samples)) < 1.0 / 32000


def test_read_audio_resamples_to_canonical_rate(tmp_path):
    rate = 8000
    t = np.arange(rate // 2) / rate
    w = Waveform(samples=0.3 * np.sin(2 * np.pi * 200 * t), sample_rate_hz=rate)
    path = tmp_path / "slow.wav"
    write_wav(path, w)
    back = read_audio(path)
    assert back.sample_rate_hz == CANONICAL_RATE_HZ
    assert len(back) == rate  # half a second at 16 kHz


def test_read_audio_downmixes_stereo(tmp_path):
    rate = CANONICAL_RATE_HZ
    mono = (0.25 * np.sin(2 * np.pi * 300 * np.arange(rate // 4) / rate)).astype(np.float32)
    stereo = np.stack([mono, mono], axis=1)
    path = tmp_path / "stereo.wav"
    wavfile.write(path, rate, stereo)
    back = read_audio(path)
    assert back.samples.ndim == 1
    assert np.max(np.abs(back.samples - mono.astype(np.float64))) < 1e-6


def test_read_audio_missing_file(tmp_path):
    with pytest.raises(UnreadableFileError):
        read_audio(tmp_path / "absent.wav")


def test_read_audio_rejects_non_wav(tmp_path):
    path = tmp_path / "text.wav"
    path.write_text("this is not audio at all, just words")
    with pytest.raises(UnsupportedFormatError):
        read_audio(path)


def test_read_audio_rejects_truncated_wav(tmp_path):
    good = tmp_path / "good.wav"
    write_wav(good, sine(440, 0.1))
    bad = tmp_path / "cut.wav"
    bad.write_bytes(good.read_bytes()[:30])
    with pytest.raises(CorruptFileError):
        read_audio(bad)


@pytest.mark.parametrize(
    "bad_value, rate_hz",
    [(np.nan, CANONICAL_RATE_HZ), (np.inf, CANONICAL_RATE_HZ), (-np.inf, 8000)],
    ids=["nan", "inf", "-inf-resampled"],
)
def test_read_audio_rejects_non_finite_float_samples(tmp_path, bad_value, rate_hz):
    samples = np.full(1600, 0.1, dtype=np.float32)
    samples[100] = bad_value
    path = tmp_path / "bad.wav"
    wavfile.write(path, rate_hz, samples)
    with pytest.raises(CorruptFileError, match="NaN or infinite"):
        read_audio(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate_hz", [CANONICAL_RATE_HZ, 8000], ids=["16k", "8k-resampled"])
def test_read_audio_rejects_float_samples_beyond_full_scale(tmp_path, dtype, rate_hz):
    # these used to be clipped to all 1.0 and read as ordinary audio
    path = tmp_path / "loud.wav"
    wavfile.write(path, rate_hz, np.full(1600, 5.0, dtype=dtype))
    with pytest.raises(CorruptFileError, match=r"\|x\| = 5\b"):
        read_audio(path)


def test_read_audio_rejects_one_loud_float_channel(tmp_path):
    # the downmix of (5, -5) is silence; the check reads the stored samples
    path = tmp_path / "stereo.wav"
    wavfile.write(path, CANONICAL_RATE_HZ, np.tile([5.0, -5.0], (1600, 1)).astype(np.float32))
    with pytest.raises(CorruptFileError, match="outside"):
        read_audio(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_read_audio_keeps_float_samples_at_full_scale(tmp_path, dtype):
    x = np.where(np.arange(1600) % 2 == 0, 1.0, -1.0).astype(dtype)
    path = tmp_path / "full.wav"
    wavfile.write(path, CANONICAL_RATE_HZ, x)
    assert np.array_equal(read_audio(path).samples, x.astype(np.float64))


def test_read_audio_clips_resampling_overshoot_of_pcm(tmp_path):
    # a full-scale 8 kHz square wave rings past full scale when upsampled
    square = np.where((np.arange(800) // 20) % 2 == 0, 32767, -32768).astype(np.int16)
    path = tmp_path / "square.wav"
    wavfile.write(path, 8000, square)
    back = read_audio(path)
    assert np.max(np.abs(back.samples)) == 1.0


@pytest.mark.parametrize("rate_hz", [0, 1, 200_000])
def test_read_audio_rejects_implausible_declared_rate(tmp_path, rate_hz):
    # rate 0 used to reach the resampler and raise ValueError; rate 1 would be
    # upsampled 16,000-fold before any length check
    path = tmp_path / "rate.wav"
    wavfile.write(path, rate_hz, np.full(100, 1000, dtype=np.int16))
    with pytest.raises(CorruptFileError, match=f"sample rate {rate_hz} Hz"):
        read_audio(path)


def test_read_audio_scales_int64_pcm(tmp_path):
    t = np.arange(1600) / CANONICAL_RATE_HZ
    x = 0.5 * np.sin(2 * np.pi * 440 * t)
    path = tmp_path / "pcm64.wav"
    wavfile.write(path, CANONICAL_RATE_HZ, (x * 2.0**63).astype(np.int64))
    back = read_audio(path)
    assert np.max(np.abs(back.samples - x)) < 1e-12


# --- framing and MFCC ---------------------------------------------------------------


def test_frame_signal_count_and_content():
    x = np.arange(10, dtype=np.float64)
    frames = frame_signal(x, frame_len=4, hop=2)
    assert frames.shape == (4, 4)
    assert np.array_equal(frames[0], [0, 1, 2, 3])
    assert np.array_equal(frames[1], [2, 3, 4, 5])


def test_mel_filterbank_covers_spectrum():
    fb = mel_filterbank(26, 512, CANONICAL_RATE_HZ)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)


def test_mfcc_shape_for_one_second():
    fm = compute_mfcc(sine(440, 1.0))
    assert fm.frames.shape == (98, 13)
    assert fm.dim == 13


def test_mfcc_finite_on_silence():
    w = Waveform(samples=np.zeros(1600))
    fm = compute_mfcc(w)
    assert np.all(np.isfinite(fm.frames))


def test_mfcc_too_short_raises():
    with pytest.raises(AudioTooShortError):
        compute_mfcc(Waveform(samples=np.zeros(100)))


def test_mfcc_distinguishes_tones():
    low = compute_mfcc(sine(300, 0.5)).frames.mean(axis=0)
    high = compute_mfcc(sine(3000, 0.5)).frames.mean(axis=0)
    assert np.linalg.norm(low - high) > 1.0


# --- VAD and non-speech energy ------------------------------------------------------


def _speech_with_silent_edges(edge_s: float = 0.3, tone_s: float = 0.6) -> Waveform:
    edge = np.zeros(int(edge_s * CANONICAL_RATE_HZ))
    tone = sine(500, tone_s, amplitude=0.5).samples
    return Waveform(samples=np.concatenate([edge, tone, edge]))


def test_energy_vad_finds_the_tone():
    w = _speech_with_silent_edges()
    speech = vad._speech_segments(w)
    assert len(speech) == 1
    start, end = speech.segments[0]
    assert start == pytest.approx(0.3, abs=0.05)
    assert end == pytest.approx(0.9, abs=0.26)  # hangover extends the tail


def test_detect_nonspeech_complements_speech():
    w = _speech_with_silent_edges()
    nonspeech = detect_nonspeech(w)
    assert len(nonspeech) >= 1
    assert nonspeech.segments[0][0] == 0.0
    for start, end in nonspeech.segments:
        assert end - start >= 0.030
        assert 0.0 <= start < end <= w.duration_s + 1e-9


def test_ems_energy_matches_known_noise_floor():
    # floor must sit below the VAD threshold (0.05 x median frame RMS,
    # where the median frame is tone at 0.5/sqrt(2))
    rms = 0.005
    edge = noise(0.3, rms=rms, seed=7).samples
    tone = sine(500, 0.6, amplitude=0.5).samples
    w = Waveform(samples=np.concatenate([edge, tone, edge]))
    nonspeech = detect_nonspeech(w)
    result = ems_energy(w, nonspeech)
    assert not result.empty_region
    # mean square of gaussian noise with sd=rms
    assert result.value == pytest.approx(rms**2, rel=0.3)


def test_ems_energy_empty_region_flag():
    w = sine(500, 0.4, amplitude=0.5)
    empty = SegmentList(segments=())
    result = ems_energy(w, empty)
    assert result.empty_region
    assert result.value == 0.0


def test_all_silence_is_nonspeech():
    w = Waveform(samples=np.zeros(CANONICAL_RATE_HZ // 2))
    nonspeech = detect_nonspeech(w)
    total = sum(end - start for start, end in nonspeech.segments)
    assert total == pytest.approx(w.duration_s, abs=0.05)
