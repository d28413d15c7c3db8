import csv
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttabench.errors import (
    AllZeroDifferencesError,
    EmptyListError,
    EmptyReferenceError,
    SpeakerSetMismatchError,
    TooFewPairsError,
)
from ttabench.evaluation import (
    Direction,
    SpeakerReport,
    WerCount,
    build_delta_table,
    format_delta_table,
    normalize_text,
    rank_speakers_by_baseline,
    speaker_wer,
    unweighted_mean_wer,
    wer,
    wilcoxon_signed_rank,
    write_delta_table_csv,
    write_speaker_gains_csv,
)

# --- text normalization -------------------------------------------------------


def test_normalize_uppercases_and_strips_punctuation():
    assert normalize_text("Hello, world!") == "HELLO WORLD"


def test_normalize_keeps_intra_word_apostrophes():
    assert normalize_text("don't stop") == "DON'T STOP"


def test_normalize_drops_lone_apostrophes():
    assert normalize_text("' hi '") == "HI"


def test_normalize_collapses_whitespace():
    assert normalize_text("  a \t b\n c ") == "A B C"


# --- edit counts ----------------------------------------------------------------


def test_wer_count_validates():
    with pytest.raises(ValueError):
        WerCount(substitutions=-1, deletions=0, insertions=0, reference_words=1)
    with pytest.raises(ValueError):
        WerCount(substitutions=2, deletions=2, insertions=0, reference_words=3)
    with pytest.raises(ValueError):
        WerCount(substitutions=0, deletions=0, insertions=0, reference_words=0)


def test_wer_count_rates():
    c = WerCount(substitutions=1, deletions=2, insertions=3, reference_words=10)
    assert c.errors == 6
    assert c.wer == 0.6


def test_wer_exact_match_and_decomposition():
    assert wer("a b c", "a b c").errors == 0
    sub = wer("a b c", "a x c")
    assert (sub.substitutions, sub.deletions, sub.insertions) == (1, 0, 0)
    dele = wer("a b c", "a c")
    assert (dele.substitutions, dele.deletions, dele.insertions) == (0, 1, 0)
    ins = wer("a c", "a b c")
    assert (ins.substitutions, ins.deletions, ins.insertions) == (0, 0, 1)


def test_wer_prefers_substitution_over_insert_delete_pair():
    c = wer("a b", "a x y")
    assert c.errors == 2
    assert c.substitutions == 1
    assert c.insertions == 1
    assert c.deletions == 0


def test_wer_normalizes_both_sides():
    assert wer("Hello, World!", "hello world").errors == 0


def test_wer_empty_hypothesis_is_all_deletions():
    c = wer("a b c", "")
    assert (c.substitutions, c.deletions, c.insertions) == (0, 3, 0)
    assert c.wer == 1.0


def test_wer_empty_reference_raises():
    with pytest.raises(EmptyReferenceError):
        wer("", "a")
    with pytest.raises(EmptyReferenceError):
        wer("!!!", "a")


def _edit_distance(ref: tuple[str, ...], hyp: tuple[str, ...]) -> int:
    """Definitional recursive edit distance, as an independent oracle."""

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
        )

    return d(len(ref), len(hyp))


words = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6)
hyp_words = st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=6)


@given(ref=words, hyp=hyp_words)
def test_wer_matches_recursive_edit_distance(ref, hyp):
    c = wer(" ".join(ref), " ".join(hyp))
    assert c.errors == _edit_distance(tuple(w.upper() for w in ref), tuple(w.upper() for w in hyp))
    assert c.reference_words == len(ref)


@given(ref=words)
def test_wer_identity(ref):
    assert wer(" ".join(ref), " ".join(ref)).errors == 0


# --- aggregation ----------------------------------------------------------------


def test_speaker_wer_pools_counts():
    counts = [
        WerCount(substitutions=1, deletions=0, insertions=1, reference_words=4),
        WerCount(substitutions=0, deletions=1, insertions=0, reference_words=6),
    ]
    assert speaker_wer(counts) == pytest.approx(3 / 10)


def test_speaker_wer_rejects_empty():
    with pytest.raises(EmptyListError):
        speaker_wer([])


def test_unweighted_mean_wer():
    assert unweighted_mean_wer([0.1, 0.3]) == pytest.approx(0.2)
    with pytest.raises(EmptyListError):
        unweighted_mean_wer([])


def test_mean_wer_ignores_utterance_counts():
    """Duplicating a speaker's utterances must not move the mean."""
    counts = [WerCount(substitutions=1, deletions=0, insertions=0, reference_words=5)]
    single = speaker_wer(counts)
    doubled = speaker_wer(counts * 2)
    assert unweighted_mean_wer([single, 0.4]) == unweighted_mean_wer([doubled, 0.4])


# --- paired significance test -----------------------------------------------------


def _oracle_midranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def _oracle_signed_rank_p(diffs: list[float]) -> tuple[float, float]:
    """Exact two-sided p by enumerating all 2^n sign assignments."""
    ranks = _oracle_midranks([abs(d) for d in diffs])
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    n = len(diffs)
    ws = [
        sum(r for r, bit in zip(ranks, bits) if bit)
        for bits in itertools.product([0, 1], repeat=n)
    ]
    le = sum(1 for w in ws if w <= w_obs + 1e-9) / 2**n
    ge = sum(1 for w in ws if w >= w_obs - 1e-9) / 2**n
    return w_obs, min(1.0, 2.0 * min(le, ge))


def test_wilcoxon_all_positive_n6():
    baseline = [0.30, 0.40, 0.50, 0.60, 0.70, 0.80]
    adapted = [0.25, 0.32, 0.41, 0.52, 0.63, 0.74]
    r = wilcoxon_signed_rank(baseline, adapted)
    assert r.n_effective == 6
    assert r.statistic == 21.0
    assert r.p_value == pytest.approx(0.03125, abs=1e-12)
    assert r.direction is Direction.ADAPTED_BETTER


def test_wilcoxon_matches_enumeration_oracle():
    import random

    rnd = random.Random(99)
    for _ in range(40):
        n = rnd.randint(5, 10)
        # quarter steps are exactly representable, so (0.5 + d) - 0.5 == d
        # and the small support set forces tied |differences| into the mix
        diffs = [(rnd.randrange(-4, 5) or 1) * 0.25 for _ in range(n)]
        baseline = [0.5 + d for d in diffs]
        adapted = [0.5] * n
        r = wilcoxon_signed_rank(baseline, adapted)
        w_oracle, p_oracle = _oracle_signed_rank_p(diffs)
        assert r.statistic == pytest.approx(w_oracle)
        assert r.p_value == pytest.approx(p_oracle, abs=1e-12)


def test_wilcoxon_drops_zero_differences():
    baseline = [0.5, 0.5, 0.4, 0.6, 0.7, 0.8, 0.9]
    adapted = [0.5, 0.5, 0.3, 0.5, 0.6, 0.7, 0.8]
    r = wilcoxon_signed_rank(baseline, adapted)
    assert r.n_effective == 5


def test_wilcoxon_all_zero_raises():
    with pytest.raises(AllZeroDifferencesError):
        wilcoxon_signed_rank([0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5])


def test_wilcoxon_too_few_pairs_raises():
    with pytest.raises(TooFewPairsError):
        wilcoxon_signed_rank([0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.2, 0.3])


def test_wilcoxon_large_n_uses_normal_approximation():
    baseline = [0.5 + 0.01 * (i + 1) for i in range(30)]
    adapted = [0.5 - 0.001 * (i + 1) for i in range(30)]
    r = wilcoxon_signed_rank(baseline, adapted)
    assert r.n_effective == 30
    assert 0.0 < r.p_value < 0.001
    assert r.direction is Direction.ADAPTED_BETTER


# --- delta table ------------------------------------------------------------------


def _reports(pairs: dict[str, tuple[float, float]]) -> list[SpeakerReport]:
    return [
        SpeakerReport(speaker_id=s, baseline_wer=b, adapted_wer=a)
        for s, (b, a) in pairs.items()
    ]


def test_speaker_report_delta_and_gain():
    r = SpeakerReport(speaker_id="s", baseline_wer=0.5, adapted_wer=0.3)
    assert r.delta == pytest.approx(-0.2)
    assert r.gain == pytest.approx(0.2)


def test_build_delta_table_derives_unadapted_row():
    base = {f"s{i}": (0.4 + 0.05 * i, 0.3 + 0.04 * i) for i in range(6)}
    rows = build_delta_table({"suta": _reports(base)})
    assert [r.method for r in rows] == ["unadapted", "suta"]
    unadapted, suta = rows
    assert unadapted.setting == "default"
    assert unadapted.delta is None and unadapted.p_value is None
    expect_base = unweighted_mean_wer([b for b, _ in base.values()])
    assert unadapted.mean_wer == pytest.approx(expect_base)
    expect_adapted = unweighted_mean_wer([a for _, a in base.values()])
    assert suta.mean_wer == pytest.approx(expect_adapted)
    assert suta.delta == pytest.approx(expect_adapted - expect_base)
    assert suta.p_value is not None


def test_build_delta_table_rejects_mismatched_speakers():
    a = _reports({"s1": (0.5, 0.4), "s2": (0.6, 0.5)})
    b = _reports({"s1": (0.5, 0.4), "s3": (0.6, 0.5)})
    with pytest.raises(SpeakerSetMismatchError):
        build_delta_table({"suta": a, "sgem": b})


def test_build_delta_table_rejects_inconsistent_baselines():
    a = _reports({f"s{i}": (0.5, 0.4) for i in range(5)})
    b = _reports({f"s{i}": (0.6, 0.4) for i in range(5)})
    with pytest.raises(SpeakerSetMismatchError):
        build_delta_table({"suta": a, "sgem": b})


def test_build_delta_table_empty_raises():
    with pytest.raises(EmptyListError):
        build_delta_table({})


def test_format_delta_table_renders_percent():
    base = {f"s{i}": (0.5, 0.4) for i in range(5)}
    text = format_delta_table(build_delta_table({"suta": _reports(base)}))
    assert "50.0%" in text
    assert "-10.0%" in text
    assert text.splitlines()[0].startswith("setting")


def test_write_delta_table_csv(tmp_path):
    base = {f"s{i}": (0.5, 0.4) for i in range(5)}
    path = tmp_path / "delta.csv"
    write_delta_table_csv(build_delta_table({"suta": _reports(base)}), str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["setting", "method", "mean_wer_pct", "delta_pct", "p_value", "n_speakers"]
    assert rows[1][1] == "unadapted" and rows[1][2] == "50.0"
    assert rows[2][1] == "suta" and rows[2][3] == "-10.0"


# --- speaker ranking and gains ------------------------------------------------------


def test_rank_speakers_descending_baseline_tie_by_id():
    reports = _reports({"b": (0.5, 0.1), "a": (0.5, 0.2), "c": (0.9, 0.3)})
    assert rank_speakers_by_baseline(reports) == ["c", "a", "b"]


def test_write_speaker_gains_csv(tmp_path):
    reports = _reports({"a": (0.6, 0.4), "b": (0.8, 0.5)})
    ranking = rank_speakers_by_baseline(reports)
    path = tmp_path / "gains.csv"
    write_speaker_gains_csv({"suta": reports}, ranking, str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["rank", "speaker_id", "setting", "baseline_wer", "adapted_wer", "gain"]
    assert rows[1][:3] == ["1", "b", "suta"]
    assert float(rows[1][5]) == pytest.approx(0.3)
    assert rows[2][:3] == ["2", "a", "suta"]


def test_write_speaker_gains_csv_rejects_missing_speaker(tmp_path):
    reports = _reports({"a": (0.6, 0.4)})
    with pytest.raises(SpeakerSetMismatchError):
        write_speaker_gains_csv({"suta": reports}, ["a", "b"], str(tmp_path / "g.csv"))


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=1, max_size=8
    )
)
@settings(max_examples=50)
def test_mean_wer_permutation_invariant(values):
    shuffled = list(reversed(values))
    assert unweighted_mean_wer(values) == pytest.approx(unweighted_mean_wer(shuffled))
