"""Evaluation metrics against independent oracles."""
import itertools
import math
import random
import re
import unicodedata
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge.metrics import (AblationCell, CorpusRate, EditOps, ablation_gap,
                              cer, corpus_error_rate, cosine, edit_distance,
                              normalize_text, only_yes_accuracy, wer)


def oracle_distance(a: str, b: str) -> int:
    """Exhaustive recursive minimal-edit oracle (memoized)."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def all_strings(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)


# --------------------------------------------------------------------------
# edit distance
# --------------------------------------------------------------------------

def test_identical_strings_rate_zero():
    ops = edit_distance("abc", "abc")
    assert ops == EditOps(0, 0, 0, 3)
    assert ops.rate == 0.0


def test_single_substitution():
    ops = edit_distance("abc", "abd")
    assert ops.substitutions == 1 and ops.distance == 1
    assert ops.rate == pytest.approx(1 / 3)


def test_kitten_sitting_distance_three():
    ops = edit_distance("kitten", "sitting")
    assert ops.distance == 3
    assert (ops.substitutions, ops.insertions, ops.deletions) == (2, 1, 0)


def test_exhaustive_against_oracle_up_to_length_six():
    pairs = 0
    for a in all_strings("ab", 6):
        for b in all_strings("ab", 6):
            assert edit_distance(a, b).distance == oracle_distance(a, b), (a, b)
            pairs += 1
    assert pairs == 127 * 127


def test_swap_symmetry_exchanges_insertions_and_deletions():
    rng = random.Random(10)
    for _ in range(500):
        a = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 10)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 10)))
        fwd = edit_distance(a, b)
        rev = edit_distance(b, a)
        assert fwd.distance == rev.distance
        assert fwd.substitutions == rev.substitutions
        assert (fwd.insertions, fwd.deletions) == (rev.deletions, rev.insertions)


def test_triangle_inequality_on_random_triples():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = ("".join(rng.choice("ab") for _ in range(rng.randrange(0, 7)))
                   for _ in range(3))
        dab = edit_distance(a, b).distance
        dbc = edit_distance(b, c).distance
        dac = edit_distance(a, c).distance
        assert dac <= dab + dbc


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=12))
def test_distance_matches_oracle_property(a, b):
    assert edit_distance(a, b).distance == oracle_distance(a, b)


def test_empty_reference_convention():
    ops = edit_distance("", "xyz")
    assert ops == EditOps(0, 3, 0, 0)
    assert ops.rate == 3.0  # I / max(1, reference_length)


def test_ops_decomposition_consistency():
    rng = random.Random(12)
    for _ in range(300):
        a = [rng.randrange(5) for _ in range(rng.randrange(0, 10))]
        b = [rng.randrange(5) for _ in range(rng.randrange(0, 10))]
        ops = edit_distance(a, b)
        assert ops.insertions - ops.deletions == len(b) - len(a)
        assert ops.distance == ops.substitutions + ops.insertions + ops.deletions


# --------------------------------------------------------------------------
# CER / WER
# --------------------------------------------------------------------------

def test_normalization():
    assert normalize_text("Hello,   World!") == "hello world"
    assert normalize_text("你好。世界") == "你好世界"


def oracle_normalize(text: str) -> str:
    """normalize_text as a per-character generator: the reference it must equal."""
    lowered = text.lower()
    stripped = "".join(c for c in lowered if not unicodedata.category(c).startswith("P"))
    return " ".join(stripped.split())


# Code points of every Unicode general category, with the cases normalization
# can get wrong: İ lowers to two code points, U+10100 is astral-plane
# punctuation, combining marks, CJK and full-width punctuation, and the
# whitespace that split() collapses.
CATEGORY_SAMPLES = {
    "Lu": "A\u00c0\u03a3\u0130", "Ll": "a\u00df\u03c2", "Lt": "\u01c5", "Lm": "\u02b0",
    "Lo": "\u4f60\u0627",
    "Mn": "\u0301", "Mc": "\u0903", "Me": "\u20dd",
    "Nd": "7\u0663", "Nl": "\u216b", "No": "\u00b2",
    "Pc": "_", "Pd": "-\u2014", "Ps": "(\u300c", "Pe": ")\u300d", "Pi": "\u00ab",
    "Pf": "\u00bb", "Po": "!,\u3002\uff0c\uff01\U00010100",
    "Sm": "+", "Sc": "$", "Sk": "^", "So": "\u00a9",
    "Zs": " \u3000\u00a0", "Zl": "\u2028", "Zp": "\u2029",
    "Cc": "\t\n\x00\x1f", "Cf": "\u200b", "Cs": "\ud800", "Co": "\ue000", "Cn": "\u0378",
}


def _normalization_table() -> list[str]:
    rng = random.Random(13)
    pool = "".join(CATEGORY_SAMPLES.values())
    table = ["", " ", "\t \n\u3000 ", "\u0130stanbul", "Hello,   World!", "你好。世界！",
             "\U00010100x\U00010100", "e\u0301 \u00e9", *pool]
    for _ in range(300):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))
        # whitespace runs around the drawn text
        table.append(" " * rng.randrange(3) + text + "\t\n " * rng.randrange(2))
    return table


def test_category_samples_cover_every_general_category():
    assert {unicodedata.category(c) for c in "".join(CATEGORY_SAMPLES.values())} \
        == set(CATEGORY_SAMPLES)
    assert len(CATEGORY_SAMPLES) == 30
    assert all(unicodedata.category(c) == cat
               for cat, chars in CATEGORY_SAMPLES.items() for c in chars)
    assert len("İ".lower()) == 2


def test_normalize_text_equals_the_generator_oracle():
    for text in _normalization_table():
        assert normalize_text(text) == oracle_normalize(text), repr(text)


@pytest.mark.parametrize("mode,lang", [("cer", "en"), ("wer", "en"), ("wer", "zh")])
def test_corpus_rate_normalizes_like_the_oracle(mode, lang):
    texts = _normalization_table()
    pairs = list(zip(texts, texts[1:] + texts[:1]))
    oracle_pairs = [(oracle_normalize(r), oracle_normalize(h)) for r, h in pairs]
    assert corpus_error_rate(pairs, mode=mode, lang=lang) == corpus_error_rate(
        oracle_pairs, mode=mode, lang=lang, normalize=False)


def test_cer_identical_after_normalization():
    assert cer("Hello, world!", "hello world").rate == 0.0


def test_cer_raw_mode_sees_the_difference():
    assert cer("Hello", "hello", normalize=False).distance == 1


def test_wer_hello_word():
    ops = wer("hello world", "hello word")
    assert ops.substitutions == 1 and ops.reference_length == 2
    assert ops.rate == 0.5


def test_wer_character_tokenization_for_zh():
    ops = wer("今天天气好", "今天天气很好", lang="zh")
    assert ops.reference_length == 5
    assert ops.insertions == 1 and ops.distance == 1


@pytest.mark.parametrize("lang", ["ZH", "zh-CN", "english"])
def test_unknown_lang_is_a_value_error(lang):
    # Unchecked, 'ZH' scored 今天天气很好 as one whitespace word: rate 1.0.
    message = f"lang must be one of zh, en, ja, ko, other; got {lang!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        wer("今天天气很好", "今天天汽好", lang=lang)
    for mode in ("cer", "wer"):
        with pytest.raises(ValueError, match=re.escape(message)):
            corpus_error_rate([("今天天气很好", "今天天汽好")], mode=mode, lang=lang)


def test_corpus_rate_pools_rather_than_averages():
    # utt1: 1 error / 1 token; utt2: 0 errors / 9 tokens
    pairs = [("a", "b"), ("c c c c c c c c c", "c c c c c c c c c")]
    pooled = corpus_error_rate(pairs, mode="wer")
    assert pooled == CorpusRate(utterances=2, errors=1, reference_length=10)
    assert pooled.rate == pytest.approx(0.1)
    mean_of_rates = (1 / 1 + 0 / 9) / 2
    assert pooled.rate != pytest.approx(mean_of_rates)


def _error_rate_lines(rng, alphabet):
    """Seeded reference/hypothesis lines with the edge cases corpus scoring must keep."""
    fixed = [("", ""), ("", alphabet[:3]), (alphabet[:4], ""), ("?!", "..."),
             ("—", alphabet[:2]), (alphabet[:3], "?")]
    for _ in range(60):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        hyp = "".join(rng.choice(alphabet) if rng.random() < 0.15 else c
                      for c in ref if rng.random() >= 0.05)
        fixed.append((ref, hyp))
    return fixed


@pytest.mark.parametrize("mode,lang,alphabet", [
    ("cer", "en", "abc de,F.G!  "),
    ("wer", "en", "ab cd\tE,\u3000.!"),
    ("cer", "zh", "你好世 界。，"),
    ("wer", "zh", "你好世 界。，\u3000"),
    ("wer", "ja", "こんにちは 世界、。"),
])
@pytest.mark.parametrize("normalize", [True, False])
def test_corpus_rate_is_the_sum_of_per_pair_scores(mode, lang, alphabet, normalize):
    pairs = _error_rate_lines(random.Random(f"{mode}/{lang}/{normalize}"), alphabet)
    per_pair = [cer(r, h, normalize) if mode == "cer" else wer(r, h, lang, normalize)
                for r, h in pairs]
    assert corpus_error_rate(pairs, mode=mode, lang=lang, normalize=normalize) == CorpusRate(
        utterances=len(pairs), errors=sum(ops.distance for ops in per_pair),
        reference_length=sum(ops.reference_length for ops in per_pair))


# --------------------------------------------------------------------------
# only-yes
# --------------------------------------------------------------------------

def test_only_yes_rule_application():
    acc = only_yes_accuracy(["yes", "Yes.", "The audio says hello"])
    assert acc == pytest.approx(2 / 3)


def test_only_yes_88_of_100():
    responses = ["Yes!"] * 88 + ["I heard music."] * 12
    assert only_yes_accuracy(responses) == pytest.approx(0.88)


def test_only_yes_all_passing():
    assert only_yes_accuracy(["yes", "YES", "Yes.", " yes ", "yes!!"]) == 1.0


def test_only_yes_content_must_be_exactly_yes():
    assert only_yes_accuracy(["yes sir"]) == 0.0
    assert only_yes_accuracy(["the answer is yes"]) == 0.0
    assert only_yes_accuracy(["yeah"]) == 0.0


def test_only_yes_empty_list_rejected():
    with pytest.raises(ValueError):
        only_yes_accuracy([])


def test_only_yes_bounded_and_monotone():
    base = ["no"] * 10
    prev = 0.0
    for k in range(11):
        acc = only_yes_accuracy(["yes"] * k + base[k:])
        assert 0.0 <= acc <= 1.0
        assert acc >= prev
        prev = acc


# --------------------------------------------------------------------------
# cosine
# --------------------------------------------------------------------------

def test_cosine_self_is_one():
    v = [0.3, -1.2, 4.5]
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_basis():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_random_pairs_vs_fsum_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 40)
        a = [rng.uniform(-5, 5) for _ in range(n)]
        b = [rng.uniform(-5, 5) for _ in range(n)]
        if all(x == 0 for x in a) or all(y == 0 for y in b):
            continue
        expected = (math.fsum(x * y for x, y in zip(a, b))
                    / (math.sqrt(math.fsum(x * x for x in a))
                       * math.sqrt(math.fsum(y * y for y in b))))
        got = cosine(a, b)
        assert abs(got - expected) < 1e-12
        assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


def test_cosine_rejects_zero_vector_and_mismatch():
    with pytest.raises(ValueError):
        cosine([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


# --------------------------------------------------------------------------
# inference-mode gaps
# --------------------------------------------------------------------------

def test_gap_interleaved_row():
    d_sim, d_cons = ablation_gap(AblationCell(0.816, 0.708), AblationCell(0.783, 0.633))
    assert d_sim == pytest.approx(-0.033)
    assert d_cons == pytest.approx(-0.075)


def test_gap_baseline_row():
    d_sim, _ = ablation_gap(AblationCell(0.594, 0.241), AblationCell(0.549, 0.129))
    assert d_sim == pytest.approx(-0.045)


def test_gap_equal_cells_is_zero():
    cell = AblationCell(0.5, 0.5)
    assert ablation_gap(cell, cell) == (0.0, 0.0)


def test_cell_bounds_enforced():
    with pytest.raises(ValueError):
        AblationCell(1.5, 0.5)
    with pytest.raises(ValueError):
        AblationCell(0.5, -0.1)
