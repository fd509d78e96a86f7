import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskseq.metrics import (
    LossKind,
    MetricError,
    build_info_table,
    corpus_bleu,
    corpus_nist,
    corpus_ter,
    delta,
    info_table_for,
    sentence_bleu_smoothed,
    sentence_nist,
    sentence_ter,
)
from riskseq.model import BOS, EOS, PAD

words = st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=8)
token_ids = st.lists(st.integers(4, 12), min_size=1, max_size=10)
sentence_words = st.sampled_from("the a cat dog sat on mat".split())


# -- reference TER: the plain DP and the exhaustive shift search ------------


def reference_levenshtein(a: tuple, b: tuple) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, tok in enumerate(a, start=1):
        cur = [i]
        for j, ref_tok in enumerate(b, start=1):
            cur.append(
                min(
                    prev[j] + 1,
                    cur[j - 1] + 1,
                    prev[j - 1] + (tok != ref_tok),
                )
            )
        prev = cur
    return prev[-1]


def reference_shift_candidates(hyp: tuple, ref: tuple):
    ref_spans = set()
    for n in range(1, len(ref) + 1):
        for i in range(len(ref) - n + 1):
            ref_spans.add(ref[i : i + n])
    for length in range(1, len(hyp) + 1):
        for start in range(len(hyp) - length + 1):
            block = hyp[start : start + length]
            if block not in ref_spans:
                continue
            rest = hyp[:start] + hyp[start + length :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                yield length, start, dest, rest[:dest] + block + rest[dest:]


def reference_ter_edits(hyp, ref) -> int:
    """Shifts + edits of a greedy best-improvement shift search that scores
    every candidate with the DP and keeps the smallest (edits, length,
    start, dest)."""
    hyp = tuple(t for t in hyp if t not in (PAD, EOS, BOS))
    ref = tuple(t for t in ref if t not in (PAD, EOS, BOS))
    shifts = 0
    current = hyp
    edits = reference_levenshtein(current, ref)
    while edits > 0:
        best = None
        for length, start, dest, shifted in reference_shift_candidates(current, ref):
            d = reference_levenshtein(shifted, ref)
            if d >= edits:
                continue
            key = (d, length, start, dest)
            if best is None or key < best[0]:
                best = (key, shifted)
        if best is None:
            break
        shifts += 1
        edits = best[0][0]
        current = best[1]
    return shifts + edits


def reference_ter(hyp, ref) -> float:
    return reference_ter_edits(hyp, ref) / len(_reference_strip(ref))


# -- reference BLEU and NIST: one clipped-count loop per function ------------


def _reference_strip(tokens) -> tuple:
    return tuple(t for t in tokens if t not in (PAD, EOS, BOS))


def _reference_ngrams(tokens: tuple, n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def _reference_nist_brevity(hyp_len: int, ref_len: int) -> float:
    beta = math.log(0.5) / math.log(2.0 / 3.0) ** 2
    ratio = min(1.0, hyp_len / ref_len)
    return math.exp(beta * math.log(ratio) ** 2)


def reference_sentence_bleu(hyp, ref) -> float:
    hyp, ref = _reference_strip(hyp), _reference_strip(ref)
    if not ref:
        raise MetricError("empty reference")
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        hyp_counts = _reference_ngrams(hyp, n)
        ref_counts = _reference_ngrams(ref, n)
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total = max(0, len(hyp) - n + 1)
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += math.log(precision)
    bp = math.exp(min(0.0, 1.0 - len(ref) / len(hyp)))
    return bp * math.exp(log_sum / 4)


def reference_sentence_nist(hyp, ref, info) -> float:
    hyp, ref = _reference_strip(hyp), _reference_strip(ref)
    if not ref:
        raise MetricError("empty reference")
    if not hyp:
        return 0.0
    score = 0.0
    for n in range(1, 5):
        hyp_counts = _reference_ngrams(hyp, n)
        ref_counts = _reference_ngrams(ref, n)
        gained = sum(
            min(c, ref_counts[g]) * info.get(g, 0.0)
            for g, c in hyp_counts.items()
            if g in ref_counts
        )
        score += gained / max(1, len(hyp) - n + 1)
    return score * _reference_nist_brevity(len(hyp), len(ref))


def reference_corpus_bleu(hyps, refs) -> float:
    if len(hyps) != len(refs):
        raise MetricError(
            f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}"
        )
    matched = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref_set in zip(hyps, refs):
        if not ref_set:
            raise MetricError("sentence without references")
        hyp = _reference_strip(hyp)
        ref_set = [_reference_strip(r) for r in ref_set]
        hyp_len += len(hyp)
        closest = min(ref_set, key=lambda r: (abs(len(r) - len(hyp)), len(r)))
        ref_len += len(closest)
        for n in range(1, 5):
            hyp_counts = _reference_ngrams(hyp, n)
            max_ref: Counter = Counter()
            for ref in ref_set:
                for g, c in _reference_ngrams(ref, n).items():
                    if c > max_ref[g]:
                        max_ref[g] = c
            matched[n - 1] += sum(min(c, max_ref[g]) for g, c in hyp_counts.items())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0 or any(m == 0 for m in matched) or any(t == 0 for t in totals):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, totals)) / 4
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * bp * math.exp(log_prec)


def reference_corpus_nist(hyps, refs, info) -> float:
    if len(hyps) != len(refs):
        raise MetricError(
            f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}"
        )
    gained = [0.0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref_set in zip(hyps, refs):
        hyp = _reference_strip(hyp)
        ref = _reference_strip(ref_set[0])
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = _reference_ngrams(hyp, n)
            ref_counts = _reference_ngrams(ref, n)
            gained[n - 1] += sum(
                min(c, ref_counts[g]) * info.get(g, 0.0)
                for g, c in hyp_counts.items()
                if g in ref_counts
            )
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0 or ref_len == 0:
        return 0.0
    score = sum(g / max(1, t) for g, t in zip(gained, totals))
    return score * _reference_nist_brevity(hyp_len, ref_len)


def outcome(fn, *args):
    """The exact bits of fn(*args), or the error it raised."""
    try:
        value = fn(*args)
    except MetricError as exc:
        return "error", str(exc)
    return type(value).__name__, value.hex()


@st.composite
def scored_corpora(draw):
    """Hypotheses (possibly empty), 1-4 references each and an information
    table built from another corpus, all over ids from a 4-9-id vocabulary
    with reserved ids mixed in, or over words. So n-grams repeat often, a
    reference can strip to nothing, and some n-grams carry no weight."""
    if draw(st.booleans()):
        tokens = st.integers(0, 3 + draw(st.integers(4, 9)))
    else:
        tokens = st.sampled_from("the a cat dog sat on mat".split())
    sentence = st.lists(tokens, min_size=0, max_size=10)
    n = draw(st.integers(1, 4))
    hyps = [draw(sentence) for _ in range(n)]
    refs = [draw(st.lists(sentence, min_size=1, max_size=4)) for _ in range(n)]
    info = build_info_table(draw(st.lists(sentence, min_size=1, max_size=6)))
    return hyps, refs, info


@st.composite
def small_vocab_pairs(draw):
    """(hyp, ref) over 4-9 content ids, so tokens repeat often."""
    ids = st.integers(4, 3 + draw(st.integers(4, 9)))
    hyp = draw(st.lists(ids, min_size=0, max_size=12))
    ref = draw(st.lists(ids, min_size=1, max_size=12))
    return hyp, ref


@st.composite
def ter_corpora(draw):
    """1-3 (hyp, refs) over 3-5 content ids, each sentence with 1-3
    references of differing lengths, so edit counts often tie."""
    ids = st.integers(4, 3 + draw(st.integers(3, 5)))
    n = draw(st.integers(1, 3))
    hyps = [draw(st.lists(ids, min_size=0, max_size=7)) for _ in range(n)]
    refs = [
        draw(st.lists(st.lists(ids, min_size=1, max_size=7), min_size=1,
                      max_size=3, unique_by=len))
        for _ in range(n)
    ]
    return hyps, refs


class TestLossKind:
    def test_parse_by_value(self):
        assert LossKind.parse("neg_sbleu") is LossKind.NEG_SMOOTHED_BLEU
        assert LossKind.parse("ster") is LossKind.SMOOTHED_TER
        assert LossKind.parse("neg_snist") is LossKind.NEG_SMOOTHED_NIST

    def test_parse_by_name(self):
        assert LossKind.parse("smoothed_ter") is LossKind.SMOOTHED_TER

    def test_parse_unknown(self):
        with pytest.raises(MetricError):
            LossKind.parse("bleu5")


class TestSentenceBleu:
    def test_identity_scores_one(self):
        ref = "the cat sat on the mat".split()
        assert sentence_bleu_smoothed(ref, ref) == pytest.approx(1.0)

    def test_hand_counted_example(self):
        # Precisions counted by hand: 5/6 unigrams, then add-one smoothed
        # (3+1)/(5+1), (2+1)/(4+1), (1+1)/(3+1); equal lengths so no brevity
        # penalty.
        hyp = "the cat sat on the mat".split()
        ref = "the cat sat on a mat".split()
        expected = (5 / 6 * 4 / 6 * 3 / 5 * 2 / 4) ** 0.25
        assert sentence_bleu_smoothed(hyp, ref) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_hypothesis_scores_zero(self):
        assert sentence_bleu_smoothed("x y z".split(), "a b c".split()) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert sentence_bleu_smoothed([], "a b".split()) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricError):
            sentence_bleu_smoothed("a".split(), [])

    def test_brevity_penalty_applied(self):
        # hyp = one correct word, ref length 4: BP = exp(1 - 4/1)
        hyp, ref = ["a"], "a b c d".split()
        got = sentence_bleu_smoothed(hyp, ref)
        no_bp = (1.0 * (1 / 1) * (1 / 1) * (1 / 1)) ** 0.25
        assert got == pytest.approx(math.exp(1 - 4) * no_bp, abs=1e-12)

    def test_reserved_ids_stripped(self):
        assert sentence_bleu_smoothed(
            [4, 5, 6, EOS, PAD], [BOS, 4, 5, 6, EOS]
        ) == pytest.approx(1.0)

    @given(hyp=words, ref=words)
    @settings(max_examples=60, deadline=None)
    def test_bounded_zero_one(self, hyp, ref):
        assert 0.0 <= sentence_bleu_smoothed(hyp, ref) <= 1.0


class TestSentenceTer:
    def test_swap_is_one_shift(self):
        assert sentence_ter("b a".split(), "a b".split()) == 0.5

    def test_identity_is_zero(self):
        assert sentence_ter("a b c".split(), "a b c".split()) == 0.0

    def test_all_substitutions(self):
        assert sentence_ter("x y".split(), "a b".split()) == 1.0

    def test_insertion_and_deletion(self):
        assert sentence_ter("a".split(), "a b".split()) == 0.5
        assert sentence_ter("a b c".split(), "a b".split()) == 0.5

    def test_shift_beats_two_substitutions(self):
        # moving "c d" in one shift: hyp "c d a b" -> ref "a b c d"
        assert sentence_ter("c d a b".split(), "a b c d".split()) == 0.25

    def test_can_exceed_one(self):
        assert sentence_ter("x y z w".split(), ["a"]) == 4.0

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricError):
            sentence_ter(["a"], [])

    @given(hyp=words, ref=words)
    @settings(max_examples=40, deadline=None)
    def test_never_negative_and_zero_iff_equal(self, hyp, ref):
        t = sentence_ter(hyp, ref)
        assert t >= 0.0
        if hyp == ref:
            assert t == 0.0

    @given(hyp=token_ids, ref=token_ids)
    @settings(max_examples=60, deadline=None)
    def test_token_id_bounds_and_identity(self, hyp, ref):
        assert 0.0 <= sentence_bleu_smoothed(hyp, ref) <= 1.0
        assert sentence_ter(hyp, ref) >= 0.0
        assert sentence_ter(ref, ref) == 0.0

    @given(hyp=words, ref=words)
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_plain_edit_distance(self, hyp, ref):
        bound = reference_levenshtein(tuple(hyp), tuple(ref)) / len(ref)
        assert sentence_ter(hyp, ref) <= bound

    @given(pair=small_vocab_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_small_vocab_ids(self, pair):
        hyp, ref = pair
        assert sentence_ter(hyp, ref) == reference_ter(hyp, ref)

    @given(
        hyp=st.lists(sentence_words, max_size=10),
        ref=st.lists(sentence_words, min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_on_words(self, hyp, ref):
        assert sentence_ter(hyp, ref) == reference_ter(hyp, ref)

    @given(
        hyp=st.lists(st.integers(4, 9), min_size=0, max_size=90),
        ref=st.lists(st.integers(4, 9), min_size=65, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_edit_distance_equals_dp_past_one_machine_word(self, hyp, ref):
        from riskseq.metrics import _distance_to

        hyp, ref = tuple(hyp), tuple(ref)
        assert _distance_to(ref)(hyp) == reference_levenshtein(hyp, ref)


class TestNist:
    def test_info_weights_hand_counted(self):
        info = build_info_table(["a b a".split()])
        assert info[("a",)] == pytest.approx(math.log2(3 / 2))
        assert info[("b",)] == pytest.approx(math.log2(3 / 1))
        # bigram weight = log2(count(prefix "a") / count("a b")) = log2(2/1)
        assert info[("a", "b")] == pytest.approx(1.0)
        assert info[("a", "b", "a")] == pytest.approx(0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(MetricError):
            build_info_table([])

    def test_identity_hypothesis_hand_value(self):
        ref = "a b a".split()
        info = build_info_table([ref])
        # n=1: (2*log2(1.5) + log2(3)) / 3
        # n=2: ("a b" weighs log2(2/1)=1, "b a" weighs log2(1/1)=0) / 2
        # n=3, n=4: zero information
        expected = (2 * math.log2(1.5) + math.log2(3)) / 3 + 0.5
        assert sentence_nist(ref, ref, info) == pytest.approx(expected)

    def test_brevity_factor_is_half_at_two_thirds_ratio(self):
        ref = "a b a a b a".split()
        info = build_info_table([ref])
        full = sentence_nist(ref, ref, info)
        partial = sentence_nist(ref[:4], ref, info)
        # the hypothesis "a b a a" keeps unigram/bigram averages equal to the
        # full sentence only for unigrams; just check the factor directly
        from riskseq.metrics import _nist_brevity

        assert _nist_brevity(4, 6) == pytest.approx(0.5)
        assert partial < full

    def test_empty_hypothesis_scores_zero(self):
        info = build_info_table(["a b".split()])
        assert sentence_nist([], "a b".split(), info) == 0.0

    def test_unknown_ngrams_contribute_nothing(self):
        info = build_info_table(["a b".split()])
        assert sentence_nist("c d".split(), "c d".split(), info) == 0.0


class TestDelta:
    def test_bleu_loss_is_negated(self):
        ref = "a b c d".split()
        assert delta(LossKind.NEG_SMOOTHED_BLEU, ref, ref) == pytest.approx(-1.0)

    def test_ter_loss_passthrough(self):
        assert delta(LossKind.SMOOTHED_TER, "b a".split(), "a b".split()) == 0.5

    def test_nist_requires_info_table(self):
        with pytest.raises(MetricError):
            delta(LossKind.NEG_SMOOTHED_NIST, ["a"], ["a"])

    def test_info_table_only_for_nist(self):
        refs = ["a b a".split(), "b c".split()]
        assert info_table_for(LossKind.NEG_SMOOTHED_NIST, refs) == build_info_table(refs)
        assert info_table_for(LossKind.NEG_SMOOTHED_BLEU, refs) is None
        assert info_table_for(LossKind.SMOOTHED_TER, refs) is None

    def test_nist_loss_is_negated(self):
        info = build_info_table(["a b a".split()])
        ref = "a b a".split()
        assert delta(LossKind.NEG_SMOOTHED_NIST, ref, ref, info) == pytest.approx(
            -sentence_nist(ref, ref, info)
        )


class TestCorpusBleu:
    def test_perfect_corpus_scores_100(self):
        refs = [["a b c d e".split()], ["b c d e a".split()]]
        hyps = [r[0] for r in refs]
        assert corpus_bleu(hyps, refs) == pytest.approx(100.0)

    def test_any_zero_ngram_bucket_scores_zero(self):
        # 4-gram matches are zero, and multi-bleu does not smooth
        assert corpus_bleu(["a b x d".split()], [["a b c d".split()]]) == 0.0

    def test_multi_reference_clipping_uses_max_per_reference(self):
        refs = [["a a b".split(), "a c c".split()]]
        one_ref = corpus_bleu(["a a a a".split()], [["a a b".split()]])
        two_ref = corpus_bleu(["a a a a".split()], refs)
        assert two_ref == one_ref  # the extra reference adds no "a" mass

    def test_closest_reference_length_breaks_ties_short(self):
        # hyp length 5; reference lengths 7 and 3 are both 2 away. The tie
        # must resolve to the shorter one, making the effective reference
        # length 3 < 5 and the brevity penalty exactly 1, so the score is a
        # perfect 100 (all hyp n-grams appear in the longer reference).
        hyps = ["a b c d e".split()]
        refs = [["a b c d e f g".split(), "a b c".split()]]
        assert corpus_bleu(hyps, refs) == pytest.approx(100.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(MetricError):
            corpus_bleu([["a"]], [])


class TestBleuNistEqualReference:
    """One clipped count now serves sentence and corpus BLEU and NIST; each
    score must keep the bits of the function's own loop."""

    @given(data=scored_corpora())
    @settings(max_examples=400, deadline=None)
    def test_sentence_scores(self, data):
        hyps, refs, info = data
        for hyp, ref in zip(hyps, refs):
            assert outcome(sentence_bleu_smoothed, hyp, ref[0]) == outcome(
                reference_sentence_bleu, hyp, ref[0])
            assert outcome(sentence_nist, hyp, ref[0], info) == outcome(
                reference_sentence_nist, hyp, ref[0], info)

    @given(data=scored_corpora())
    @settings(max_examples=400, deadline=None)
    def test_corpus_scores(self, data):
        hyps, refs, info = data
        assert outcome(corpus_bleu, hyps, refs) == outcome(
            reference_corpus_bleu, hyps, refs)
        assert outcome(corpus_nist, hyps, refs, info) == outcome(
            reference_corpus_nist, hyps, refs, info)


class TestCorpusTerNist:
    def test_corpus_ter_perfect_is_zero(self):
        refs = [["a b".split()]]
        assert corpus_ter(["a b".split()], refs) == 0.0

    def test_corpus_ter_pools_edits_over_ref_length(self):
        hyps = ["b a".split(), "x".split()]
        refs = [["a b".split()], [["y"]]]
        # 1 shift + 1 substitution over 3 reference words
        assert corpus_ter(hyps, refs) == pytest.approx(100.0 * 2 / 3)

    def test_corpus_ter_takes_best_reference(self):
        hyps = ["a b".split()]
        refs = [["x y z".split(), "a b".split()]]
        assert corpus_ter(hyps, refs) == 0.0

    def test_corpus_ter_counts_integer_edits(self):
        # 15 edits on 11 reference words: 15/11 * 11 is not 15 in floats
        hyp = [f"h{i}" for i in range(15)]
        ref = [f"r{i}" for i in range(11)]
        assert corpus_ter([hyp], [[ref]]) == 100 * 15 / 11

    def test_corpus_ter_tie_keeps_first_reference(self):
        hyp = [f"h{i}" for i in range(15)]
        refs = [[[f"r{i}" for i in range(9)], [f"r{i}" for i in range(11)]]]
        assert corpus_ter([hyp], refs) == 100 * 15 / 9

    @given(data=ter_corpora())
    @settings(max_examples=150, deadline=None)
    def test_corpus_ter_equals_reference_edit_totals(self, data):
        hyps, refs = data
        total_edits = total_len = 0
        for hyp, ref_set in zip(hyps, refs):
            best = None
            for ref in ref_set:
                edits = reference_ter_edits(hyp, ref)
                if best is None or edits < best[0]:
                    best = (edits, len(ref))
            total_edits += best[0]
            total_len += best[1]
        assert corpus_ter(hyps, refs) == 100 * total_edits / total_len

    def test_corpus_nist_identity_positive(self):
        refs = [["a b a".split()], ["b a b".split()]]
        info = build_info_table([r[0] for r in refs])
        hyps = [r[0] for r in refs]
        assert corpus_nist(hyps, refs, info) > 0.0

    def test_corpus_nist_empty_hyps_zero(self):
        refs = [["a b".split()]]
        info = build_info_table([refs[0][0]])
        assert corpus_nist([[]], refs, info) == 0.0

    @pytest.mark.parametrize("score", [corpus_bleu, corpus_ter, corpus_nist])
    def test_sentence_without_references_rejected(self, score):
        args = ([["a"], ["b"]], [[["a"]], []])
        if score is corpus_nist:
            args += ({},)
        with pytest.raises(MetricError, match="sentence without references"):
            score(*args)
