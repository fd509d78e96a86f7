"""Sentence-level loss functions and corpus-level evaluation.

Losses are oriented so that lower is better: negative smoothed sentence
BLEU, sentence TER, negative sentence NIST. Corpus BLEU follows
multi-bleu.perl semantics (unsmoothed, clipped 4-gram precisions, closest
reference length, reported x100). Sentence and corpus BLEU and NIST take
their clipped n-gram counts from one helper, and sentence NIST is the
corpus NIST of a one-pair corpus, so a loss and the score that reports it
cannot drift apart.

All scorers work on sequences of hashable tokens. Reserved integer token
ids (PAD/EOS/BOS) are stripped on entry so model output can be scored
directly.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from typing import Hashable, Mapping, Sequence

from .diffcore import RiskseqError
from .model import BOS, EOS, PAD

__all__ = [
    "LossKind",
    "MetricError",
    "InfoTable",
    "sentence_bleu_smoothed",
    "sentence_ter",
    "sentence_nist",
    "delta",
    "corpus_bleu",
    "corpus_ter",
    "corpus_nist",
    "build_info_table",
    "info_table_for",
]

MAX_NGRAM = 4

# NIST brevity factor exp(beta * ln^2(min(1, |hyp|/|ref|))), with beta
# calibrated so the factor is 0.5 at a length ratio of 2/3.
NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2

Token = Hashable
Tokens = Sequence[Token]


class MetricError(RiskseqError):
    pass


class LossKind(enum.Enum):
    NEG_SMOOTHED_BLEU = "neg_sbleu"
    SMOOTHED_TER = "ster"
    NEG_SMOOTHED_NIST = "neg_snist"

    @classmethod
    def parse(cls, name: str) -> "LossKind":
        for kind in cls:
            if kind.value == name or kind.name.lower() == name.lower():
                return kind
        raise MetricError(f"unknown loss kind: {name!r}")


def _strip(tokens: Tokens) -> tuple:
    return tuple(t for t in tokens if t not in (PAD, EOS, BOS))


def _ngrams(tokens: tuple, n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def _clipped(hyp: tuple, refs: Sequence[tuple], n: int) -> Counter:
    """hyp's n-grams in hyp's order, each count clipped to the largest
    count any of ``refs`` gives it; n-grams no reference has are absent."""
    ref_max = _ngrams(refs[0], n)
    for ref in refs[1:]:
        ref_max |= _ngrams(ref, n)
    return _ngrams(hyp, n) & ref_max


# -- sentence BLEU --------------------------------------------------------


def sentence_bleu_smoothed(hyp: Tokens, ref: Tokens) -> float:
    """Geometric mean of modified n-gram precisions (n=1..4), add-one
    smoothing on numerator and denominator for n >= 2, times the brevity
    penalty exp(min(0, 1 - |ref|/|hyp|)). Unigram precision is unsmoothed,
    so an all-wrong hypothesis scores 0."""
    hyp, ref = _strip(hyp), _strip(ref)
    if not ref:
        raise MetricError("empty reference")
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, MAX_NGRAM + 1):
        matched = sum(_clipped(hyp, (ref,), n).values())
        total = max(0, len(hyp) - n + 1)
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += math.log(precision)
    bp = math.exp(min(0.0, 1.0 - len(ref) / len(hyp)))
    return bp * math.exp(log_sum / MAX_NGRAM)


# -- sentence TER ---------------------------------------------------------


def _distance_to(ref: tuple):
    """The function hyp -> word edit distance from hyp to ``ref`` (non-empty).

    Myers' (1999) bit-parallel column recurrence in Hyyrö's (2001) global
    form, with ``ref`` as the pattern: bit i of ``peq[tok]`` is set iff
    ref[i] is tok. Python ints are the bit-vectors, so |ref| is unbounded.
    """
    m = len(ref)
    peq: dict = {}
    for i, tok in enumerate(ref):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)

    def distance(hyp: tuple) -> int:
        pv, mv, score = mask, 0, m
        for tok in hyp:
            eq = peq.get(tok, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ ((xh | pv) & mask))
            mh = pv & xh
            if ph & high:
                score += 1
            elif mh & high:
                score -= 1
            ph = ((ph << 1) | 1) & mask
            mh = (mh << 1) & mask
            pv = mh | (mask ^ ((xv | ph) & mask))
            mv = ph & xv
        return score

    return distance


def _shift_candidates(hyp: tuple, ref_spans: set):
    """Every sequence made by moving a block of hyp that is also a span of
    ref (one of ``ref_spans``) to another position, in ascending
    (block length, start, dest) order."""
    for length in range(1, len(hyp) + 1):
        for start in range(len(hyp) - length + 1):
            block = hyp[start : start + length]
            if block not in ref_spans:
                continue
            rest = hyp[:start] + hyp[start + length :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                yield rest[:dest] + block + rest[dest:]


def _ter_edits(hyp: tuple, ref: tuple) -> int:
    """Shifts + word edits from stripped ``hyp`` to stripped ``ref`` with a
    greedy best-improvement shift search. Each round takes the shift with
    the least key (edits after it, block length, start, dest): fewest edits,
    then the shortest block, the leftmost start and the leftmost destination.

    A shift keeps the token multiset, so no round can leave fewer edits than
    ``bound = max(|hyp|, |ref|) - |multiset(hyp) & multiset(ref)|``.
    Candidates come in ascending (length, start, dest) order, so the first
    one to reach the bound is the round's best. And from ``bound + 1`` edits
    a shift saves at most the edit it costs, so the search stops there.
    """
    if not ref:
        raise MetricError("empty reference")
    m = len(ref)
    distance = _distance_to(ref)
    ref_spans = {ref[i:j] for i in range(m) for j in range(i + 1, m + 1)}
    common = sum((Counter(hyp) & Counter(ref)).values())
    bound = max(len(hyp), m) - common
    distances: dict = {}
    shifts = 0
    current = hyp
    edits = distance(current)
    while edits > bound + 1:
        best_d, best = edits, None
        for shifted in _shift_candidates(current, ref_spans):
            d = distances.get(shifted)
            if d is None:
                d = distances[shifted] = distance(shifted)
            if d < best_d:
                best_d, best = d, shifted
                if d == bound:
                    break
        if best is None:
            break
        shifts += 1
        edits = best_d
        current = best
    return shifts + edits


def sentence_ter(hyp: Tokens, ref: Tokens) -> float:
    """(shifts + word edits) / |ref|; see ``_ter_edits``."""
    hyp, ref = _strip(hyp), _strip(ref)
    return _ter_edits(hyp, ref) / len(ref)


# -- sentence NIST --------------------------------------------------------

InfoTable = Mapping[tuple, float]


def build_info_table(ref_corpus: Sequence[Tokens]) -> dict[tuple, float]:
    """Information weights Info(w1..wn) = log2(count(prefix)/count(ngram)),
    with the empty-prefix count equal to the total token count. N-grams not
    observed in the corpus are simply absent."""
    if not ref_corpus:
        raise MetricError("empty reference corpus")
    sents = [_strip(s) for s in ref_corpus]
    counts: Counter = Counter()
    total_tokens = 0
    for sent in sents:
        total_tokens += len(sent)
        for n in range(1, MAX_NGRAM + 1):
            counts.update(_ngrams(sent, n))
    info: dict[tuple, float] = {}
    for gram, c in counts.items():
        prefix_count = total_tokens if len(gram) == 1 else counts[gram[:-1]]
        info[gram] = math.log2(prefix_count / c)
    return info


def info_table_for(
    kind: LossKind, ref_corpus: Sequence[Tokens]
) -> dict[tuple, float] | None:
    """The information table ``delta(kind, ...)`` needs: built from
    ``ref_corpus`` for the NIST loss, None for the others."""
    if kind is LossKind.NEG_SMOOTHED_NIST:
        return build_info_table(ref_corpus)
    return None


def _nist_brevity(hyp_len: int, ref_len: int) -> float:
    ratio = min(1.0, hyp_len / ref_len)
    return math.exp(NIST_BETA * math.log(ratio) ** 2)


def sentence_nist(hyp: Tokens, ref: Tokens, info: InfoTable) -> float:
    """``corpus_nist`` of the one pair (hyp, ref)."""
    ref = _strip(ref)
    if not ref:
        raise MetricError("empty reference")
    return corpus_nist([hyp], [[ref]], info)


# -- the loss dispatcher --------------------------------------------------


def delta(
    kind: LossKind, hyp: Tokens, ref: Tokens, info: InfoTable | None = None
) -> float:
    """Loss between a candidate and the gold translation; lower is better."""
    if kind is LossKind.NEG_SMOOTHED_BLEU:
        return -sentence_bleu_smoothed(hyp, ref)
    if kind is LossKind.SMOOTHED_TER:
        return sentence_ter(hyp, ref)
    if kind is LossKind.NEG_SMOOTHED_NIST:
        if info is None:
            raise MetricError("NIST loss requires an information table")
        return -sentence_nist(hyp, ref, info)
    raise MetricError(f"unhandled loss kind: {kind}")


# -- corpus-level scores --------------------------------------------------


def _corpus(hyps: Sequence[Tokens], refs: Sequence[Sequence[Tokens]]):
    """(hyp, [ref, ...]) per sentence, reserved ids stripped, after checking
    that the counts match and that every sentence has a reference."""
    if len(hyps) != len(refs):
        raise MetricError(
            f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}"
        )
    for hyp, ref_set in zip(hyps, refs):
        if not ref_set:
            raise MetricError("sentence without references")
        yield _strip(hyp), [_strip(r) for r in ref_set]


def corpus_bleu(
    hyps: Sequence[Tokens], refs: Sequence[Sequence[Tokens]]
) -> float:
    """multi-bleu.perl semantics: corpus-aggregated clipped n-gram
    precisions without smoothing, effective reference length = closest
    reference length per sentence (ties -> shorter), reported x100."""
    matched = [0] * MAX_NGRAM
    totals = [0] * MAX_NGRAM
    hyp_len = 0
    ref_len = 0
    for hyp, ref_set in _corpus(hyps, refs):
        hyp_len += len(hyp)
        closest = min(ref_set, key=lambda r: (abs(len(r) - len(hyp)), len(r)))
        ref_len += len(closest)
        for n in range(1, MAX_NGRAM + 1):
            matched[n - 1] += sum(_clipped(hyp, ref_set, n).values())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0 or any(m == 0 for m in matched) or any(t == 0 for t in totals):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, totals)) / MAX_NGRAM
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * bp * math.exp(log_prec)


def corpus_ter(hyps: Sequence[Tokens], refs: Sequence[Sequence[Tokens]]) -> float:
    """Total edits over total reference length, reported x100. Each
    sentence counts the first of its references with the fewest edits."""
    total_edits = 0
    total_ref = 0
    for hyp, ref_set in _corpus(hyps, refs):
        edits, ref_len = min(
            ((_ter_edits(hyp, ref), len(ref)) for ref in ref_set), key=lambda e: e[0]
        )
        total_edits += edits
        total_ref += ref_len
    if total_ref == 0:
        raise MetricError("empty references")
    return 100.0 * total_edits / total_ref


def corpus_nist(
    hyps: Sequence[Tokens],
    refs: Sequence[Sequence[Tokens]],
    info: InfoTable,
) -> float:
    """Corpus-aggregated information-weighted n-gram matches against the
    first reference, with the NIST brevity factor on total lengths."""
    gained = [0.0] * MAX_NGRAM
    totals = [0] * MAX_NGRAM
    hyp_len = 0
    ref_len = 0
    for hyp, (ref, *_) in _corpus(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_NGRAM + 1):
            clipped = _clipped(hyp, (ref,), n)
            gained[n - 1] += sum(c * info.get(g, 0.0) for g, c in clipped.items())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0 or ref_len == 0:
        return 0.0
    score = sum(g / max(1, t) for g, t in zip(gained, totals))
    return score * _nist_brevity(hyp_len, ref_len)
