"""Beam-search inference; greedy decoding is beam search of width 1.

Beam search keeps the top-width expansions by accumulated log-prob;
finished hypotheses retire into a completed pool and the final answer is
the completed hypothesis with the best length-normalized score (ties go
to the lexicographically smallest token sequence). PAD and BOS are never
proposed as output tokens.

``decode_corpus`` is the one search. It takes the sources of one length in
groups of up to ``GROUP`` and encodes each group once as a row batch,
(B, ...) for every B >= 1. It keeps one decoder-state row per live
hypothesis of every sentence in the group, with an owner index giving each
row's sentence, so each iteration steps them all with one
``BoundModel.step_logits`` call, each row attending over its own
sentence's annotations. Selection from a sentence's flattened
(live, token) scores, the early stop and the final pick run per sentence;
a sentence's rows leave the batch once it stops. Every row keeps the bits
of stepping its hypothesis alone (see ``model``), so a sentence decodes to
the same output whatever group it is in.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .diffcore import Node, ParamStore, Tape, log_softmax
from .model import BOS, EOS, PAD, BoundModel, ModelError, _check_source

__all__ = ["greedy_decode", "beam_decode", "decode_corpus", "DEFAULT_BEAM"]

DEFAULT_BEAM = 10

# Sources per row batch. A group holds width * GROUP state rows, each with
# its own copy of its sentence's annotations; larger groups saved little
# more time (0.171 s against 0.151 s for 600 sentences at width 10).
GROUP = 16

Hyp = tuple[tuple[int, ...], float]  # (tokens, accumulated log-prob)


def greedy_decode(
    params: ParamStore, src: Sequence[int], max_len: int
) -> tuple[int, ...]:
    """Argmax token per step until EOS or the length limit."""
    return decode_corpus(params, [src], 1, max_len)[0]


def beam_decode(
    params: ParamStore,
    src: Sequence[int],
    width: int,
    max_len: int,
    length_normalize: bool = True,
) -> tuple[int, ...]:
    return decode_corpus(params, [src], width, max_len, length_normalize)[0]


def decode_corpus(
    params: ParamStore,
    sources: Sequence[Sequence[int]],
    width: int,
    max_len: int,
    length_normalize: bool = True,
) -> list[tuple[int, ...]]:
    """The beam-search output of each source, in input order. Arguments,
    then the sources in input order, are checked before any is decoded."""
    if width < 1:
        raise ModelError(f"beam width must be >= 1, got {width}")
    if max_len < 1:
        raise ModelError(f"length limit must be >= 1, got {max_len}")
    bound = BoundModel(params, Tape(record=False))
    by_length: dict[int, list[int]] = {}
    for i, src in enumerate(sources):
        _check_source(src, bound.src_vocab_size)
        by_length.setdefault(len(src), []).append(i)
    out: list[tuple[int, ...]] = [()] * len(sources)
    for idx in by_length.values():
        for start in range(0, len(idx), GROUP):
            group = idx[start : start + GROUP]
            found = _search(
                bound, [sources[i] for i in group], width, max_len, length_normalize
            )
            for i, tokens in zip(group, found):
                out[i] = tokens
    return out


def _search(
    bound: BoundModel,
    group: Sequence[Sequence[int]],
    width: int,
    max_len: int,
    length_normalize: bool,
) -> list[tuple[int, ...]]:
    """Beam search for a group of checked sources of one length."""
    ann = bound.encode(np.array(group).T)
    # every token but PAD and BOS is proposed, even one of log-prob -inf
    proposed = [tok for tok in range(bound.tgt_vocab_size) if tok not in (PAD, BOS)]
    columns, n = np.array(proposed), len(proposed)

    def norm_score(tokens, lp):
        return lp / len(tokens) if length_normalize else lp

    # Future steps only lower the raw score; bound the best normalized
    # score a live hypothesis could still reach.
    def bound_score(tokens, lp):
        if not length_normalize:
            return lp
        return lp / max_len if lp < 0 else lp / (len(tokens) + 1)

    # Sentence s's live hypotheses own consecutive rows of z, in the order
    # of ``active``; owner[r] is the sentence of row r.
    lives: list[list[Hyp]] = [[((), 0.0)] for _ in group]
    completed: list[list[Hyp]] = [[] for _ in group]
    active = list(range(len(group)))
    owner = np.arange(len(group))
    z = bound.initial_state(ann)

    for _ in range(max_len):
        if not active:
            break
        hyps = [h for s in active for h in lives[s]]
        prev = np.array([tokens[-1] if tokens else BOS for tokens, _ in hyps])
        logits, z = bound.step_logits(prev, z, ann.rows(owner))
        lps = np.array([lp for _, lp in hyps])
        all_scores = lps[:, None] + log_softmax(logits.value)[:, columns]
        rows, first, still = [], 0, []
        for s in active:
            live, done = lives[s], completed[s]
            scores = all_scores[first : first + len(live)].ravel()
            # Only entries that tie or beat the width-th best can be kept.
            kept = np.arange(scores.size)
            if scores.size > width:
                kth = scores.size - width
                kept = np.flatnonzero(scores >= np.partition(scores, kth)[kth])
            expansions = sorted(
                (
                    (live[i // n][0] + (proposed[i % n],), lp, first + i // n)
                    for i, lp in zip(kept.tolist(), scores[kept].tolist())
                ),
                key=lambda h: (-h[1], h[0]),
            )
            first += len(live)
            lives[s] = live = []
            kept_rows = []
            for tokens, lp, row in expansions[:width]:
                if tokens[-1] == EOS:
                    done.append((tokens, lp))
                else:
                    live.append((tokens, lp))
                    kept_rows.append(row)
            if not live:
                continue
            if done:
                best_done = max(norm_score(t, lp) for t, lp in done)
                if all(bound_score(t, lp) < best_done for t, lp in live):
                    continue
            rows += kept_rows
            still.append(s)
        active = still
        z, owner = Node(z.value[rows]), owner[rows]

    return [
        min(done or live, key=lambda h: (-norm_score(h[0], h[1]), h[0]))[0]
        for done, live in zip(completed, lives)
    ]
