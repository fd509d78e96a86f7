"""Beam-search inference; greedy decoding is beam search of width 1.

Beam search keeps the top-width expansions by accumulated log-prob;
finished hypotheses retire into a completed pool and the final answer is
the completed hypothesis with the best length-normalized score (ties go
to the lexicographically smallest token sequence). PAD and BOS are never
proposed as output tokens. The search encodes the source once and keeps
one decoder-state row per live hypothesis: each iteration steps them all
as one row batch (one ``BoundModel.step_logits`` call), selects from the
flattened (live, token) scores, and keeps the kept hypotheses' new rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .diffcore import Node, ParamStore, Tape, log_softmax
from .model import BOS, EOS, PAD, BoundModel

__all__ = ["greedy_decode", "beam_decode", "decode_corpus", "DEFAULT_BEAM"]

DEFAULT_BEAM = 10


def greedy_decode(
    params: ParamStore, src: Sequence[int], max_len: int
) -> tuple[int, ...]:
    """Argmax token per step until EOS or the length limit."""
    return beam_decode(params, src, 1, max_len)


def beam_decode(
    params: ParamStore,
    src: Sequence[int],
    width: int,
    max_len: int,
    length_normalize: bool = True,
) -> tuple[int, ...]:
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    if max_len < 1:
        raise ValueError(f"length limit must be >= 1, got {max_len}")
    bound = BoundModel(params, Tape(record=False))
    ann = bound.encode(src)
    # every token but PAD and BOS is proposed, even one of log-prob -inf
    proposed = [tok for tok in range(bound.tgt_vocab_size) if tok not in (PAD, BOS)]
    columns, n = np.array(proposed), len(proposed)

    # a hypothesis is (tokens, logprob); row i of z is live[i]'s decoder state
    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    completed: list[tuple[tuple[int, ...], float]] = []
    z = Node(bound.initial_state(ann).value[None])

    def norm_score(tokens, lp):
        return lp / len(tokens) if length_normalize else lp

    for _ in range(max_len):
        if not live:
            break
        prev = np.array([tokens[-1] if tokens else BOS for tokens, _ in live])
        logits, z = bound.step_logits(prev, z, ann)
        logdists = log_softmax(logits.value)
        lps = np.array([lp for _, lp in live])
        scores = (lps[:, None] + logdists[:, columns]).ravel()
        # Only entries that tie or beat the width-th best can be kept.
        kept = np.arange(scores.size)
        if scores.size > width:
            kth = scores.size - width
            kept = np.flatnonzero(scores >= np.partition(scores, kth)[kth])
        expansions = sorted(
            (
                (live[i // n][0] + (proposed[i % n],), lp, i // n)
                for i, lp in zip(kept.tolist(), scores[kept].tolist())
            ),
            key=lambda h: (-h[1], h[0]),
        )
        live, rows = [], []
        for tokens, lp, row in expansions[:width]:
            if tokens[-1] == EOS:
                completed.append((tokens, lp))
            else:
                live.append((tokens, lp))
                rows.append(row)
        z = Node(z.value[rows])
        if completed and live:
            best_done = max(norm_score(t, lp) for t, lp in completed)
            # Future steps only lower the raw score; bound the best
            # normalized score a live hypothesis could still reach.
            def bound_score(tokens, lp):
                if not length_normalize:
                    return lp
                return lp / max_len if lp < 0 else lp / (len(tokens) + 1)

            if all(bound_score(t, lp) < best_done for t, lp in live):
                break

    pool = completed or live
    best = min(pool, key=lambda h: (-norm_score(h[0], h[1]), h[0]))
    return best[0]


def decode_corpus(
    params: ParamStore,
    sources: Sequence[Sequence[int]],
    width: int,
    max_len: int,
) -> list[tuple[int, ...]]:
    return [beam_decode(params, src, width, max_len) for src in sources]
