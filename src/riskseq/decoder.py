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
sentence's annotations. Selection then runs for the whole group at once:
the scores go into a table with one row per sentence, padded with -inf;
one ``np.partition`` finds each sentence's width-th best score, one
``np.lexsort`` orders the entries that tie or beat it by (sentence,
-log-prob, tokens), and one comparison retires EOS picks and stops the
sentences that are done. A sentence's rows leave the batch once it stops;
only the final pick runs per sentence. Every row keeps the bits of
stepping its hypothesis alone (see ``model``), so a sentence decodes to
the same output whatever group it is in.

Group size against decode time, for 600 lexicon sentences of length 2-5
at width 10 (``decode-beam10``'s input at seed 81; 2-CPU Xeon, one BLAS
thread, pinned to one CPU, min of 9), with the peak RSS of a ``riskseq
decode`` child measured from a small launcher:

    sources per group                  search time   peak RSS
    8                                  0.239 s       32.1 MB
    16                                 0.192 s       32.8 MB
    32                                 0.163 s       34.0 MB
    64                                 0.152 s       36.8 MB
    all of one length (about 150)      0.156 s       48.4 MB
    16, a Python sort per sentence     0.243 s       32.7 MB
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .diffcore import Node, ParamStore, Tape, log_softmax
from .model import BOS, EOS, PAD, BoundModel, ModelError, _check_source

__all__ = ["greedy_decode", "beam_decode", "decode_corpus", "DEFAULT_BEAM"]

DEFAULT_BEAM = 10

# Sources per row batch. A group holds up to width * GROUP state rows, each
# with its own copy of its sentence's annotations. From the table above, 64
# saves 7% more time than 32 for 2.8 MB more peak RSS, and training, whose
# validation decodes run in process, grows with it too.
GROUP = 32

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
    columns = np.array([c for c in range(bound.tgt_vocab_size) if c not in (PAD, BOS)])
    n = len(columns)

    def norm_score(tokens, lp):
        return lp / len(tokens) if length_normalize else lp

    # The live hypotheses of the active sentences, one row each: tokens
    # (R, t), log-probs (R,) and sent (R,), an index into ``active``. A
    # sentence's rows are consecutive and in the order of their tokens.
    active = np.arange(len(group))
    sent = np.arange(len(group))
    tokens = np.zeros((len(group), 0), dtype=np.int64)
    lps = np.zeros(len(group))
    completed: list[list[Hyp]] = [[] for _ in group]
    best_done = np.full(len(group), -np.inf)
    z = bound.initial_state(ann)

    for t in range(max_len):
        if not active.size:
            break
        prev = tokens[:, -1] if t else np.full(len(sent), BOS)
        logits, z = bound.step_logits(prev, z, ann.rows(active[sent]))
        scores = lps[:, None] + log_softmax(logits.value)[:, columns]
        # One table row per sentence: its flattened (live, token) scores,
        # padded with -inf, so column j orders its expansions by tokens.
        # Only entries that tie or beat the row's width-th best are kept.
        counts = np.bincount(sent, minlength=active.size)
        first = counts.cumsum() - counts
        most = counts.max()
        table = np.full((active.size * most, n), -np.inf)
        table[sent * most + np.arange(len(sent)) - first[sent]] = scores
        table = table.reshape(active.size, most * n)
        kept = np.arange(most * n) < counts[:, None] * n
        if most * n > width:
            kth = most * n - width
            kept &= table >= np.partition(table, kth, axis=1)[:, kth, None]
        # Entry k is column j[k] of sentence a[k], in (sentence, tokens)
        # order. Each sentence selects its first width by (-lp, tokens);
        # as a is sorted, ``order`` leaves each sentence's block in place,
        # so an entry's place in its sentence is its index less the block's.
        a, j = np.nonzero(kept)
        lp = table[a, j]
        order = np.lexsort((j, -lp, a))
        place = np.arange(a.size) - np.searchsorted(a, a)
        chosen = np.zeros(a.size, dtype=bool)
        chosen[order[place < width]] = True
        a, j, lp = a[chosen], j[chosen], lp[chosen]
        parent, tok = first[a] + j // n, columns[j % n]

        eos, owner = tok == EOS, active[a]
        norm = lp / (t + 1) if length_normalize else lp
        np.maximum.at(best_done, owner[eos], norm[eos])
        # A completed hypothesis can still be the answer only while it ties
        # its sentence's best normalized score; the others are not kept.
        won = np.flatnonzero(eos & (norm >= best_done[owner]))
        finished = tokens[parent[won]].tolist()
        for s, toks, score in zip(owner[won].tolist(), finished, lp[won].tolist()):
            completed[s].append((tuple(toks) + (EOS,), score))
        # Future steps only lower the raw score; a sentence stops once none
        # of its live hypotheses could still beat its best normalized score.
        reach = lp
        if length_normalize:
            reach = np.where(lp < 0, lp / max_len, lp / (t + 2))
        going = np.zeros(active.size, dtype=bool)
        going[a[~eos & ~(reach < best_done[owner])]] = True
        stay = ~eos & going[a]
        tokens = np.column_stack((tokens[parent[stay]], tok[stay]))
        sent = (going.cumsum() - 1)[a[stay]]
        active, lps, z = active[going], lp[stay], Node(z.value[parent[stay]])

    lives: list[list[Hyp]] = [[] for _ in group]
    for s, toks, lp in zip(active[sent].tolist(), tokens.tolist(), lps.tolist()):
        lives[s].append((tuple(toks), lp))
    return [
        min(done or live, key=lambda h: (-norm_score(h[0], h[1]), h[0]))[0]
        for done, live in zip(completed, lives)
    ]
