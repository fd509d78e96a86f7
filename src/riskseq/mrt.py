"""Sampled-space minimum risk training and maximum likelihood training.

The candidate space for a sentence is built by ancestral sampling from the
model's per-step distributions (k attempts, duplicates removed, gold
inserted first). Risk is the expectation of a sentence-level loss under
the alpha-sharpened Q-distribution over that space; its gradient uses
baseline subtraction and holds the candidate set fixed. ``sentence_risk``
is one sentence's sample -> loss (``candidate_losses``) -> Q -> risk.
``mrt_loss_and_grad`` and ``mle_loss_and_grad`` are the two batch
objectives: a summed loss and gradient.

Sampling, rescoring and the risk gradient step the decoder through one
per-source ``model.PrefixMemo``, so a state shared by several trajectories
or candidates is computed once. Rescoring reads each candidate's log P(y|x)
from the memo's steps, and on a recording memo ``mrt_grad`` adds one node
for the whole candidate set, whose VJP sweeps every candidate's walk back
through the memo's saved forward arrays, depth by depth as row batches.
Spaces and gradients are bit-identical to stepping the model afresh for
every trajectory and candidate. MLE steps the whole batch as one ragged
row batch on one recording tape, sentences of every length together with
no padding, with each row's loss and gradient bit-identical to walking it
alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import metrics
from .diffcore import DiffError, Node, ParamStore, RiskseqError, Tape, log_softmax
from .model import BOS, EOS, BoundModel, PrefixMemo, _checked_target, _encoder_param
from .model import _join_rows, _validate_target

__all__ = [
    "MrtError",
    "SampledSpace",
    "RiskReport",
    "sample_trajectories",
    "candidate_logprobs",
    "build_space",
    "sample_space",
    "q_distribution",
    "expected_risk",
    "mrt_grad",
    "candidate_losses",
    "sentence_risk",
    "mrt_loss_and_grad",
    "mle_loss_and_grad",
    "DEFAULT_ALPHA",
    "DEFAULT_K",
]

# Sharpness of the Q-distribution and sample-attempt count defaults.
DEFAULT_ALPHA = 5e-3
DEFAULT_K = 100


class MrtError(RiskseqError):
    pass


@dataclass
class SampledSpace:
    """Deduplicated candidate subset for one sentence, gold included once."""

    candidates: list[tuple[int, ...]]
    gold_index: int
    k_requested: int
    max_len: int
    logprobs: np.ndarray  # model log P(y | x) per candidate

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass
class RiskReport:
    expected_risk: float
    advantages: np.ndarray = field(repr=False)


def _memo_for(
    params: ParamStore, src: Sequence[int], memo: PrefixMemo | None
) -> PrefixMemo:
    if memo is None:
        return PrefixMemo(params, src)
    if memo.params is not params or memo.src != list(src):
        raise MrtError("prefix memo was built for another model or source")
    return memo


def sample_trajectories(
    params: ParamStore,
    src: Sequence[int],
    k: int,
    max_len: int,
    rng: np.random.Generator,
    *,
    memo: PrefixMemo | None = None,
) -> list[tuple[int, ...]]:
    """k raw sampling trajectories (pre-dedup). Each trajectory samples the
    next target word from the full model distribution and stops at EOS or
    at the length limit."""
    if k < 1 or max_len < 1:
        raise MrtError("k and the length limit must be >= 1")
    memo = _memo_for(params, src, memo)
    cdfs: dict[tuple[int, ...], list[float]] = {}  # prefix -> next token's CDF
    out: list[tuple[int, ...]] = []
    for _ in range(k):
        prefix: tuple[int, ...] = ()
        for _ in range(max_len):
            cdf = cdfs.get(prefix)
            if cdf is None:
                cdf = cdfs[prefix] = np.cumsum(np.exp(memo.next_logdist(prefix))).tolist()
            tok = min(bisect_right(cdf, rng.random()), len(cdf) - 1)
            prefix += (tok,)
            if tok == EOS:
                break
        out.append(prefix)
    return out


def candidate_logprobs(
    params: ParamStore,
    src: Sequence[int],
    candidates: Sequence[Sequence[int]],
    *,
    memo: PrefixMemo | None = None,
) -> np.ndarray:
    """Model log-probabilities of candidates, decoder steps shared across
    candidates with a common prefix (the memo's ``logprob``)."""
    memo = _memo_for(params, src, memo)
    return np.array([memo.logprob(cand) for cand in candidates])


def build_space(
    params: ParamStore,
    src: Sequence[int],
    gold: Sequence[int],
    trajectories: Sequence[tuple[int, ...]],
    k_requested: int,
    max_len: int,
    *,
    memo: PrefixMemo | None = None,
) -> SampledSpace:
    """Deduplicate trajectories and assemble the candidate space with the
    gold translation first; the gold is checked as MLE checks a target."""
    gold = tuple(_checked_target(gold))
    candidates: list[tuple[int, ...]] = [gold]
    seen = {gold}
    for traj in trajectories:
        if traj not in seen:
            seen.add(traj)
            candidates.append(traj)
    logprobs = candidate_logprobs(params, src, candidates, memo=memo)
    return SampledSpace(
        candidates=candidates,
        gold_index=0,
        k_requested=k_requested,
        max_len=max_len,
        logprobs=logprobs,
    )


def sample_space(
    params: ParamStore,
    src: Sequence[int],
    gold: Sequence[int],
    k: int,
    max_len: int,
    rng: np.random.Generator,
    *,
    memo: PrefixMemo | None = None,
) -> SampledSpace:
    """Sample and score one sentence's space. Sampling and rescoring share
    one prefix memo, so scoring a candidate reuses the sampler's steps."""
    memo = _memo_for(params, src, memo)
    trajectories = sample_trajectories(params, src, k, max_len, rng, memo=memo)
    return build_space(params, src, gold, trajectories, k, max_len, memo=memo)


def q_distribution(space: SampledSpace, alpha: float) -> np.ndarray:
    """Q's weight per candidate: probabilities proportional to
    P(y|x)^alpha, normalized in log space."""
    if not 0 < alpha < np.inf:
        raise MrtError(f"alpha must be positive and finite, got {alpha}")
    logprobs = np.asarray(space.logprobs, dtype=np.float64)
    if not np.all(np.isfinite(logprobs)):
        raise MrtError("non-finite candidate log-probabilities")
    return np.exp(log_softmax(alpha * logprobs))


def expected_risk(
    space: SampledSpace, q: np.ndarray, losses: Sequence[float]
) -> RiskReport:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != (len(space.candidates),):
        raise MrtError(
            f"losses of shape {losses.shape} for {len(space.candidates)} candidates"
        )
    # pairwise sum, not a BLAS dot: thread-count independent at any k
    risk = float(np.sum(q * losses))
    advantages = losses - risk
    return RiskReport(expected_risk=risk, advantages=advantages)


def mrt_grad(
    params: ParamStore,
    src: Sequence[int],
    space: SampledSpace,
    q: np.ndarray,
    report: RiskReport,
    alpha: float,
    *,
    memo: PrefixMemo | None = None,
) -> np.ndarray:
    """Gradient of the sampled expected risk with the candidate set held
    fixed: alpha * sum_i w_i (loss_i - R) * grad log P(y_i | x), where the
    baseline R is the expected risk. A given ``memo`` must record; the
    gradient seeds one ``weighted_logprob`` node it adds for the candidates
    with a nonzero coefficient, stepping any prefix the memo has not."""
    coeffs = alpha * q * report.advantages
    if not np.any(coeffs):
        return np.zeros(params.size)
    memo = PrefixMemo(params, src, Tape()) if memo is None else _memo_for(params, src, memo)
    tape = memo.bound.tape
    if not tape.record:
        raise DiffError("mrt_grad needs a memo on a recording tape")
    seed = memo.weighted_logprob(space.candidates, coeffs)
    return tape.gradient(seed, params, memo.bound.pn)


def candidate_losses(candidates, gold, kind: metrics.LossKind, info=None) -> np.ndarray:
    """Each candidate's loss against ``gold`` (``info``: NIST's table)."""
    return np.array([metrics.delta(kind, cand, gold, info) for cand in candidates])


def sentence_risk(
    params: ParamStore, src: Sequence[int], gold: Sequence[int], kind: metrics.LossKind,
    alpha: float, k: int, max_len: int, rng: np.random.Generator, info=None,
    *, memo: PrefixMemo | None = None,
) -> tuple[SampledSpace, np.ndarray, np.ndarray, RiskReport]:
    """One sentence's sampled space, each candidate's loss against ``gold``
    (``info`` is the NIST loss's table), Q's weights and the expected risk:
    ``(space, losses, q, report)``. A given ``memo`` serves sampling and
    rescoring, and a recording one then ``mrt_grad``."""
    space = sample_space(params, src, gold, k, max_len, rng, memo=memo)
    losses = candidate_losses(space.candidates, gold, kind, info)
    q = q_distribution(space, alpha)
    return space, losses, q, expected_risk(space, q, losses)


def mrt_loss_and_grad(
    params: ParamStore, batch: Sequence[tuple[Sequence[int], Sequence[int]]],
    kind: metrics.LossKind, alpha: float, k: int, max_len: int,
    rngs: Sequence[np.random.Generator], info=None,
) -> tuple[float, np.ndarray]:
    """Sampled expected risk of a batch of (source, EOS-terminated gold)
    pairs and its gradient, summed over sentences in index order; sentence
    i samples with ``rngs[i]`` on its own recording memo. Each sentence's
    risk and gradient are added before the next one starts."""
    if not batch:
        raise MrtError("empty batch")
    if len(rngs) != len(batch):
        raise MrtError(f"{len(rngs)} generators for {len(batch)} sentences")
    risk, grad = 0.0, np.zeros(params.size)
    for (src, gold), rng in zip(batch, rngs):
        memo = PrefixMemo(params, src, Tape())
        space, _, q, report = sentence_risk(
            params, src, gold, kind, alpha, k, max_len, rng, info, memo=memo
        )
        risk += report.expected_risk
        grad += mrt_grad(params, src, space, q, report, alpha, memo=memo)
    return risk, grad


def mle_loss_and_grad(
    params: ParamStore, batch: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of a batch of (source, EOS-terminated target)
    pairs, such as ``data.SentencePair``, and its gradient, summed over
    sentences in index order.

    The whole batch runs as one ragged row batch on one tape, with no
    padding: one encode, then one decoder step per target position, whose
    rows are the sentences whose walks have begun. Rows are ordered by
    descending target length and every walk ends at the last step: a
    target of n tokens joins at step T - n, from its initial state (see
    ``_join_rows``). So each step's rows are leading rows, and the sweep,
    which runs from the last step, meets every node's largest adjoint
    contribution first. Each row's loss and gradient keep the bits of
    walking its sentence alone, but for the sign of a zero gradient entry.
    Each parameter's rows are then added in index order with one reduce
    that starts from +0.0, as sums of the sentences into zeros would, which
    erases that sign. The tape holds every row's gradient until then, so
    memory grows with batch size times parameter count: at batch 80 (the
    first 80 recipe training pairs) the traced peak is 23.0 MB for the
    recipe model and 78.3 MB for the default ``ModelConfig`` (E=32, H=64,
    A=32, V=20)."""
    if not batch:
        raise MrtError("empty batch")
    vocab = params["out_b"].shape[0]
    for _, tgt in batch:
        _validate_target(_checked_target(tgt), vocab)
    rows = sorted(range(len(batch)), key=lambda i: -len(batch[i][1]))
    lens = [len(batch[i][1]) for i in rows]
    T = lens[0]
    # row b's walk (BOS, *target) fills its last lens[b] + 1 positions
    tokens = np.zeros((T + 1, len(rows)), dtype=np.int64)
    for b, i in enumerate(rows):
        tokens[T - lens[b] :, b] = (BOS, *batch[i][1])
    tape = Tape()
    bound = BoundModel(params, tape)
    ann = bound.encode([batch[i][0] for i in rows])
    z = first = bound.initial_state(ann)
    picks = []
    for k in range(T):
        n = sum(length >= T - k for length in lens)
        if k and n > len(z.value):
            z = _join_rows(tape, z, first, n)
        logits, z = bound.step_logits(tokens[k, :n], z, ann)
        picks.append(tape.pick(tape.log_softmax(logits), tokens[k + 1, :n]))
    seed = tape.scale(_row_totals(tape, picks, lens), -1.0)
    adjoints = tape.gradient(seed, None, bound.pn)
    back = np.argsort(rows)  # the row of each sentence
    enc_back = np.argsort(np.asarray(rows)[ann.order])
    loss, grad = 0.0, np.empty(params.size)
    for nll in seed.value[back]:
        loss += float(nll)
    for name, part in params.views(grad).items():
        part[...] = _sum_rows(adjoints.pop(name)[enc_back if _encoder_param(name) else back])
    return loss, grad


def _row_totals(tape: Tape, picks: Sequence[Node], lens: Sequence[int]) -> Node:
    """Each row's picks summed, as one node: ``picks[k]`` holds the leading
    rows whose walks have begun by step k, and row b's last lens[b] picks
    add as one vector sum, the rows of one length as one contiguous block,
    so each row has the bits of ``Tape.sum`` of its own stack."""
    T = len(picks)
    table = np.zeros((len(lens), T))
    for k, pick in enumerate(picks):
        table[: len(pick.value), k] = pick.value
    value, hi = np.empty(len(lens)), len(lens)
    for length in sorted(set(lens)):
        lo = lens.index(length)
        value[lo:hi] = np.ascontiguousarray(table[lo:hi, T - length :]).sum(axis=-1)
        hi = lo
    return tape.emit(value, tuple(picks), lambda g: tuple(g[: len(p.value)] for p in picks))


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ... added in order from +0.0. ``np.add.reduce``
    adds rows of several elements so; rows of one element it would add
    pairwise, so those go through ``accumulate``, which starts from rows[0]
    and needs the +0.0 added after."""
    if rows[0].size > 1:
        return np.add.reduce(rows, axis=0)
    return 0.0 + np.add.accumulate(rows, axis=0)[-1]
