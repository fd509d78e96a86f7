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
every trajectory and candidate. MLE groups the whole batch by shape and
steps each shape's sentences as one row batch on one recording tape,
(B, ...) for every B >= 1, with each row's loss and gradient bit-identical
to walking it alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import metrics
from .diffcore import DiffError, ParamStore, RiskseqError, Tape, log_softmax
from .model import BOS, EOS, BoundModel, PrefixMemo, _checked_target, _validate_target

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

    The pairs of one (source length, target length), across the whole
    batch, run as one row batch on one tape, one shape at a time. No row is
    padded, so each row's loss and gradient keep the bits of walking its
    sentence alone. Once every shape is done, the rows are added in index
    order to sums that start from zero. Until then each pair's gradient is
    held, so memory grows with batch size times parameter count: at batch
    80 the traced peak is 19.4 MB for the recipe model and 73.0 MB for the
    default ``ModelConfig`` (E=32, H=64, A=32, V=20)."""
    if not batch:
        raise MrtError("empty batch")
    vocab = params["out_b"].shape[0]
    for _, tgt in batch:
        _validate_target(_checked_target(tgt), vocab)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (src, tgt) in enumerate(batch):
        groups.setdefault((len(src), len(tgt)), []).append(i)
    done: dict[int, tuple[float, list[np.ndarray]]] = {}
    for rows in groups.values():
        nll, adjoints = _rows_nll_and_adjoints(params, [batch[i] for i in rows])
        done.update((i, (nll[b], [g[b] for g in adjoints])) for b, i in enumerate(rows))
    loss, grad = 0.0, np.zeros(params.size)
    sums = list(params.views(grad).values())
    for i in range(len(batch)):
        nll, row = done.pop(i)
        loss += float(nll)
        for acc, g in zip(sums, row):
            acc += g
    return loss, grad


def _rows_nll_and_adjoints(
    params: ParamStore, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Negative log-likelihoods (B,) of B checked pairs of one shape, walked
    as one row batch on one tape, and each parameter's adjoints (B, ...), in
    the parameters' linear order."""
    tape = Tape()
    bound = BoundModel(params, tape)
    ann = bound.encode(np.array([src for src, _ in pairs]).T)
    tgt = np.array([(BOS, *tgt) for _, tgt in pairs]).T
    z, picks = bound.initial_state(ann), []
    for prev, tok in zip(tgt[:-1], tgt[1:]):
        logits, z = bound.step_logits(prev, z, ann)
        picks.append(tape.pick(tape.log_softmax(logits), tok))
    seed = tape.scale(tape.sum(tape.stack_rows(picks), axis=0), -1.0)
    adjoints = tape.gradient(seed, None, bound.pn)
    return seed.value, [adjoints[name] for name in params.names()]
