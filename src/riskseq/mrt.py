"""Sampled-space minimum risk training and maximum likelihood training.

The candidate space for a sentence is built by ancestral sampling from the
model's per-step distributions (k attempts, duplicates removed, gold
inserted first). Risk is the expectation of a sentence-level loss under
the alpha-sharpened Q-distribution over that space; its gradient uses
baseline subtraction and holds the candidate set fixed.

Sampling and rescoring step the decoder through one per-source memo keyed
by target prefix, so a state shared by several trajectories or candidates
is computed once; sampled spaces are bit-identical to stepping the model
afresh for every trajectory and candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diffcore import ParamStore, Tape
from .model import (
    BOS,
    EOS,
    PAD,
    BoundModel,
    ModelError,
    StepState,
    _strip_trailing_pad,
    _validate_target,
)

__all__ = [
    "MrtError",
    "SampledSpace",
    "QDistribution",
    "RiskReport",
    "sample_trajectories",
    "sample_space",
    "q_distribution",
    "expected_risk",
    "mrt_grad",
    "mrt_grad_via_q",
    "mle_loss_and_grad",
    "DEFAULT_ALPHA",
    "DEFAULT_K",
]

# Sharpness of the Q-distribution and sample-attempt count defaults.
DEFAULT_ALPHA = 5e-3
DEFAULT_K = 100


class MrtError(Exception):
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
class QDistribution:
    weights: np.ndarray
    alpha: float
    logprobs: np.ndarray


@dataclass
class RiskReport:
    losses: np.ndarray
    expected_risk: float
    baseline: float
    advantages: np.ndarray = field(repr=False)


def _pair(item) -> tuple[Sequence[int], Sequence[int]]:
    if hasattr(item, "src") and hasattr(item, "tgt"):
        return item.src, item.tgt
    src, tgt = item
    return src, tgt


class _PrefixMemo:
    """Non-recording decoder steps for one source, memoised by target prefix.

    ``next_logdist(prefix)`` is the log-distribution of the token after
    ``prefix``. Each distinct prefix costs one ``step_logits`` call however
    many trajectories or candidates share it, and the source is encoded once,
    on the first step. The values are those of stepping the model afresh:
    the same primitives run on the same inputs.
    """

    def __init__(self, params: ParamStore, src: Sequence[int]):
        self.params = params
        self.src = list(src)
        self.bound = BoundModel(params, Tape(record=False))
        self.ann = None
        # prefix -> (log-distribution of the next token, state after prefix)
        self._steps: dict[tuple[int, ...], tuple[np.ndarray, StepState]] = {}

    def next_logdist(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Prefixes must be visited shortest first: the step after
        ``prefix`` starts from the memoised state after ``prefix[:-1]``."""
        entry = self._steps.get(prefix)
        if entry is None:
            bound = self.bound
            if prefix:
                state, prev = self._steps[prefix[:-1]][1], prefix[-1]
            else:
                self.ann = bound.encode(self.src)
                state, prev = bound.initial_state(self.ann), BOS
            logits, new_state = bound.step_logits(prev, state, self.ann)
            entry = (bound.tape.log_softmax(logits).value, new_state)
            self._steps[prefix] = entry
        return entry[0]

    def logprob(self, tgt: tuple[int, ...]) -> float:
        """log P(tgt | src), reduced as ``sequence_logprob_nodes`` reduces it
        (per-token picks stacked into one vector, then summed)."""
        _validate_target(tgt, self.bound.tgt_vocab_size)
        picks = [self.next_logdist(tgt[:n])[tok] for n, tok in enumerate(tgt)]
        return float(np.array(picks).sum())


def _memo_for(
    params: ParamStore, src: Sequence[int], memo: _PrefixMemo | None
) -> _PrefixMemo:
    if memo is None:
        return _PrefixMemo(params, src)
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
    memo: _PrefixMemo | None = None,
) -> list[tuple[int, ...]]:
    """k raw sampling trajectories (pre-dedup). Each trajectory samples the
    next target word from the full model distribution and stops at EOS or
    at the length limit."""
    if k < 1 or max_len < 1:
        raise MrtError("k and the length limit must be >= 1")
    memo = _memo_for(params, src, memo)
    out: list[tuple[int, ...]] = []
    for _ in range(k):
        prefix: tuple[int, ...] = ()
        for _ in range(max_len):
            cdf = np.cumsum(np.exp(memo.next_logdist(prefix)))
            tok = int(np.searchsorted(cdf, rng.random(), side="right"))
            tok = min(tok, len(cdf) - 1)
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
    memo: _PrefixMemo | None = None,
) -> np.ndarray:
    """Model log-probabilities of candidates, decoder steps shared across
    candidates with a common prefix."""
    memo = _memo_for(params, src, memo)
    out = np.empty(len(candidates))
    for i, cand in enumerate(candidates):
        out[i] = memo.logprob(tuple(cand))
    return out


def build_space(
    params: ParamStore,
    src: Sequence[int],
    gold: Sequence[int],
    trajectories: Sequence[tuple[int, ...]],
    k_requested: int,
    max_len: int,
    *,
    memo: _PrefixMemo | None = None,
) -> SampledSpace:
    """Deduplicate trajectories and assemble the candidate space with the
    gold translation first."""
    gold = tuple(gold)
    if not gold or gold[-1] != EOS:
        raise MrtError("gold translation must end with EOS")
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
) -> SampledSpace:
    """Sample and score one sentence's space. Sampling and rescoring share
    one prefix memo, so scoring a candidate reuses the sampler's steps."""
    memo = _PrefixMemo(params, src)
    trajectories = sample_trajectories(params, src, k, max_len, rng, memo=memo)
    return build_space(params, src, gold, trajectories, k, max_len, memo=memo)


def q_distribution(space: SampledSpace, alpha: float) -> QDistribution:
    """Probabilities proportional to P(y|x)^alpha, normalized in log space."""
    if alpha <= 0:
        raise MrtError(f"alpha must be positive, got {alpha}")
    logprobs = np.asarray(space.logprobs, dtype=np.float64)
    if not np.all(np.isfinite(logprobs)):
        raise MrtError("non-finite candidate log-probabilities")
    scaled = alpha * logprobs
    scaled = scaled - scaled.max()
    weights = np.exp(scaled - np.log(np.exp(scaled).sum()))
    return QDistribution(weights=weights, alpha=alpha, logprobs=logprobs)


def expected_risk(
    space: SampledSpace, q: QDistribution, losses: Sequence[float]
) -> RiskReport:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != (len(space.candidates),):
        raise MrtError(
            f"{losses.shape[0]} losses for {len(space.candidates)} candidates"
        )
    # pairwise sum, not a BLAS dot: thread-count independent at any k
    risk = float(np.sum(q.weights * losses))
    advantages = losses - risk
    return RiskReport(
        losses=losses, expected_risk=risk, baseline=risk, advantages=advantages
    )


def mrt_grad(
    params: ParamStore,
    src: Sequence[int],
    space: SampledSpace,
    q: QDistribution,
    report: RiskReport,
    alpha: float,
) -> np.ndarray:
    """Gradient of the sampled expected risk with the candidate set held
    fixed: alpha * sum_i w_i (loss_i - baseline) * grad log P(y_i | x)."""
    coeffs = alpha * q.weights * report.advantages
    if not np.any(coeffs):
        return np.zeros(params.size)
    tape = Tape()
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    terms = []
    for i, cand in enumerate(space.candidates):
        if coeffs[i] == 0.0:
            continue
        total, _ = bound.sequence_logprob_nodes(ann, cand)
        terms.append(tape.scale(total, coeffs[i]))
    seed = tape.sum(tape.stack_scalars(terms))
    return tape.gradient(seed, params, bound.pn)


def mrt_grad_via_q(
    params: ParamStore,
    src: Sequence[int],
    space: SampledSpace,
    losses: Sequence[float],
    alpha: float,
) -> np.ndarray:
    """Same gradient computed symbolically through the log-space Q
    normalization (softmax over alpha-scaled candidate log-probs). Used to
    cross-check the baseline-subtraction form."""
    losses = np.asarray(losses, dtype=np.float64)
    tape = Tape()
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    totals = [
        bound.sequence_logprob_nodes(ann, cand)[0] for cand in space.candidates
    ]
    scaled = tape.scale(tape.stack_scalars(totals), alpha)
    weights = tape.softmax(scaled)
    risk = tape.matmul(weights, tape.const(losses))
    return tape.gradient(risk, params, bound.pn)


def mle_loss_and_grad(
    params: ParamStore, batch: Sequence
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the batch and its gradient, summed over
    sentences in index order."""
    if not batch:
        raise MrtError("empty batch")
    loss = 0.0
    grad = np.zeros(params.size)
    for item in batch:
        src, tgt = _pair(item)
        tape = Tape()
        bound = BoundModel(params, tape)
        ann = bound.encode(src)
        stripped = _strip_trailing_pad(tgt)
        if not stripped or stripped[-1] != EOS:
            raise ModelError("target must end with EOS")
        if PAD in stripped:
            raise ModelError("PAD inside target sentence")
        total, _ = bound.sequence_logprob_nodes(ann, stripped)
        nll = tape.scale(total, -1.0)
        loss += float(nll.value)
        grad += tape.gradient(nll, params, bound.pn)
    return loss, grad
