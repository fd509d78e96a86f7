"""Exact brute-force computations over the full search space.

For tiny target vocabularies every EOS-terminated sequence up to the
length limit is enumerable, giving ground-truth expectations and
gradients against which the sampled estimators are tested. Content tokens
are the non-reserved ids (``FIRST_CONTENT_ID`` and up); a "translation" is
a sequence of content tokens followed by EOS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import metrics
from .diffcore import ParamStore, RiskseqError, Tape, finite_diff_grad, relative_error
from .model import BOS, EOS, RESERVED_TOKENS, BoundModel
from .mrt import SampledSpace, candidate_logprobs, candidate_losses, expected_risk
from .mrt import mrt_grad, q_distribution, sentence_risk

__all__ = [
    "OracleError",
    "EnumerationBudgetError",
    "FullSpace",
    "space_size",
    "enumerate_space",
    "exact_risk_over",
    "exact_grad_check",
    "sampled_risk_spread",
    "ENUMERATION_BUDGET",
]

ENUMERATION_BUDGET = 10**6

FIRST_CONTENT_ID = len(RESERVED_TOKENS)


class OracleError(RiskseqError):
    pass


class EnumerationBudgetError(OracleError):
    def __init__(self, count: int):
        super().__init__(
            f"enumeration would produce {count} sequences "
            f"(budget {ENUMERATION_BUDGET})"
        )


@dataclass
class FullSpace:
    """Every EOS-terminated sequence over the content vocabulary with its
    exact model log-probability."""

    sequences: list[tuple[int, ...]]
    logprobs: np.ndarray
    terminated_mass: float


def space_size(n_content: int, max_len: int) -> int:
    """Number of EOS-terminated sequences of total length <= max_len."""
    return sum(n_content**n for n in range(max_len))


def enumerate_space(
    params: ParamStore, src: Sequence[int], max_len: int
) -> FullSpace:
    if max_len < 1:
        raise OracleError(f"the length limit must be >= 1, got {max_len}")
    tgt_vocab = params["out_b"].shape[0]
    content = range(FIRST_CONTENT_ID, tgt_vocab)
    count = space_size(len(content), max_len)
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(count)

    tape = Tape(record=False)
    bound = BoundModel(params, tape)
    ann = bound.encode(src)

    sequences: list[tuple[int, ...]] = []
    logprobs: list[float] = []

    def visit(state, prev: int, lp: float, prefix: tuple[int, ...]) -> None:
        logits, new_state = bound.step_logits(prev, state, ann)
        logdist = tape.log_softmax(logits).value
        sequences.append(prefix + (EOS,))
        logprobs.append(lp + float(logdist[EOS]))
        if len(prefix) + 1 < max_len:
            for tok in content:
                visit(new_state, tok, lp + float(logdist[tok]), prefix + (tok,))

    visit(bound.initial_state(ann), BOS, 0.0, ())
    lp_arr = np.array(logprobs)
    return FullSpace(
        sequences=sequences,
        logprobs=lp_arr,
        terminated_mass=float(np.exp(lp_arr).sum()),
    )


def _q_full(logprobs: np.ndarray, alpha: float) -> np.ndarray:
    scaled = alpha * logprobs
    scaled = scaled - scaled.max()
    w = np.exp(scaled)
    return w / w.sum()


def exact_risk_over(
    space: FullSpace, losses: Sequence[float], alpha: float
) -> float:
    """Expected loss under the alpha-sharpened exact posterior, restricted
    (and renormalized) to the terminated sequences."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != (len(space.sequences),):
        raise OracleError(
            f"losses of shape {losses.shape} for {len(space.sequences)} sequences"
        )
    return float(_q_full(space.logprobs, alpha) @ losses)


def exact_grad_check(
    params: ParamStore,
    src: Sequence[int],
    gold: Sequence[int],
    kind: metrics.LossKind,
    alpha: float,
    max_len: int,
    info=None,
) -> float:
    """Max relative error between the baseline-subtraction gradient taken
    over the full enumeration and the central finite difference of the
    exact risk over the same fixed candidate set."""
    full = enumerate_space(params, src, max_len)
    gold = tuple(gold)
    if gold not in full.sequences:
        raise OracleError("gold translation outside the enumerable space")
    losses = candidate_losses(full.sequences, gold, kind, info)

    sspace = SampledSpace(
        candidates=list(full.sequences),
        gold_index=full.sequences.index(gold),
        k_requested=len(full.sequences),
        max_len=max_len,
        logprobs=full.logprobs.copy(),
    )
    q = q_distribution(sspace, alpha)
    report = expected_risk(sspace, q, losses)
    analytic = mrt_grad(params, src, sspace, q, report, alpha)

    candidates = sspace.candidates

    def objective(store: ParamStore) -> float:
        lp = candidate_logprobs(store, src, candidates)
        return float(_q_full(lp, alpha) @ losses)

    numeric = finite_diff_grad(objective, params)
    return relative_error(analytic, numeric)


def sampled_risk_spread(
    params: ParamStore,
    src: Sequence[int],
    gold: Sequence[int],
    kind: metrics.LossKind,
    alpha: float,
    k: int,
    max_len: int,
    n_seeds: int,
    base_seed: int = 0,
    info=None,
) -> tuple[float, float]:
    """(mean, standard deviation) of the sampled expected risk across
    independent sampling seeds at a fixed checkpoint."""
    if n_seeds < 1:
        raise OracleError(f"n_seeds must be >= 1, got {n_seeds}")
    estimates = np.array(
        [
            sentence_risk(
                params, src, gold, kind, alpha, k, max_len,
                np.random.default_rng([base_seed, k, s]), info,
            )[3].expected_risk
            for s in range(n_seeds)
        ]
    )
    return float(estimates.mean()), float(estimates.std())
