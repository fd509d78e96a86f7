import functools
import operator

import numpy as np
import pytest

from riskseq import metrics, mrt
from riskseq.diffcore import Tape
from riskseq.model import BOS, EOS, BoundModel, ModelConfig, PrefixMemo, init_params
from riskseq.model import _checked_target, _validate_target


def toy_config(tgt_vocab=6, **overrides):
    base = dict(
        src_vocab_size=6,
        tgt_vocab_size=tgt_vocab,
        embed_dim=3,
        hidden_dim=4,
        attention_dim=3,
        max_len=6,
    )
    base.update(overrides)
    return ModelConfig(**base)


def noisy_params(cfg, seed, scale=0.5):
    """Initialized parameters plus noise everywhere, so the output
    distribution is non-uniform and decoding is non-trivial."""
    params = init_params(cfg, seed)
    rng = np.random.default_rng([seed, 77])
    params.set_flat(params.flat() + scale * rng.normal(size=params.size))
    return params


@pytest.fixture
def toy_model():
    cfg = toy_config()
    return cfg, noisy_params(cfg, seed=0)


# -- unmemoised references ---------------------------------------------------
# Every target walks the decoder afresh from BOS on one recording tape, the
# walk ``PrefixMemo.logprob`` must reproduce byte for byte.


def reference_logprob_nodes(bound, ann, tgt):
    """Log P(tgt | src) as a tape node, the target scored verbatim."""
    t = bound.tape
    tgt = list(tgt)
    _validate_target(tgt, bound.tgt_vocab_size)
    per_word = []
    state = bound.initial_state(ann)
    prev = BOS
    for tok in tgt:
        logits, state = bound.step_logits(prev, state, ann)
        per_word.append(t.pick(t.log_softmax(logits), tok))
        prev = tok
    return t.sum(t.stack_rows(per_word))


def reference_sample_trajectories(params, src, k, max_len, rng, *, memo=None):
    """``mrt.sample_trajectories`` drawing each token with numpy: the
    right-side ``searchsorted`` of the draw in the prefix's CDF array,
    clamped to the last token."""
    memo = PrefixMemo(params, src) if memo is None else memo
    cdfs = {}
    out = []
    for _ in range(k):
        prefix = ()
        for _ in range(max_len):
            cdf = cdfs.get(prefix)
            if cdf is None:
                cdf = cdfs[prefix] = np.cumsum(np.exp(memo.next_logdist(prefix)))
            tok = int(np.searchsorted(cdf, rng.random(), side="right"))
            tok = min(tok, len(cdf) - 1)
            prefix += (tok,)
            if tok == EOS:
                break
        out.append(prefix)
    return out


def reference_mrt_grad(params, src, space, q, report, alpha):
    """``mrt.mrt_grad`` with one fresh walk per candidate."""
    coeffs = alpha * q * report.advantages
    if not np.any(coeffs):
        return np.zeros(params.size)
    tape = Tape()
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    terms = []
    for i, cand in enumerate(space.candidates):
        if coeffs[i] == 0.0:
            continue
        total = reference_logprob_nodes(bound, ann, cand)
        terms.append(tape.scale(total, coeffs[i]))
    seed = tape.sum(tape.stack_rows(terms))
    return tape.gradient(seed, params, bound.pn)


def reference_mle_loss_and_grad(params, batch):
    """``mrt.mle_loss_and_grad`` with one fresh walk per sentence."""
    loss = 0.0
    grad = np.zeros(params.size)
    for src, tgt in batch:
        tape = Tape()
        bound = BoundModel(params, tape)
        ann = bound.encode(src)
        total = reference_logprob_nodes(bound, ann, _checked_target(tgt))
        nll = tape.scale(total, -1.0)
        loss += float(nll.value)
        grad += tape.gradient(nll, params, bound.pn)
    return loss, grad


def reference_mrt_loss_and_grad(params, batch, kind, alpha, k, max_len, rngs, info=None):
    """``mrt.mrt_loss_and_grad`` as the trainer once built it: every
    sentence's risk and gradient kept, then each summed."""
    results = []
    for (src, gold), rng in zip(batch, rngs):
        memo = PrefixMemo(params, src, Tape())
        space = mrt.sample_space(params, src, gold, k, max_len, rng, memo=memo)
        losses = [metrics.delta(kind, cand, gold, info) for cand in space.candidates]
        q = mrt.q_distribution(space, alpha)
        report = mrt.expected_risk(space, q, losses)
        grad = mrt.mrt_grad(params, src, space, q, report, alpha, memo=memo)
        results.append((report.expected_risk, grad))
    # sum() over floats, left to right as before Python 3.12 compensated it
    risk = functools.reduce(operator.add, (r for r, _ in results), 0)
    grad = sum((g for _, g in results), np.zeros(params.size))
    return risk, grad
