import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    noisy_params,
    reference_logprob_nodes,
    reference_mle_loss_and_grad,
    reference_mrt_grad,
    reference_mrt_loss_and_grad,
    reference_sample_trajectories,
    toy_config,
)
from riskseq.diffcore import DiffError, Tape, finite_diff_grad, relative_error
from riskseq.metrics import LossKind, build_info_table, delta
from riskseq.model import BOS, EOS, PAD, BoundModel, ModelConfig, ModelError, PrefixMemo
from riskseq.model import init_params
from riskseq.mrt import (
    MrtError,
    SampledSpace,
    build_space,
    candidate_logprobs,
    expected_risk,
    mle_loss_and_grad,
    mrt_grad,
    mrt_loss_and_grad,
    q_distribution,
    sample_space,
    sample_trajectories,
    sentence_risk,
)

SRC = [4, 5]
GOLD = (5, 4, EOS)


def mrt_grad_via_q(params, src, space, losses, alpha):
    """The risk gradient taken symbolically through the log-space Q
    normalization (softmax over alpha-scaled candidate log-probs), a
    reference for the baseline-subtraction form of ``mrt_grad``."""
    losses = np.asarray(losses, dtype=np.float64)
    tape = Tape()
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    totals = [reference_logprob_nodes(bound, ann, cand) for cand in space.candidates]
    scaled = tape.scale(tape.stack_rows(totals), alpha)
    weights = tape.softmax(scaled)
    risk = tape.matmul(weights, tape.const(losses))
    return tape.gradient(risk, params, bound.pn)


class TestSampling:
    def test_trajectories_end_at_eos_or_length_limit(self, toy_model):
        _, params = toy_model
        trajs = sample_trajectories(
            params, SRC, k=50, max_len=4, rng=np.random.default_rng(0)
        )
        assert len(trajs) == 50
        for t in trajs:
            assert 1 <= len(t) <= 4
            if len(t) < 4:
                assert t[-1] == EOS
            assert EOS not in t[:-1]

    def test_same_rng_same_trajectories(self, toy_model):
        _, params = toy_model
        a = sample_trajectories(params, SRC, 20, 4, np.random.default_rng(5))
        b = sample_trajectories(params, SRC, 20, 4, np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_k(self, toy_model):
        _, params = toy_model
        with pytest.raises(MrtError):
            sample_trajectories(params, SRC, 0, 4, np.random.default_rng(0))

    def test_tokens_within_vocab(self, toy_model):
        cfg, params = toy_model
        trajs = sample_trajectories(
            params, SRC, 30, 5, np.random.default_rng(1)
        )
        assert all(0 <= t < cfg.tgt_vocab_size for traj in trajs for t in traj)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), k=st.integers(1, 40), max_len=st.integers(1, 6))
    def test_draws_equal_numpy_searchsorted(self, data, k, max_len):
        params, _, seed = random_model(data.draw)
        src = data.draw(st.lists(st.integers(4, 5), min_size=1, max_size=4))
        trajs = sample_trajectories(params, src, k, max_len, np.random.default_rng(seed))
        expected = reference_sample_trajectories(
            params, src, k, max_len, np.random.default_rng(seed)
        )
        assert trajs == expected

    def test_draws_on_cdf_entries_and_past_the_last(self, toy_model):
        """A draw equal to a CDF entry takes the token after it (after the
        last of tied entries), and one past a last entry below 1 takes the
        last token."""
        _, params = toy_model
        probs = [0.3, 0.0, 0.2, 0.25, 0.2]  # sums to 0.95
        logdist = np.array([math.log(p) if p else -math.inf for p in probs])

        class FixedMemo:
            def __init__(self):
                self.params, self.src = params, list(SRC)

            def next_logdist(self, prefix):
                return logdist

        class ScriptedRng:
            def __init__(self, draws):
                self.draws = iter(draws)

            def random(self):
                return next(self.draws)

        cdf = np.cumsum(np.exp(logdist)).tolist()
        assert cdf[-1] < 1.0
        draws = [0.0, *cdf, (cdf[-1] + 1.0) / 2]
        trajs = sample_trajectories(
            params, SRC, len(draws), 1, ScriptedRng(draws), memo=FixedMemo()
        )
        assert trajs == reference_sample_trajectories(
            params, SRC, len(draws), 1, ScriptedRng(draws), memo=FixedMemo()
        )
        assert trajs == [(0,), (2,), (2,), (3,), (4,), (4,), (4,)]


def reference_trajectories(params, src, k, max_len, rng):
    """The unmemoised sampler: every trajectory steps the decoder from BOS."""
    tape = Tape(record=False)
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    init = bound.initial_state(ann)
    out = []
    for _ in range(k):
        tokens, state, prev = [], init, BOS
        for _ in range(max_len):
            logits, state = bound.step_logits(prev, state, ann)
            cdf = np.cumsum(tape.softmax(logits).value)
            tok = int(np.searchsorted(cdf, rng.random(), side="right"))
            tok = min(tok, len(cdf) - 1)
            tokens.append(tok)
            if tok == EOS:
                break
            prev = tok
        out.append(tuple(tokens))
    return out


def reference_logprobs(params, src, candidates):
    """The unmemoised scorer: one full decoder pass per candidate."""
    bound = BoundModel(params, Tape(record=False))
    ann = bound.encode(src)
    return np.array(
        [float(reference_logprob_nodes(bound, ann, c).value) for c in candidates]
    )


class TestPrefixMemo:
    @settings(max_examples=40, deadline=None)
    @given(
        model_seed=st.integers(0, 50),
        src=st.lists(st.integers(4, 5), min_size=1, max_size=4),
        k=st.integers(1, 12),
        max_len=st.integers(1, 5),
        rng_seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_unmemoised_model(
        self, model_seed, src, k, max_len, rng_seed
    ):
        params = noisy_params(toy_config(), seed=model_seed, scale=1.5)
        trajs = sample_trajectories(
            params, src, k, max_len, np.random.default_rng(rng_seed)
        )
        assert trajs == reference_trajectories(
            params, src, k, max_len, np.random.default_rng(rng_seed)
        )
        space = build_space(params, src, GOLD, trajs, k, max_len)
        expected = reference_logprobs(params, src, space.candidates).tobytes()
        assert space.logprobs.tobytes() == expected
        scored = candidate_logprobs(params, src, space.candidates)
        assert scored.tobytes() == expected
        again = sample_space(
            params, src, GOLD, k, max_len, np.random.default_rng(rng_seed)
        )
        assert again.candidates == space.candidates
        assert again.logprobs.tobytes() == expected

    def test_one_encode_and_one_step_per_distinct_prefix(
        self, toy_model, monkeypatch
    ):
        _, params = toy_model
        calls = {"encode": 0, "step": 0}
        encode, step = BoundModel.encode, BoundModel.step_logits

        def counting_encode(self, src):
            calls["encode"] += 1
            return encode(self, src)

        def counting_step(self, prev, state, ann):
            calls["step"] += 1
            return step(self, prev, state, ann)

        monkeypatch.setattr(BoundModel, "encode", counting_encode)
        monkeypatch.setattr(BoundModel, "step_logits", counting_step)
        space = sample_space(
            params, SRC, GOLD, k=30, max_len=5, rng=np.random.default_rng(4)
        )
        prefixes = {c[:n] for c in space.candidates for n in range(len(c))}
        assert len(space) > 2
        assert calls == {"encode": 1, "step": len(prefixes)}

    def test_scoring_errors_unchanged(self, toy_model):
        _, params = toy_model
        with pytest.raises(ModelError, match="out of range"):
            candidate_logprobs(params, SRC, [(4, 99, EOS)])
        with pytest.raises(ModelError, match="EOS before the end"):
            candidate_logprobs(params, SRC, [(4, EOS, 5, EOS)])
        with pytest.raises(ModelError, match="empty target"):
            candidate_logprobs(params, SRC, [()])

    def test_memo_of_another_source_rejected(self, toy_model):
        _, params = toy_model
        memo = PrefixMemo(params, [5, 4])
        with pytest.raises(MrtError):
            candidate_logprobs(params, SRC, [GOLD], memo=memo)
        space, losses = _space_and_losses(params, [(4, EOS)], GOLD)
        q = q_distribution(space, 0.5)
        with pytest.raises(MrtError):
            mrt_grad(params, SRC, space, q, expected_risk(space, q, losses), 0.5, memo=memo)


class TestBuildSpace:
    def test_gold_first_and_deduplicated(self, toy_model):
        _, params = toy_model
        trajs = [(4, EOS), (4, EOS), GOLD, (5, EOS)]
        space = build_space(params, SRC, GOLD, trajs, k_requested=4, max_len=4)
        assert space.candidates[0] == GOLD
        assert space.gold_index == 0
        assert space.candidates == [GOLD, (4, EOS), (5, EOS)]
        assert len(space.logprobs) == 3

    def test_gold_must_end_with_eos(self, toy_model):
        _, params = toy_model
        with pytest.raises(ModelError):
            build_space(params, SRC, (4, 5), [], 1, 4)

    def test_gold_holding_pad_rejected(self, toy_model):
        """MRT's gold follows MLE's target rule, so a PAD inside it is an
        error, not a candidate scored with PAD as a word."""
        _, params = toy_model
        gold = (4, PAD, EOS)
        with pytest.raises(ModelError, match="PAD inside target sentence"):
            sample_space(params, SRC, gold, 4, 5, np.random.default_rng(0))
        with pytest.raises(ModelError, match="PAD inside target sentence"):
            mrt_loss_and_grad(params, [(SRC, gold)], LossKind.SMOOTHED_TER, 0.5, 4, 5,
                              [np.random.default_rng(0)])
        with pytest.raises(ModelError, match="PAD inside target sentence"):
            mle_loss_and_grad(params, [(SRC, gold)])

    def test_logprobs_match_direct_scoring(self, toy_model):
        from riskseq.model import sequence_logprob

        _, params = toy_model
        space = build_space(params, SRC, GOLD, [(4, EOS)], 1, 4)
        for cand, lp in zip(space.candidates, space.logprobs):
            direct, _ = sequence_logprob(params, SRC, cand)
            assert lp == pytest.approx(direct, abs=1e-12)

    def test_sample_space_size_bounded_by_k_plus_gold(self, toy_model):
        _, params = toy_model
        space = sample_space(
            params, SRC, GOLD, k=25, max_len=4, rng=np.random.default_rng(2)
        )
        assert 1 <= len(space) <= 26
        assert space.k_requested == 25


def reference_q_weights(logprobs, alpha):
    """Q weights by their own max-shifted log-space normalisation."""
    scaled = alpha * np.asarray(logprobs, dtype=np.float64)
    scaled = scaled - scaled.max()
    return np.exp(scaled - np.log(np.exp(scaled).sum()))


@st.composite
def logprob_arrays(draw):
    """1-199 candidate log-probabilities, some with a tied maximum."""
    lp = draw(st.lists(st.floats(-200.0, 0.0), min_size=1, max_size=199))
    if draw(st.booleans()):
        lp.append(max(lp))
        lp = draw(st.permutations(lp))
    return lp


class TestQDistribution:
    def _space(self, logprobs):
        lp = np.asarray(logprobs, dtype=np.float64)
        cands = [(4,) * (i + 1) + (EOS,) for i in range(len(lp))]
        return SampledSpace(
            candidates=cands, gold_index=0, k_requested=len(lp), max_len=8,
            logprobs=lp,
        )

    def test_weights_sum_to_one(self):
        q = q_distribution(self._space([-1.0, -2.0, -3.5]), alpha=0.7)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_recovers_renormalized_probabilities(self):
        lp = [-1.0, -2.0, -3.0]
        q = q_distribution(self._space(lp), alpha=1.0)
        p = np.exp(lp) / np.exp(lp).sum()
        np.testing.assert_allclose(q, p, atol=1e-12)

    def test_small_alpha_flattens(self):
        space = self._space([-1.0, -10.0])
        sharp = q_distribution(space, alpha=1.0)
        flat = q_distribution(space, alpha=5e-3)
        assert flat[1] > sharp[1]
        np.testing.assert_allclose(flat, [0.5, 0.5], atol=0.02)

    def test_order_preserved(self):
        q = q_distribution(self._space([-5.0, -1.0, -3.0]), alpha=0.3)
        assert q[1] > q[2] > q[0]

    def test_infinite_logprob_rejected(self):
        with pytest.raises(MrtError, match="non-finite candidate log-probabilities"):
            q_distribution(self._space([-1.0, -math.inf]), alpha=1.0)

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(MrtError, match="positive and finite"):
                q_distribution(self._space([-1.0]), alpha=alpha)

    @given(lp=logprob_arrays(), alpha=st.floats(1e-4, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_weights_equal_reference_bits(self, lp, alpha):
        q = q_distribution(self._space(lp), alpha)
        assert q.tobytes() == reference_q_weights(lp, alpha).tobytes()

    def test_extreme_logprobs_stay_finite(self):
        q = q_distribution(self._space([-1e6, -2e6, -5.0]), alpha=1.0)
        assert np.all(np.isfinite(q))
        assert q[2] == pytest.approx(1.0)


class TestExpectedRisk:
    def _setup(self, losses, alpha=1.0):
        lp = np.array([-1.0, -1.0, -1.0])[: len(losses)]
        cands = [(4,) * (i + 1) + (EOS,) for i in range(len(losses))]
        space = SampledSpace(cands, 0, len(losses), 8, lp)
        q = q_distribution(space, alpha)
        return space, q, expected_risk(space, q, losses)

    def test_uniform_weights_give_mean_loss(self):
        _, _, report = self._setup([0.0, 0.5, 1.0])
        assert report.expected_risk == pytest.approx(0.5)

    def test_weighted_advantages_sum_to_zero(self):
        space, q, report = self._setup([0.1, 0.9, 0.4])
        assert float(q @ report.advantages) == pytest.approx(0.0, abs=1e-15)

    def test_loss_count_mismatch_rejected(self):
        space, q, _ = self._setup([0.0, 1.0])
        with pytest.raises(MrtError):
            expected_risk(space, q, [0.0])

    @pytest.mark.parametrize("shape", [(), (2, 1), (3,)])
    def test_malformed_losses_rejected_naming_shape(self, shape):
        space, q, _ = self._setup([0.0, 1.0])
        with pytest.raises(MrtError, match=re.escape(f"losses of shape {shape} for 2 candidates")):
            expected_risk(space, q, np.zeros(shape))


def _space_and_losses(params, candidates, gold):
    space = build_space(params, SRC, gold, candidates, len(candidates), 6)
    losses = [
        delta(LossKind.NEG_SMOOTHED_BLEU, c, gold) for c in space.candidates
    ]
    return space, np.asarray(losses)


class TestMrtGrad:
    def test_single_candidate_gradient_exactly_zero(self, toy_model):
        _, params = toy_model
        space, losses = _space_and_losses(params, [], GOLD)
        assert len(space) == 1
        q = q_distribution(space, 0.5)
        report = expected_risk(space, q, losses)
        grad = mrt_grad(params, SRC, space, q, report, 0.5)
        assert not grad.any()

    def test_constant_losses_gradient_exactly_zero(self, toy_model):
        _, params = toy_model
        space, _ = _space_and_losses(params, [(4, EOS), (5, 4, EOS)], GOLD)
        losses = np.full(len(space), 0.3)
        q = q_distribution(space, 0.5)
        report = expected_risk(space, q, losses)
        grad = mrt_grad(params, SRC, space, q, report, 0.5)
        assert np.abs(grad).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 5e-3])
    def test_matches_symbolic_route_through_q(self, toy_model, alpha):
        _, params = toy_model
        space, losses = _space_and_losses(
            params, [(4, EOS), (5, EOS), (4, 5, EOS)], GOLD
        )
        q = q_distribution(space, alpha)
        report = expected_risk(space, q, losses)
        direct = mrt_grad(params, SRC, space, q, report, alpha)
        symbolic = mrt_grad_via_q(params, SRC, space, losses, alpha)
        assert relative_error(direct, symbolic) <= 1e-9

    def test_matches_finite_differences_on_fixed_candidates(self):
        cfg = toy_config()
        params = noisy_params(cfg, seed=3)
        space, losses = _space_and_losses(
            params, [(4, EOS), (5, 4, EOS)], GOLD
        )
        alpha = 0.5
        q = q_distribution(space, alpha)
        report = expected_risk(space, q, losses)
        analytic = mrt_grad(params, SRC, space, q, report, alpha)

        def objective(store):
            lp = alpha * candidate_logprobs(store, SRC, space.candidates)
            w = np.exp(lp - lp.max())
            w = w / w.sum()
            return float(w @ losses)

        numeric = finite_diff_grad(objective, params)
        assert relative_error(analytic, numeric) <= 1e-4


class TestMrtLossAndGrad:
    def test_sentence_risk_is_the_expected_loss_under_q(self, toy_model):
        _, params = toy_model
        space, losses, q, report = sentence_risk(
            params, SRC, GOLD, LossKind.SMOOTHED_TER, 0.5, 8, 5, np.random.default_rng(3)
        )
        assert losses.tolist() == [
            delta(LossKind.SMOOTHED_TER, c, GOLD) for c in space.candidates
        ]
        assert q.tobytes() == q_distribution(space, 0.5).tobytes()
        assert report.expected_risk == expected_risk(space, q, losses).expected_risk

    def test_empty_batch_or_missing_generator_rejected(self, toy_model):
        _, params = toy_model
        args = (LossKind.SMOOTHED_TER, 0.5, 4, 5)
        with pytest.raises(MrtError, match="empty batch"):
            mrt_loss_and_grad(params, [], *args, [])
        with pytest.raises(MrtError, match="1 generators for 2 sentences"):
            mrt_loss_and_grad(
                params, [(SRC, GOLD)] * 2, *args, [np.random.default_rng(0)]
            )


class TestMleLossAndGrad:
    def test_uniform_init_loss_is_length_times_log_vocab(self):
        cfg = toy_config()
        params = init_params(cfg, seed=0)
        batch = [(SRC, (4, EOS)), ([5], (5, 5, EOS))]
        loss, grad = mle_loss_and_grad(params, batch)
        assert loss == pytest.approx(5 * math.log(cfg.tgt_vocab_size), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        cfg = toy_config()
        params = noisy_params(cfg, seed=1)
        batch = [(SRC, GOLD), ([5, 4], (4, EOS))]
        _, grad = mle_loss_and_grad(params, batch)
        numeric = finite_diff_grad(
            lambda s: mle_loss_and_grad(s, batch)[0], params
        )
        assert relative_error(grad, numeric) <= 1e-4

    def test_empty_batch_rejected(self, toy_model):
        _, params = toy_model
        with pytest.raises(MrtError):
            mle_loss_and_grad(params, [])

    def test_target_without_eos_rejected(self, toy_model):
        _, params = toy_model
        with pytest.raises(ModelError):
            mle_loss_and_grad(params, [(SRC, (4, 5))])

    def test_loss_decreases_after_one_step(self):
        cfg = toy_config()
        params = noisy_params(cfg, seed=2)
        batch = [(SRC, GOLD)]
        loss0, grad = mle_loss_and_grad(params, batch)
        stepped = params.copy()
        stepped.set_flat(stepped.flat() - 0.1 * grad)
        loss1, _ = mle_loss_and_grad(stepped, batch)
        assert loss1 < loss0


def random_model(draw):
    """A noisy toy model: target vocabulary 5-11, every dimension 1-6."""
    vocab = draw(st.integers(5, 11))
    E, H, A = (draw(st.integers(1, 6)) for _ in range(3))
    seed = draw(st.integers(0, 10**6))
    cfg = ModelConfig(6, vocab, E, H, A, max_len=6)
    return noisy_params(cfg, seed, scale=1.5), vocab, seed


def recipe_size_check() -> tuple[bool, bool]:
    """The acceptance recipe's model sizes (E16/H32/A16, V20) with noisy
    parameters, 2 sentences of 8-12 tokens, k = 100 and TER: whether
    ``mrt_loss_and_grad`` equals ``reference_mrt_loss_and_grad``, and
    whether each sentence's ``mrt_grad`` equals ``reference_mrt_grad``, byte
    for byte."""
    cfg = ModelConfig(20, 20, embed_dim=16, hidden_dim=32, attention_dim=16, max_len=20)
    params = noisy_params(cfg, seed=12)
    rng = np.random.default_rng(12)
    batch = [
        (rng.integers(4, 20, size=n).tolist(), tuple(rng.integers(4, 20, size=n)) + (EOS,))
        for n in (8, 12)
    ]
    kind, alpha, k, max_len = LossKind.SMOOTHED_TER, 5e-3, 100, 20

    def rngs():
        return [np.random.default_rng([7, i]) for i in range(len(batch))]

    risk, grad = mrt_loss_and_grad(params, batch, kind, alpha, k, max_len, rngs())
    ref_risk, ref_grad = reference_mrt_loss_and_grad(
        params, batch, kind, alpha, k, max_len, rngs()
    )
    same_batch = (np.float64(risk).tobytes() == np.float64(ref_risk).tobytes()
                  and grad.tobytes() == ref_grad.tobytes())
    same_sentences = True
    for (src, gold), sentence_rng in zip(batch, rngs()):
        memo = PrefixMemo(params, src, Tape())
        space, _, q, report = sentence_risk(
            params, src, gold, kind, alpha, k, max_len, sentence_rng, memo=memo
        )
        got = mrt_grad(params, src, space, q, report, alpha, memo=memo)
        want = reference_mrt_grad(params, src, space, q, report, alpha)
        same_sentences &= len(space) > 20 and got.tobytes() == want.tobytes()
    return same_batch, same_sentences


class TestOneDecoderWalk:
    """MRT steps the decoder through the prefix memo and MLE through row
    batches; their gradients equal the unmemoised walk's byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 39),
        kind=st.sampled_from(list(LossKind)),
        alpha=st.sampled_from([5e-3, 0.3, 1.0]),
    )
    def test_mrt_grad_byte_equal_to_reference(self, data, k, kind, alpha):
        params, vocab, seed = random_model(data.draw)
        src = data.draw(st.lists(st.integers(4, 5), min_size=1, max_size=4))
        body = data.draw(st.lists(st.integers(4, vocab - 1), min_size=1, max_size=3))
        gold = tuple(body) + (EOS,)
        info = build_info_table([gold]) if kind is LossKind.NEG_SMOOTHED_NIST else None
        memo = PrefixMemo(params, src, Tape())
        space = sample_space(
            params, src, gold, k, 5, np.random.default_rng(seed), memo=memo
        )
        plain = sample_space(params, src, gold, k, 5, np.random.default_rng(seed))
        assert space.candidates == plain.candidates
        assert space.logprobs.tobytes() == plain.logprobs.tobytes()
        losses = [delta(kind, c, gold, info) for c in space.candidates]
        q = q_distribution(space, alpha)
        report = expected_risk(space, q, losses)
        expected = reference_mrt_grad(params, src, space, q, report, alpha).tobytes()
        assert mrt_grad(params, src, space, q, report, alpha, memo=memo).tobytes() == expected
        assert mrt_grad(params, src, space, q, report, alpha).tobytes() == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(1, 39), alpha=st.sampled_from([5e-3, 1.0]))
    def test_repeated_mrt_grad_on_one_memo_byte_equal(self, data, k, alpha):
        """Both calls sweep the steps sampling took on the memo; both equal
        the fresh walk's gradient."""
        params, vocab, seed = random_model(data.draw)
        src = data.draw(st.lists(st.integers(4, 5), min_size=1, max_size=4))
        body = data.draw(st.lists(st.integers(4, vocab - 1), min_size=1, max_size=3))
        gold = tuple(body) + (EOS,)
        memo = PrefixMemo(params, src, Tape())
        space = sample_space(
            params, src, gold, k, 5, np.random.default_rng(seed), memo=memo
        )
        losses = [delta(LossKind.SMOOTHED_TER, c, gold) for c in space.candidates]
        q = q_distribution(space, alpha)
        report = expected_risk(space, q, losses)
        expected = reference_mrt_grad(params, src, space, q, report, alpha).tobytes()
        for _ in range(2):
            assert mrt_grad(params, src, space, q, report, alpha, memo=memo).tobytes() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 20),
        kind=st.sampled_from(list(LossKind)),
        alpha=st.sampled_from([5e-3, 0.3, 1.0]),
    )
    def test_mrt_loss_and_grad_byte_equal_to_reference(self, data, k, kind, alpha):
        """The batch objective adds each sentence's risk and gradient as it
        goes; the sums equal keeping them all and summing at the end."""
        params, vocab, seed = random_model(data.draw)
        batch = [
            (
                data.draw(st.lists(st.integers(4, 5), min_size=1, max_size=4)),
                tuple(data.draw(st.lists(st.integers(4, vocab - 1), min_size=1, max_size=3)))
                + (EOS,),
            )
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        info = build_info_table([gold for _, gold in batch]) if kind is LossKind.NEG_SMOOTHED_NIST else None

        def rngs():
            return [np.random.default_rng([seed, i]) for i in range(len(batch))]

        risk, grad = mrt_loss_and_grad(params, batch, kind, alpha, k, 5, rngs(), info)
        ref_risk, ref_grad = reference_mrt_loss_and_grad(
            params, batch, kind, alpha, k, 5, rngs(), info
        )
        assert np.float64(risk).tobytes() == np.float64(ref_risk).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_every_target_is_scored_once(self, toy_model):
        """Scoring reads the memo's steps: ``logprob`` adds no node to the
        tape, and a target's prefixes are stepped once however often it is
        scored."""
        _, params = toy_model
        memo = PrefixMemo(params, SRC, Tape())
        tape = memo.bound.tape
        for n in range(len(GOLD)):
            memo.next_logdist(GOLD[:n])
        stepped = len(tape.nodes)
        total = memo.logprob(GOLD)
        assert len(tape.nodes) == stepped
        assert memo.logprob(list(GOLD)).tobytes() == total.tobytes()
        assert len(tape.nodes) == stepped
        bound = BoundModel(params, Tape())
        expected = reference_logprob_nodes(bound, bound.encode(SRC), GOLD).value
        assert total.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [5e-3, 1.0])
    def test_mrt_grad_adds_only_its_seed(self, toy_model, alpha):
        """Sampling steps every candidate on the recording memo; the
        gradient then adds one node for the whole candidate set, whose
        parents are the decoder's parameters and the annotations."""
        _, params = toy_model
        memo = PrefixMemo(params, SRC, Tape())
        space = sample_space(params, SRC, GOLD, 30, 5, np.random.default_rng(3), memo=memo)
        losses = [delta(LossKind.SMOOTHED_TER, c, GOLD) for c in space.candidates]
        q = q_distribution(space, alpha)
        report = expected_risk(space, q, losses)
        assert len(space) > 2 and np.count_nonzero(alpha * q * report.advantages) > 0
        tape = memo.bound.tape
        sampled = len(tape.nodes)
        mrt_grad(params, SRC, space, q, report, alpha, memo=memo)
        (node,) = tape.nodes[sampled:]
        pn, ann = memo.bound.pn, memo.ann
        decoder = {name for name in pn if not name.startswith(("enc_", "src_", "attn_U"))}
        assert {id(p) for p in node.parents} == (
            {id(pn[name]) for name in decoder}
            | {id(ann.matrix), id(ann.attn_proj), id(ann.bwd_first)}
        )
        assert len(node.parents) == len(decoder) + 3
        with pytest.raises(ModelError, match="no target with a nonzero coefficient"):
            memo.weighted_logprob(space.candidates, np.zeros(len(space)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), alpha=st.sampled_from([5e-3, 0.3, 1.0]))
    def test_ragged_candidate_sets_byte_equal_to_reference(self, data, alpha):
        """Candidate sets built directly: 1-12 tokens, prefixes shared or
        not, some truncated without EOS, and some coefficients exactly 0
        through zeroed advantages. The memo may have scored some candidates
        first, in any order, or none; repeating the gradient on the memo
        keeps its bits."""
        params, vocab, seed = random_model(data.draw)
        src = data.draw(st.lists(st.integers(4, 5), min_size=1, max_size=4))
        words = st.integers(0, vocab - 1).filter(lambda tok: tok != EOS)
        candidates: list[tuple[int, ...]] = []
        for _ in range(data.draw(st.integers(1, 12))):
            stem = ()
            if candidates and data.draw(st.booleans()):
                shared = data.draw(st.sampled_from(candidates))
                stem = shared[: data.draw(st.integers(0, len(shared)))]
                stem = stem[:-1] if stem and stem[-1] == EOS else stem
            length = data.draw(st.integers(max(1, len(stem)), 12))
            body = stem + tuple(data.draw(
                st.lists(words, min_size=length - len(stem), max_size=length - len(stem))
            ))
            cand = body[:-1] + (EOS,) if data.draw(st.booleans()) else body
            if cand not in candidates:
                candidates.append(cand)
        logprobs = candidate_logprobs(params, src, candidates)
        space = SampledSpace(candidates, 0, len(candidates), 12, logprobs)
        q = q_distribution(space, alpha)
        losses = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=len(candidates), max_size=len(candidates)
        )))
        report = expected_risk(space, q, losses)
        zeroed = data.draw(st.lists(st.booleans(), min_size=len(candidates),
                                    max_size=len(candidates)))
        report.advantages[np.array(zeroed)] = 0.0
        memo = PrefixMemo(params, src, Tape())
        shuffled = data.draw(st.permutations(candidates))
        scored = shuffled[: data.draw(st.integers(0, len(candidates)))]
        candidate_logprobs(params, src, scored, memo=memo)
        expected = reference_mrt_grad(params, src, space, q, report, alpha).tobytes()
        for _ in range(2):
            assert mrt_grad(params, src, space, q, report, alpha, memo=memo).tobytes() == expected

    def test_recipe_size_batch_byte_equal_to_reference(self):
        assert recipe_size_check() == (True, True)

    def test_recipe_size_batch_byte_equal_with_two_blas_threads(self):
        # On a 1-CPU machine OpenBLAS caps itself at one thread, so this
        # passes there without discriminating.
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests_dir.parent / "src"), str(tests_dir),
                        os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", "from test_mrt import recipe_size_check\n"
             "print(*recipe_size_check())"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_pairs=st.integers(1, 4))
    def test_mle_byte_equal_to_reference(self, data, n_pairs):
        params, vocab, _ = random_model(data.draw)
        batch = [
            (
                data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)),
                data.draw(st.lists(st.integers(2, vocab - 1), max_size=5)) + [EOS],
            )
            for _ in range(n_pairs)
        ]
        loss, grad = mle_loss_and_grad(params, batch)
        ref_loss, ref_grad = reference_mle_loss_and_grad(params, batch)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_pairs=st.integers(2, 24))
    def test_mle_row_groups_byte_equal_to_reference(self, data, n_pairs):
        """Pairs of at most three (source length, target length) shapes in
        shuffled order, so groups of several rows and singletons mix, and
        one shape's group can hold more than 16 rows. One shape's targets
        hold 9-12 tokens, so each row's pick sum runs past numpy's 8-element
        pairwise block."""
        params, vocab, _ = random_model(data.draw)
        long_shape = st.tuples(st.integers(1, 5), st.integers(9, 12))
        shapes = [data.draw(long_shape)] + data.draw(st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 12)), max_size=2))
        batch = []
        for _ in range(n_pairs):
            src_len, tgt_len = data.draw(st.sampled_from(shapes))
            src = st.lists(st.integers(1, 5), min_size=src_len, max_size=src_len)
            body = st.lists(st.integers(2, vocab - 1), min_size=tgt_len - 1,
                            max_size=tgt_len - 1)
            batch.append((data.draw(src), data.draw(body) + [EOS]))
        loss, grad = mle_loss_and_grad(params, batch)
        ref_loss, ref_grad = reference_mle_loss_and_grad(params, batch)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_non_recording_memo_rejected(self, toy_model):
        _, params = toy_model
        space, losses = _space_and_losses(params, [(4, EOS), (5, EOS)], GOLD)
        q = q_distribution(space, 0.5)
        report = expected_risk(space, q, losses)
        with pytest.raises(DiffError, match="recording tape"):
            mrt_grad(params, SRC, space, q, report, 0.5, memo=PrefixMemo(params, SRC))
