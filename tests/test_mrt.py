import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noisy_params, toy_config
from riskseq.diffcore import Tape, finite_diff_grad, relative_error
from riskseq.metrics import LossKind, delta
from riskseq.model import BOS, EOS, BoundModel, ModelError, init_params
from riskseq.mrt import (
    MrtError,
    SampledSpace,
    build_space,
    candidate_logprobs,
    expected_risk,
    mle_loss_and_grad,
    mrt_grad,
    mrt_grad_via_q,
    q_distribution,
    sample_space,
    sample_trajectories,
)

SRC = [4, 5]
GOLD = (5, 4, EOS)


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
            dist, state = bound.decode_step(prev, state, ann)
            cdf = np.cumsum(dist.value)
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
        [float(bound.sequence_logprob_nodes(ann, c)[0].value) for c in candidates]
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
        from riskseq.mrt import _PrefixMemo

        _, params = toy_model
        memo = _PrefixMemo(params, [5, 4])
        with pytest.raises(MrtError):
            candidate_logprobs(params, SRC, [GOLD], memo=memo)


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
        with pytest.raises(MrtError):
            build_space(params, SRC, (4, 5), [], 1, 4)

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
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_recovers_renormalized_probabilities(self):
        lp = [-1.0, -2.0, -3.0]
        q = q_distribution(self._space(lp), alpha=1.0)
        p = np.exp(lp) / np.exp(lp).sum()
        np.testing.assert_allclose(q.weights, p, atol=1e-12)

    def test_small_alpha_flattens(self):
        space = self._space([-1.0, -10.0])
        sharp = q_distribution(space, alpha=1.0)
        flat = q_distribution(space, alpha=5e-3)
        assert flat.weights[1] > sharp.weights[1]
        np.testing.assert_allclose(flat.weights, [0.5, 0.5], atol=0.02)

    def test_order_preserved(self):
        q = q_distribution(self._space([-5.0, -1.0, -3.0]), alpha=0.3)
        assert q.weights[1] > q.weights[2] > q.weights[0]

    def test_alpha_must_be_positive(self):
        with pytest.raises(MrtError):
            q_distribution(self._space([-1.0]), alpha=0.0)

    def test_extreme_logprobs_stay_finite(self):
        q = q_distribution(self._space([-1e6, -2e6, -5.0]), alpha=1.0)
        assert np.all(np.isfinite(q.weights))
        assert q.weights[2] == pytest.approx(1.0)


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
        assert report.baseline == report.expected_risk

    def test_weighted_advantages_sum_to_zero(self):
        space, q, report = self._setup([0.1, 0.9, 0.4])
        assert float(q.weights @ report.advantages) == pytest.approx(0.0, abs=1e-15)

    def test_loss_count_mismatch_rejected(self):
        space, q, _ = self._setup([0.0, 1.0])
        with pytest.raises(MrtError):
            expected_risk(space, q, [0.0])


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
