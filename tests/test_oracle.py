import re

import numpy as np
import pytest

from conftest import noisy_params, toy_config
from riskseq.metrics import LossKind
from riskseq.model import EOS
from riskseq.mrt import candidate_losses
from riskseq.oracle import (
    EnumerationBudgetError,
    OracleError,
    enumerate_space,
    exact_grad_check,
    exact_risk_over,
    sampled_risk_spread,
    space_size,
)

SRC = [4, 5]


def small_model(seed=0, tgt_vocab=6, max_len=4):
    cfg = toy_config(tgt_vocab=tgt_vocab, max_len=max_len)
    return cfg, noisy_params(cfg, seed)


class TestSpaceSize:
    def test_hand_counted(self):
        # sequences: (EOS), x(EOS) x2, xy(EOS) x4 for two content tokens
        assert space_size(2, 3) == 7
        assert space_size(3, 3) == 13
        assert space_size(1, 5) == 5

    def test_budget_enforced(self):
        cfg = toy_config(tgt_vocab=14, max_len=7)  # 10 content tokens
        params = noisy_params(cfg, seed=0)
        with pytest.raises(
            EnumerationBudgetError, match=f"enumeration would produce {space_size(10, 7)} sequences"
        ):
            enumerate_space(params, SRC, max_len=7)


class TestEnumerateSpace:
    @pytest.mark.parametrize("max_len", [0, -1])
    def test_length_limit_below_one_rejected(self, max_len):
        _, params = small_model()
        with pytest.raises(OracleError, match=f"length limit must be >= 1, got {max_len}"):
            enumerate_space(params, SRC, max_len)

    def test_counts_and_termination(self):
        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        assert len(full.sequences) == space_size(2, 3)
        assert len(set(full.sequences)) == len(full.sequences)
        for seq in full.sequences:
            assert seq[-1] == EOS
            assert all(t >= 4 for t in seq[:-1])
            assert len(seq) <= 3

    def test_probs_consistent_with_logprobs(self):
        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        probs = np.exp(full.logprobs)
        assert np.all(probs > 0.0)
        assert full.terminated_mass == float(probs.sum())
        assert 0.0 < full.terminated_mass <= 1.0 + 1e-12

    def test_terminated_mass_grows_with_length_limit(self):
        _, params = small_model()
        m3 = enumerate_space(params, SRC, max_len=3).terminated_mass
        m5 = enumerate_space(params, SRC, max_len=5).terminated_mass
        assert m5 > m3

    def test_logprobs_match_direct_scoring(self):
        from riskseq.model import sequence_logprob

        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        for seq, lp in zip(full.sequences, full.logprobs):
            direct, _ = sequence_logprob(params, SRC, seq)
            assert lp == pytest.approx(direct, abs=1e-12)


class TestExactRisk:
    def test_alpha_one_is_renormalized_expectation(self):
        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        losses = np.linspace(0.0, 1.0, len(full.sequences))
        got = exact_risk_over(full, losses, alpha=1.0)
        expected = float(np.exp(full.logprobs) @ losses) / full.terminated_mass
        assert got == pytest.approx(expected, abs=1e-12)

    def test_constant_losses_give_that_constant(self):
        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        assert exact_risk_over(full, np.full(len(full.sequences), 0.25), 0.7) == (
            pytest.approx(0.25)
        )

    def test_loss_count_mismatch_rejected(self):
        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        with pytest.raises(OracleError):
            exact_risk_over(full, [0.0], 1.0)

    # the space below holds space_size(2, 3) = 7 sequences
    @pytest.mark.parametrize("shape", [(), (7, 1), (8,)])
    def test_malformed_losses_rejected_naming_shape(self, shape):
        _, params = small_model()
        full = enumerate_space(params, SRC, max_len=3)
        with pytest.raises(OracleError, match=re.escape(f"losses of shape {shape} for 7 sequences")):
            exact_risk_over(full, np.zeros(shape), 1.0)

    def test_risk_bounded_by_loss_range(self):
        _, params = small_model(seed=4)
        gold = (4, 5, EOS)
        full = enumerate_space(params, SRC, max_len=3)
        losses = candidate_losses(full.sequences, gold, LossKind.NEG_SMOOTHED_BLEU)
        risk = exact_risk_over(full, losses, alpha=5e-3)
        assert -1.0 <= risk <= 0.0


class TestExactGradCheck:
    @pytest.mark.parametrize("alpha", [1.0, 5e-3])
    def test_small_error_on_toy_model(self, alpha):
        _, params = small_model(seed=7)
        err = exact_grad_check(
            params, SRC, (4, EOS), LossKind.NEG_SMOOTHED_BLEU, alpha, max_len=3
        )
        assert err <= 1e-4

    def test_gold_outside_space_rejected(self):
        _, params = small_model()
        with pytest.raises(OracleError):
            exact_grad_check(
                params, SRC, (4, 4, 4, 4, 4, EOS),
                LossKind.NEG_SMOOTHED_BLEU, 1.0, max_len=3,
            )


class TestSampledRiskSpread:
    def test_reproducible(self):
        _, params = small_model(seed=2)
        args = (params, SRC, (4, EOS), LossKind.NEG_SMOOTHED_BLEU, 5e-3, 10, 3)
        a = sampled_risk_spread(*args, n_seeds=8, base_seed=1)
        b = sampled_risk_spread(*args, n_seeds=8, base_seed=1)
        assert a == b

    def test_spread_shrinks_with_more_samples(self):
        _, params = small_model(seed=2)
        gold = (4, EOS)
        _, std_small = sampled_risk_spread(
            params, SRC, gold, LossKind.NEG_SMOOTHED_BLEU,
            alpha=1.0, k=5, max_len=3, n_seeds=20,
        )
        _, std_large = sampled_risk_spread(
            params, SRC, gold, LossKind.NEG_SMOOTHED_BLEU,
            alpha=1.0, k=200, max_len=3, n_seeds=20,
        )
        assert std_large <= std_small

    def test_mean_within_loss_range(self):
        _, params = small_model(seed=2)
        mean, _ = sampled_risk_spread(
            params, SRC, (4, EOS), LossKind.NEG_SMOOTHED_BLEU,
            alpha=1.0, k=50, max_len=3, n_seeds=10,
        )
        assert -1.0 <= mean <= 0.0

    def test_no_seeds_rejected(self):
        _, params = small_model(seed=2)
        with pytest.raises(OracleError, match="n_seeds must be >= 1"):
            sampled_risk_spread(
                params, SRC, (4, EOS), LossKind.NEG_SMOOTHED_BLEU,
                alpha=1.0, k=5, max_len=3, n_seeds=0,
            )
