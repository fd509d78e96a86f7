import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskseq.diffcore import ParamStore, Tape
from riskseq.model import (
    BOS,
    EOS,
    PAD,
    BoundModel,
    ModelConfig,
    ModelError,
    check_params,
    init_params,
    load_model,
    save_model,
    sequence_logprob,
)


def tiny_config(**overrides):
    base = dict(
        src_vocab_size=7,
        tgt_vocab_size=7,
        embed_dim=4,
        hidden_dim=5,
        attention_dim=3,
        max_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def tiny():
    cfg = tiny_config()
    return cfg, init_params(cfg, seed=0)


class TestConfig:
    def test_rejects_tiny_vocab(self):
        with pytest.raises(ModelError):
            ModelConfig(src_vocab_size=3, tgt_vocab_size=7)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ModelError):
            tiny_config(hidden_dim=0)

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestInit:
    def test_same_seed_same_params(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=3).flat()
        b = init_params(cfg, seed=3).flat()
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        cfg = tiny_config()
        assert not np.array_equal(
            init_params(cfg, seed=1).flat(), init_params(cfg, seed=2).flat()
        )

    def test_output_projection_starts_at_zero(self, tiny):
        _, params = tiny
        assert not params["out_W"].any()
        assert not params["out_b"].any()

    def test_weights_within_init_range(self, tiny):
        _, params = tiny
        assert np.abs(params["src_embed"]).max() <= 0.08


class TestEncode:
    def test_annotation_length_matches_source(self, tiny):
        cfg, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4, 5, 6])
        assert ann.length == 3
        assert ann.matrix.value.shape == (3, 2 * cfg.hidden_dim)

    def test_trailing_pad_stripped(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        assert bound.encode([4, 5, PAD, PAD]).length == 2

    def test_interior_pad_rejected(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        with pytest.raises(ModelError):
            bound.encode([4, PAD, 5])

    def test_empty_source_rejected(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        with pytest.raises(ModelError):
            bound.encode([])

    def test_out_of_range_token_rejected(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        with pytest.raises(ModelError):
            bound.encode([4, 99])


class TestDecodeStep:
    def test_distribution_sums_to_one(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4, 5])
        logits, _ = bound.step_logits(BOS, bound.initial_state(ann), ann)
        dist = bound.tape.softmax(logits)
        assert dist.value.shape == (7,)
        assert math.isclose(dist.value.sum(), 1.0, abs_tol=1e-12)
        assert np.all(dist.value > 0)

    def test_attention_weights_normalized(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4, 5, 6])
        _, state = bound.step_logits(BOS, bound.initial_state(ann), ann)
        w = state.attn_weights.value
        assert w.shape == (3,)
        assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)

    def test_zero_output_projection_gives_exactly_uniform(self, tiny):
        cfg, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4])
        logits, _ = bound.step_logits(BOS, bound.initial_state(ann), ann)
        dist = bound.tape.softmax(logits)
        # every entry is bit-identical: the zero output projection gives
        # constant logits, so the distribution is exactly uniform
        assert len(set(dist.value.tolist())) == 1
        np.testing.assert_allclose(
            dist.value, np.full(cfg.tgt_vocab_size, 1.0 / cfg.tgt_vocab_size),
            atol=1e-15,
        )


class TestSequenceLogprob:
    def test_uniform_init_gives_length_times_log_vocab(self, tiny):
        cfg, params = tiny
        total, per_word = sequence_logprob(params, [4, 5], [6, 4, EOS])
        expected = 3 * math.log(1.0 / cfg.tgt_vocab_size)
        assert math.isclose(total, expected, rel_tol=0, abs_tol=1e-12)
        assert len(per_word) == 3
        assert math.isclose(sum(per_word), total, abs_tol=1e-12)

    def test_requires_terminal_eos(self, tiny):
        _, params = tiny
        with pytest.raises(ModelError):
            sequence_logprob(params, [4], [5, 6])

    def test_interior_eos_rejected(self, tiny):
        _, params = tiny
        with pytest.raises(ModelError):
            sequence_logprob(params, [4], [5, EOS, 6, EOS])

    def test_interior_pad_rejected(self, tiny):
        _, params = tiny
        with pytest.raises(ModelError):
            sequence_logprob(params, [4], [5, PAD, EOS])

    def test_trailing_pad_ignored(self, tiny):
        _, params = tiny
        a, _ = sequence_logprob(params, [4, 5], [6, EOS])
        b, _ = sequence_logprob(params, [4, 5], [6, EOS, PAD, PAD])
        assert a == b

    @given(
        seed=st.integers(0, 10**6),
        src=st.lists(st.integers(4, 6), min_size=1, max_size=5),
        body=st.lists(st.integers(2, 6), min_size=0, max_size=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_equal_to_recording_tape(self, seed, src, body):
        cfg = tiny_config()
        params = init_params(cfg, seed)
        rng = np.random.default_rng(seed)
        params.set_flat(params.flat() + rng.normal(size=params.size))
        tgt = body + [EOS]
        total, per_word = sequence_logprob(params, src, tgt)
        tape = Tape()
        bound = BoundModel(params, tape)
        node = bound.sequence_logprob_nodes(bound.encode(src), tgt)
        picks = node.parents[0].parents  # sum <- stack_rows <- per-word picks
        assert np.float64(total).tobytes() == node.value.tobytes()
        assert np.array(per_word).tobytes() == np.array(
            [p.value for p in picks]
        ).tobytes()

    def test_logprob_changes_with_trained_projection(self, tiny):
        _, params = tiny
        before, _ = sequence_logprob(params, [4, 5], [6, EOS])
        bumped = params.copy()
        w = bumped["out_W"]
        w[:, 6] = 0.5
        after, _ = sequence_logprob(bumped, [4, 5], [6, EOS])
        assert after > before


class TestCheckpoint:
    def test_save_load_roundtrip(self, tiny, tmp_path):
        cfg, params = tiny
        path = str(tmp_path / "model.ckpt")
        save_model(params, cfg, path)
        loaded_params, loaded_cfg = load_model(path)
        assert loaded_cfg == cfg
        np.testing.assert_array_equal(loaded_params.flat(), params.flat())

    def test_loaded_model_scores_identically(self, tiny, tmp_path):
        cfg, params = tiny
        path = str(tmp_path / "model.ckpt")
        save_model(params, cfg, path)
        loaded, _ = load_model(path)
        a, _ = sequence_logprob(params, [4, 5, 6], [5, 4, EOS])
        b, _ = sequence_logprob(loaded, [4, 5, 6], [5, 4, EOS])
        assert a == b

    def test_params_must_fit_config(self, tiny):
        cfg, params = tiny
        check_params(params, cfg)
        missing = ParamStore()
        for name, arr in params.items():
            if name != "dec_init_b":
                missing.add(name, arr)
        extra = params.copy()
        extra.add("spare", np.zeros(2))
        for store, other_cfg, name in (
            (missing, cfg, "dec_init_b"),
            (extra, cfg, "spare"),
            (params, tiny_config(hidden_dim=4), "dec_init_b"),
        ):
            with pytest.raises(ModelError, match=name):
                check_params(store, other_cfg)

    def test_sidecar_must_fit_tensors(self, tiny, tmp_path):
        cfg, params = tiny
        path = str(tmp_path / "model.ckpt")
        save_model(params, tiny_config(hidden_dim=4), path)
        with pytest.raises(ModelError, match="does not fit"):
            load_model(path)
