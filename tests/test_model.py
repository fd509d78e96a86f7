import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_logprob_nodes, reference_mle_loss_and_grad, reference_mrt_grad
from riskseq.diffcore import Node, ParamStore, Tape, log_softmax
from riskseq.model import (
    BOS,
    EOS,
    PAD,
    BoundModel,
    ModelConfig,
    ModelError,
    PrefixMemo,
    _outer,
    _vm,
    check_params,
    init_params,
    load_model,
    save_model,
    sequence_logprob,
)
from riskseq.mrt import (
    expected_risk,
    mrt_grad,
    q_distribution,
    sample_space,
)


# -- per-op reference ------------------------------------------------------
# The GRU step, attention, readout and initial state built from tape
# primitives, one node per primitive. BoundModel fuses each into one node
# whose values and gradient bits must equal these.


def per_op_gru_step(self, prefix, x, h):
    t, p = self.tape, self.pn
    z = t.sigmoid(
        t.add(t.add(t.matmul(x, p[f"{prefix}_Wz"]), t.matmul(h, p[f"{prefix}_Uz"])), p[f"{prefix}_bz"])
    )
    r = t.sigmoid(
        t.add(t.add(t.matmul(x, p[f"{prefix}_Wr"]), t.matmul(h, p[f"{prefix}_Ur"])), p[f"{prefix}_br"])
    )
    rh = t.mul(r, h)
    hbar = t.tanh(
        t.add(t.add(t.matmul(x, p[f"{prefix}_Wh"]), t.matmul(rh, p[f"{prefix}_Uh"])), p[f"{prefix}_bh"])
    )
    keep = t.add(t.const(np.ones(h.value.shape[0])), t.scale(z, -1.0))
    return t.add(t.mul(keep, h), t.mul(z, hbar))


def per_op_attend(self, z, ann):
    t, p = self.tape, self.pn
    e = t.tanh(t.add(ann.attn_proj, t.matmul(z, p["attn_W"])))
    scores = t.matmul(e, p["attn_v"])
    weights = t.softmax(scores)
    return t.matmul(weights, ann.matrix)


def per_op_readout(self, emb, z_new, context):
    t, p = self.tape, self.pn
    readout = t.tanh(
        t.add(t.matmul(t.concat([emb, z_new, context]), p["read_W"]), p["read_b"])
    )
    return t.add(t.matmul(readout, p["out_W"]), p["out_b"])


def per_op_initial_state(self, ann):
    t, p = self.tape, self.pn
    return t.tanh(t.add(t.matmul(ann.bwd_first, p["dec_init_W"]), p["dec_init_b"]))


def per_op_model():
    """Patch BoundModel to step through the per-op reference (a context
    manager; ``.start()`` patches for the rest of the process)."""
    return mock.patch.multiple(
        BoundModel, _gru_step=per_op_gru_step, _attend=per_op_attend,
        _readout=per_op_readout, initial_state=per_op_initial_state,
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

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ModelError, match="model config must be a JSON object"):
            ModelConfig.from_dict([])

    @pytest.mark.parametrize(
        "change, message",
        [({"src_vocab_size": None}, "missing keys ['src_vocab_size']"),
         ({"max_len": True}, "non-integer values for ['max_len']"),
         ({"embed_dim": 2.0}, "non-integer values for ['embed_dim']")],
    )
    def test_from_dict_rejects_missing_keys_and_non_integers(self, change, message):
        d = {k: v for k, v in {**tiny_config().to_dict(), **change}.items()
             if v is not None}
        with pytest.raises(ModelError, match=re.escape(message)):
            ModelConfig.from_dict(d)

    @pytest.mark.parametrize(
        "change, message",
        [({"embed_dim": 2.5}, "non-integer values for ['embed_dim']"),
         ({"max_len": None, "hidden_dim": "4"},
          "non-integer values for ['hidden_dim', 'max_len']"),
         ({"src_vocab_size": True}, "non-integer values for ['src_vocab_size']")],
    )
    def test_constructor_rejects_non_integers(self, change, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            tiny_config(**change)


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
        assert ann.matrix.value.shape == (3, 2 * cfg.hidden_dim)

    def test_trailing_pad_stripped(self, tiny):
        # a trailing PAD is an error like any other PAD
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        with pytest.raises(ModelError):
            bound.encode([4, 5, PAD, PAD])

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

    def test_state_is_one_bounded_hidden_vector(self, tiny):
        cfg, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4, 5, 6])
        z = bound.step_logits(BOS, bound.initial_state(ann), ann)[1].value
        assert z.shape == (cfg.hidden_dim,)
        # a GRU state mixes the previous state and a tanh, both in (-1, 1)
        assert np.all(np.abs(z) < 1.0)

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
        # a trailing PAD is an error like any other PAD
        _, params = tiny
        with pytest.raises(ModelError):
            sequence_logprob(params, [4, 5], [6, EOS, PAD, PAD])

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
        bound = BoundModel(params, Tape())
        node = reference_logprob_nodes(bound, bound.encode(src), tgt)
        picks = node.parents[0].parents  # sum <- stack_rows <- per-word picks
        assert np.float64(total).tobytes() == node.value.tobytes()
        assert np.array(per_word).tobytes() == np.array(
            [p.value for p in picks]
        ).tobytes()
        memo_total = PrefixMemo(params, src, Tape()).logprob(tgt)
        assert np.float64(total).tobytes() == memo_total.tobytes()

    def test_logprob_changes_with_trained_projection(self, tiny):
        _, params = tiny
        before, _ = sequence_logprob(params, [4, 5], [6, EOS])
        bumped = params.copy()
        w = bumped["out_W"]
        w[:, 6] = 0.5
        after, _ = sequence_logprob(bumped, [4, 5], [6, EOS])
        assert after > before


def forward_values(params, src, tgt, record):
    """Annotations, then logits and state per step."""
    bound = BoundModel(params, Tape(record=record))
    ann = bound.encode(src)
    out = [ann.matrix.value, ann.attn_proj.value, ann.bwd_first.value]
    z, prev = bound.initial_state(ann), BOS
    for tok in tgt:
        logits, z = bound.step_logits(prev, z, ann)
        out += [logits.value, z.value]
        prev = tok
    return [v.tobytes() for v in out]


def gradient_bytes(params, src, tgt, seed, risk_grad=mrt_grad):
    # The per-op primitives step 1-D only and save no forward arrays to
    # batch, so the MLE gradient comes from the 1-D reference walk and the
    # per-op risk gradient from ``reference_mrt_grad``; test_mrt checks the
    # row batches against both.
    loss, grad = reference_mle_loss_and_grad(params, [(src, tgt)])
    rng = np.random.default_rng(seed)
    space = sample_space(params, src, tgt, 6, len(tgt) + 1, rng)
    q = q_distribution(space, 0.5)
    losses = rng.uniform(size=len(space.candidates))
    report = expected_risk(space, q, losses)
    risk = risk_grad(params, src, space, q, report, 0.5)
    return np.float64(loss).tobytes(), grad.tobytes(), risk.tobytes()


class TestFusedNodes:
    @given(
        seed=st.integers(0, 10**6),
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        vocab=st.integers(4, 10),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_equal_to_per_op_reference(self, seed, dims, vocab, data):
        E, H, A = dims
        cfg = ModelConfig(vocab, vocab, E, H, A, max_len=8)
        params = init_params(cfg, seed)
        rng = np.random.default_rng(seed)
        params.set_flat(params.flat() + rng.normal(size=params.size))
        src = data.draw(st.lists(st.integers(1, vocab - 1), min_size=1, max_size=6))
        body = data.draw(st.lists(st.integers(2, vocab - 1), max_size=5))
        tgt = body + [EOS]
        fused = [forward_values(params, src, tgt, record) for record in (True, False)]
        fused_grads = gradient_bytes(params, src, tgt, seed)
        with per_op_model():
            per_op = [forward_values(params, src, tgt, record) for record in (True, False)]
            per_op_grads = gradient_bytes(params, src, tgt, seed, reference_mrt_grad)
        assert fused == per_op
        assert fused_grads == per_op_grads

    @pytest.mark.parametrize("n", range(1, 7))
    def test_node_counts(self, tiny, n):
        # One node each for the GRU steps, attention and readout: un-fusing
        # any of them multiplies these counts (178 and 37 for n=4 per-op).
        _, params = tiny
        bound = BoundModel(params, Tape())
        nodes = bound.tape.nodes
        before = len(nodes)
        ann = bound.encode([4, 5, 6, 4, 5, 6][:n])
        assert len(nodes) - before <= 3 * n + 6
        state = bound.initial_state(ann)
        before = len(nodes)
        bound.step_logits(BOS, state, ann)
        assert len(nodes) - before <= 5


class TestRowBatchedSteps:
    @given(
        seed=st.integers(0, 10**6),
        rows=st.integers(1, 12),
        positions=st.integers(1, 12),
        dims=st.tuples(
            st.integers(1, 40), st.integers(1, 80), st.integers(1, 40), st.integers(4, 40)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_products_equal_one_d_products(self, seed, rows, positions, dims):
        """Each product form of a decoder step and of its VJP, at a model's
        shapes and stacked over rows, equals the 1-D form row by row, byte
        for byte. This rests on numpy's matmul making one gemv call per
        stacked item whose row dimension is 1, the same call a 1-D
        ``x @ W`` or ``e @ v`` makes; a 2-D ``X @ W`` is one gemm and sums
        in another order. A numpy or BLAS that dispatches otherwise fails
        here first."""
        E, H, A, V = dims
        rng = np.random.default_rng(seed)

        def per_row(f, *stacked):
            return np.stack([f(*row) for row in zip(*stacked)]).tobytes()

        # GRU x and h products (decoder and encoder), attention z @ W and
        # weights @ matrix, readout, and the initial state
        for n, m in ((E + 2 * H, H), (H, H), (E, H), (H, A), (positions, 2 * H),
                     (E + 3 * H, H), (H, V)):
            X, W = rng.normal(size=(rows, n)), rng.normal(size=(n, m))
            G = rng.normal(size=(rows, m))
            assert _vm(X[0])(X[0], W).tobytes() == (X[0] @ W).tobytes()
            assert _vm(X)(X, W).tobytes() == per_row(lambda x: x @ W, X)
            # the VJPs' g @ W.T and outer products x (x) g
            assert _vm(G[0])(G[0], W.T).tobytes() == (G[0] @ W.T).tobytes()
            assert _vm(G)(G, W.T).tobytes() == per_row(lambda g: g @ W.T, G)
            assert _outer(X[0], G[0]).tobytes() == (X[0][:, None] * G[0]).tobytes()
            assert _outer(X, G).tobytes() == per_row(lambda x, g: x[:, None] * g, X, G)
        # attention with one annotation matrix per row: the forward's e @ v
        # and weights @ matrix, the VJP's g @ matrix.T, e.T @ ds (as ds @ e)
        # and de.sum(axis=0)
        e, v = rng.normal(size=(rows, positions, A)), rng.normal(size=A)
        matrix = rng.normal(size=(rows, positions, 2 * H))
        weights, ds = rng.normal(size=(2, rows, positions))
        g = rng.normal(size=(rows, 2 * H))
        assert (e @ v).tobytes() == per_row(lambda m: m @ v, e)
        assert _vm(weights)(weights, matrix).tobytes() == per_row(
            lambda w, m: w @ m, weights, matrix)
        assert _vm(g)(g, matrix.swapaxes(-1, -2)).tobytes() == per_row(
            lambda g, m: g @ m.T, g, matrix)
        assert _vm(ds[0])(ds[0], e[0]).tobytes() == (e[0].T @ ds[0]).tobytes()
        assert _vm(ds)(ds, e).tobytes() == per_row(lambda d, m: m.T @ d, ds, e)
        assert e.sum(axis=-2).tobytes() == per_row(lambda m: m.sum(axis=0), e)
        assert e[0].sum(axis=-2).tobytes() == e[0].sum(axis=0).tobytes()
        # the encoder's matrix @ attn_U and its VJP's matrix.T @ g
        U, gp = rng.normal(size=(2 * H, A)), rng.normal(size=(rows, positions, A))
        assert (matrix @ U).tobytes() == per_row(lambda m: m @ U, matrix)
        assert (matrix.swapaxes(-1, -2) @ gp).tobytes() == per_row(
            lambda m, g: m.T @ g, matrix, gp)
        # per-row sums of stacked (T, B) picks, T = positions
        picks = Node(rng.normal(size=(positions, rows)))
        summed = Tape(record=False).sum(picks, axis=0).value
        assert summed.tobytes() == per_row(lambda p: p.sum(), picks.value.T)

    def test_stacked_products_equal_with_two_blas_threads(self, tmp_path):
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests_dir.parent / "src"), str(tests_dir),
                        os.environ.get("PYTHONPATH")) if p
        )
        script = ("from test_model import TestRowBatchedSteps as T\n"
                  "T().test_stacked_products_equal_one_d_products()\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    @given(
        seed=st.integers(0, 10**6),
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        vocab=st.integers(4, 10),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_rows_equal_fresh_next_logdist(self, seed, dims, vocab, data):
        """A row-batched ``step_logits`` from states that single-row memo
        steps left, with the initial state and duplicate rows mixed in:
        each row's log-distribution and new state are byte-equal to those
        of a fresh memo's ``next_logdist`` of the same prefix."""
        E, H, A = dims
        params = init_params(ModelConfig(vocab, vocab, E, H, A), seed)
        rng = np.random.default_rng(seed)
        params.set_flat(params.flat() + rng.normal(size=params.size))
        src = data.draw(st.lists(st.integers(1, vocab - 1), min_size=1, max_size=6))
        memo, fresh = PrefixMemo(params, src), PrefixMemo(params, src)
        stepped = [()]
        memo.next_logdist(())
        walk = st.tuples(st.integers(0, 10), st.integers(0, vocab - 1))
        for parent, tok in data.draw(st.lists(walk, max_size=8)):
            stepped.append(stepped[parent % len(stepped)] + (tok,))
            memo.next_logdist(stepped[-1])
        children = data.draw(st.lists(
            st.tuples(st.sampled_from(stepped), st.integers(0, vocab - 1)),
            min_size=1, max_size=10,
        ))
        asked = [prefix + (tok,) for prefix, tok in children]
        asked += [(), asked[0]]  # the initial state and a duplicate row
        bound, ann = memo.bound, memo.ann
        z = Node(np.stack([
            memo._steps[p[:-1]][1].value if p else bound.initial_state(ann).value
            for p in asked
        ]))
        prev = np.array([p[-1] if p else BOS for p in asked])
        logits, z = bound.step_logits(prev, z, ann)
        assert logits.value.shape == (len(asked), vocab)
        assert z.value.shape == (len(asked), H)
        for p, logdist, row in zip(asked, log_softmax(logits.value), z.value):
            for n in range(len(p)):  # a fresh memo visits prefixes shortest first
                fresh.next_logdist(p[:n])
            assert logdist.tobytes() == fresh.next_logdist(p).tobytes()
            assert row.tobytes() == fresh._steps[p][1].value.tobytes()

    @given(
        seed=st.integers(0, 10**6),
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        vocab=st.integers(4, 10),
        shape=st.tuples(st.integers(2, 5), st.integers(1, 6), st.integers(1, 12)),
    )
    @settings(max_examples=40, deadline=None)
    def test_recording_rows_equal_single_row_tapes(self, seed, dims, vocab, shape):
        """A recording row-batched encode, initial state and step_logits
        walk, seeded with one loss per row, gives each row the loss and
        ``Tape.gradient`` bits of the same walk on its own 1-D tape."""
        E, H, A = dims
        rows, S, T = shape
        params = init_params(ModelConfig(vocab, vocab, E, H, A), seed)
        rng = np.random.default_rng(seed)
        params.set_flat(params.flat() + rng.normal(size=params.size))
        src = rng.integers(1, vocab, size=(rows, S))
        prev, tok = rng.integers(0, vocab, size=(2, rows, T))

        def walk(src, prev, tok):  # token ids by position
            bound = BoundModel(params, Tape())
            t, ann = bound.tape, bound.encode(src)
            z, picks = bound.initial_state(ann), []
            for p, k in zip(prev, tok):
                logits, z = bound.step_logits(p, z, ann)
                picks.append(t.pick(t.log_softmax(logits), k))
            loss = t.sum(t.stack_rows(picks), axis=0)
            return loss.value, t.gradient(loss, params, bound.pn)

        loss, grad = walk(src.T, prev.T, tok.T)
        assert loss.shape == (rows,) and grad.shape == (rows, params.size)
        for b in range(rows):
            one_loss, one_grad = walk(src[b], prev[b], tok[b])
            assert loss[b].tobytes() == one_loss.tobytes()
            assert grad[b].tobytes() == one_grad.tobytes()

    @pytest.mark.parametrize("token", [7, -1])
    def test_out_of_range_token_rejected(self, tiny, token):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4, 5])
        with pytest.raises(ModelError, match=f"token id {token} out of range"):
            bound.step_logits(token, bound.initial_state(ann), ann)

    def test_out_of_range_row_token_rejected(self, tiny):
        _, params = tiny
        bound = BoundModel(params, Tape(record=False))
        ann = bound.encode([4, 5])
        z = bound.initial_state(ann).value
        with pytest.raises(ModelError, match="token id 7 out of range"):
            bound.step_logits(np.array([BOS, 7]), Node(np.stack([z, z])), ann)


def vocabs_of(cfg):
    """Token lists of the config's vocab sizes."""
    return ["s"] * cfg.src_vocab_size, ["t"] * cfg.tgt_vocab_size


class TestCheckpoint:
    def test_save_load_roundtrip(self, tiny, tmp_path):
        cfg, params = tiny
        path = str(tmp_path / "model.ckpt")
        save_model(params, cfg, path)
        loaded_params, loaded_cfg = load_model(path, vocabs_of(cfg))
        assert loaded_cfg == cfg
        np.testing.assert_array_equal(loaded_params.flat(), params.flat())

    def test_loaded_model_scores_identically(self, tiny, tmp_path):
        cfg, params = tiny
        path = str(tmp_path / "model.ckpt")
        save_model(params, cfg, path)
        loaded, _ = load_model(path, vocabs_of(cfg))
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
            load_model(path, vocabs_of(cfg))
