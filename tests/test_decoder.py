import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noisy_params, toy_config
from riskseq.decoder import GROUP, beam_decode, decode_corpus, greedy_decode
from riskseq.diffcore import Tape
from riskseq.model import (
    BOS, EOS, PAD, BoundModel, ModelError, PrefixMemo, sequence_logprob,
)


def models(n, tgt_vocab=8):
    cfg = toy_config(tgt_vocab=tgt_vocab, src_vocab_size=8, max_len=6)
    return cfg, [noisy_params(cfg, seed=s, scale=0.8) for s in range(n)]


def search_params(cfg, seed, tied):
    """Random parameters; ``tied`` ones make the logits a constant with two
    or three distinct values, so many expansions tie exactly and the
    token tie-break decides."""
    params = noisy_params(cfg, seed=seed, scale=1.5)
    if tied:
        params["out_W"][...] = 0.0
        levels = np.random.default_rng([seed, 3]).integers(0, 3, cfg.tgt_vocab_size)
        params["out_b"][...] = 0.5 * levels
    return params


# Unbatched references: every live hypothesis carries its own decoder state
# and steps it alone, one ``step_logits`` call per hypothesis, where
# the search steps the live rows of a group of sources in one call and
# selects from each sentence's flattened scores.


def _reference_logdist(tape, bound, prev, state, ann):
    logits, new_state = bound.step_logits(prev, state, ann)
    logdist = tape.log_softmax(logits).value.copy()
    logdist[PAD] = -np.inf
    logdist[BOS] = -np.inf
    return logdist, new_state


def reference_greedy(params, src, max_len):
    tape = Tape(record=False)
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    state, prev, tokens = bound.initial_state(ann), BOS, []
    for _ in range(max_len):
        logdist, state = _reference_logdist(tape, bound, prev, state, ann)
        tok = int(np.argmax(logdist))
        tokens.append(tok)
        if tok == EOS:
            break
        prev = tok
    return tuple(tokens)


def reference_beam(params, src, width, max_len, length_normalize=True):
    tape = Tape(record=False)
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    live = [((), 0.0, BOS, bound.initial_state(ann))]
    completed = []

    def norm_score(tokens, lp):
        return lp / len(tokens) if length_normalize else lp

    def bound_score(tokens, lp):
        if not length_normalize:
            return lp
        return lp / max_len if lp < 0 else lp / (len(tokens) + 1)

    for _ in range(max_len):
        if not live:
            break
        expansions = []
        for tokens, lp, prev, state in live:
            logdist, new_state = _reference_logdist(tape, bound, prev, state, ann)
            for tok in range(len(logdist)):
                if logdist[tok] != -np.inf:
                    expansions.append(
                        (tokens + (tok,), lp + float(logdist[tok]), tok, new_state)
                    )
        expansions.sort(key=lambda h: (-h[1], h[0]))
        live = []
        for tokens, lp, tok, state in expansions[:width]:
            if tok == EOS:
                completed.append((tokens, lp))
            else:
                live.append((tokens, lp, tok, state))
        if completed and live:
            best_done = max(norm_score(t, lp) for t, lp in completed)
            if all(bound_score(t, lp) < best_done for t, lp, _, _ in live):
                break
    pool = completed if completed else [(t, lp) for t, lp, _, _ in live]
    return min(pool, key=lambda h: (-norm_score(h[0], h[1]), h[0]))[0]


class TestMatchesTapeStepping:
    @given(
        seed=st.integers(0, 10**6),
        tgt_vocab=st.integers(5, 10),
        src=st.lists(st.integers(4, 7), min_size=1, max_size=5),
        width=st.integers(1, 40),
        max_len=st.integers(1, 7),
        length_normalize=st.booleans(),
        tied=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_outputs_equal_reference(
        self, seed, tgt_vocab, src, width, max_len, length_normalize, tied
    ):
        cfg = toy_config(tgt_vocab=tgt_vocab, src_vocab_size=8, max_len=max_len)
        params = search_params(cfg, seed, tied)
        assert greedy_decode(params, src, max_len) == reference_greedy(
            params, src, max_len
        )
        assert beam_decode(
            params, src, width, max_len, length_normalize
        ) == reference_beam(params, src, width, max_len, length_normalize)

    def test_one_encode_and_one_row_batched_step_per_iteration(self, monkeypatch):
        """One encode; then each beam iteration makes one step call whose
        token vector and state z hold one row per live hypothesis, never
        more than the width, each z row one the previous call returned.
        No PrefixMemo is built."""
        _, params_list = models(1)
        encodes, steps = [], []
        encode, step = BoundModel.encode, BoundModel.step_logits

        def counting_encode(self, src):
            encodes.append(src)
            return encode(self, src)

        def counting_step(self, prev, z, ann):
            logits, z_new = step(self, prev, z, ann)
            steps.append((prev, z.value, z_new.value))
            return logits, z_new

        def no_memo(*args, **kwargs):
            raise AssertionError("beam_decode built a PrefixMemo")

        monkeypatch.setattr(BoundModel, "encode", counting_encode)
        monkeypatch.setattr(BoundModel, "step_logits", counting_step)
        monkeypatch.setattr(PrefixMemo, "__init__", no_memo)
        width, max_len = 4, 6
        beam_decode(params_list[0], [4, 5, 6], width, max_len)
        hidden = params_list[0]["dec_init_b"].shape
        assert len(encodes) == 1
        assert 2 < len(steps) <= max_len
        assert steps[0][0].tolist() == [BOS]
        assert max(len(prev) for prev, _, _ in steps) == width
        for prev, z, z_new in steps:
            assert 1 <= len(prev) <= width
            assert z.shape == z_new.shape == (len(prev),) + hidden
        for (_, _, returned), (prev, z, _) in zip(steps, steps[1:]):
            assert not set(prev.tolist()) & {PAD, BOS, EOS}
            returned = {row.tobytes() for row in returned}
            assert all(row.tobytes() in returned for row in z)


class TestGreedy:
    def test_output_well_formed(self):
        cfg, params_list = models(10)
        for params in params_list:
            out = greedy_decode(params, [4, 5, 6], cfg.max_len)
            assert 1 <= len(out) <= cfg.max_len
            assert PAD not in out and BOS not in out
            assert EOS not in out[:-1]
            if len(out) < cfg.max_len:
                assert out[-1] == EOS

    def test_deterministic(self):
        _, params_list = models(1)
        a = greedy_decode(params_list[0], [4, 5], 6)
        b = greedy_decode(params_list[0], [4, 5], 6)
        assert a == b


class TestBeam:
    def test_width_one_equals_greedy(self):
        cfg, params_list = models(10)
        for params in params_list:
            src = [5, 6, 7]
            assert beam_decode(params, src, 1, cfg.max_len) == reference_greedy(
                params, src, cfg.max_len
            )

    def test_width_one_equals_greedy_on_criterion_ten_models(self):
        """Criterion 10's models: greedy_decode is beam_decode of width 1,
        so compare it with the tape-stepping argmax instead."""
        cfg = toy_config(tgt_vocab=8, src_vocab_size=8, max_len=8)
        for seed in range(100):
            params = noisy_params(cfg, seed=seed, scale=0.8)
            params["out_b"][EOS] += 5.0
            src = [4 + (seed % 4), 5, 7 - (seed % 3)]
            assert beam_decode(params, src, 1, cfg.max_len) == reference_greedy(
                params, src, cfg.max_len
            )

    @given(
        seed=st.integers(0, 10**6),
        tgt_vocab=st.integers(5, 10),
        src=st.lists(st.integers(4, 7), min_size=1, max_size=5),
        max_len=st.integers(1, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_width_one_equals_greedy_on_random_models(
        self, seed, tgt_vocab, src, max_len
    ):
        cfg = toy_config(tgt_vocab=tgt_vocab, src_vocab_size=8, max_len=max_len)
        params = noisy_params(cfg, seed=seed, scale=1.5)
        assert beam_decode(params, src, 1, max_len) == reference_greedy(
            params, src, max_len
        )

    def test_raw_beam_score_at_least_greedy(self):
        cfg, params_list = models(10)
        for params in params_list:
            src = [4, 6]
            greedy = greedy_decode(params, src, cfg.max_len)
            beam = beam_decode(
                params, src, 10, cfg.max_len, length_normalize=False
            )
            if greedy[-1] != EOS or beam[-1] != EOS:
                continue  # only EOS-terminated outputs are scoreable
            g, _ = sequence_logprob(params, src, greedy)
            b, _ = sequence_logprob(params, src, beam)
            assert b >= g - 1e-12

    def test_wider_beam_never_lowers_raw_score(self):
        cfg, params_list = models(6)
        for params in params_list:
            src = [7, 4]
            scores = []
            for width in (1, 3, 10):
                out = beam_decode(
                    params, src, width, cfg.max_len, length_normalize=False
                )
                if out[-1] != EOS:
                    break
                scores.append(sequence_logprob(params, src, out)[0])
            for lo, hi in zip(scores, scores[1:]):
                assert hi >= lo - 1e-12

    def test_no_reserved_tokens_in_output(self):
        cfg, params_list = models(5)
        for params in params_list:
            out = beam_decode(params, [4, 5, 6, 7], 10, cfg.max_len)
            assert PAD not in out and BOS not in out

    def test_invalid_width_rejected(self):
        _, params_list = models(1)
        with pytest.raises(ModelError):
            beam_decode(params_list[0], [4], 0, 6)
        with pytest.raises(ModelError, match="beam width"):
            decode_corpus(params_list[0], [], 0, 5)

    def test_length_limit_below_one_rejected(self):
        _, params_list = models(1)
        with pytest.raises(ModelError, match="length limit"):
            beam_decode(params_list[0], [4], 2, 0)
        with pytest.raises(ModelError, match="length limit"):
            greedy_decode(params_list[0], [4], 0)
        with pytest.raises(ModelError, match="length limit"):
            decode_corpus(params_list[0], [], 2, 0)

    def test_deterministic(self):
        _, params_list = models(1)
        a = beam_decode(params_list[0], [4, 5, 6], 10, 6)
        b = beam_decode(params_list[0], [4, 5, 6], 10, 6)
        assert a == b


class TestDecodeCorpus:
    def test_matches_per_sentence_calls(self):
        cfg, params_list = models(1)
        params = params_list[0]
        sources = [[4, 5], [6], [7, 7, 4]]
        got = decode_corpus(params, sources, 10, cfg.max_len)
        assert got == [
            beam_decode(params, s, 10, cfg.max_len) for s in sources
        ]

    def test_width_one_uses_greedy(self):
        cfg, params_list = models(1)
        params = params_list[0]
        sources = [[4, 5], [6, 7]]
        assert decode_corpus(params, sources, 1, cfg.max_len) == [
            reference_greedy(params, s, cfg.max_len) for s in sources
        ]

    @given(
        seed=st.integers(0, 10**6),
        sources=st.lists(
            st.lists(st.integers(4, 5), min_size=1, max_size=3), min_size=1, max_size=30
        ),
        copies=st.integers(0, GROUP + 4),
        width=st.integers(1, 12),
        max_len=st.integers(1, 6),
        length_normalize=st.booleans(),
        tied=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_grouped_outputs_equal_reference(
        self, seed, sources, copies, width, max_len, length_normalize, tied
    ):
        """Two source tokens make repeats common; ``copies`` more of the
        first source can put more than GROUP sources in one length."""
        cfg = toy_config(tgt_vocab=7, src_vocab_size=8, max_len=max_len)
        params = search_params(cfg, seed, tied)
        sources = sources + [sources[0]] * copies
        want = {
            tuple(src): reference_beam(params, src, width, max_len, length_normalize)
            for src in sources
        }
        got = decode_corpus(params, sources, width, max_len, length_normalize)
        assert got == [want[tuple(src)] for src in sources]

    def test_one_encode_per_group_and_one_step_per_iteration(self, monkeypatch):
        """Sources of one length share an encode, at most GROUP of them.
        Each iteration steps every live row of the group in one call: as
        many rows as the group's sentences have live hypotheses, at that
        iteration, when each is decoded alone."""
        _, (params,) = models(1)
        long = [[4 + i % 4, 5 + i % 3, 6] for i in range(GROUP + 3)]
        sources = long[:5] + [[7, 4]] + long[5:] + [[5, 5]]
        calls = []
        encode, step = BoundModel.encode, BoundModel.step_logits

        def spy_encode(self, src):
            calls.append(("encode", np.shape(src)))
            return encode(self, src)

        def spy_step(self, prev, z, ann):
            calls.append(("step", len(prev), ann.matrix.value.shape[:2]))
            return step(self, prev, z, ann)

        monkeypatch.setattr(BoundModel, "encode", spy_encode)
        monkeypatch.setattr(BoundModel, "step_logits", spy_step)
        width, max_len = 3, 6

        def rows_alone(src):
            calls.clear()
            beam_decode(params, src, width, max_len)
            return [call[1] for call in calls[1:]]

        alone = [rows_alone(src) for src in sources]
        calls.clear()
        decode_corpus(params, sources, width, max_len)
        starts = [i for i, call in enumerate(calls) if call[0] == "encode"]
        groups = [
            [i for i, src in enumerate(sources) if len(src) == 3][:GROUP],
            [i for i, src in enumerate(sources) if len(src) == 3][GROUP:],
            [5, len(sources) - 1],
        ]
        assert len(starts) == len(groups)
        for group, start, end in zip(groups, starts, starts[1:] + [len(calls)]):
            S = len(sources[group[0]])
            assert calls[start][1] == (S, len(group))
            steps = calls[start + 1 : end]
            assert len(steps) == max(len(alone[i]) for i in group)
            for depth, (_, rows, matrix) in enumerate(steps):
                want = sum(alone[i][depth] for i in group if depth < len(alone[i]))
                assert rows == want and matrix == (want, S)

    @pytest.mark.parametrize(
        "sources, message",
        [
            ([[4, 5], [99], [4, 50]], "source token id 99 out of range"),
            ([[4, 5, 6], [5, 0], []], "PAD inside source sentence"),
            ([[4], [], [4, 0]], "empty source sentence"),
        ],
    )
    def test_sources_checked_in_input_order_before_any_decode(
        self, monkeypatch, sources, message
    ):
        _, (params,) = models(1)

        def no_encode(*args):
            raise AssertionError("a source was encoded before all were checked")

        monkeypatch.setattr(BoundModel, "encode", no_encode)
        with pytest.raises(ModelError, match=message):
            decode_corpus(params, sources, 2, 6)


_GROUPED_SCRIPT = """
from collections import Counter
from conftest import noisy_params, toy_config
from riskseq.decoder import GROUP, decode_corpus

cfg = toy_config(tgt_vocab=12, src_vocab_size=12, embed_dim=16, hidden_dim=64,
                 attention_dim=32, max_len=8)
params = noisy_params(cfg, seed=3, scale=0.8)
# five lengths, GROUP + 3 sources of each: one full group and one partial
sources = [[4 + (i * 7 + j) % 8 for j in range(1 + i % 5)]
           for i in range(5 * (GROUP + 3))]
grouped = decode_corpus(params, sources, 5, 8)
alone = [decode_corpus(params, [src], 5, 8)[0] for src in sources]
most = max(Counter(map(len, sources)).values())
print(grouped == alone, most > GROUP)
"""


def test_grouped_equals_per_source_with_two_blas_threads():
    # On a 1-CPU machine OpenBLAS caps itself at one thread, so this
    # passes there without discriminating.
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests_dir.parent / "src"), str(tests_dir),
                    os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GROUPED_SCRIPT], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
