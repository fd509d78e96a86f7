import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_params, toy_config
from riskseq import mrt, trainer
from riskseq.data import Corpus, SentencePair
from riskseq.metrics import LossKind
from riskseq.model import EOS, BoundModel, ModelError, init_params
from riskseq.mrt import mle_loss_and_grad
from riskseq.trainer import (
    CurvePoint,
    TrainConfig,
    TrainError,
    curve_to_csv,
    train,
)
from riskseq.trainer import _clip


def tiny_corpus(n=12, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    refs = []
    for _ in range(n):
        # at least four words so corpus BLEU has 4-gram mass
        length = int(rng.integers(4, 6))
        src = [int(rng.integers(4, 6)) for _ in range(length)]
        tgt = list(reversed(src))
        pairs.append(SentencePair(src=src, tgt=tgt + [EOS]))
        refs.append([tuple(tgt)])
    return Corpus(name="tiny", pairs=pairs, references=refs)


class TestTrainConfig:
    def test_unknown_criterion_rejected(self):
        with pytest.raises(TrainError):
            TrainConfig(criterion="map")

    def test_default_learning_rates_per_criterion(self):
        assert TrainConfig(criterion="mle").lr == 0.5
        assert TrainConfig(criterion="mrt").lr == 0.05
        assert TrainConfig(criterion="mle", learning_rate=3.0).lr == 3.0

    def test_loss_kind_parsed_from_string(self):
        cfg = TrainConfig(loss_kind="ster")
        assert cfg.loss_kind is LossKind.SMOOTHED_TER


    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0),
            ("k", 0),
            ("workers", 0),
            ("workers", 4),
            ("alpha", 0.0),
            ("alpha", -1e-3),
            ("max_updates", -1),
            ("eval_every", -1),
            ("learning_rate", -0.1),
            ("seed", -1),
            ("batch_size", "8"),
            ("k", 2.0),
            ("max_updates", True),
            ("eval_every", None),
            ("seed", "a"),
            ("learning_rate", "0.5"),
            ("grad_clip_norm", None),
            ("alpha", True),
            ("loss_kind", 5),
            ("init_checkpoint", 5),
            ("grad_clip_norm", float("nan")),
            ("grad_clip_norm", -1.0),
            ("learning_rate", float("inf")),
            ("learning_rate", float("nan")),
            ("alpha", float("inf")),
            ("alpha", float("nan")),
        ],
    )
    def test_invalid_value_rejected_up_front(self, field, value):
        with pytest.raises(TrainError, match=field):
            TrainConfig(**{field: value})

    def test_zero_updates_eval_and_rate_and_no_clipping_allowed(self):
        cfg = TrainConfig(
            max_updates=0, eval_every=0, learning_rate=0.0, grad_clip_norm=0.0
        )
        assert cfg.lr == 0.0


class TestClip:
    def test_short_gradient_untouched(self):
        g = np.array([0.3, 0.4])
        np.testing.assert_array_equal(_clip(g, 1.0), g)

    def test_long_gradient_scaled_to_max_norm(self):
        g = np.array([3.0, 4.0])
        clipped = _clip(g, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped, [0.6, 0.8])

    def test_nonpositive_max_norm_disables_clipping(self):
        g = np.array([30.0, 40.0])
        np.testing.assert_array_equal(_clip(g, 0.0), g)


class TestTrainMle:
    def test_loss_decreases(self):
        cfg = toy_config()
        corpus = tiny_corpus()
        params = init_params(cfg, seed=0)
        before, _ = mle_loss_and_grad(params, corpus.pairs)
        tc = TrainConfig(criterion="mle", batch_size=4, max_updates=30,
                         eval_every=0, learning_rate=1.0)
        res = train(tc, cfg, corpus, None, params)
        after, _ = mle_loss_and_grad(res.final_params, corpus.pairs)
        assert after < before

    def test_deterministic_final_params(self):
        cfg = toy_config()
        corpus = tiny_corpus()
        tc = TrainConfig(criterion="mle", batch_size=4, max_updates=10,
                         eval_every=0, seed=3)
        a = train(tc, cfg, corpus, None).final_params.flat()
        b = train(tc, cfg, corpus, None).final_params.flat()
        assert a.tobytes() == b.tobytes()

    def test_curve_recorded_at_eval_interval(self):
        cfg = toy_config()
        corpus = tiny_corpus()
        tc = TrainConfig(criterion="mle", batch_size=4, max_updates=9,
                         eval_every=3)
        res = train(tc, cfg, corpus, corpus)
        assert [p.update for p in res.curve] == [3, 6, 9]
        assert res.best_bleu is not None
        assert res.best_bleu == max(p.valid_bleu for p in res.curve)

    def test_zero_updates_returns_initial_params_and_empty_curve(self):
        cfg = toy_config()
        start = noisy_params(cfg, seed=4)
        tc = TrainConfig(criterion="mle", max_updates=0, eval_every=5)
        res = train(tc, cfg, tiny_corpus(), None, start)
        np.testing.assert_array_equal(res.best_params.flat(), start.flat())
        assert res.curve == []

    def test_empty_corpus_rejected(self):
        cfg = toy_config()
        tc = TrainConfig(criterion="mle")
        with pytest.raises(TrainError):
            train(tc, cfg, Corpus(name="empty", pairs=[]), None)

    def test_empty_validation_corpus_rejected(self):
        """Corpus BLEU of no sentences is 0.0, so every validation would
        score 0.0 and the first evaluated parameters would be kept."""
        cfg = toy_config()
        tc = TrainConfig(criterion="mle", max_updates=2, eval_every=1)
        with pytest.raises(TrainError, match="empty validation corpus"):
            train(tc, cfg, tiny_corpus(), Corpus(name="valid", pairs=[]))


class TestTrainMrt:
    def test_requires_initial_checkpoint(self):
        cfg = toy_config()
        tc = TrainConfig(criterion="mrt", max_updates=1)
        with pytest.raises(TrainError):
            train(tc, cfg, tiny_corpus(), None)

    def test_init_checkpoint_loaded(self, tmp_path):
        cfg = toy_config()
        start = noisy_params(cfg, seed=1)
        path = str(tmp_path / "init.ckpt")
        start.save(path)
        tc = TrainConfig(criterion="mrt", batch_size=2, max_updates=1,
                         eval_every=0, k=5, init_checkpoint=path,
                         learning_rate=0.0)
        res = train(tc, cfg, tiny_corpus(n=4), None)
        # zero learning rate: params must equal the loaded checkpoint
        np.testing.assert_array_equal(res.final_params.flat(), start.flat())

    @pytest.mark.parametrize("criterion", ["mle", "mrt"])
    @pytest.mark.parametrize("given", ["initial", "init_checkpoint"])
    def test_start_that_does_not_fit_is_model_error(self, tmp_path, monkeypatch,
                                                    criterion, given):
        def no_update(*args, **kwargs):
            raise AssertionError("updated from a start that does not fit")

        monkeypatch.setattr(mrt, "mle_loss_and_grad", no_update)
        monkeypatch.setattr(mrt, "mrt_loss_and_grad", no_update)
        start = noisy_params(toy_config(hidden_dim=5), seed=1)
        path = str(tmp_path / "init.ckpt")
        start.save(path)
        tc = TrainConfig(criterion=criterion, batch_size=2, max_updates=1,
                         eval_every=0, k=5,
                         init_checkpoint=path if given == "init_checkpoint" else None)
        with pytest.raises(ModelError, match="does not fit the model config"):
            train(tc, toy_config(hidden_dim=4), tiny_corpus(n=4), None,
                  start if given == "initial" else None)

    def test_deterministic_with_single_worker(self):
        cfg = toy_config()
        corpus = tiny_corpus(n=6)
        start = noisy_params(cfg, seed=2)
        tc = TrainConfig(criterion="mrt", batch_size=3, max_updates=4,
                         eval_every=0, k=5, seed=7, workers=1)
        a = train(tc, cfg, corpus, None, start).final_params.flat()
        b = train(tc, cfg, corpus, None, start).final_params.flat()
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("loss_kind", ["neg_sbleu", "ster", "neg_snist"])
    def test_losses_compare_with_the_target_not_the_references(self, loss_kind):
        # References serve validation only: an update is the same whatever
        # references the training corpus carries.
        cfg = toy_config()
        corpus = tiny_corpus(n=6)
        other = Corpus(name="other", pairs=corpus.pairs,
                       references=[[(5, 5, 4, 4, 5)] for _ in corpus.pairs])
        start = noisy_params(cfg, seed=3)
        tc = TrainConfig(criterion="mrt", batch_size=3, max_updates=2,
                         eval_every=0, k=8, seed=1, loss_kind=loss_kind)
        a = train(tc, cfg, corpus, None, start).final_params.flat()
        b = train(tc, cfg, other, None, start).final_params.flat()
        assert a.tobytes() == b.tobytes()

    def test_one_encode_and_one_step_per_distinct_prefix(self, monkeypatch):
        # Sampling, rescoring and the gradient of one sentence share one
        # recorded decoder walk.
        cfg = toy_config()
        params = noisy_params(cfg, seed=4)
        calls = {"encode": 0, "step": 0}
        spaces = []
        encode, step = BoundModel.encode, BoundModel.step_logits
        sample_space = mrt.sample_space

        def counting_encode(self, src):
            calls["encode"] += 1
            return encode(self, src)

        def counting_step(self, prev, state, ann):
            calls["step"] += 1
            return step(self, prev, state, ann)

        def kept_space(*args, **kwargs):
            spaces.append(sample_space(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(BoundModel, "encode", counting_encode)
        monkeypatch.setattr(BoundModel, "step_logits", counting_step)
        monkeypatch.setattr(mrt, "sample_space", kept_space)
        pair = SentencePair(src=[4, 5, 4], tgt=[5, 4, 5, EOS])
        rng = np.random.default_rng([0, 1, 0])
        _, grad = mrt.mrt_loss_and_grad(
            params, [pair], LossKind.NEG_SMOOTHED_BLEU, 0.5, 30, cfg.max_len, [rng]
        )
        (space,) = spaces
        prefixes = {c[:n] for c in space.candidates for n in range(len(c))}
        assert len(space) > 2 and grad.any()
        assert calls == {"encode": 1, "step": len(prefixes)}


class TestGradientLifetime:
    @pytest.mark.parametrize("criterion", ["mle", "mrt"])
    def test_stepped_gradient_released_before_the_next_batch(self, monkeypatch,
                                                              criterion):
        # An update's clipped gradient is dropped once the parameters are
        # stepped, so it is not held while the next batch's gradient is
        # computed.
        name = f"{criterion}_loss_and_grad"
        clip, objective = trainer._clip, getattr(mrt, name)
        clipped, live = [], []

        def kept_clip(grad, max_norm):
            out = clip(grad, max_norm)
            clipped.append(weakref.ref(out))
            return out

        def counting_objective(*args, **kwargs):
            live.append(sum(ref() is not None for ref in clipped))
            return objective(*args, **kwargs)

        monkeypatch.setattr(trainer, "_clip", kept_clip)
        monkeypatch.setattr(mrt, name, counting_objective)
        cfg = toy_config()
        tc = TrainConfig(criterion=criterion, batch_size=3, max_updates=4,
                         eval_every=0, k=5)
        train(tc, cfg, tiny_corpus(n=6), None, noisy_params(cfg, seed=5))
        assert live == [0, 0, 0, 0]


# Trains the acceptance recipe's MLE config for 60 updates, then 3 MRT
# updates at k=20, and writes the final parameter bytes to stdout. With the
# argument "per-op" the model steps through the per-op reference of
# tests/test_model.py instead of its fused nodes, MLE walks each sentence
# alone instead of in row batches, which the 1-D primitives cannot step,
# and the risk gradient walks each candidate afresh instead of batching
# the memo's saved forward arrays, which per-op nodes do not keep (both
# references from conftest).
_RECIPE_SCRIPT = """
import sys
from riskseq.data import gen_synthetic
from riskseq.model import ModelConfig
from riskseq.trainer import TrainConfig, train
from test_acceptance import (LEXICON_DATA_SEED, LEXICON_LEN_RANGE,
    LEXICON_PAIRS, LEXICON_VOCAB, MLE_RECIPE, MRT_RECIPE, RECIPE_MODEL)

if sys.argv[1:] == ["per-op"]:
    from unittest import mock
    from conftest import reference_mle_loss_and_grad, reference_mrt_grad
    from test_model import per_op_model
    per_op_model().start()
    mock.patch("riskseq.mrt.mle_loss_and_grad", reference_mle_loss_and_grad).start()
    mock.patch("riskseq.mrt.mrt_grad",
               lambda *args, memo: reference_mrt_grad(*args)).start()
train_c, _, _ = gen_synthetic("lexicon", LEXICON_VOCAB, LEXICON_PAIRS,
                              LEXICON_LEN_RANGE, seed=LEXICON_DATA_SEED)
model_cfg = ModelConfig(**RECIPE_MODEL)
mle = train(TrainConfig(**dict(MLE_RECIPE, max_updates=60, eval_every=0)),
            model_cfg, train_c, None)
mrt = train(TrainConfig(**dict(MRT_RECIPE, max_updates=3, eval_every=0)),
            model_cfg, train_c, None, mle.final_params)
sys.stdout.buffer.write(mrt.final_params.flat().tobytes())
"""


def run_recipe_script(runs):
    """Run _RECIPE_SCRIPT concurrently once per (BLAS threads or None,
    script arguments) and return each run's stdout."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    procs = []
    for threads, argv in runs:
        env = dict(os.environ)
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), str(tests_dir),
                        os.environ.get("PYTHONPATH")) if p
        )
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _RECIPE_SCRIPT, *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    try:
        outputs = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # no-op for a process that has exited
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err.decode()
    return [out for out, _ in outputs]


class TestBlasThreadInvariance:
    def test_recipe_params_identical_with_one_and_two_blas_threads(self):
        # On a 1-CPU machine OpenBLAS caps itself at one thread, so both
        # runs are single-threaded and this passes without discriminating.
        one, two = run_recipe_script([("1", ()), ("2", ())])
        assert len(one) > 0
        assert one == two


class TestFusedNodesInTraining:
    def test_recipe_params_identical_to_per_op_reference(self):
        fused, per_op = run_recipe_script([(None, ()), (None, ("per-op",))])
        assert len(fused) > 0
        assert fused == per_op


class TestCurveCsv:
    def test_header_and_rows(self):
        curve = [
            CurvePoint(update=5, seconds=1.5, valid_bleu=12.3456, train_objective=0.5),
            CurvePoint(update=10, seconds=3.0, valid_bleu=20.0, train_objective=0.25),
        ]
        text = curve_to_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "update,seconds,valid_bleu,train_objective"
        assert lines[1].startswith("5,1.500,12.3456,")
        assert len(lines) == 3
