import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_params, toy_config
from riskseq.data import Corpus, SentencePair
from riskseq.metrics import LossKind
from riskseq.model import EOS, init_params
from riskseq.mrt import mle_loss_and_grad
from riskseq.trainer import (
    CurvePoint,
    TrainConfig,
    TrainError,
    curve_to_csv,
    evaluate_checkpoint,
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
        assert TrainConfig(criterion="mrt", allow_random_init=True).lr == 0.05
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
            ("alpha", 0.0),
            ("alpha", -1e-3),
            ("max_updates", -1),
            ("eval_every", -1),
            ("learning_rate", -0.1),
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


class TestTrainMrt:
    def test_requires_initial_checkpoint(self):
        cfg = toy_config()
        tc = TrainConfig(criterion="mrt", max_updates=1)
        with pytest.raises(TrainError):
            train(tc, cfg, tiny_corpus(), None)

    def test_allow_random_init_overrides(self):
        cfg = toy_config()
        tc = TrainConfig(criterion="mrt", batch_size=2, max_updates=2,
                         eval_every=0, k=5, allow_random_init=True)
        res = train(tc, cfg, tiny_corpus(n=4), None)
        assert res.final_params.size > 0

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

    def test_deterministic_with_single_worker(self):
        cfg = toy_config()
        corpus = tiny_corpus(n=6)
        start = noisy_params(cfg, seed=2)
        tc = TrainConfig(criterion="mrt", batch_size=3, max_updates=4,
                         eval_every=0, k=5, seed=7, workers=1)
        a = train(tc, cfg, corpus, None, start).final_params.flat()
        b = train(tc, cfg, corpus, None, start).final_params.flat()
        assert a.tobytes() == b.tobytes()

    def test_threaded_reduction_matches_serial(self):
        cfg = toy_config()
        corpus = tiny_corpus(n=6)
        start = noisy_params(cfg, seed=2)
        kw = dict(criterion="mrt", batch_size=3, max_updates=3,
                  eval_every=0, k=5, seed=7)
        serial = train(TrainConfig(workers=1, **kw), cfg, corpus, None, start)
        threaded = train(TrainConfig(workers=3, **kw), cfg, corpus, None, start)
        assert (serial.final_params.flat().tobytes()
                == threaded.final_params.flat().tobytes())


# Trains the acceptance recipe's MLE config for 60 updates, then 3 MRT
# updates at k=20, and writes the final parameter bytes to stdout.
_RECIPE_SCRIPT = """
import sys
from riskseq.data import gen_synthetic
from riskseq.model import ModelConfig
from riskseq.trainer import TrainConfig, train
from test_acceptance import (LEXICON_DATA_SEED, LEXICON_LEN_RANGE,
    LEXICON_PAIRS, LEXICON_VOCAB, MLE_RECIPE, MRT_RECIPE, RECIPE_MODEL)

train_c, _, _ = gen_synthetic("lexicon", LEXICON_VOCAB, LEXICON_PAIRS,
                              LEXICON_LEN_RANGE, seed=LEXICON_DATA_SEED)
model_cfg = ModelConfig(**RECIPE_MODEL)
mle = train(TrainConfig(**dict(MLE_RECIPE, max_updates=60, eval_every=0)),
            model_cfg, train_c, None)
mrt = train(TrainConfig(**dict(MRT_RECIPE, max_updates=3, eval_every=0)),
            model_cfg, train_c, None, mle.final_params)
sys.stdout.buffer.write(mrt.final_params.flat().tobytes())
"""


class TestBlasThreadInvariance:
    def test_recipe_params_identical_with_one_and_two_blas_threads(self):
        # On a 1-CPU machine OpenBLAS caps itself at one thread, so both
        # runs are single-threaded and this passes without discriminating.
        tests_dir = Path(__file__).resolve().parent
        src_dir = tests_dir.parent / "src"
        procs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(src_dir), str(tests_dir),
                            os.environ.get("PYTHONPATH")) if p
            )
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _RECIPE_SCRIPT], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ))
        try:
            outputs = [proc.communicate(timeout=300) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()  # no-op for a process that has exited
        for proc, (_, err) in zip(procs, outputs):
            assert proc.returncode == 0, err.decode()
        (one, _), (two, _) = outputs
        assert len(one) > 0
        assert one == two


class TestEvaluateCheckpoint:
    def test_perfect_stub_decoder_scores_perfectly(self):
        cfg = toy_config()
        params = init_params(cfg, seed=0)
        corpus = tiny_corpus()
        answers = {tuple(p.src): tuple(p.tgt[:-1]) for p in corpus.pairs}
        scores = evaluate_checkpoint(
            params, corpus, beam=1, max_len=cfg.max_len,
            decode_fn=lambda src: answers[tuple(src)],
        )
        assert scores["BLEU"] == pytest.approx(100.0)
        assert scores["TER"] == 0.0
        assert scores["NIST"] > 0.0

    def test_vocab_mismatch_rejected(self):
        cfg = toy_config()  # tgt vocab 6
        params = init_params(cfg, seed=0)
        big = Corpus(
            name="big",
            pairs=[SentencePair(src=[4, 17], tgt=[4, EOS])],
            references=[[(4,)]],
        )
        with pytest.raises(TrainError):
            evaluate_checkpoint(params, big, beam=1, max_len=6)


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
