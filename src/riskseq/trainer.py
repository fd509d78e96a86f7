"""Optimization loops for maximum likelihood and minimum risk criteria.

Plain SGD with global-norm gradient clipping; validation decoding with
beam 10 every eval_every updates; the checkpoint with the best validation
corpus BLEU is retained. Each update steps with the batch mean of one
``mrt`` objective, ``mle_loss_and_grad`` or ``mrt_loss_and_grad``.
Minimum risk fine-tuning always starts from given parameters, the
``initial`` ``ParamStore``; for a random start, save the parameters of a
maximum likelihood run of 0 updates. A start on disk is read with
``model.load_model``. Every given start is checked against the model
config (``model.check_params``) before the first update, so parameters
of another shape raise ``ModelError``.

The global gradient norm is a numpy pairwise sum, not ``np.linalg.norm``.
For a long 1-D array the latter is a BLAS dot product, which multi-threaded
OpenBLAS sums in a thread-count-dependent order; a last-ulp change in the
norm changes the clip factor of every clipped update, so training would
not be bit-identical across BLAS thread settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import metrics, mrt
from .data import Corpus
from .decoder import DEFAULT_BEAM, decode_corpus
from .diffcore import ParamStore, RiskseqError
from .metrics import LossKind
from .model import ModelConfig, check_params, init_params

__all__ = [
    "TrainError",
    "TrainConfig",
    "CurvePoint",
    "TrainResult",
    "train",
    "curve_to_csv",
]

DEFAULT_MLE_LR = 0.5
DEFAULT_MRT_LR = 0.05


class TrainError(RiskseqError):
    pass


@dataclass
class TrainConfig:
    criterion: str = "mle"  # "mle" or "mrt"
    batch_size: int = 80
    learning_rate: float | None = None  # per-criterion default when None
    grad_clip_norm: float = 1.0
    max_updates: int = 1000
    eval_every: int = 100
    alpha: float = mrt.DEFAULT_ALPHA
    k: int = mrt.DEFAULT_K
    loss_kind: LossKind = LossKind.NEG_SMOOTHED_BLEU
    seed: int = 0
    workers: int = 1  # only 1 is accepted: MRT sentences run in order

    def __post_init__(self):
        if self.criterion not in ("mle", "mrt"):
            raise TrainError(f"unknown criterion: {self.criterion!r}")
        if isinstance(self.loss_kind, str):
            self.loss_kind = LossKind.parse(self.loss_kind)
        elif not isinstance(self.loss_kind, LossKind):
            raise TrainError(f"loss_kind must be a name, got {self.loss_kind!r}")
        for name in ("batch_size", "max_updates", "eval_every", "k", "seed", "workers"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TrainError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "grad_clip_norm", "alpha"):
            value = getattr(self, name)
            if name == "learning_rate" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TrainError(f"{name} must be a number, got {value!r}")
        for name in ("batch_size", "k"):
            if getattr(self, name) < 1:
                raise TrainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.workers != 1:
            raise TrainError(f"workers must be 1, got {self.workers}")
        for name in ("max_updates", "eval_every", "seed"):
            if getattr(self, name) < 0:
                raise TrainError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.alpha < np.inf:
            raise TrainError(f"alpha must be positive and finite, got {self.alpha}")
        if self.learning_rate is not None and not 0 <= self.learning_rate < np.inf:
            raise TrainError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not self.grad_clip_norm >= 0:  # 0 (and inf) mean no clipping
            raise TrainError(f"grad_clip_norm must be >= 0, got {self.grad_clip_norm}")

    @property
    def lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_MLE_LR if self.criterion == "mle" else DEFAULT_MRT_LR


@dataclass
class CurvePoint:
    update: int
    seconds: float
    valid_bleu: float
    train_objective: float


@dataclass
class TrainResult:
    best_params: ParamStore
    best_bleu: float | None
    curve: list[CurvePoint]
    final_params: ParamStore


def _clip(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.sqrt(np.sum(grad * grad)))
    if norm > max_norm > 0:
        grad = grad * (max_norm / norm)
    return grad


def train(
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    train_corpus: Corpus,
    valid_corpus: Corpus | None,
    initial: ParamStore | None = None,
) -> TrainResult:
    if not train_corpus.pairs:
        raise TrainError("empty training corpus")
    if valid_corpus is not None and not valid_corpus.pairs:
        # corpus BLEU of nothing is 0.0: every validation would tie at 0.0
        raise TrainError("empty validation corpus")
    if initial is not None:
        check_params(initial, model_cfg)
    elif cfg.criterion == "mrt":
        raise TrainError("minimum risk training requires an initial checkpoint")
    else:
        initial = init_params(model_cfg, cfg.seed)
    params = initial.copy()

    info = None  # the NIST loss's table; MLE needs none
    if cfg.criterion == "mrt":
        info = metrics.info_table_for(cfg.loss_kind, [p.tgt for p in train_corpus.pairs])

    curve: list[CurvePoint] = []
    best_params: ParamStore | None = None  # set at the first validation
    best_bleu: float | None = None
    t0 = time.perf_counter()

    shuffle_rng = np.random.default_rng([cfg.seed, 0x5EED])
    order: list[int] = []
    cursor = 0

    for update in range(1, cfg.max_updates + 1):
        if cursor + cfg.batch_size > len(order):
            order = shuffle_rng.permutation(len(train_corpus)).tolist()
            cursor = 0
        batch_idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size
        batch = [train_corpus.pairs[i] for i in batch_idx]

        if cfg.criterion == "mle":
            loss, grad = mrt.mle_loss_and_grad(params, batch)
        else:
            rngs = [np.random.default_rng([cfg.seed, update, s]) for s in range(len(batch))]
            loss, grad = mrt.mrt_loss_and_grad(
                params, batch, cfg.loss_kind, cfg.alpha, cfg.k, model_cfg.max_len, rngs, info
            )
        objective = loss / len(batch)
        grad /= len(batch)

        if not (np.isfinite(objective) and np.all(np.isfinite(grad))):
            raise TrainError(
                f"non-finite loss or gradient at update {update}; "
                f"batch sentence indices: {batch_idx}"
            )
        grad = _clip(grad, cfg.grad_clip_norm)
        params.set_flat(params.flat() - cfg.lr * grad)
        del grad  # not held while the next batch's gradient is computed

        if (
            valid_corpus is not None
            and cfg.eval_every > 0
            and update % cfg.eval_every == 0
        ):
            bleu = _validation_bleu(params, valid_corpus, model_cfg.max_len)
            curve.append(
                CurvePoint(
                    update=update,
                    seconds=time.perf_counter() - t0,
                    valid_bleu=bleu,
                    train_objective=float(objective),
                )
            )
            if best_bleu is None or bleu > best_bleu:
                best_bleu = bleu
                best_params = params.copy()

    if best_bleu is None:
        best_params = params.copy()
    return TrainResult(
        best_params=best_params,
        best_bleu=best_bleu,
        curve=curve,
        final_params=params,
    )


def _validation_bleu(params: ParamStore, corpus: Corpus, max_len: int) -> float:
    hyps = decode_corpus(
        params, [p.src for p in corpus.pairs], DEFAULT_BEAM, max_len
    )
    return metrics.corpus_bleu(hyps, corpus.references)


def curve_to_csv(curve: Sequence[CurvePoint]) -> str:
    lines = ["update,seconds,valid_bleu,train_objective"]
    for pt in curve:
        lines.append(
            f"{pt.update},{pt.seconds:.3f},{pt.valid_bleu:.4f},{pt.train_objective:.6f}"
        )
    return "\n".join(lines) + "\n"
