"""Optimization loops for maximum likelihood and minimum risk criteria.

Plain SGD with global-norm gradient clipping; validation decoding with
beam 10 every eval_every updates; the checkpoint with the best validation
corpus BLEU is retained. Minimum risk fine-tuning starts from a maximum
likelihood checkpoint unless random initialization is explicitly allowed.

The global gradient norm is a numpy pairwise sum, not ``np.linalg.norm``.
For a long 1-D array the latter is a BLAS dot product, which multi-threaded
OpenBLAS sums in a thread-count-dependent order; a last-ulp change in the
norm changes the clip factor of every clipped update, so training would
not be bit-identical across BLAS thread settings.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import metrics, mrt
from .data import Corpus
from .decoder import DEFAULT_BEAM, decode_corpus
from .diffcore import ParamStore
from .metrics import LossKind
from .model import ModelConfig, init_params

__all__ = [
    "TrainError",
    "TrainConfig",
    "CurvePoint",
    "TrainResult",
    "train",
    "evaluate_checkpoint",
    "curve_to_csv",
]

DEFAULT_MLE_LR = 0.5
DEFAULT_MRT_LR = 0.05


class TrainError(Exception):
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
    init_checkpoint: str | None = None
    allow_random_init: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.criterion not in ("mle", "mrt"):
            raise TrainError(f"unknown criterion: {self.criterion!r}")
        if isinstance(self.loss_kind, str):
            self.loss_kind = LossKind.parse(self.loss_kind)
        for name in ("batch_size", "k", "workers"):
            if getattr(self, name) < 1:
                raise TrainError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("max_updates", "eval_every"):
            if getattr(self, name) < 0:
                raise TrainError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.alpha > 0:
            raise TrainError(f"alpha must be positive, got {self.alpha}")
        if self.learning_rate is not None and not self.learning_rate >= 0:
            raise TrainError(
                f"learning_rate must be >= 0, got {self.learning_rate}"
            )

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
    config: TrainConfig = field(repr=False)


def _clip(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.sqrt(np.sum(grad * grad)))
    if norm > max_norm > 0:
        grad = grad * (max_norm / norm)
    return grad


def _mrt_sentence_grad(params, pair, refs, cfg, model_cfg, update, sent_index, info):
    rng = np.random.default_rng([cfg.seed, update, sent_index])
    space = mrt.sample_space(
        params, pair.src, pair.tgt, cfg.k, model_cfg.max_len, rng
    )
    gold = refs[0] if refs else tuple(pair.tgt)
    losses = [
        metrics.delta(cfg.loss_kind, cand, gold, info) for cand in space.candidates
    ]
    q = mrt.q_distribution(space, cfg.alpha)
    report = mrt.expected_risk(space, q, losses)
    grad = mrt.mrt_grad(params, pair.src, space, q, report, cfg.alpha)
    return report.expected_risk, grad


def train(
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    train_corpus: Corpus,
    valid_corpus: Corpus | None,
    initial: ParamStore | None = None,
) -> TrainResult:
    if not train_corpus.pairs:
        raise TrainError("empty training corpus")
    if initial is None:
        if cfg.init_checkpoint is not None:
            initial = ParamStore.load(cfg.init_checkpoint)
        elif cfg.criterion == "mrt" and not cfg.allow_random_init:
            raise TrainError(
                "minimum risk training requires an initial checkpoint "
                "(pass allow_random_init to override)"
            )
        else:
            initial = init_params(model_cfg, cfg.seed)
    params = initial.copy()

    info = None
    if cfg.loss_kind is LossKind.NEG_SMOOTHED_NIST:
        info = metrics.build_info_table([p.tgt for p in train_corpus.pairs])

    curve: list[CurvePoint] = []
    best_params = params.copy()
    best_bleu: float | None = None
    t0 = time.perf_counter()

    shuffle_rng = np.random.default_rng([cfg.seed, 0x5EED])
    order: list[int] = []
    cursor = 0

    pool = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    try:
        for update in range(1, cfg.max_updates + 1):
            if cursor + cfg.batch_size > len(order):
                order = list(shuffle_rng.permutation(len(train_corpus)))
                cursor = 0
            batch_idx = order[cursor : cursor + cfg.batch_size]
            cursor += cfg.batch_size
            batch = [train_corpus.pairs[i] for i in batch_idx]

            if cfg.criterion == "mle":
                loss, grad = mrt.mle_loss_and_grad(params, batch)
                objective = loss / len(batch)
                grad = grad / len(batch)
            else:
                jobs = [
                    (
                        params,
                        pair,
                        train_corpus.references[idx] if train_corpus.references else (),
                        cfg,
                        model_cfg,
                        update,
                        s,
                        info,
                    )
                    for s, (idx, pair) in enumerate(zip(batch_idx, batch))
                ]
                if pool is not None:
                    results = list(pool.map(lambda a: _mrt_sentence_grad(*a), jobs))
                else:
                    results = [_mrt_sentence_grad(*a) for a in jobs]
                # reduction in sentence-index order keeps runs deterministic
                objective = sum(r for r, _ in results) / len(results)
                grad = sum((g for _, g in results), np.zeros(params.size)) / len(results)

            if not (np.isfinite(objective) and np.all(np.isfinite(grad))):
                raise TrainError(
                    f"non-finite loss or gradient at update {update}; "
                    f"batch sentence indices: {batch_idx}"
                )
            grad = _clip(grad, cfg.grad_clip_norm)
            params.set_flat(params.flat() - cfg.lr * grad)

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
    finally:
        if pool is not None:
            pool.shutdown()

    if best_bleu is None:
        best_params = params.copy()
    return TrainResult(
        best_params=best_params,
        best_bleu=best_bleu,
        curve=curve,
        final_params=params,
        config=cfg,
    )


def _validation_bleu(params: ParamStore, corpus: Corpus, max_len: int) -> float:
    hyps = decode_corpus(
        params, [p.src for p in corpus.pairs], DEFAULT_BEAM, max_len
    )
    return metrics.corpus_bleu(hyps, corpus.references)


def evaluate_checkpoint(
    params: ParamStore,
    corpus: Corpus,
    beam: int,
    max_len: int,
    decode_fn: Callable[[Sequence[int]], tuple[int, ...]] | None = None,
) -> dict[str, float]:
    """Decode every sentence and return corpus BLEU, TER and NIST."""
    src_vocab = params["src_embed"].shape[0]
    tgt_vocab = params["tgt_embed"].shape[0]
    for pair in corpus.pairs:
        if any(t >= src_vocab for t in pair.src) or any(
            t >= tgt_vocab for t in pair.tgt
        ):
            raise TrainError("corpus token ids exceed checkpoint vocabulary")
    if decode_fn is not None:
        hyps = [tuple(decode_fn(p.src)) for p in corpus.pairs]
    else:
        hyps = decode_corpus(params, [p.src for p in corpus.pairs], beam, max_len)
    info = metrics.build_info_table([refs[0] for refs in corpus.references])
    return {
        "BLEU": metrics.corpus_bleu(hyps, corpus.references),
        "TER": metrics.corpus_ter(hyps, corpus.references),
        "NIST": metrics.corpus_nist(hyps, corpus.references, info),
    }


def curve_to_csv(curve: Sequence[CurvePoint]) -> str:
    lines = ["update,seconds,valid_bleu,train_objective"]
    for pt in curve:
        lines.append(
            f"{pt.update},{pt.seconds:.3f},{pt.valid_bleu:.4f},{pt.train_objective:.6f}"
        )
    return "\n".join(lines) + "\n"
