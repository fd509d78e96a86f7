"""Command-line interface: the full workflow in one binary.

Subcommands: gen-synthetic, build-vocab, train, decode, evaluate, sample,
oracle, alpha-sweep, k-sweep. Exit codes: 0 success, 1 usage error,
2 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import data, metrics, mrt, oracle, trainer
from .data import Corpus, DataError, Vocab
from .decoder import beam_decode, greedy_decode
from .diffcore import DiffError, ParamStore
from .metrics import LossKind, MetricError
from .model import EOS, ModelConfig, ModelError, init_params, load_model, save_model
from .mrt import MrtError
from .oracle import OracleError
from .trainer import TrainConfig, TrainError

log = logging.getLogger("riskseq")

USAGE_EXIT = 1
DATA_EXIT = 2

MODEL_KEYS = {f.name for f in fields(ModelConfig)}
TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_run_config(path: str) -> dict:
    """JSON config mirroring ModelConfig + TrainConfig keys. Unknown keys
    are rejected before any work starts."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DataError(f"config {path}: expected a JSON object")
    allowed = MODEL_KEYS | TRAIN_KEYS
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise DataError(f"config {path}: unknown keys {unknown}")
    return cfg


def _merged(config: dict, args: argparse.Namespace, keys: set[str]) -> dict:
    """Config-file values overridden by explicitly-set flags."""
    out = {k: v for k, v in config.items() if k in keys}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _log_config_header(payload: dict) -> None:
    print(json.dumps({"config": payload}, sort_keys=True), file=sys.stderr)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _find_references(base: str) -> list[str]:
    """Either a single reference file or base.0, base.1, ... suffixes."""
    if os.path.exists(base):
        return [base]
    out = []
    i = 0
    while os.path.exists(f"{base}.{i}"):
        out.append(f"{base}.{i}")
        i += 1
    if not out:
        raise DataError(f"no reference file at {base} or {base}.0")
    return out


# -- subcommand implementations -------------------------------------------


def cmd_gen_synthetic(args) -> int:
    train_c, valid_c, test_c = data.gen_synthetic(
        args.task,
        args.vocab_size,
        args.n_sentences,
        (args.len_min, args.len_max),
        args.seed if args.seed is not None else 0,
    )
    vocab = data.synthetic_vocab(args.vocab_size)
    os.makedirs(args.out_dir, exist_ok=True)
    vocab.save(os.path.join(args.out_dir, "vocab.txt"))

    def dump(corpus: Corpus, name: str) -> None:
        srcs = [" ".join(vocab.decode(p.src)) for p in corpus.pairs]
        tgts = [" ".join(vocab.decode(p.tgt[:-1])) for p in corpus.pairs]
        _write_lines(os.path.join(args.out_dir, f"{name}.src"), srcs)
        _write_lines(os.path.join(args.out_dir, f"{name}.tgt"), tgts)
        n_refs = max(len(r) for r in corpus.references)
        if n_refs > 1:
            for i in range(n_refs):
                refs = [
                    " ".join(vocab.decode(list(r[min(i, len(r) - 1)])))
                    for r in corpus.references
                ]
                _write_lines(os.path.join(args.out_dir, f"{name}.ref.{i}"), refs)

    dump(train_c, "train")
    dump(valid_c, "valid")
    dump(test_c, "test")
    log.info(
        "wrote %s task to %s (train=%d valid=%d test=%d)",
        args.task, args.out_dir, len(train_c), len(valid_c), len(test_c),
    )
    return 0


def cmd_build_vocab(args) -> int:
    vocab = data.build_vocab(args.input, args.max_size, lowercase=args.lowercase)
    vocab.save(args.output)
    log.info("wrote %d tokens to %s", vocab.size, args.output)
    return 0


def _load_train_inputs(args, run_cfg: dict):
    src_vocab = Vocab.load(args.src_vocab)
    tgt_vocab = Vocab.load(args.tgt_vocab)
    model_kwargs = _merged(run_cfg, args, MODEL_KEYS - {"src_vocab_size", "tgt_vocab_size"})
    model_cfg = ModelConfig(
        src_vocab_size=src_vocab.size, tgt_vocab_size=tgt_vocab.size, **model_kwargs
    )
    train_corpus = data.load_parallel(
        args.train_src, args.train_tgt, src_vocab, tgt_vocab,
        model_cfg.max_len, name="train",
    )
    valid_corpus = None
    if args.valid_src and args.valid_tgt:
        valid_corpus = data.load_parallel(
            args.valid_src, args.valid_tgt, src_vocab, tgt_vocab,
            model_cfg.max_len, name="valid",
        )
        ref_base = args.valid_ref or args.valid_tgt
        ref_files = _find_references(ref_base)
        if len(ref_files) > 1:
            ref_lines = [data.read_token_lines(p) for p in ref_files]
            refs = []
            for i in range(len(valid_corpus)):
                refs.append(
                    [tuple(tgt_vocab.encode(lines[i])) for lines in ref_lines]
                )
            valid_corpus.references = refs
    return src_vocab, tgt_vocab, model_cfg, train_corpus, valid_corpus


def _train_config(args, run_cfg: dict) -> TrainConfig:
    kwargs = _merged(run_cfg, args, TRAIN_KEYS)
    if "loss_kind" in kwargs and isinstance(kwargs["loss_kind"], str):
        kwargs["loss_kind"] = LossKind.parse(kwargs["loss_kind"])
    return TrainConfig(**kwargs)


def cmd_train(args) -> int:
    run_cfg = load_run_config(args.config) if args.config else {}
    src_vocab, tgt_vocab, model_cfg, train_corpus, valid_corpus = _load_train_inputs(
        args, run_cfg
    )
    cfg = _train_config(args, run_cfg)
    _log_config_header(
        {"model": model_cfg.to_dict(), "train": {**cfg.__dict__, "loss_kind": cfg.loss_kind.value}}
    )
    result = trainer.train(cfg, model_cfg, train_corpus, valid_corpus)
    save_model(result.best_params, model_cfg, args.checkpoint_out)
    if args.curve_out:
        with open(args.curve_out, "w", encoding="utf-8") as fh:
            fh.write(trainer.curve_to_csv(result.curve))
    if result.best_bleu is not None:
        log.info("best validation BLEU = %.2f", result.best_bleu)
    return 0


def cmd_decode(args) -> int:
    params, model_cfg = load_model(args.checkpoint)
    src_vocab = Vocab.load(args.src_vocab)
    tgt_vocab = Vocab.load(args.tgt_vocab)
    max_len = args.max_len if args.max_len is not None else model_cfg.max_len
    lines = []
    for words in data.read_token_lines(args.input):
        src = src_vocab.encode(words)
        if args.beam == 1:
            out = greedy_decode(params, src, max_len)
        else:
            out = beam_decode(params, src, args.beam, max_len)
        lines.append(" ".join(tgt_vocab.decode([t for t in out if t != EOS])))
    _write_lines(args.output, lines)
    return 0


def cmd_evaluate(args) -> int:
    hyps = [tuple(h) for h in data.read_token_lines(args.hyp)]
    ref_files = _find_references(args.ref)
    ref_lines = [data.read_token_lines(p) for p in ref_files]
    n = len(hyps)
    for path, lines in zip(ref_files, ref_lines):
        if len(lines) != n:
            raise DataError(
                f"{path}: {len(lines)} lines but hypothesis has {n}"
            )
    refs = [[tuple(lines[i]) for lines in ref_lines] for i in range(n)]
    bleu = metrics.corpus_bleu(hyps, refs)
    ter = metrics.corpus_ter(hyps, refs)
    info = metrics.build_info_table([r[0] for r in refs])
    nist = metrics.corpus_nist(hyps, refs, info)
    print(f"BLEU = {bleu:.2f}")
    print(f"TER = {ter:.2f}")
    print(f"NIST = {nist:.4f}")
    return 0


def cmd_sample(args) -> int:
    params, model_cfg = load_model(args.checkpoint)
    src_vocab = Vocab.load(args.src_vocab)
    tgt_vocab = Vocab.load(args.tgt_vocab)
    kind = LossKind.parse(args.loss)
    srcs = data.read_token_lines(args.input)
    golds = data.read_token_lines(args.gold)
    if len(srcs) != len(golds):
        raise DataError(f"{len(srcs)} source lines vs {len(golds)} gold lines")
    info = None
    if kind is LossKind.NEG_SMOOTHED_NIST:
        info = metrics.build_info_table(
            [tuple(tgt_vocab.encode(g)) for g in golds]
        )
    seed = args.seed if args.seed is not None else 0
    for i, (src_words, gold_words) in enumerate(zip(srcs, golds)):
        src = src_vocab.encode(src_words)
        gold = tgt_vocab.encode(gold_words) + [EOS]
        rng = np.random.default_rng([seed, i])
        space = mrt.sample_space(params, src, gold, args.k, model_cfg.max_len, rng)
        q = mrt.q_distribution(space, args.alpha)
        for cand, lp, w in zip(space.candidates, space.logprobs, q.weights):
            loss = metrics.delta(kind, cand, gold, info)
            tokens = " ".join(tgt_vocab.decode([t for t in cand if t != EOS]))
            print(f"{lp:.6f}\t{loss:.6f}\t{w:.6f}\t{tokens}")
    return 0


def cmd_oracle(args) -> int:
    seed = args.seed if args.seed is not None else 0
    kind = LossKind.parse(args.loss)
    model_cfg = ModelConfig(
        src_vocab_size=args.vocab,
        tgt_vocab_size=args.vocab,
        embed_dim=3,
        hidden_dim=4,
        attention_dim=3,
        max_len=args.max_len,
    )
    params = init_params(model_cfg, seed)
    rng = np.random.default_rng([seed, 1])
    content = list(range(4, args.vocab))
    src = [content[int(rng.integers(len(content)))] for _ in range(2)]
    gold = [content[int(rng.integers(len(content)))] for _ in range(2)] + [EOS]

    full = oracle.enumerate_space(params, src, args.max_len)
    losses = oracle.space_losses(full.sequences, gold, kind)
    exact = oracle.exact_risk_over(full, losses, args.alpha)

    print("section,key,value")
    print(f"space,sequences,{len(full.sequences)}")
    print(f"space,terminated_mass,{full.terminated_mass:.12f}")
    print(f"risk,exact,{exact:.12f}")
    for k in args.ks:
        mean, std = oracle.sampled_risk_spread(
            params, src, gold, kind, args.alpha, k, args.max_len,
            n_seeds=args.n_seeds, base_seed=seed,
        )
        print(f"risk,sampled_mean_k{k},{mean:.12f}")
        print(f"risk,sampled_std_k{k},{std:.12f}")
    err = oracle.exact_grad_check(params, src, gold, kind, args.alpha, args.max_len)
    print(f"gradient,max_rel_error,{err:.3e}")
    return 0


def _sweep_train(args, run_cfg, overrides: dict):
    src_vocab, tgt_vocab, model_cfg, train_corpus, valid_corpus = _load_train_inputs(
        args, run_cfg
    )
    cfg = replace(_train_config(args, run_cfg), criterion="mrt", **overrides)
    result = trainer.train(cfg, model_cfg, train_corpus, valid_corpus)
    if result.best_bleu is None:
        raise TrainError("sweep run produced no validation score")
    return result


def cmd_alpha_sweep(args) -> int:
    run_cfg = load_run_config(args.config) if args.config else {}
    print("alpha,valid_bleu")
    for alpha in args.alphas:
        try:
            result = _sweep_train(args, run_cfg, {"alpha": alpha})
            print(f"{alpha:g},{result.best_bleu:.2f}")
        except (TrainError, MrtError, DataError) as exc:
            log.error("alpha=%g failed: %s", alpha, exc)
            print(f"{alpha:g},error")
    return 0


def cmd_k_sweep(args) -> int:
    run_cfg = load_run_config(args.config) if args.config else {}
    src_vocab, tgt_vocab, model_cfg, train_corpus, valid_corpus = _load_train_inputs(
        args, run_cfg
    )
    cfg = _train_config(args, run_cfg)
    if cfg.init_checkpoint is None:
        raise TrainError("k-sweep requires an initial checkpoint")
    params = ParamStore.load(cfg.init_checkpoint)
    pair = train_corpus.pairs[0]
    print("k,risk_stddev,valid_bleu")
    for k in args.ks:
        try:
            _, std = oracle.sampled_risk_spread(
                params, pair.src, pair.tgt, cfg.loss_kind, cfg.alpha, k,
                model_cfg.max_len, n_seeds=args.n_seeds, base_seed=cfg.seed,
            )
            result = _sweep_train(args, run_cfg, {"k": k})
            print(f"{k},{std:.6f},{result.best_bleu:.2f}")
        except (TrainError, MrtError, DataError) as exc:
            log.error("k=%d failed: %s", k, exc)
            print(f"{k},error,error")
    return 0


# -- argument wiring ------------------------------------------------------


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config (flags override it)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--quiet", action="store_true")


def _add_train_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--valid-src")
    p.add_argument("--valid-tgt")
    p.add_argument("--valid-ref", help="reference base path (ref or ref.N files)")
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    for name in ("embed_dim", "hidden_dim", "attention_dim", "max_len"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int, default=None)
    p.add_argument("--criterion", choices=["mle", "mrt"], default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--grad-clip-norm", dest="grad_clip_norm", type=float, default=None)
    p.add_argument("--max-updates", dest="max_updates", type=int, default=None)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--loss", dest="loss_kind", default=None)
    p.add_argument("--init-checkpoint", dest="init_checkpoint", default=None)
    p.add_argument(
        "--allow-random-init", dest="allow_random_init",
        action="store_const", const=True, default=None,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="riskseq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-synthetic", parents=[], help="generate a synthetic task")
    _add_global_flags(p)
    p.add_argument("--task", required=True, choices=data.SYNTHETIC_TASKS)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--n-sentences", type=int, required=True)
    p.add_argument("--len-min", type=int, default=3)
    p.add_argument("--len-max", type=int, default=6)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("build-vocab", help="build a vocabulary from text")
    _add_global_flags(p)
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train with MLE or MRT")
    _add_global_flags(p)
    _add_train_io_flags(p)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--curve-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="translate with beam search")
    _add_global_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    _add_global_flags(p)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sample", help="dump a sampled candidate space")
    _add_global_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--k", type=int, default=mrt.DEFAULT_K)
    p.add_argument("--alpha", type=float, default=mrt.DEFAULT_ALPHA)
    p.add_argument("--loss", default=LossKind.NEG_SMOOTHED_BLEU.value)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle", help="exact vs sampled risk on a toy model")
    _add_global_flags(p)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--max-len", dest="max_len", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--loss", default=LossKind.NEG_SMOOTHED_BLEU.value)
    p.add_argument("--ks", type=int, nargs="+", default=[10, 100, 1000])
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=20)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("alpha-sweep", help="MRT runs across alpha values")
    _add_global_flags(p)
    _add_train_io_flags(p)
    p.add_argument("--alphas", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_alpha_sweep)

    p = sub.add_parser("k-sweep", help="MRT runs across sample sizes")
    _add_global_flags(p)
    _add_train_io_flags(p)
    p.add_argument("--ks", type=int, nargs="+", required=True)
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=50)
    p.set_defaults(func=cmd_k_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (
        DataError,
        MetricError,
        ModelError,
        MrtError,
        OracleError,
        TrainError,
        DiffError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
