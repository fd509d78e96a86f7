"""Command-line interface: the full workflow in one binary.

Subcommands: gen-synthetic, build-vocab, train, decode, evaluate, sample,
oracle, alpha-sweep, k-sweep. Exit codes: 0 success, 1 usage error,
2 data/validation error (any ``RiskseqError``, or a file that cannot be read).
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
from .decoder import DEFAULT_BEAM, decode_corpus
from .diffcore import ParamStore, RiskseqError, atomic_writer
from .metrics import LossKind
from .model import EOS, ModelConfig, check_params, init_params, load_model, save_model
from .trainer import TrainConfig, TrainError

log = logging.getLogger("riskseq")

USAGE_EXIT = 1
DATA_EXIT = 2

# the vocab sizes come from the vocab files, so a run config cannot set them
MODEL_KEYS = {f.name for f in fields(ModelConfig)} - {"src_vocab_size", "tgt_vocab_size"}
TRAIN_KEYS = {f.name for f in fields(TrainConfig)} | {"init_checkpoint"}  # a CLI setting


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_run_config(path: str) -> dict:
    """JSON config mirroring ModelConfig (except the vocab sizes) and
    TrainConfig keys. Unknown keys are rejected before any work starts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"config {path}: {exc}") from None
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
        args.seed,
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
    vocab = data.build_vocab(args.input, args.max_size)
    vocab.save(args.output)
    log.info("wrote %d tokens to %s", vocab.size, args.output)
    return 0


def _load_train_inputs(args):
    """What train, alpha-sweep and k-sweep read: ``(src_vocab, tgt_vocab,
    model_cfg, train_corpus, valid_corpus, cfg, init_checkpoint, start)``.
    ``start`` is the checkpoint at that path, read as ``decode`` reads one
    (sidecar required, vocabs checked against it), or None."""
    run_cfg = load_run_config(args.config) if args.config else {}
    src_vocab = Vocab.load(args.src_vocab)
    tgt_vocab = Vocab.load(args.tgt_vocab)
    model_cfg = ModelConfig(
        src_vocab_size=src_vocab.size, tgt_vocab_size=tgt_vocab.size,
        **_merged(run_cfg, args, MODEL_KEYS),
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
            ref_files=_find_references(args.valid_ref) if args.valid_ref else (),
        )
    for split, corpus in (("training", train_corpus), ("validation", valid_corpus)):
        if corpus is not None and not corpus:
            raise DataError(
                f"no {split} pair fits max_len={model_cfg.max_len} "
                f"({corpus.filtered_count} over length)"
            )
    settings = _merged(run_cfg, args, TRAIN_KEYS)
    init_checkpoint, start = settings.pop("init_checkpoint", None), None
    cfg = TrainConfig(**settings)
    if init_checkpoint is not None:
        if not isinstance(init_checkpoint, str):
            raise DataError(f"init_checkpoint must be a path, got {init_checkpoint!r}")
        start, _ = load_model(init_checkpoint, (src_vocab.tokens, tgt_vocab.tokens))
    return (src_vocab, tgt_vocab, model_cfg, train_corpus, valid_corpus, cfg,
            init_checkpoint, start)


def cmd_train(args) -> int:
    # an output that cannot be written fails before training, not after
    outputs = {"--checkpoint-out": args.checkpoint_out, "--curve-out": args.curve_out}
    for flag, path in outputs.items():
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"{flag} {path}: no such directory")
    (src_vocab, tgt_vocab, model_cfg, train_corpus, valid_corpus, cfg, init_checkpoint,
     start) = _load_train_inputs(args)
    train_settings = {**cfg.__dict__, "loss_kind": cfg.loss_kind.value,
                      "init_checkpoint": init_checkpoint}
    _log_config_header({"model": model_cfg.to_dict(), "train": train_settings})
    result = trainer.train(cfg, model_cfg, train_corpus, valid_corpus, start)
    save_model(
        result.best_params, model_cfg, args.checkpoint_out,
        (src_vocab.tokens, tgt_vocab.tokens),
    )
    if args.curve_out:
        with atomic_writer(args.curve_out) as fh:
            fh.write(trainer.curve_to_csv(result.curve).encode("utf-8"))
    if result.best_bleu is not None:
        log.info("best validation BLEU = %.2f", result.best_bleu)
    return 0


def _load_checkpoint(args) -> tuple[ParamStore, ModelConfig, Vocab, Vocab]:
    """Checkpoint, config and source/target vocabs, checked to fit each other."""
    src_vocab, tgt_vocab = Vocab.load(args.src_vocab), Vocab.load(args.tgt_vocab)
    params, model_cfg = load_model(
        args.checkpoint, (src_vocab.tokens, tgt_vocab.tokens)
    )
    return params, model_cfg, src_vocab, tgt_vocab


def cmd_decode(args) -> int:
    params, model_cfg, src_vocab, tgt_vocab = _load_checkpoint(args)
    max_len = args.max_len if args.max_len is not None else model_cfg.max_len
    sources = [
        src_vocab.encode(words)
        for words in data.read_token_lines(args.input, model_input=True)
    ]
    lines = [
        " ".join(tgt_vocab.decode([t for t in out if t != EOS]))
        for out in decode_corpus(params, sources, args.beam, max_len)
    ]
    _write_lines(args.output, lines)
    return 0


def cmd_evaluate(args) -> int:
    hyps = [tuple(h) for h in data.read_token_lines(args.hyp)]
    ref_files = _find_references(args.ref)
    ref_lines = [data.read_reference_lines(p) for p in ref_files]
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
    params, model_cfg, src_vocab, tgt_vocab = _load_checkpoint(args)
    kind = LossKind.parse(args.loss)
    srcs = data.read_token_lines(args.input, model_input=True)
    golds = data.read_token_lines(args.gold, model_input=True)
    if len(srcs) != len(golds):
        raise DataError(f"{len(srcs)} source lines vs {len(golds)} gold lines")
    info = metrics.info_table_for(kind, [tgt_vocab.encode(g) for g in golds])
    for i, (src_words, gold_words) in enumerate(zip(srcs, golds)):
        src = src_vocab.encode(src_words)
        gold = tgt_vocab.encode(gold_words) + [EOS]
        rng = np.random.default_rng([args.seed, i])
        space, losses, q, _ = mrt.sentence_risk(
            params, src, gold, kind, args.alpha, args.k, model_cfg.max_len, rng, info
        )
        for cand, lp, loss, w in zip(space.candidates, space.logprobs, losses, q):
            tokens = " ".join(tgt_vocab.decode([t for t in cand if t != EOS]))
            print(f"{lp:.6f}\t{loss:.6f}\t{w:.6f}\t{tokens}")
    return 0


def _check_n_seeds(n_seeds: int) -> None:
    if n_seeds < 1:
        raise DataError(f"n_seeds must be >= 1, got {n_seeds}")


def cmd_oracle(args) -> int:
    seed = args.seed
    if args.vocab <= oracle.FIRST_CONTENT_ID:
        raise DataError(
            f"--vocab must be >= {oracle.FIRST_CONTENT_ID + 1} (one content token), got {args.vocab}"
        )
    if args.max_len < 3:
        raise DataError(f"--max-len must be >= 3 (2 gold tokens + EOS), got {args.max_len}")
    if min(args.ks) < 1:
        raise DataError(f"--ks must all be >= 1, got {min(args.ks)}")
    if not 0 < args.alpha < np.inf:
        raise DataError(f"alpha must be positive and finite, got {args.alpha}")
    _check_n_seeds(args.n_seeds)
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
    content = list(range(oracle.FIRST_CONTENT_ID, args.vocab))
    src = [content[int(rng.integers(len(content)))] for _ in range(2)]
    gold = [content[int(rng.integers(len(content)))] for _ in range(2)] + [EOS]

    info = metrics.info_table_for(kind, [gold])
    full = oracle.enumerate_space(params, src, args.max_len)
    losses = mrt.candidate_losses(full.sequences, gold, kind, info)
    exact = oracle.exact_risk_over(full, losses, args.alpha)

    print("section,key,value")
    print(f"space,sequences,{len(full.sequences)}")
    print(f"space,terminated_mass,{full.terminated_mass:.12f}")
    print(f"risk,exact,{exact:.12f}")
    for k in args.ks:
        mean, std = oracle.sampled_risk_spread(
            params, src, gold, kind, args.alpha, k, args.max_len,
            n_seeds=args.n_seeds, base_seed=seed, info=info,
        )
        print(f"risk,sampled_mean_k{k},{mean:.12f}")
        print(f"risk,sampled_std_k{k},{std:.12f}")
    err = oracle.exact_grad_check(
        params, src, gold, kind, args.alpha, args.max_len, info
    )
    print(f"gradient,max_rel_error,{err:.3e}")
    return 0


def _sweep_inputs(args):
    """A sweep's inputs, with an MRT TrainConfig and the init checkpoint as
    the start of every row. A row is its best validation BLEU: refuse,
    before any training, the settings under which no validation pass runs."""
    _, _, model_cfg, train_corpus, valid_corpus, cfg, _, start = _load_train_inputs(args)
    cfg = replace(cfg, criterion="mrt")
    if start is None:
        raise TrainError(f"{args.command} requires an initial checkpoint")
    check_params(start, model_cfg)  # as trainer.train does, but before the header line
    if valid_corpus is None:
        raise DataError("a sweep needs --valid-src and --valid-tgt")
    if not 0 < cfg.eval_every <= cfg.max_updates:
        raise DataError(
            f"a sweep needs 0 < eval_every <= max_updates, got eval_every "
            f"{cfg.eval_every} and max_updates {cfg.max_updates}"
        )
    return model_cfg, train_corpus, valid_corpus, cfg, start


def cmd_alpha_sweep(args) -> int:
    model_cfg, train_corpus, valid_corpus, cfg, start = _sweep_inputs(args)
    runs = [replace(cfg, alpha=alpha) for alpha in args.alphas]  # a bad alpha fails here
    print("alpha,valid_bleu")
    for run in runs:
        try:
            result = trainer.train(run, model_cfg, train_corpus, valid_corpus, start)
            print(f"{run.alpha:g},{result.best_bleu:.2f}")
        except RiskseqError as exc:
            log.error("alpha=%g failed: %s", run.alpha, exc)
            print(f"{run.alpha:g},error")
    return 0


def cmd_k_sweep(args) -> int:
    _check_n_seeds(args.n_seeds)
    model_cfg, train_corpus, valid_corpus, cfg, start = _sweep_inputs(args)
    runs = [replace(cfg, k=k) for k in args.ks]  # a bad k fails here
    info = metrics.info_table_for(cfg.loss_kind, [p.tgt for p in train_corpus.pairs])
    pair = train_corpus.pairs[0]
    print("k,risk_stddev,valid_bleu")
    for run in runs:
        try:
            _, std = oracle.sampled_risk_spread(
                start, pair.src, pair.tgt, cfg.loss_kind, cfg.alpha, run.k,
                model_cfg.max_len, n_seeds=args.n_seeds, base_seed=cfg.seed,
                info=info,
            )
            result = trainer.train(run, model_cfg, train_corpus, valid_corpus, start)
            print(f"{run.k},{std:.6f},{result.best_bleu:.2f}")
        except RiskseqError as exc:
            log.error("k=%d failed: %s", run.k, exc)
            print(f"{run.k},error,error")
    return 0


# -- argument wiring ------------------------------------------------------


def _add_train_io_flags(p: argparse.ArgumentParser) -> None:
    """The flags train, alpha-sweep and k-sweep share, --config among them."""
    p.add_argument("--config", help="JSON run config (flags override it)")
    p.add_argument("--seed", type=int, default=None)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="riskseq", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    # every subcommand takes --quiet; each takes --seed or --config only if
    # it reads them
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true")

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[quiet], help=help)
        p.set_defaults(func=func)
        return p

    p = command("gen-synthetic", cmd_gen_synthetic, "generate a synthetic task")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--task", required=True, choices=data.SYNTHETIC_TASKS)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--n-sentences", type=int, required=True)
    p.add_argument("--len-min", type=int, default=3)
    p.add_argument("--len-max", type=int, default=6)
    p.add_argument("--out-dir", required=True)

    p = command("build-vocab", cmd_build_vocab, "build a vocabulary from text")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--output", required=True)

    p = command("train", cmd_train, "train with MLE or MRT")
    _add_train_io_flags(p)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--curve-out")

    p = command("decode", cmd_decode, "translate with beam search")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)

    p = command("evaluate", cmd_evaluate, "score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)

    p = command("sample", cmd_sample, "dump a sampled candidate space")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--k", type=int, default=mrt.DEFAULT_K)
    p.add_argument("--alpha", type=float, default=mrt.DEFAULT_ALPHA)
    p.add_argument("--loss", default=LossKind.NEG_SMOOTHED_BLEU.value)

    p = command("oracle", cmd_oracle, "exact vs sampled risk on a toy model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--max-len", dest="max_len", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--loss", default=LossKind.NEG_SMOOTHED_BLEU.value)
    p.add_argument("--ks", type=int, nargs="+", default=[10, 100, 1000])
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=20)

    p = command("alpha-sweep", cmd_alpha_sweep, "MRT runs across alpha values")
    _add_train_io_flags(p)
    p.add_argument("--alphas", type=float, nargs="+", required=True)

    p = command("k-sweep", cmd_k_sweep, "MRT runs across sample sizes")
    _add_train_io_flags(p)
    p.add_argument("--ks", type=int, nargs="+", required=True)
    p.add_argument("--n-seeds", dest="n_seeds", type=int, default=50)

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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise DataError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (RiskseqError, OSError, UnicodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
