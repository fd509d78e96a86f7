"""riskseq benchmark: MLE, MRT and beam-decode workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mrt-lexicon --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in this process: the same
unit of work (a ``trainer.train`` call, or one ``riskseq decode`` process)
is repeated until ``--seconds`` would be exceeded, at least twice, and
timings are medians over the repetitions, in reference seconds (see
hostspeed.py). Every repetition must produce byte-identical output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from
the traced ones (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the full record (machine, per-repetition figures, hashes), which is
also written under ``.bench_work/results/``. BLAS is pinned to one thread
and the run to one CPU.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import snapshot
from hostspeed import HostSpeed
from snapshot import ROOT, SRC, BenchSetupError
from spans import Tracer

WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 3
# a BLEU from the snapshot must reach this share of its validation BLEU
BLEU_FLOOR_SHARE = 0.8
# draws the training epoch of every training workload
EPOCH_SEED = 20151208

END_TO_END = {
    "setup_s": "s",
    "sents_per_s": "1/s",
    "peak_rss_mb": "MB",
    "heldout_nll": "nats/token",
    "bleu": "BLEU",
}

PER_LAYER = {
    "trainer.update_ms_p50": "ms",
    "trainer.update_ms_p90": "ms",
    "trainer.self_ms_per_update": "ms",
    "trainer.valid_s": "s",
    "trainer.accounted_share": "ratio",
    "mrt.mle_grad_ms_per_batch": "ms",
    "mrt.sample_ms_per_sent": "ms",
    "mrt.rescore_ms_per_sent": "ms",
    "mrt.grad_ms_per_sent": "ms",
    "mrt.candidates_per_sent": "count",
    "mrt.unique_per_k": "ratio",
    "mrt.truncated_ratio": "ratio",
    "mrt.sampled_tokens_per_sent": "count",
    "mrt.scored_tokens_per_sent": "count",
    "metrics.delta_calls_per_sent": "count",
    "metrics.delta_ms_per_call": "ms",
    "metrics.delta_share": "ratio",
    "model.encode_calls_per_sent": "count",
    "model.step_calls_per_sent": "count",
    "model.step_us_record": "us",
    "model.step_us_norecord": "us",
    "diffcore.backward_ms_per_update": "ms",
    "diffcore.tape_nodes_per_update": "count",
    "decoder.beam_ms_per_sent_p50": "ms",
    "decoder.beam_ms_per_sent_p95": "ms",
    "decoder.steps_per_sent": "count",
    "data.gen_s": "s",
    "data.load_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# figures that count work; they must repeat exactly for the same code
COUNTS = (
    "mrt.candidates_per_sent", "mrt.unique_per_k", "mrt.truncated_ratio",
    "mrt.sampled_tokens_per_sent", "mrt.scored_tokens_per_sent",
    "metrics.delta_calls_per_sent", "model.encode_calls_per_sent",
    "model.step_calls_per_sent", "diffcore.tape_nodes_per_update",
    "decoder.steps_per_sent",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "decode"
    len_range: tuple[int, int] = (2, 5)
    max_len: int = 10
    criterion: str = "mle"
    start: str = "init"  # "init" (init_params) or "snapshot"
    batch: int = 16
    lr: float = 2.0
    updates: int = 1
    k: int = 20
    alpha: float = 5e-3
    loss: str = "neg_sbleu"
    n_valid: int = 200
    validates: bool = True  # one validation pass (beam 10) per run
    n_heldout: int = 200
    decode_pool: int = 800
    decode_n: int = 600
    # "output": BLEU of the workload's own output. "snapshot": the snapshot
    # re-decoded on the recipe's validation set, for workloads whose own
    # output scores 0 (MLE this early, long sentences the snapshot never saw)
    bleu_from: str = "output"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mle-lexicon",
            "MLE from init_params: recording forward pass and Tape.gradient; "
            "no sampling, no sentence loss",
            "train", updates=48, bleu_from="snapshot",
        ),
        Workload(
            "mrt-lexicon",
            "MRT from the snapshot at k=20 with sentence BLEU: sampling, "
            "rescoring and mrt_grad do ~98% of the work",
            "train", criterion="mrt", start="snapshot", batch=8, lr=8.0, updates=8,
        ),
        Workload(
            "mrt-ter-long",
            "MRT from the snapshot at k=100 with TER on 8-12 token sentences: "
            "~5x larger candidate spaces and tapes, TER ~18% of the work",
            "train", len_range=(8, 12), max_len=16, criterion="mrt",
            start="snapshot", batch=5, lr=8.0, updates=2, k=100, loss="ster",
            n_valid=20, validates=False, n_heldout=100, bleu_from="snapshot",
        ),
        Workload(
            "decode-beam10",
            "riskseq decode --beam 10 subprocess on held-out sentences: "
            "non-recording forward passes, CLI start-up and file I/O",
            "decode",
        ),
    )
}

TINY = dict(updates=4, batch=4, k=5, n_valid=20, n_heldout=8, decode_pool=200, decode_n=40)


def _riskseq_errors() -> tuple:
    """The exceptions riskseq raises for a failed operation."""
    from riskseq.diffcore import DiffError
    from riskseq.metrics import MetricError
    from riskseq.model import ModelError
    from riskseq.mrt import MrtError
    from riskseq.trainer import TrainError

    return TrainError, MrtError, ModelError, MetricError, DiffError


class BenchFailure(Exception):
    """An operation's output is missing or wrong."""


@dataclass
class Rep:
    """One repetition. ``wall`` is the raw wall time of the ``trainer.train``
    call or of the decode, ``seconds`` the same in reference seconds, and
    ``factor`` converts durations inside it (see hostspeed.py)."""

    ops: int
    sentences: int
    failed: int = 0
    traced: bool = False
    wall: float = 0.0
    seconds: float = 0.0
    factor: float = 1.0
    digest: str | None = None
    peak_rss_mb: float | None = None
    error: str | None = None
    layers: dict = field(default_factory=dict)
    output: object = None


# -- set-up ---------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def cli_import_seconds() -> float:
    """Wall time of a fresh process that imports riskseq.cli, minus an
    empty interpreter's start-up."""
    def run(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                       check=True, timeout=120)
        return time.perf_counter() - t0

    return max(run("import riskseq.cli") - run("pass"), 0.0)


@dataclass
class Setup:
    workdir: str
    model_cfg: object
    train: object
    valid: object
    heldout: object
    snapshot_params: object
    snapshot_meta: dict
    ckpt: str
    vocab_path: str
    vocab_tokens: set = field(default_factory=set)
    decode_input: str | None = None
    decode_refs: list = field(default_factory=list)


def setup(w: Workload, seed: int, workdir: str) -> Setup:
    """Corpora, snapshot, and the CLI checkpoint + vocab from the code under test."""
    from riskseq.data import Corpus, gen_synthetic, synthetic_vocab
    from riskseq.model import ModelConfig, save_model

    data = snapshot.RECIPE_DATA
    train_c, valid_c, test_c = gen_synthetic(
        "lexicon", data["vocab_size"], data["n_sentences"], tuple(w.len_range),
        seed=data["seed"], n_valid=w.n_valid,
        n_test=w.decode_pool if w.kind == "decode" else w.n_heldout,
    )
    params, snap_cfg, meta = snapshot.load_snapshot()
    model_cfg = ModelConfig(**{**snap_cfg.to_dict(), "max_len": w.max_len})
    os.makedirs(workdir, exist_ok=True)
    vocab = synthetic_vocab(data["vocab_size"])
    ckpt = os.path.join(workdir, "snapshot.ckpt")
    vocab_path = os.path.join(workdir, "vocab.txt")
    save_model(params, model_cfg, ckpt)
    vocab.save(vocab_path)
    if w.kind == "train":
        # One epoch per train call, the same sentences for every seed, so
        # the seed changes only the order, the sampling and (MLE) the init.
        # A seed-drawn epoch made mrt-ter-long's work vary 2x between seeds:
        # a sentence the snapshot never ends with EOS costs far more.
        chosen = pick_by_length(train_c, w.updates * w.batch,
                                np.random.default_rng(EPOCH_SEED))
        train_c = Corpus("train", [train_c.pairs[i] for i in chosen],
                         [train_c.references[i] for i in chosen])
    s = Setup(workdir, model_cfg, train_c, valid_c if w.validates else None,
              test_c.pairs[: w.n_heldout], params, meta, ckpt, vocab_path,
              set(vocab.tokens))
    if w.kind == "decode":
        rng = np.random.default_rng([seed, 0xDEC0])
        chosen = sorted(rng.choice(len(test_c.pairs), size=w.decode_n, replace=False))
        s.decode_input = os.path.join(workdir, "input.src")
        with open(s.decode_input, "w", encoding="utf-8") as fh:
            for i in chosen:
                fh.write(" ".join(vocab.decode(test_c.pairs[i].src)) + "\n")
        s.decode_refs = [[vocab.decode(list(r)) for r in test_c.references[i]]
                         for i in chosen]
    return s


def pick_by_length(corpus, n: int, rng) -> list[int]:
    """n sentence indices drawn by rng, as many of each source length as
    n allows."""
    by_len: dict[int, list[int]] = {}
    for i, pair in enumerate(corpus.pairs):
        by_len.setdefault(len(pair.src), []).append(i)
    lengths = sorted(by_len)
    per, extra = divmod(n, len(lengths))
    chosen: list[int] = []
    for j, length in enumerate(lengths):
        m = per + (j < extra)
        chosen.extend(int(i) for i in rng.choice(by_len[length], size=m, replace=False))
    return sorted(chosen)


# -- repetitions ----------------------------------------------------------


def train_rep(w: Workload, s: Setup, seed: int, initial=None) -> Rep:
    """One ``trainer.train`` call over the workload's epoch."""
    import riskseq.trainer as trainer_mod
    from riskseq.trainer import TrainConfig

    cfg = TrainConfig(
        criterion=w.criterion, batch_size=w.batch, learning_rate=w.lr,
        max_updates=w.updates, eval_every=0, seed=seed, k=w.k, alpha=w.alpha,
        loss_kind=w.loss,
    )
    if initial is None:
        initial = initial_params(w, s, seed)
    rep = Rep(ops=w.updates, sentences=w.updates * w.batch)
    try:
        with HostSpeed() as timer:
            result = trainer_mod.train(cfg, s.model_cfg, s.train, None, initial)
    except _riskseq_errors() as exc:
        rep.failed, rep.error = w.updates, f"{type(exc).__name__}: {exc}"
        return rep
    finally:
        rep.wall, rep.seconds, rep.factor = timer.wall, timer.seconds, timer.factor
    final = result.final_params
    flat = final.flat()
    if not np.all(np.isfinite(flat)):
        rep.failed, rep.error = w.updates, "non-finite final parameters"
        return rep
    rep.digest = hashlib.sha256(flat.tobytes()).hexdigest()
    rep.output = final
    return rep


def decode_argv(s: Setup, output: str) -> list[str]:
    return ["decode", "--checkpoint", s.ckpt, "--beam", "10", "--input", s.decode_input,
            "--output", output, "--src-vocab", s.vocab_path, "--tgt-vocab", s.vocab_path,
            "--quiet"]


def decode_rep(w: Workload, s: Setup, in_process: bool) -> Rep:
    """One ``riskseq decode`` run: a child process, or ``cli.main`` called
    in this process so that spans can be recorded."""
    output = os.path.join(s.workdir, "output.hyp")
    if os.path.exists(output):
        os.remove(output)
    rep = Rep(ops=w.decode_n, sentences=w.decode_n)
    argv = decode_argv(s, output)
    if in_process:
        import riskseq.cli as cli_mod

        try:
            with HostSpeed() as timer:
                code = cli_mod.main(argv)
        except _riskseq_errors() as exc:
            code = f"{type(exc).__name__}: {exc}"
    else:
        with open(os.path.join(s.workdir, "decode.log"), "wb") as log:
            with HostSpeed() as timer:
                proc = subprocess.Popen([sys.executable, "-m", "riskseq.cli", *argv],
                                        env=_child_env(), cwd=ROOT, stdout=log, stderr=log)
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        rep.peak_rss_mb = usage.ru_maxrss / 1024.0
    rep.wall, rep.seconds, rep.factor = timer.wall, timer.seconds, timer.factor
    try:
        if code != 0:
            raise BenchFailure(f"riskseq decode failed: {code}")
        rep.output = check_decode_output(output, w.decode_n, s.vocab_tokens)
    except BenchFailure as exc:
        rep.failed, rep.error = w.decode_n, str(exc)
        return rep
    with open(output, "rb") as fh:
        rep.digest = hashlib.sha256(fh.read()).hexdigest()
    return rep


def check_decode_output(path: str, n_lines: int, vocab: set[str]) -> list[list[str]]:
    """The decoded lines; raises BenchFailure on a wrong line count or a
    token outside the target vocabulary."""
    if not os.path.isfile(path):
        raise BenchFailure("no decode output")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n_lines:
        raise BenchFailure(f"{len(lines)} output lines for {n_lines} inputs")
    hyps = [line.split() for line in lines]
    for i, hyp in enumerate(hyps):
        bad = [tok for tok in hyp if tok not in vocab]
        if bad:
            raise BenchFailure(f"line {i + 1}: tokens outside the vocabulary: {bad[:3]}")
    return hyps


@dataclass
class Validation:
    bleu: float
    wall: float
    seconds: float
    layers: dict


def validate(w: Workload, s: Setup, params, tracer: Tracer | None) -> Validation:
    """The run's one validation pass over a train call's final parameters:
    ``decoder.decode_corpus`` at beam 10 and ``metrics.corpus_bleu``, as the
    trainer's own validation does. Traced when a tracer is given."""
    import riskseq.decoder as decoder_mod
    import riskseq.metrics as metrics_mod

    def run_pass():
        hyps = decoder_mod.decode_corpus(params, [p.src for p in s.valid.pairs],
                                         decoder_mod.DEFAULT_BEAM, s.model_cfg.max_len)
        return float(metrics_mod.corpus_bleu(hyps, s.valid.references))

    layers = {}
    with HostSpeed() as timer:
        if tracer is None:
            bleu = run_pass()
        else:
            with tracer.installed():
                bleu = run_pass()
    if tracer is not None:
        layers = scale_times(tracer.analyse(0, 0), timer.factor)
        tracer.reset()
    return Validation(bleu, timer.wall, timer.seconds, layers)


def scale_times(layers: dict, factor: float) -> dict:
    """Per-layer figures with every time converted to reference seconds."""
    return {k: v * factor if PER_LAYER[k] in ("s", "ms", "us") else v
            for k, v in layers.items()}


# per-layer metrics that a training workload takes from its validation pass
VALIDATION_LAYERS = ("trainer.valid_s", "decoder.beam_ms_per_sent_p50",
                     "decoder.beam_ms_per_sent_p95", "decoder.steps_per_sent")


def snapshot_bleu(s: Setup) -> float:
    """Corpus BLEU of the snapshot on the recipe's validation set, decoded
    by the code under test as the trainer's validation pass does."""
    from riskseq import metrics
    from riskseq.data import gen_synthetic
    from riskseq.decoder import DEFAULT_BEAM, decode_corpus

    data = snapshot.RECIPE_DATA
    _, valid, _ = gen_synthetic("lexicon", data["vocab_size"], data["n_sentences"],
                                tuple(data["len_range"]), seed=data["seed"])
    max_len = snapshot.RECIPE_MODEL["max_len"]
    hyps = decode_corpus(s.snapshot_params, [p.src for p in valid.pairs], DEFAULT_BEAM, max_len)
    return float(metrics.corpus_bleu(hyps, valid.references))


def heldout_nll(params, pairs) -> float:
    from riskseq.model import sequence_logprob

    nll = tokens = 0.0
    for p in pairs:
        total, _ = sequence_logprob(params, p.src, p.tgt)
        nll -= total
        tokens += len(p.tgt)
    return nll / tokens


# -- the run --------------------------------------------------------------


def run_reps(w: Workload, s: Setup, seed: int, seconds: float, trace: bool,
             tracer: Tracer) -> list[Rep]:
    """Repeat the workload's unit until ``seconds`` would be exceeded. With
    tracing, untraced and traced repetitions alternate (at least two each)."""
    min_reps = 4 if trace else 2
    reps: list[Rep] = []
    began = time.perf_counter()
    took: list[float] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                rep = one_rep(w, s, seed, trace)
            rep.layers = scale_times(
                tracer.analyse(rep.sentences, w.updates if w.kind == "train" else 0),
                rep.factor)
            tracer.reset()
        else:
            rep = one_rep(w, s, seed, trace)
        rep.traced = traced
        reps.append(rep)
        took.append(time.perf_counter() - t0)
        if len(reps) >= min_reps and (
                time.perf_counter() - began + statistics.median(took) > seconds):
            return reps


def one_rep(w: Workload, s: Setup, seed: int, trace: bool) -> Rep:
    if w.kind == "train":
        return train_rep(w, s, seed)
    return decode_rep(w, s, in_process=trace)


def machine_record() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": snapshot.repo_git_sha(),
        "src_sha256": snapshot.source_sha256(),
    }


def initial_params(w: Workload, s: Setup, seed: int):
    """The parameters a train call starts from."""
    from riskseq.model import init_params

    return s.snapshot_params if w.start == "snapshot" else init_params(s.model_cfg, seed)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the full record (``result`` holds the
    final JSON object)."""
    w = WORKLOADS[workload]
    if tiny:
        w = Workload(**{**w.__dict__, **TINY})
    snapshot.use_checkout_source()
    import riskseq.cli  # noqa: F401  (every layer loaded before patching)

    machine = machine_record()
    # one CPU for this process and its children, the CPU HostSpeed samples
    machine["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    workdir = os.path.join(WORK, f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}")
    tracer = Tracer()
    setups: list[tuple[HostSpeed, float]] = []  # (timer, import seconds inside it)
    gen_s = 0.0
    try:
        for i in range(SETUP_REPS):
            traced = trace and i == SETUP_REPS - 1
            with HostSpeed() as timer:
                import_s = cli_import_seconds()
                if traced:
                    with tracer.installed():
                        s = setup(w, seed, workdir)
                else:
                    s = setup(w, seed, workdir)
            if traced:
                gen_s = tracer.analyse(0, 0)["data.gen_s"] * timer.factor
                tracer.reset()
            setups.append((timer, import_s))
        reps = run_reps(w, s, seed, seconds, trace, tracer)
        good = [r for r in reps if r.error is None]
        valid, run_errors = None, []
        if w.kind == "train" and w.validates and good:
            try:
                valid = validate(w, s, good[0].output, tracer if trace else None)
            except _riskseq_errors() as exc:
                run_errors.append(f"validation failed: {type(exc).__name__}: {exc}")
        record = summarise(w, s, seed, reps, setups, gen_s, trace, valid, run_errors)
        record["machine"] = machine
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def check_quality(w: Workload, s: Setup, seed: int, first: Rep, valid, quality: dict,
                  errors: list) -> None:
    """Fill ``quality`` with heldout_nll and bleu; append failed checks to
    ``errors``."""
    if w.kind == "train":
        quality["heldout_nll"] = heldout_nll(first.output, s.heldout)
        if w.start == "init":
            initial = heldout_nll(initial_params(w, s, seed), s.heldout)
            if not quality["heldout_nll"] < initial:
                errors.append(f"held-out NLL {quality['heldout_nll']} not below "
                              f"the initial model's {initial}")
    else:
        quality["heldout_nll"] = heldout_nll(s.snapshot_params, s.heldout)
    if w.bleu_from == "snapshot":
        quality["bleu"] = snapshot_bleu(s)
    elif w.kind == "decode":
        from riskseq.metrics import corpus_bleu

        quality["bleu"] = float(corpus_bleu(first.output, s.decode_refs))
    elif valid is not None:
        quality["bleu"] = valid.bleu
    else:
        return
    floor = BLEU_FLOOR_SHARE * s.snapshot_meta["valid_bleu"]
    if quality["bleu"] < floor:
        errors.append(f"BLEU {quality['bleu']:.2f} below the floor {floor:.2f}")
    if not np.isfinite(quality["heldout_nll"]):
        errors.append("non-finite held-out NLL")


def summarise(w, s, seed, reps, setups, gen_s, trace, valid, run_errors) -> dict:
    errors = run_errors + [r.error for r in reps if r.error]
    good = [r for r in reps if r.error is None]
    digests = {r.digest for r in good}
    if len(digests) > 1:
        errors.append(f"repetitions differ: {sorted(digests)}")
    untraced = [r for r in reps if not r.traced]
    metrics: dict[str, float] = {}
    quality: dict[str, float] = {}
    try:
        if good:
            check_quality(w, s, seed, good[0], valid, quality, errors)
    except _riskseq_errors() as exc:
        errors.append(f"quality check failed: {type(exc).__name__}: {exc}")
    if trace:
        traced = [r for r in good if r.traced]
        for name in COUNTS:
            seen = {r.layers[name] for r in traced}
            if len(seen) > 1:
                errors.append(f"count {name} differs between repetitions: {sorted(seen)}")
        for name in PER_LAYER:
            vals = [r.layers[name] for r in traced if name in r.layers]
            metrics[name] = statistics.median(vals) if vals else 0.0
        if valid is not None:
            for name in VALIDATION_LAYERS:
                metrics[name] = valid.layers[name]
        metrics["data.gen_s"] = gen_s
        metrics["cli.import_s"] = statistics.median(imp * t.factor for t, imp in setups)
        t_secs = statistics.median([r.seconds for r in traced]) if traced else 0.0
        u_secs = statistics.median([r.seconds for r in untraced])
        metrics["trace.overhead_s"] = t_secs - u_secs if traced else 0.0
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / u_secs
        units = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(t.seconds for t, _ in setups)
        metrics["sents_per_s"] = statistics.median([r.sentences / r.seconds for r in untraced])
        if w.kind == "decode":
            metrics["peak_rss_mb"] = statistics.median(
                [r.peak_rss_mb for r in untraced if r.peak_rss_mb is not None])
        else:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics.update(quality)
        units = END_TO_END
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    if not np.isfinite(quality.get("heldout_nll", 0.0)):
        failed = attempted  # a non-finite held-out NLL fails the whole run
    result = {
        "correct": not errors and failed == 0 and all(k in metrics for k in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
                    for k, u in units.items()},
    }
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "snapshot": {k: s.snapshot_meta[k] for k in ("params_sha256", "valid_bleu", "git_sha")},
        "errors": errors,
        "quality": quality,
        "raw": {"setup_s": statistics.median(t.wall for t, _ in setups),
                "sents_per_s": statistics.median([r.sentences / r.wall for r in untraced])},
        "validation": None if valid is None else {
            "bleu": valid.bleu, "wall_s": valid.wall, "seconds": valid.seconds},
        "setups": [{"wall_s": t.wall, "seconds": t.seconds, "import_s": imp}
                   for t, imp in setups],
        "reps": [{"traced": r.traced, "wall_s": r.wall, "seconds": r.seconds,
                  "ops": r.ops, "failed": r.failed, "digest": r.digest, "error": r.error}
                 for r in reps],
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchSetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
