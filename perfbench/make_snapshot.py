"""Reproduce the acceptance recipe's MLE run and store its best parameters.

The recipe: lexicon task (vocab 20, 2000 pairs, lengths 2-5, data seed 11),
model E16/H32/A16 with max_len 10, MLE at batch 16 and lr 2.0 for 1600
updates with validation every 200, seed 0. BLAS is pinned to one thread so
the run does not depend on the machine's core count.

The snapshot is a numpy ``.npz`` holding one array per parameter plus a
``__meta__`` JSON string: the generating git sha, the best validation BLEU,
the thread setting, and the sha256 of the parameters (see
``snapshot.params_sha256``). The MRT and decode workloads start from it.

Usage, from the repository root:

    python3 perfbench/make_snapshot.py [--out perfbench/snapshot/mle_lexicon.npz]
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse
import json
import sys
import time

import numpy as np

import snapshot
from snapshot import DEFAULT_SNAPSHOT, RECIPE_DATA, RECIPE_MODEL, repo_git_sha

MLE_RECIPE = dict(
    criterion="mle", batch_size=16, learning_rate=2.0,
    max_updates=1600, eval_every=200, seed=0,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_SNAPSHOT)
    args = parser.parse_args(argv)

    snapshot.use_checkout_source()
    from riskseq.data import gen_synthetic
    from riskseq.model import ModelConfig
    from riskseq.trainer import TrainConfig, train

    train_c, valid_c, _ = gen_synthetic(
        "lexicon", RECIPE_DATA["vocab_size"], RECIPE_DATA["n_sentences"],
        tuple(RECIPE_DATA["len_range"]), seed=RECIPE_DATA["seed"],
    )
    model_cfg = ModelConfig(**RECIPE_MODEL)
    started = time.perf_counter()
    result = train(TrainConfig(**MLE_RECIPE), model_cfg, train_c, valid_c)
    elapsed = time.perf_counter() - started
    best = max(result.curve, key=lambda p: p.valid_bleu)
    meta = {
        "git_sha": repo_git_sha(),
        "valid_bleu": result.best_bleu,
        "best_update": best.update,
        "train_seconds": round(elapsed, 1),
        "blas_threads": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "data": RECIPE_DATA,
        "model": RECIPE_MODEL,
        "recipe": MLE_RECIPE,
        "params_sha256": snapshot.params_sha256(result.best_params),
    }
    arrays = {name: arr for name, arr in result.best_params.items()}
    arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    np.savez(args.out, **arrays)
    print(json.dumps(meta, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
