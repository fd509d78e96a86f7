"""Criterion 7's frozen recipe under each OpenBLAS kernel.

Each OpenBLAS kernel sums a one-row matrix product in its own order, and
the recipe's MLE run turns a last-bit difference into another model, so
criterion 7's figures depend on the kernel the CPU gets. This script runs
the recipe of ``tests/test_acceptance.py`` (its constants are imported,
not copied) once per kernel, each in its own child process whose
environment sets ``OPENBLAS_CORETYPE`` to the kernel and
``OPENBLAS_NUM_THREADS`` to 1. It prints one row per kernel: the kernel
OpenBLAS reports, the MLE best BLEU, each MRT seed's best BLEU, whether
criterion 7's gates hold, and the sha256 of each run's final parameters
(``ParamStore.flat()`` bytes; MLE first, then the MRT seeds in order).

Usage, from the repository root (about a minute per kernel):

    python3 tools/blas_kernels.py [--kernels SkylakeX Haswell ...]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")


def _corename() -> str:
    """The kernel the loaded OpenBLAS runs, as it names it."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                return getattr(lib, name)().decode()
    return "unknown"


def run_recipe() -> dict:
    """Criterion 7's recipe in this process, as ``test_acceptance`` runs it."""
    import hashlib
    import statistics

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from test_acceptance import (
        LEXICON_DATA_SEED, LEXICON_LEN_RANGE, LEXICON_PAIRS, LEXICON_VOCAB,
        MLE_RECIPE, MRT_RECIPE, MRT_SEEDS, RECIPE_MODEL,
    )

    from riskseq.data import gen_synthetic
    from riskseq.model import ModelConfig
    from riskseq.trainer import TrainConfig, train

    def digest(result) -> str:
        return hashlib.sha256(result.final_params.flat().tobytes()).hexdigest()

    model_cfg = ModelConfig(**RECIPE_MODEL)
    train_c, valid_c, _ = gen_synthetic(
        "lexicon", LEXICON_VOCAB, LEXICON_PAIRS, LEXICON_LEN_RANGE, seed=LEXICON_DATA_SEED
    )
    started = time.perf_counter()
    mle = train(TrainConfig(**MLE_RECIPE), model_cfg, train_c, valid_c)
    mrt = [
        train(TrainConfig(seed=seed, **MRT_RECIPE), model_cfg, train_c, valid_c,
              mle.best_params)
        for seed in MRT_SEEDS
    ]
    elapsed = time.perf_counter() - started
    mrt_bleu = [r.best_bleu for r in mrt]
    return {
        "corename": _corename(),
        "mle_bleu": mle.best_bleu,
        "mrt_bleu": mrt_bleu,
        "passes": mle.best_bleu >= 60.0
        and statistics.median(mrt_bleu) >= mle.best_bleu + 1.0
        and elapsed <= 900.0,
        "seconds": elapsed,
        "sha256": [digest(r) for r in (mle, *mrt)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", nargs="+", default=list(KERNELS))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_recipe()))
        return 0

    print("| kernel | OpenBLAS reports | MLE | MRT (seeds in order) | criterion 7 "
          "| seconds | final sha256 (MLE; MRT) |")
    print("|---|---|---|---|---|---|---|")
    for kernel in args.kernels:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"| {kernel} | failed: {(proc.stderr.strip().splitlines() or [''])[-1]} |")
            continue
        r = json.loads(proc.stdout)
        mrt = " / ".join(f"{b:.2f}" for b in r["mrt_bleu"])
        shas = "; ".join(r["sha256"])
        print(f"| {kernel} | {r['corename']} | {r['mle_bleu']:.2f} | {mrt} | "
              f"{'passes' if r['passes'] else 'fails'} | {r['seconds']:.0f} | {shas} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
