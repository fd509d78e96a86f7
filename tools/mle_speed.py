"""Time ``riskseq.mrt.mle_loss_and_grad`` on criterion 7's recipe batches.

Each given ``src`` directory (default: this repository's) is imported as
its own copy of riskseq into one process at one BLAS thread. The trees'
timed passes alternate, tree by tree and batch set by batch set, for
``--rounds`` rounds, so that every tree meets the same machine state and
two trees can be compared in one command:

    python3 tools/mle_speed.py PARENT/src src

The batches follow the acceptance recipe: the recipe model (E16/H32/A16,
V20) from ``init_params``, and 16 lexicon pairs per batch in the trainer's
shuffled order (mixed source lengths), plus batches of 16 pairs of a single
source length for each length. For every tree the script prints the
minimum over rounds of the raw wall milliseconds per batch, the encode and
decoder-step calls per batch and the rows per step call (mixed batches),
and, for two or more trees, each tree's speed-up over the first. Needs
numpy and the standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 16


def load(src: str):
    """The ``data``, ``model`` and ``mrt`` modules of riskseq imported
    afresh from ``src``; modules an earlier tree loaded stay in use by
    that tree's functions."""
    for name in [m for m in sys.modules if m == "riskseq" or m.startswith("riskseq.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        from riskseq import data, model, mrt
    finally:
        sys.path.remove(src)
    return data, model, mrt


def batch_sets(data, model, n_batches: int) -> tuple[object, dict[str, list]]:
    """The recipe model and its batch sets: ``mixed``, then one set per
    source length."""
    import numpy as np

    cfg = model.ModelConfig(20, 20, embed_dim=16, hidden_dim=32, attention_dim=16, max_len=10)
    train, _, _ = data.gen_synthetic("lexicon", 20, 2000, (2, 5), seed=11)
    pairs = [(p.src, p.tgt) for p in train.pairs]
    order = np.random.default_rng([0, 0x5EED]).permutation(len(pairs)).tolist()
    sets = {"mixed": [[pairs[i] for i in order[k : k + BATCH]]
                      for k in range(0, n_batches * BATCH, BATCH)]}
    for length in sorted({len(s) for s, _ in pairs}):
        same = [p for p in pairs if len(p[0]) == length]
        sets[f"length {length}"] = [
            same[k : k + BATCH] for k in range(0, len(same) - BATCH + 1, BATCH)
        ][:n_batches]
    return model.init_params(cfg, 0), sets


def calls_per_batch(model, mrt, params, batches) -> dict[str, float]:
    """Encode and decoder-step calls per batch, and rows per step call."""
    import numpy as np

    calls = {"encode": 0, "step": 0, "rows": 0}
    encode, step = model.BoundModel.encode, model.BoundModel.step_logits

    def counting_encode(self, src):
        calls["encode"] += 1
        return encode(self, src)

    def counting_step(self, prev, z, ann):
        calls["step"] += 1
        calls["rows"] += len(prev) if isinstance(prev, np.ndarray) else 1
        return step(self, prev, z, ann)

    model.BoundModel.encode, model.BoundModel.step_logits = counting_encode, counting_step
    try:
        for batch in batches:
            mrt.mle_loss_and_grad(params, batch)
    finally:
        model.BoundModel.encode, model.BoundModel.step_logits = encode, step
    return {"encode": calls["encode"] / len(batches), "step": calls["step"] / len(batches),
            "rows": calls["rows"] / calls["step"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", nargs="*", default=[os.path.join(ROOT, "src")],
                        help="src directories to import riskseq from")
    parser.add_argument("--batches", type=int, default=60, help="batches per set")
    parser.add_argument("--rounds", type=int, default=10, help="timed passes per tree and set")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy first loads, below

    trees = []
    for src in args.srcs:
        data, model, mrt = load(os.path.abspath(src))
        params, sets = batch_sets(data, model, args.batches)
        calls = calls_per_batch(model, mrt, params, sets["mixed"])
        trees.append((src, mrt.mle_loss_and_grad, params, sets, calls))

    best = [dict.fromkeys(trees[0][3], float("inf")) for _ in trees]
    for r in range(args.rounds):
        for key in best[0]:
            # alternate which tree goes first
            for t in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                _, objective, params, sets, _ = trees[t]
                start = time.perf_counter()
                for batch in sets[key]:
                    objective(params, batch)
                ms = (time.perf_counter() - start) / len(sets[key]) * 1e3
                best[t][key] = min(best[t][key], ms)

    print(f"ms per batch of {BATCH} (min of {args.rounds} passes of {args.batches} batches "
          "per set, trees alternating, one BLAS thread)")
    for t, (src, _, _, _, calls) in enumerate(trees):
        print(f"\n{src}\n  encode calls per batch {calls['encode']:.2f}, step calls per "
              f"batch {calls['step']:.2f}, rows per step call {calls['rows']:.2f}")
        for key, ms in best[t].items():
            gain = f"   {best[0][key] / ms:.2f}x" if t else ""
            print(f"  {key:<10} {ms:8.2f}{gain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
