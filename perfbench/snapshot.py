"""The committed MLE snapshot: recipe constants, loading and provenance."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DEFAULT_SNAPSHOT = os.path.join(BENCH_DIR, "snapshot", "mle_lexicon.npz")

# the acceptance recipe's task and model (tests/test_acceptance.py)
RECIPE_DATA = {"task": "lexicon", "vocab_size": 20, "n_sentences": 2000,
               "len_range": [2, 5], "seed": 11}
RECIPE_MODEL = {"src_vocab_size": 20, "tgt_vocab_size": 20, "embed_dim": 16,
                "hidden_dim": 32, "attention_dim": 16, "max_len": 10}


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked (missing source or snapshot)."""


def use_checkout_source() -> None:
    """Import riskseq from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "riskseq", "__init__.py")):
        raise BenchSetupError(f"no riskseq package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import riskseq

    where = os.path.dirname(os.path.abspath(riskseq.__file__))
    if where != os.path.join(SRC, "riskseq"):
        raise BenchSetupError(f"riskseq imported from {where}, not {SRC}")


def repo_git_sha() -> str | None:
    """HEAD of the git work tree rooted at ROOT; None for a plain checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256() -> str:
    """Hash of every file under src/riskseq, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "riskseq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def params_sha256(store) -> str:
    """sha256 over each parameter's name, shape and little-endian f64 bytes."""
    h = hashlib.sha256()
    for name, arr in store.items():
        h.update(name.encode())
        h.update(repr(tuple(arr.shape)).encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def load_snapshot(path: str = DEFAULT_SNAPSHOT):
    """(ParamStore, ModelConfig, meta) for the snapshot, built through
    init_params + ParamStore.set_flat so every name and shape is checked
    against the model code under test."""
    from riskseq.model import ModelConfig, init_params

    if not os.path.isfile(path):
        raise BenchSetupError(f"snapshot missing: {path}")
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["__meta__"]))
        stored = {k: npz[k] for k in npz.files if k != "__meta__"}
    model_cfg = ModelConfig(**meta["model"])
    params = init_params(model_cfg, 0)
    if sorted(stored) != sorted(params.names()):
        raise BenchSetupError(
            f"snapshot parameter names {sorted(stored)} differ from the model's"
        )
    for name, arr in params.items():
        if stored[name].shape != arr.shape:
            raise BenchSetupError(
                f"snapshot {name} has shape {stored[name].shape}, model wants {arr.shape}"
            )
    params.set_flat(np.concatenate([stored[n].ravel() for n in params.names()]))
    if params_sha256(params) != meta["params_sha256"]:
        raise BenchSetupError("snapshot parameters do not match their sha256")
    return params, model_cfg, meta
