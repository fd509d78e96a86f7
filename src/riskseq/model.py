"""Attention-based encoder-decoder translation model.

Single-layer bidirectional gated-recurrent encoder, attentional
gated-recurrent decoder, per-step softmax over the target vocabulary.
The per-step readout is tanh of an affine map of [previous embedding,
decoder state, attention context] followed by a linear output projection.

All weight matrices are stored (in_dim, out_dim) and applied as x @ W so
the tape only ever needs vector-matrix products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .diffcore import Node, ParamStore, Tape

__all__ = [
    "PAD",
    "EOS",
    "UNK",
    "BOS",
    "RESERVED_TOKENS",
    "ModelConfig",
    "ModelError",
    "Annotations",
    "StepState",
    "BoundModel",
    "init_params",
    "sequence_logprob",
    "save_model",
    "load_model",
]

PAD = 0
EOS = 1
UNK = 2
BOS = 3
RESERVED_TOKENS = ("<pad>", "<eos>", "<unk>", "<bos>")

INIT_SCALE = 0.08


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    attention_dim: int = 32
    max_len: int = 20

    def __post_init__(self):
        if self.src_vocab_size < 4 or self.tgt_vocab_size < 4:
            raise ModelError("vocab sizes must be at least 4 (reserved tokens)")
        for field in ("embed_dim", "hidden_dim", "attention_dim", "max_len"):
            if getattr(self, field) < 1:
                raise ModelError(f"{field} must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, kind) for every tensor; kind in {weight, bias, zero}."""
    E, H, A = cfg.embed_dim, cfg.hidden_dim, cfg.attention_dim
    shapes: list[tuple[str, tuple[int, ...], str]] = [
        ("src_embed", (cfg.src_vocab_size, E), "weight"),
        ("tgt_embed", (cfg.tgt_vocab_size, E), "weight"),
    ]
    for direction in ("fwd", "bwd"):
        for gate in ("z", "r", "h"):
            shapes.append((f"enc_{direction}_W{gate}", (E, H), "weight"))
            shapes.append((f"enc_{direction}_U{gate}", (H, H), "weight"))
            shapes.append((f"enc_{direction}_b{gate}", (H,), "bias"))
    shapes.append(("dec_init_W", (H, H), "weight"))
    shapes.append(("dec_init_b", (H,), "bias"))
    shapes.append(("attn_W", (H, A), "weight"))
    shapes.append(("attn_U", (2 * H, A), "weight"))
    shapes.append(("attn_v", (A,), "weight"))
    for gate in ("z", "r", "h"):
        shapes.append((f"dec_W{gate}", (E + 2 * H, H), "weight"))
        shapes.append((f"dec_U{gate}", (H, H), "weight"))
        shapes.append((f"dec_b{gate}", (H,), "bias"))
    shapes.append(("read_W", (E + H + 2 * H, H), "weight"))
    shapes.append(("read_b", (H,), "bias"))
    shapes.append(("out_W", (H, cfg.tgt_vocab_size), "zero"))
    shapes.append(("out_b", (cfg.tgt_vocab_size,), "zero"))
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    """Uniform [-0.08, 0.08] weights, zero biases, zero output projection
    (so the initial per-step distribution is exactly uniform)."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape, kind in _param_shapes(cfg):
        if kind == "weight":
            store.add(name, rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape))
        else:
            store.add(name, np.zeros(shape))
    return store


@dataclass
class Annotations:
    """Per-source-position encoder states (forward||backward concatenation),
    plus the attention projection precomputed once per sentence."""

    matrix: Node         # (M, 2H)
    attn_proj: Node      # (M, A)
    bwd_first: Node      # (H,) backward state at position 0, seeds the decoder

    @property
    def length(self) -> int:
        return self.matrix.value.shape[0]


@dataclass
class StepState:
    z: Node                    # decoder hidden state
    c: Node                    # attention context used at this step
    attn_weights: Node | None  # distribution over source positions


class BoundModel:
    """Model parameters bound to one tape. All candidate evaluations sharing
    a tape share the same leaf nodes, so one backward pass covers them all."""

    def __init__(self, store: ParamStore, tape: Tape):
        self.store = store
        self.tape = tape
        self.pn = tape.params(store)
        hidden = store["dec_init_b"].shape[0]
        self._ones_h = tape.const(np.ones(hidden))
        self.tgt_vocab_size = store["out_b"].shape[0]
        self.src_vocab_size = store["src_embed"].shape[0]

    # -- recurrent pieces -------------------------------------------------

    def _gru_step(self, prefix: str, x: Node, h: Node) -> Node:
        t, p = self.tape, self.pn
        z = t.sigmoid(
            t.add(t.add(t.matmul(x, p[f"{prefix}_Wz"]), t.matmul(h, p[f"{prefix}_Uz"])), p[f"{prefix}_bz"])
        )
        r = t.sigmoid(
            t.add(t.add(t.matmul(x, p[f"{prefix}_Wr"]), t.matmul(h, p[f"{prefix}_Ur"])), p[f"{prefix}_br"])
        )
        rh = t.mul(r, h)
        hbar = t.tanh(
            t.add(t.add(t.matmul(x, p[f"{prefix}_Wh"]), t.matmul(rh, p[f"{prefix}_Uh"])), p[f"{prefix}_bh"])
        )
        keep = t.add(self._ones_h, t.scale(z, -1.0))
        return t.add(t.mul(keep, h), t.mul(z, hbar))

    def encode(self, src: Sequence[int]) -> Annotations:
        t, p = self.tape, self.pn
        src = _strip_trailing_pad(src)
        if not src:
            raise ModelError("empty source sentence")
        for tok in src:
            if not 0 <= tok < self.src_vocab_size:
                raise ModelError(f"source token id {tok} out of range")
        if any(tok == PAD for tok in src):
            raise ModelError("PAD inside source sentence")
        hidden = self.store["dec_init_b"].shape[0]
        embeds = [t.lookup(p["src_embed"], tok) for tok in src]

        h = t.const(np.zeros(hidden))
        fwd = []
        for e in embeds:
            h = self._gru_step("enc_fwd", e, h)
            fwd.append(h)

        h = t.const(np.zeros(hidden))
        bwd = [None] * len(src)
        for i in reversed(range(len(src))):
            h = self._gru_step("enc_bwd", embeds[i], h)
            bwd[i] = h

        matrix = t.concat([t.stack_rows(fwd), t.stack_rows(bwd)], axis=1)
        attn_proj = t.matmul(matrix, p["attn_U"])
        return Annotations(matrix=matrix, attn_proj=attn_proj, bwd_first=bwd[0])

    def initial_state(self, ann: Annotations) -> StepState:
        t, p = self.tape, self.pn
        z0 = t.tanh(t.add(t.matmul(ann.bwd_first, p["dec_init_W"]), p["dec_init_b"]))
        c0 = t.const(np.zeros(ann.matrix.value.shape[1]))
        return StepState(z=z0, c=c0, attn_weights=None)

    def _attend(self, z: Node, ann: Annotations) -> tuple[Node, Node]:
        t, p = self.tape, self.pn
        e = t.tanh(t.add(ann.attn_proj, t.matmul(z, p["attn_W"])))
        scores = t.matmul(e, p["attn_v"])
        weights = t.softmax(scores)
        context = t.matmul(weights, ann.matrix)
        return weights, context

    def step_logits(
        self, prev_word: int, state: StepState, ann: Annotations
    ) -> tuple[Node, StepState]:
        t, p = self.tape, self.pn
        if not 0 <= prev_word < self.tgt_vocab_size:
            raise ModelError(f"target token id {prev_word} out of range")
        emb = t.lookup(p["tgt_embed"], prev_word)
        weights, context = self._attend(state.z, ann)
        x = t.concat([emb, context])
        z_new = self._gru_step("dec", x, state.z)
        readout = t.tanh(
            t.add(t.matmul(t.concat([emb, z_new, context]), p["read_W"]), p["read_b"])
        )
        logits = t.add(t.matmul(readout, p["out_W"]), p["out_b"])
        return logits, StepState(z=z_new, c=context, attn_weights=weights)

    def decode_step(
        self, prev_word: int, state: StepState, ann: Annotations
    ) -> tuple[Node, StepState]:
        logits, new_state = self.step_logits(prev_word, state, ann)
        return self.tape.softmax(logits), new_state

    def sequence_logprob_nodes(
        self, ann: Annotations, tgt: Sequence[int]
    ) -> tuple[Node, list[Node]]:
        """Log P(tgt | src) as tape nodes. The sequence is scored verbatim:
        sampled candidates may contain any vocabulary id (the sampler draws
        from the full distribution) and may lack a terminal EOS when they
        were truncated at the length limit. EOS may only appear last."""
        t = self.tape
        tgt = list(tgt)
        _validate_target(tgt, self.tgt_vocab_size)
        per_word: list[Node] = []
        state = self.initial_state(ann)
        prev = BOS
        for n, tok in enumerate(tgt):
            logits, new_state = self.step_logits(prev, state, ann)
            logdist = t.log_softmax(logits)
            per_word.append(t.pick(logdist, tok))
            state = new_state
            prev = tok
        total = t.sum(t.stack_scalars(per_word))
        return total, per_word


def _strip_trailing_pad(tgt: Sequence[int]) -> list[int]:
    tgt = list(tgt)
    while tgt and tgt[-1] == PAD:
        tgt.pop()
    return tgt


def _validate_target(tgt: Sequence[int], vocab_size: int) -> None:
    if not tgt:
        raise ModelError("empty target sequence")
    for tok in tgt:
        if not 0 <= tok < vocab_size:
            raise ModelError(f"target token id {tok} out of range")
    if EOS in tgt[:-1]:
        raise ModelError("EOS before the end of the target sequence")


# -- module-level convenience wrapper (fresh parameter binding per call) --


def sequence_logprob(
    params: ParamStore, src: Sequence[int], tgt: Sequence[int]
) -> tuple[float, list[float]]:
    """Total and per-word log-probability of an EOS-terminated target."""
    tgt = _strip_trailing_pad(tgt)
    if not tgt or tgt[-1] != EOS:
        raise ModelError("target must end with EOS")
    if PAD in tgt:
        raise ModelError("PAD inside target sentence")
    tape = Tape(record=False)
    bound = BoundModel(params, tape)
    ann = bound.encode(src)
    total, per_word = bound.sequence_logprob_nodes(ann, tgt)
    return float(total.value), [float(n.value) for n in per_word]


# -- checkpoint + sidecar -------------------------------------------------


def save_model(params: ParamStore, cfg: ModelConfig, path: str) -> None:
    params.save(path)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> tuple[ParamStore, ModelConfig]:
    params = ParamStore.load(path)
    with open(path + ".json", "r", encoding="utf-8") as fh:
        cfg = ModelConfig.from_dict(json.load(fh))
    return params, cfg
