"""Attention-based encoder-decoder translation model.

Single-layer bidirectional gated-recurrent encoder, attentional
gated-recurrent decoder, per-step softmax over the target vocabulary.
The per-step readout is tanh of an affine map of [previous embedding,
decoder state, attention context] followed by a linear output projection.

All weight matrices are stored (in_dim, out_dim) and applied as x @ W so
the tape only ever needs vector-matrix products. Encoding and decoder steps
also take a row batch, (B, ...) for every B >= 1: B sources of one length as
an (S, B) array, B token ids and (B, H) states; only ``PrefixMemo`` and the
oracle walk 1-D. Beam search steps every live hypothesis of a group of
same-length sources so, without recording, each row attending over its own
sentence's annotations (``Annotations.rows``); MLE steps sentences of one
shape so on a recording tape, and ``PrefixMemo.weighted_logprob`` sweeps
the memo's steps back so, one depth at a time. Every product, forward and
VJP, goes through ``_vm``, whose stacked form makes one gemv call per row,
the call a single row makes, and parameter contributions keep a leading
row axis. So every row keeps the bits of stepping it alone, its gradient
included.

A GRU step, the attention, the readout and the initial state are each one
fused tape node (see ``diffcore``). Their forwards run the numpy calls of
the primitive chains named in their docstrings, and their VJPs add every
adjoint contribution in the order those chains' reverse sweep would, so
gradients are bit-identical to the primitive-built model. Each VJP is one
module-level function of the arrays its forward saved.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .diffcore import Node, ParamStore, RiskseqError, Tape
from .diffcore import atomic_writer, log_softmax, log_softmax_vjp, sigmoid

__all__ = [
    "PAD",
    "EOS",
    "UNK",
    "BOS",
    "RESERVED_TOKENS",
    "ModelConfig",
    "ModelError",
    "Annotations",
    "BoundModel",
    "PrefixMemo",
    "init_params",
    "check_params",
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


class ModelError(RiskseqError):
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
        not_int = sorted(k for k, v in asdict(self).items() if type(v) is not int)
        if not_int:
            raise ModelError(f"model config: non-integer values for {not_int}")
        if self.src_vocab_size < 4 or self.tgt_vocab_size < 4:
            raise ModelError("vocab sizes must be at least 4 (reserved tokens)")
        for field in ("embed_dim", "hidden_dim", "attention_dim", "max_len"):
            if getattr(self, field) < 1:
                raise ModelError(f"{field} must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config ``to_dict`` wrote. Unknown or missing keys, and (in
        ``__post_init__``) non-integer values, raise ModelError."""
        if not isinstance(d, dict):
            raise ModelError("model config must be a JSON object")
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        unknown, missing = sorted(d.keys() - names), sorted(required - d.keys())
        if unknown or missing:
            raise ModelError(
                f"model config: unknown keys {unknown}, missing keys {missing}"
            )
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


def check_params(store: ParamStore, cfg: ModelConfig) -> None:
    """Raise ModelError unless ``store`` holds exactly the tensors, by name
    and shape, of a model built from ``cfg``."""
    want = {name: shape for name, shape, _ in _param_shapes(cfg)}
    got = {name: arr.shape for name, arr in store.items()}
    bad = sorted(n for n in want.keys() | got.keys() if got.get(n) != want.get(n))
    if bad:
        raise ModelError(
            "checkpoint does not fit the model config (tensor: checkpoint "
            "shape vs config shape): "
            + ", ".join(f"{n}: {got.get(n)} vs {want.get(n)}" for n in bad)
        )


def _rows_vm(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``x @ W`` for each row x of X. numpy's matmul makes one gemv call per
    stacked item whose row dimension is 1, the call a 1-D ``x @ W`` makes,
    so each row keeps its bits; the 2-D ``X @ W`` would be one gemm,
    summing in another order."""
    return np.matmul(X[..., None, :], W)[..., 0, :]


def _vm(x: np.ndarray):
    """The vector-matrix product for x's shape: plain ``np.matmul`` (what
    ``x @ W`` calls) for one row, ``_rows_vm`` for stacked rows. A fused
    node chooses once, so one row's products cost what ``@`` costs. Its VJP
    uses the same product, with ``W`` a parameter's transpose or one matrix
    per row."""
    return np.matmul if x.ndim == 1 else _rows_vm


def _outer(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The outer product of x and g, one (n, m) table per stacked row."""
    return x[..., None] * g[..., None, :]


def _factors(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An outer product kept as its two factors, for a later ``_outer``."""
    return x, g


# The VJPs of the fused nodes. Each is a function of the arrays its forward
# saved -- ``shared`` ones (parameters, a sentence's annotations) and
# per-row ones -- bound onto the node with ``partial``, so a caller can
# stack the per-row arrays of many nodes of one kind and run their VJPs as
# one row batch (``PrefixMemo.weighted_logprob``). Products go through
# ``_vm`` of the adjoint, so a stacked call gives each row its own call's
# bits. ``outer`` forms each parameter's outer-product contribution.


def _gru_vjp(shared, rows, g, outer=_outer):
    # d*_pre: adjoints of the three pre-activation sums. z is reached
    # through z * hbar, then through keep = 1 + z * -1.0.
    Uh, Wh, Ur, Wr, Uz, Wz = shared
    xv, hv, z, r, rh, hbar, keep = rows
    vm = _vm(g)
    dz = g * hbar + g * hv * -1.0
    dh_pre = g * z * (1.0 - hbar * hbar)
    drh = vm(dh_pre, Uh.T)
    dr_pre = drh * hv * r * (1.0 - r)
    dz_pre = dz * z * keep
    return (
        g * keep, dh_pre, outer(rh, dh_pre),
        vm(dh_pre, Wh.T), outer(xv, dh_pre), drh * r,
        dr_pre, vm(dr_pre, Ur.T), outer(hv, dr_pre),
        vm(dr_pre, Wr.T), outer(xv, dr_pre),
        dz_pre, vm(dz_pre, Uz.T), outer(hv, dz_pre),
        vm(dz_pre, Wz.T), outer(xv, dz_pre),
    )


def _initial_state_vjp(shared, rows, g, outer=_outer):
    (W,), (value, first) = shared, rows
    dpre = g * (1.0 - value * value)
    return (dpre, _vm(g)(dpre, W.T), outer(first, dpre))


def _attend_vjp(shared, rows, g, outer=_outer):
    # A recording row step has one annotation matrix per row.
    (matrix, v, W), (e, weights, zv) = shared, rows
    vm = _vm(g)
    dw = vm(g, matrix.swapaxes(-1, -2))
    ds = weights * (dw - np.sum(dw * weights, axis=-1, keepdims=True))
    de = ds[..., None] * v * (1.0 - e * e)
    dze = de.sum(axis=-2)
    return (outer(weights, g), vm(ds, e), de, vm(dze, W.T), outer(zv, dze))


def _readout_vjp(shared, rows, g, outer=_outer):
    (oW, rW, lo, hi), (readout, c) = shared, rows
    vm = _vm(g)
    dsum = vm(g, oW.T) * (1.0 - readout * readout)
    dc = vm(dsum, rW.T)
    return (
        g, outer(readout, g), dsum, outer(c, dsum),
        dc[..., :lo], dc[..., lo:hi], dc[..., hi:],
    )


@dataclass
class Annotations:
    """Per-source-position encoder states (forward||backward concatenation),
    plus the attention projection precomputed once per sentence."""

    matrix: Node         # (B, M, 2H), or (M, 2H) walked 1-D
    attn_proj: Node      # (B, M, A), or (M, A)
    bwd_first: Node      # (B, H), or (H,): backward state at position 0, seeds the decoder

    def rows(self, owner: np.ndarray) -> "Annotations":
        """Row i holds the annotations of sentence ``owner[i]`` of the
        encoded row batch, for a row step whose rows come from several
        sentences. The rows are constants."""
        matrix, proj, first = (
            Node(a.value[owner]) for a in (self.matrix, self.attn_proj, self.bwd_first)
        )
        return Annotations(matrix=matrix, attn_proj=proj, bwd_first=first)


class BoundModel:
    """Model parameters bound to one tape. All candidate evaluations sharing
    a tape share the same leaf nodes, so one backward pass covers them all."""

    def __init__(self, store: ParamStore, tape: Tape):
        self.store = store
        self.tape = tape
        self.pn = tape.params(store)
        self.tgt_vocab_size = store["out_b"].shape[0]
        self.src_vocab_size = store["src_embed"].shape[0]

    # -- recurrent pieces -------------------------------------------------

    def _gru_step(self, prefix: str, x: Node, h: Node) -> Node:
        """h' = (1 - z) * h + z * tanh(x Wh + (r * h) Uh + bh), with gates
        z, r = sigmoid(x W + h U + b); each sum adds left to right."""
        Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh = (
            self.pn[f"{prefix}_{name}"]
            for name in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")
        )
        xv, hv = x.value, h.value
        vm = _vm(xv)
        z = sigmoid(vm(xv, Wz.value) + vm(hv, Uz.value) + bz.value)
        r = sigmoid(vm(xv, Wr.value) + vm(hv, Ur.value) + br.value)
        rh = r * hv
        hbar = np.tanh(vm(xv, Wh.value) + vm(rh, Uh.value) + bh.value)
        keep = 1.0 - z  # bit-equal to 1 + z * -1.0
        shared = (Uh.value, Wh.value, Ur.value, Wr.value, Uz.value, Wz.value)
        vjp = partial(_gru_vjp, shared, (xv, hv, z, r, rh, hbar, keep))
        # Sweep order: h gets four contributions (through keep * h, r * h,
        # h @ Ur, h @ Uz) and x three (through Wh, Wr, Wz), never pre-summed.
        parents = (h, bh, Uh, x, Wh, h, br, h, Ur, x, Wr, bz, h, Uz, x, Wz)
        return self.tape.emit(keep * hv + z * hbar, parents, vjp)

    def encode(self, src: Sequence[int] | np.ndarray) -> Annotations:
        """Annotations of a source sentence, given by its token ids in
        order. Each position may instead hold a vector of B ids, for B
        sentences of one length (a (S, B) array); every node then holds B
        rows, each byte-equal to encoding its sentence alone, and ``matrix``
        is (B, S, 2H)."""
        t, p = self.tape, self.pn
        ids = np.asarray(src)
        _check_source(ids, self.src_vocab_size)
        hidden = self.store["dec_init_b"].shape[0]
        embeds = [t.lookup(p["src_embed"], tok) for tok in ids]

        h = t.const(np.zeros(ids.shape[1:] + (hidden,)))
        fwd = []
        for e in embeds:
            h = self._gru_step("enc_fwd", e, h)
            fwd.append(h)

        h = t.const(np.zeros(ids.shape[1:] + (hidden,)))
        bwd = [None] * len(ids)
        for i in reversed(range(len(ids))):
            h = self._gru_step("enc_bwd", embeds[i], h)
            bwd[i] = h

        matrix = t.concat([t.stack_rows(fwd), t.stack_rows(bwd)])
        attn_proj = t.matmul(matrix, p["attn_U"])
        return Annotations(matrix=matrix, attn_proj=attn_proj, bwd_first=bwd[0])

    def initial_state(self, ann: Annotations) -> Node:
        """tanh(bwd_first dec_init_W + dec_init_b), one fused node standing
        for matmul, add and tanh; a row of bwd_first gives a row of state."""
        W, b, first = self.pn["dec_init_W"], self.pn["dec_init_b"], ann.bwd_first
        value = np.tanh(_vm(first.value)(first.value, W.value) + b.value)
        vjp = partial(_initial_state_vjp, (W.value,), (value, first.value))
        return self.tape.emit(value, (b, first, W), vjp)

    def _attend(self, z: Node, ann: Annotations) -> Node:
        """The context weights @ matrix, with attention weights
        softmax(tanh(attn_proj + z attn_W) attn_v). Rows of z give an
        (M, A) e per row, and ``e @ v`` is one gemv call per row."""
        W, v = self.pn["attn_W"], self.pn["attn_v"]
        matrix, proj, vm = ann.matrix, ann.attn_proj, _vm(z.value)
        e = np.tanh(proj.value + vm(z.value, W.value)[..., None, :])
        weights = np.exp(log_softmax(e @ v.value))
        vjp = partial(_attend_vjp, (matrix.value, v.value, W.value), (e, weights, z.value))
        return self.tape.emit(
            vm(weights, matrix.value), (matrix, v, proj, z, W), vjp
        )

    def _readout(self, emb: Node, z_new: Node, context: Node) -> Node:
        """Logits tanh([emb, z_new, context] read_W + read_b) out_W + out_b."""
        p = self.pn
        rW, rb, oW, ob = p["read_W"], p["read_b"], p["out_W"], p["out_b"]
        c = np.concatenate([emb.value, z_new.value, context.value], axis=-1)
        vm = _vm(c)
        readout = np.tanh(vm(c, rW.value) + rb.value)
        lo, hi = emb.value.shape[-1], emb.value.shape[-1] + z_new.value.shape[-1]
        vjp = partial(_readout_vjp, (oW.value, rW.value, lo, hi), (readout, c))
        parents = (ob, oW, rb, rW, emb, z_new, context)
        return self.tape.emit(vm(readout, oW.value) + ob.value, parents, vjp)

    def step_logits(
        self, prev_word: int | np.ndarray, z: Node, ann: Annotations
    ) -> tuple[Node, Node]:
        """Logits of the token after ``prev_word`` and the decoder state z
        after it. ``prev_word`` may be a vector of B token ids with ``z``
        holding B rows; logits and state then hold B rows, each byte-equal to
        stepping that row alone. A recording row step needs annotations
        encoded from the same B rows (see ``encode``)."""
        t, p = self.tape, self.pn
        if isinstance(prev_word, np.ndarray):
            bad = prev_word[(prev_word < 0) | (prev_word >= self.tgt_vocab_size)]
            if bad.size:
                raise ModelError(f"target token id {bad[0]} out of range")
        elif not 0 <= prev_word < self.tgt_vocab_size:
            raise ModelError(f"target token id {prev_word} out of range")
        emb = t.lookup(p["tgt_embed"], prev_word)
        context = self._attend(z, ann)
        x = t.concat([emb, context])
        z_new = self._gru_step("dec", x, z)
        return self._readout(emb, z_new, context), z_new


class PrefixMemo:
    """Decoder steps for one source, memoised by target prefix.

    ``next_logdist(prefix)`` is the log-distribution of the token after
    ``prefix`` and ``logprob(tgt)`` the value log P(tgt | src). The source
    is encoded once, and each distinct prefix is stepped once however many
    callers share it, with the values of stepping the model afresh.
    Sampling and scoring use the default non-recording tape. MRT passes a
    recording ``tape``; its fused step nodes then keep their forward arrays,
    and ``weighted_logprob`` sweeps every candidate's walk back through
    them as row batches, with no second forward pass. Beam search keeps its
    own state rows (see ``decoder``), MLE walks row batches (see
    ``mrt.mle_loss_and_grad``), and the oracle's enumeration its own walk as
    an independent reference.
    """

    def __init__(self, params: ParamStore, src: Sequence[int], tape: Tape | None = None):
        self.params = params
        self.src = list(src)
        self.bound = BoundModel(params, Tape(record=False) if tape is None else tape)
        self.ann = self.bound.encode(self.src)
        # prefix -> (next token's log-softmax node, state z after prefix, logits node)
        self._steps: dict[tuple[int, ...], tuple[Node, Node, Node]] = {}

    def next_logdist(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Prefixes must be visited shortest first: the step after
        ``prefix`` starts from the memoised state after ``prefix[:-1]``.
        The returned array is shared; copy it before changing it."""
        entry = self._steps.get(prefix)
        if entry is None:
            bound = self.bound
            if prefix:
                z, prev = self._steps[prefix[:-1]][1], prefix[-1]
            else:
                z, prev = bound.initial_state(self.ann), BOS
            logits, z = bound.step_logits(prev, z, self.ann)
            entry = self._steps[prefix] = (bound.tape.log_softmax(logits), z, logits)
        return entry[0].value

    def logprob(self, tgt: Sequence[int]) -> np.float64:
        """log P(tgt | src), the per-token log-probabilities stacked, then
        summed. Any vocabulary id, EOS only last and not needed (truncated
        samples lack it). Adds no node to the tape."""
        tgt = tuple(tgt)
        _validate_target(tgt, self.bound.tgt_vocab_size)
        return np.array([self.next_logdist(tgt[:n])[tok] for n, tok in enumerate(tgt)]).sum()

    def weighted_logprob(self, targets: Sequence[Sequence[int]], coeffs: Sequence[float]) -> Node:
        """sum_i coeffs[i] * log P(targets[i] | src) as one node on the memo's
        tape, stepping any prefix not yet stepped. Its parents are the
        decoder's parameters and the annotations; targets whose coefficient
        is 0 are left out.

        Its VJP sweeps the targets' walks depth by depth, deepest first: the
        steps at one depth, whatever their prefix, run as one row batch
        through the fused nodes' own VJPs on their stacked forward arrays.
        Each row's adjoints add in the order a lone walk's sweep adds them,
        and each parent's contributions in the order a sweep of one walk per
        target, emitted in index order, would: targets by descending index,
        each target's steps deepest first (``_fold``). So the gradient has
        the bits of sweeping such walks one by one."""
        rows = [(tuple(t), c) for t, c in zip(targets, coeffs) if c]
        if not rows:
            raise ModelError("no target with a nonzero coefficient")
        value = np.array([c * self.logprob(t) for t, c in rows]).sum()
        by_len = sorted(range(len(rows)), key=lambda i: -len(rows[i][0]))
        tgts = [rows[i][0] for i in by_len]
        counts = [sum(len(t) > d for t in tgts) for d in range(len(tgts[0]))]
        # Depth d runs the first counts[d] targets by length, so a step's rows
        # are the first rows of the depth before it.
        steps = [[self._steps[t[:d]] for t in tgts[:n]] for d, n in enumerate(counts)]
        toks = [np.array([t[d] for t in tgts[:n]]) for d, n in enumerate(counts)]
        seeds = np.array([rows[i][1] for i in by_len])
        # The sweep keeps each parent's contributions depth after depth,
        # deepest first, each depth's rows in ``tgts`` order. The fold takes
        # them by descending index, then descending depth: ``order`` for the
        # contributions of every step, ``row_of[::-1]`` for depth 0's alone.
        row_of = np.argsort(by_len)
        offset = np.cumsum([0] + counts[::-1])[::-1][1:]
        order = np.array([
            offset[d] + row_of[i]
            for i in reversed(range(len(rows))) for d in reversed(range(len(rows[i][0])))
        ])
        vjp = partial(_candidates_vjp, steps, toks, seeds, order, row_of[::-1])
        pn = self.bound.pn
        parents = tuple(pn[n] if n in pn else getattr(self.ann, n) for n in _SWEPT)
        return self.bound.tape.emit(value, parents, vjp)


# Every parent of ``weighted_logprob``'s node, by its name in the parameter
# store or in ``Annotations``. _STEP_PARTS take one contribution per target
# step, in the order the readout, GRU, attention and lookup VJPs give them;
# _INIT_PARTS one per target, from the initial state's VJP.
_STEP_PARTS = (
    "out_b", "out_W", "read_b", "read_W",
    "dec_bh", "dec_Uh", "dec_Wh", "dec_br", "dec_Ur", "dec_Wr", "dec_bz", "dec_Uz", "dec_Wz",
    "matrix", "attn_v", "attn_proj", "attn_W", "tgt_embed",
)
_INIT_PARTS = ("dec_init_b", "bwd_first", "dec_init_W")
_SWEPT = _STEP_PARTS + _INIT_PARTS

# Elements of one dense block of contributions that ``_fold`` adds (256 kB).
_FOLD_BLOCK = 1 << 15


def _candidates_vjp(steps, toks, seeds, order, first, g):
    """``weighted_logprob``'s VJP. ``steps[d]`` holds the memo entries of
    the rows at depth d, ``toks[d]`` their tokens there and ``seeds`` their
    coefficients; ``order`` and ``first`` give the fold order of the
    contributions of every step and of every depth-0 step."""
    seeds = g * seeds
    parts: dict[str, list] = {name: [] for name in _SWEPT}
    # the adjoint of a step's state from the step after it: that step's
    # GRU's four contributions, then its attention's
    deeper = None
    for d in reversed(range(len(steps))):
        ls, state, logits = zip(*steps[d])
        n = len(ls)
        dl = np.zeros((n, ls[0].value.shape[-1]))
        dl[np.arange(n), toks[d]] = seeds[:n]  # the picks' VJP
        (dl,) = log_softmax_vjp(np.array([node.vjp.args[0] for node in ls]), dl)
        ob, oW, rb, rW, d_emb, d_state, d_ctx = _readout_vjp(*_stacked(logits), dl, _factors)
        if deeper is not None:
            d_state[: len(deeper)] += deeper  # deeper + the readout's: addition commutes
        (h0, bh, Uh, x3, Wh, h5, br, h7, Ur, x9, Wr, bz, h12, Uz, x14, Wz) = _gru_vjp(
            *_stacked(state), d_state, _factors
        )
        dx = x3 + x9 + x14
        lo = d_emb.shape[-1]
        d_emb, d_ctx = d_emb + dx[:, :lo], d_ctx + dx[:, lo:]  # the readout's, then the concat's
        context = [node.parents[-1] for node in logits]  # the readout's last parent
        matrix, v, proj, dz, W = _attend_vjp(*_stacked(context), d_ctx, _factors)
        deeper = h0 + h5 + h7 + h12 + dz
        prev = toks[d - 1][:n] if d else np.full(n, BOS)
        step = (ob, oW, rb, rW, bh, Uh, Wh, br, Ur, Wr, bz, Uz, Wz,
                matrix, v, proj, W, (prev, d_emb))
        for name, part in zip(_STEP_PARTS, step):
            parts[name].append(part)
    init = steps[0][0][1].parents[0]  # the state the first GRU step starts from
    b, bwd_first, (x, dpre) = _initial_state_vjp(*init.vjp.args, deeper, _factors)
    init_parts = (b, bwd_first, (np.broadcast_to(x, dpre.shape), dpre))
    for name, part in zip(_INIT_PARTS, init_parts):
        parts[name].append(part)
    vocab = steps[0][0][0].value.shape[-1]
    return tuple(
        _fold(parts[name], first if name in _INIT_PARTS else order,
              vocab if name == "tgt_embed" else None)
        for name in _SWEPT
    )


def _stacked(nodes):
    """The shared arrays that fused nodes of one kind saved, and their
    per-row arrays stacked, one row per node (``np.array`` stacks a few
    small arrays about 4x faster than ``np.stack``)."""
    rows = zip(*(node.vjp.args[1] for node in nodes))
    return nodes[0].vjp.args[0], tuple(np.array(col) for col in rows)


def _fold(parts, order, vocab=None):
    """The sum of the contributions in ``parts``, taken in ``order`` and
    added first to last, as a tape's running ``+=`` adds them. ``parts``
    holds arrays of one contribution per row, outer products as (x, g)
    factor rows, or with ``vocab`` a lookup's (token ids, adjoint rows) of
    a table of ``vocab`` rows. Outer products and tables are formed dense
    a block at a time."""
    if isinstance(parts[0], tuple):
        x, g = (np.concatenate(col) for col in zip(*parts))
        if vocab is None:
            size = x.shape[-1] * g.shape[-1]

            def make(take):
                return _outer(x[take], g[take])
        else:
            size = vocab * g.shape[-1]

            def make(take):  # the tables a lookup's VJP builds
                out = np.zeros((len(take), vocab, g.shape[-1]))
                out[np.arange(len(take)), x[take]] = g[take]
                return out
    else:
        rows = np.concatenate(parts)
        size, make = rows[0].size, rows.__getitem__
    acc, chunk = None, max(1, _FOLD_BLOCK // size)
    for lo in range(0, len(order), chunk):
        block = make(order[lo : lo + chunk])
        if acc is not None:
            block[0] += acc  # acc + block[0]: addition commutes
        # reduce adds in order from an -0.0 start (its default +0.0 would
        # turn an all -0.0 sum positive), except one-element rows, which
        # it adds pairwise; accumulate always adds in order
        if size == 1:
            acc = np.add.accumulate(block)[-1]
        else:
            acc = np.add.reduce(block, axis=0, initial=-0.0)
    return acc


def _check_source(src: Sequence[int] | np.ndarray, vocab_size: int) -> None:
    """Raise ModelError unless ``src`` (one source's ids, or a (S, B) array
    of B sources') is non-empty, in range and free of PAD."""
    toks = np.asarray(src).ravel().tolist()  # a Python loop checks a few ids fastest
    if not toks:
        raise ModelError("empty source sentence")
    for tok in toks:
        if not 0 <= tok < vocab_size:
            raise ModelError(f"source token id {tok} out of range")
    if PAD in toks:
        raise ModelError("PAD inside source sentence")


def _validate_target(tgt: Sequence[int], vocab_size: int) -> None:
    if not tgt:
        raise ModelError("empty target sequence")
    for tok in tgt:
        if not 0 <= tok < vocab_size:
            raise ModelError(f"target token id {tok} out of range")
    if EOS in tgt[:-1]:
        raise ModelError("EOS before the end of the target sequence")


def _checked_target(tgt: Sequence[int]) -> Sequence[int]:
    """``tgt`` itself, once checked to be a reference target: it must end
    with EOS and hold no PAD."""
    if not tgt or tgt[-1] != EOS:
        raise ModelError("target must end with EOS")
    if PAD in tgt:
        raise ModelError("PAD inside target sentence")
    return tgt


def sequence_logprob(
    params: ParamStore, src: Sequence[int], tgt: Sequence[int]
) -> tuple[float, list[float]]:
    """Total and per-word log-probability of an EOS-terminated target."""
    tgt, memo = tuple(_checked_target(tgt)), PrefixMemo(params, src)
    total = float(memo.logprob(tgt))
    return total, [float(memo.next_logdist(tgt[:n])[tok]) for n, tok in enumerate(tgt)]


# -- checkpoint + sidecar -------------------------------------------------


# The sidecar is the config's to_dict plus, when the checkpoint was trained
# from vocab files, the sha256 of each vocab's token list under these keys.
VOCAB_KEYS = ("src_vocab_sha256", "tgt_vocab_sha256")

Vocabs = tuple[Sequence[str], Sequence[str]]  # (source, target) token lists


def _vocab_hashes(vocabs: Vocabs) -> dict[str, str]:
    # Imported here: hashlib loads OpenSSL (about 3 ms and 4 MB RSS), which
    # only checkpoints that record vocabs need.
    import hashlib

    return {
        key: hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
        for key, tokens in zip(VOCAB_KEYS, vocabs)
    }


def save_model(
    params: ParamStore, cfg: ModelConfig, path: str, vocabs: Vocabs | None = None
) -> None:
    """Checkpoint plus sidecar; ``vocabs`` (source, target token lists)
    records their hashes, so later loads can refuse other vocabs."""
    sidecar = cfg.to_dict()
    if vocabs is not None:
        sidecar.update(_vocab_hashes(vocabs))
    params.save(path)
    with atomic_writer(path + ".json") as fh:
        fh.write((json.dumps(sidecar, indent=2) + "\n").encode("utf-8"))


def _read_sidecar(path: str) -> tuple[ModelConfig, dict[str, str]]:
    """The sidecar's config and the vocab hashes it records, if any."""
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"{path}.json: {exc}") from None
    if not isinstance(d, dict):
        raise ModelError(f"{path}.json: expected a JSON object")
    recorded = {key: d.pop(key) for key in VOCAB_KEYS if key in d}
    if not all(isinstance(v, str) for v in recorded.values()):
        raise ModelError(f"{path}.json: vocab hashes must be strings")
    return ModelConfig.from_dict(d), recorded


def load_model(path: str, vocabs: Vocabs) -> tuple[ParamStore, ModelConfig]:
    """Checkpoint and sidecar config, the one reader of a checkpoint. Raises
    ModelError unless the tensors fit the sidecar and ``vocabs`` (source,
    target token lists) fit the checkpoint: their sizes always, their token
    lists too where the sidecar records hashes."""
    params = ParamStore.load(path)
    cfg, recorded = _read_sidecar(path)
    check_params(params, cfg)
    sizes = tuple(len(tokens) for tokens in vocabs)
    want = (cfg.src_vocab_size, cfg.tgt_vocab_size)
    if sizes != want:
        raise ModelError(
            f"vocab sizes {sizes[0]}/{sizes[1]} (source/target) do "
            f"not match the checkpoint's {want[0]}/{want[1]}"
        )
    given = _vocab_hashes(vocabs) if recorded else {}
    for key, side in zip(VOCAB_KEYS, ("source", "target")):
        if key in recorded and recorded[key] != given[key]:
            raise ModelError(
                f"{side} vocab is not the one the checkpoint was trained "
                f"with: its token list has another sha256"
            )
    return params, cfg
