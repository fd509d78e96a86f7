"""Spans around riskseq's public functions, recorded from outside the package.

``Tracer.installed()`` wraps every target for the duration of a ``with``
block and restores the originals afterwards. A function is replaced in
every loaded ``riskseq.*`` module namespace that holds it, so callers that
imported the name (``from .decoder import beam_decode``) and callers that
look it up on the module (``mrt.sample_trajectories``) both see the
wrapper. A method is replaced on its class. A target that no longer exists
is skipped; its layer then reports 0 calls.

Spans are kept in memory as parallel lists (name, start, end, parent,
info); ``analyse`` turns one repetition's spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

EOS = 1  # riskseq.model.EOS; spans.py loads before riskseq is importable

# A probe(args, result) returns the counts kept with a span, as an int or a
# tuple of ints: spans add no dict for the garbage collector to scan (one
# dict per span once slowed mrt-ter-long by 40%). args[0] is self for methods.


def _probe_step(args, result):
    """Tape mode and decoding depth: depth * 2 + recording."""
    bound, state = args[0], args[2] if len(args) > 2 else None
    record = bool(getattr(getattr(bound, "tape", None), "record", True))
    depth = getattr(state, "_bench_depth", 0) + 1
    if isinstance(result, tuple) and len(result) == 2:
        try:
            result[1]._bench_depth = depth
        except AttributeError:
            pass
    return depth * 2 + record


def _probe_gradient(args, result):
    return len(getattr(args[0], "nodes", ()))


def _probe_trajectories(args, result):
    """(attempts, unique, sampled tokens, truncated) of one sampling call."""
    trajs = list(result)
    return (len(trajs), len(set(trajs)), sum(len(t) for t in trajs),
            sum(1 for t in trajs if not t or t[-1] != EOS))


def _probe_space(args, result):
    """(candidates, candidate tokens) of one sampled space."""
    cands = getattr(result, "candidates", ())
    return len(cands), sum(len(c) for c in cands)


# (span name, module, attribute path, probe)
TARGETS = [
    ("trainer.train", "riskseq.trainer", "train", None),
    ("diffcore.set_flat", "riskseq.diffcore", "ParamStore.set_flat", None),
    ("diffcore.gradient", "riskseq.diffcore", "Tape.gradient", _probe_gradient),
    ("model.encode", "riskseq.model", "BoundModel.encode", None),
    ("model.step_logits", "riskseq.model", "BoundModel.step_logits", _probe_step),
    ("mrt.mle_loss_and_grad", "riskseq.mrt", "mle_loss_and_grad", None),
    ("mrt.sample_space", "riskseq.mrt", "sample_space", _probe_space),
    ("mrt.sample_trajectories", "riskseq.mrt", "sample_trajectories", _probe_trajectories),
    ("mrt.build_space", "riskseq.mrt", "build_space", None),
    ("mrt.q_distribution", "riskseq.mrt", "q_distribution", None),
    ("mrt.expected_risk", "riskseq.mrt", "expected_risk", None),
    ("mrt.mrt_grad", "riskseq.mrt", "mrt_grad", None),
    ("metrics.delta", "riskseq.metrics", "delta", None),
    ("metrics.corpus_bleu", "riskseq.metrics", "corpus_bleu", None),
    ("decoder.decode_corpus", "riskseq.decoder", "decode_corpus", None),
    ("decoder.beam_decode", "riskseq.decoder", "beam_decode", None),
    ("data.gen_synthetic", "riskseq.data", "gen_synthetic", None),
    ("data.read_token_lines", "riskseq.data", "read_token_lines", None),
    ("data.vocab_load", "riskseq.data", "Vocab.load", None),
    ("cli.main", "riskseq.cli", "main", None),
]

# spans that make up a validation pass when trainer.train or the benchmark
# itself calls them
VALIDATION = {"decoder.decode_corpus", "decoder.beam_decode", "metrics.corpus_bleu"}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, probe):
        names, start, end, parent, infos, stack = (
            self.names, self.start, self.end, self.parent, self.info, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            infos.append(None)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                infos[idx] = probe(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target; restore the originals on exit."""
        if self._stack or self.names:
            self.reset()
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module_name, path, probe in TARGETS:
                undo.extend(self._install(name, module_name, path, probe))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, name, module_name, path, probe):
        module = sys.modules.get(module_name)
        if module is None:
            return []
        if "." in path:
            cls_name, attr = path.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                return []
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, probe))
            else:
                wrapped = self._wrap(name, raw, probe)
            setattr(cls, attr, wrapped)
            return [(cls, attr, raw)]
        original = getattr(module, path, None)
        if original is None:
            return []
        wrapped = self._wrap(name, original, probe)
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "riskseq" or mod_name.startswith("riskseq.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
        return undo

    # -- analysis ---------------------------------------------------------

    def analyse(self, sentences: int, updates: int) -> dict:
        """Per-layer figures of one repetition. ``sentences`` is the number
        of training sentences (updates x batch) or of decoded sentences.
        Validation (a decoder or corpus_bleu span at the top level or
        directly under trainer.train) is kept apart from update work."""
        n = len(self.names)
        names, start, end, parent, infos = (
            self.names, self.start, self.end, self.parent, self.info)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        in_valid = [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                in_valid[i] = in_valid[p]
            if names[i] in VALIDATION and (p < 0 or names[p] == "trainer.train"):
                in_valid[i] = True

        def spans(name, work_only=True):
            return [i for i in range(n) if names[i] == name
                    and not (work_only and in_valid[i])]

        def probed(name, work_only=True):
            return [i for i in spans(name, work_only) if infos[i] is not None]

        def total(name, work_only=True):
            return sum(dur[i] for i in spans(name, work_only))

        per = max(sentences, 1)
        out: dict[str, float] = {}

        # trainer: one update ends at each set_flat the train span makes
        update_ms, update_self_ms = [], []
        train_s = valid_s = accounted_s = 0.0
        for t in spans("trainer.train"):
            train_s += dur[t]
            mark, acc = start[t], 0.0
            for c in (i for i in range(t + 1, n) if parent[i] == t):
                accounted_s += dur[c]
                if names[c] == "diffcore.set_flat":
                    update_ms.append((end[c] - mark) * 1e3)
                    update_self_ms.append((end[c] - mark - acc) * 1e3)
                    mark, acc = end[c], 0.0
                elif names[c] in VALIDATION:
                    valid_s += dur[c]
                    mark, acc = end[c], 0.0
                else:
                    acc += dur[c]
        out["trainer.update_ms_p50"] = _pct(update_ms, 50)
        out["trainer.update_ms_p90"] = _pct(update_ms, 90)
        out["trainer.self_ms_per_update"] = _mean(update_self_ms)
        out["trainer.valid_s"] = valid_s + sum(
            dur[i] for i in range(n) if parent[i] < 0 and names[i] in VALIDATION)
        out["trainer.accounted_share"] = accounted_s / train_s if train_s else 0.0

        mle = spans("mrt.mle_loss_and_grad")
        out["mrt.mle_grad_ms_per_batch"] = (
            sum(dur[i] for i in mle) / len(mle) * 1e3 if mle else 0.0)
        out["mrt.sample_ms_per_sent"] = total("mrt.sample_trajectories") / per * 1e3
        out["mrt.rescore_ms_per_sent"] = total("mrt.build_space") / per * 1e3
        out["mrt.grad_ms_per_sent"] = total("mrt.mrt_grad") / per * 1e3

        k, unique, tokens, truncated = _column_sums(
            [infos[i] for i in probed("mrt.sample_trajectories")], 4)
        out["mrt.unique_per_k"] = unique / k if k else 0.0
        out["mrt.truncated_ratio"] = truncated / k if k else 0.0
        out["mrt.sampled_tokens_per_sent"] = tokens / per
        cands, tokens = _column_sums([infos[i] for i in probed("mrt.sample_space")], 2)
        out["mrt.candidates_per_sent"] = cands / per
        out["mrt.scored_tokens_per_sent"] = tokens / per

        delta = spans("metrics.delta")
        delta_s = sum(dur[i] for i in delta)
        out["metrics.delta_calls_per_sent"] = len(delta) / per
        out["metrics.delta_ms_per_call"] = delta_s / len(delta) * 1e3 if delta else 0.0
        out["metrics.delta_share"] = delta_s / (sum(update_ms) / 1e3) if update_ms else 0.0

        out["model.encode_calls_per_sent"] = len(spans("model.encode")) / per
        steps = spans("model.step_logits")
        out["model.step_calls_per_sent"] = len(steps) / per
        rec = [dur[i] for i in probed("model.step_logits", False) if infos[i] & 1]
        norec = [dur[i] for i in probed("model.step_logits", False) if not infos[i] & 1]
        out["model.step_us_record"] = _mean(rec) * 1e6
        out["model.step_us_norecord"] = _mean(norec) * 1e6

        grads = spans("diffcore.gradient")
        out["diffcore.backward_ms_per_update"] = (
            sum(dur[i] for i in grads) / updates * 1e3 if updates else 0.0)
        out["diffcore.tape_nodes_per_update"] = (
            sum(infos[i] for i in grads if infos[i] is not None) / updates if updates else 0.0)

        beams = spans("decoder.beam_decode", False)
        beam_ms = [dur[i] * 1e3 for i in beams]
        out["decoder.beam_ms_per_sent_p50"] = _pct(beam_ms, 50)
        out["decoder.beam_ms_per_sent_p95"] = _pct(beam_ms, 95)
        depth = {b: 0 for b in beams}
        for i in probed("model.step_logits", False):
            b = _ancestor(parent, names, i, "decoder.beam_decode")
            if b >= 0:
                depth[b] = max(depth[b], infos[i] >> 1)
        out["decoder.steps_per_sent"] = sum(depth.values()) / len(beams) if beams else 0.0

        out["data.gen_s"] = total("data.gen_synthetic", False)
        out["data.load_s"] = (total("data.vocab_load", False)
                              + total("data.read_token_lines", False))
        mains = spans("cli.main", False)
        out["cli.self_s"] = sum(dur[i] - child[i] for i in mains)
        return out


def _ancestor(parent, names, i, name) -> int:
    p = parent[i]
    while p >= 0:
        if names[p] == name:
            return p
        p = parent[p]
    return -1


def _column_sums(rows, width: int) -> list[int]:
    return [sum(r[c] for r in rows) for c in range(width)]


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _pct(xs, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one value."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
