"""Corpus ingestion, vocabulary construction, and synthetic desk-scale
translation tasks (copy, reverse, lexicon)."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .diffcore import RiskseqError
from .model import EOS, RESERVED_TOKENS, UNK

__all__ = [
    "DataError",
    "Vocab",
    "SentencePair",
    "Corpus",
    "build_vocab",
    "load_parallel",
    "gen_synthetic",
    "synthetic_vocab",
    "apply_lexicon",
    "read_reference_lines",
    "read_token_lines",
]

log = logging.getLogger(__name__)

# Reserved words that no model input holds; <unk> is an ordinary word.
MODEL_INPUT_RESERVED = frozenset(RESERVED_TOKENS) - {"<unk>"}


class DataError(RiskseqError):
    pass


class Vocab:
    """token <-> id bijection with the four reserved ids fixed up front."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise DataError("vocab must start with the reserved tokens")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("duplicate token in vocab")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode(self, words: Sequence[str]) -> list[int]:
        return [self.index.get(w, UNK) for w in words]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


class SentencePair(NamedTuple):
    src: list[int]
    tgt: list[int]  # EOS-terminated


@dataclass
class Corpus:
    name: str
    pairs: list[SentencePair]
    # per sentence: 1..R reference id sequences, reserved ids stripped
    references: list[list[tuple[int, ...]]] = field(default_factory=list)
    filtered_count: int = 0  # pairs load_parallel dropped as over-length

    def __len__(self) -> int:
        return len(self.pairs)


def read_token_lines(path: str, model_input: bool = False) -> list[list[str]]:
    """Whitespace-split lines. Lines a model reads (``model_input``) must be
    non-empty and hold no reserved word but ``<unk>``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split() for line in fh]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not model_input:
        return lines
    for n, words in enumerate(lines, 1):
        if not words:
            raise DataError(f"{path}: line {n} is empty")
        for w in words:
            if w in MODEL_INPUT_RESERVED:
                raise DataError(f"{path}: line {n}: reserved token {w}")
    return lines


def read_reference_lines(path: str) -> list[list[str]]:
    """Whitespace-split reference lines, each of which must be non-empty."""
    lines = read_token_lines(path)
    for n, words in enumerate(lines, 1):
        if not words:
            raise DataError(f"{path}: line {n} is empty")
    return lines


def build_vocab(files: Sequence[str], max_size: int) -> Vocab:
    """Most frequent tokens kept (ties lexicographic), remainder map to UNK."""
    if max_size < len(RESERVED_TOKENS):
        raise DataError(
            f"max vocab size {max_size} below reserved count {len(RESERVED_TOKENS)}"
        )
    counts: Counter = Counter()
    for path in files:
        for words in read_token_lines(path):
            counts.update(words)
    if not counts:
        raise DataError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(RESERVED_TOKENS)]]
    return Vocab(list(RESERVED_TOKENS) + keep)


def load_parallel(
    src_file: str,
    tgt_file: str,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    max_len: int,
    name: str = "corpus",
    ref_files: Sequence[str] = (),
) -> Corpus:
    """Aligned parallel text -> Corpus. Targets get EOS appended; pairs with
    either side longer than max_len are filtered (count logged). Each kept
    pair's references are its target, or its lines of ``ref_files``, which
    must be aligned with the source line by line."""
    src_lines = read_token_lines(src_file, model_input=True)
    tgt_lines = read_token_lines(tgt_file, model_input=True)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line-count mismatch: {len(src_lines)} source lines "
            f"vs {len(tgt_lines)} target lines"
        )
    ref_lines = [read_reference_lines(path) for path in ref_files]
    for path, lines in zip(ref_files, ref_lines):
        if len(lines) != len(src_lines):
            raise DataError(
                f"{path}: {len(lines)} reference lines vs "
                f"{len(src_lines)} source lines"
            )
    pairs = []
    references = []
    filtered = 0
    for i, (src_words, tgt_words) in enumerate(zip(src_lines, tgt_lines)):
        if len(src_words) > max_len or len(tgt_words) + 1 > max_len:
            filtered += 1
            continue
        src_ids = src_vocab.encode(src_words)
        tgt_ids = tgt_vocab.encode(tgt_words)
        pairs.append(SentencePair(src=src_ids, tgt=tgt_ids + [EOS]))
        if ref_lines:
            references.append([tuple(tgt_vocab.encode(r[i])) for r in ref_lines])
        else:
            references.append([tuple(tgt_ids)])
    if filtered:
        log.info("%s: filtered %d over-length pairs (max_len=%d)", name, filtered, max_len)
    return Corpus(name=name, pairs=pairs, references=references, filtered_count=filtered)


# -- synthetic tasks ------------------------------------------------------

SYNTHETIC_TASKS = ("copy", "reverse", "lexicon")
N_SYNTHETIC_REFS = 4


def synthetic_vocab(vocab_size: int) -> Vocab:
    if vocab_size < 5:
        raise DataError(f"synthetic vocab size must be >= 5, got {vocab_size}")
    content = [f"w{i:02d}" for i in range(vocab_size - len(RESERVED_TOKENS))]
    return Vocab(list(RESERVED_TOKENS) + content)


def apply_lexicon(src_ids: Sequence[int], mapping: dict[int, int]) -> list[int]:
    """Per-token substitution, then swap each adjacent pair whose first
    index is a multiple of 3 (forces non-monotone alignment)."""
    out = [mapping[t] for t in src_ids]
    for i in range(0, len(out) - 1, 3):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def gen_synthetic(
    task: str,
    vocab_size: int,
    n_sentences: int,
    len_range: tuple[int, int],
    seed: int,
    n_valid: int | None = None,
    n_test: int | None = None,
) -> tuple[Corpus, Corpus, Corpus]:
    """Reproducible synthetic corpora with disjoint splits. Valid and test
    sentences carry four identical references to exercise the
    multi-reference evaluation path."""
    if task not in SYNTHETIC_TASKS:
        raise DataError(f"unknown synthetic task: {task!r}")
    vocab = synthetic_vocab(vocab_size)
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise DataError(f"bad length range {len_range}")
    if n_sentences < 1:
        raise DataError(f"n_sentences must be >= 1, got {n_sentences}")
    if n_valid is None:
        n_valid = max(20, n_sentences // 10)
    if n_test is None:
        n_test = n_valid
    content_ids = list(range(len(RESERVED_TOKENS), vocab.size))
    total = n_sentences + n_valid + n_test
    n_distinct = sum(len(content_ids) ** n for n in range(lo, hi + 1))
    if total > n_distinct:
        raise DataError(
            f"{total} distinct sources needed (train, valid and test) but only "
            f"{n_distinct} exist with lengths {lo}..{hi} over this vocabulary"
        )

    rng = np.random.default_rng(seed)

    if task == "lexicon":
        perm = rng.permutation(len(content_ids))
        mapping = {
            content_ids[i]: content_ids[perm[i]] for i in range(len(content_ids))
        }

    def target_for(src_ids: list[int]) -> list[int]:
        if task == "copy":
            return list(src_ids)
        if task == "reverse":
            return list(reversed(src_ids))
        return apply_lexicon(src_ids, mapping)

    seen: set[tuple[int, ...]] = set()
    sources: list[list[int]] = []
    while len(sources) < total:
        length = int(rng.integers(lo, hi + 1))
        src = [content_ids[int(rng.integers(len(content_ids)))] for _ in range(length)]
        key = tuple(src)
        if key in seen:
            continue
        seen.add(key)
        sources.append(src)

    def make(name: str, chunk: list[list[int]], n_refs: int) -> Corpus:
        pairs = []
        references = []
        for src in chunk:
            tgt = target_for(src)
            pairs.append(SentencePair(src=src, tgt=tgt + [EOS]))
            references.append([tuple(tgt)] * n_refs)
        return Corpus(name=name, pairs=pairs, references=references)

    train = make("train", sources[:n_sentences], 1)
    valid = make(
        "valid", sources[n_sentences : n_sentences + n_valid], N_SYNTHETIC_REFS
    )
    test = make("test", sources[n_sentences + n_valid :], N_SYNTHETIC_REFS)
    return train, valid, test
