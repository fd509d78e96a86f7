from dataclasses import fields

import numpy as np
import pytest

from riskseq.data import (
    DataError,
    Vocab,
    apply_lexicon,
    build_vocab,
    gen_synthetic,
    load_parallel,
    read_token_lines,
    synthetic_vocab,
)
from riskseq.model import EOS, RESERVED_TOKENS, UNK


class TestVocab:
    def test_reserved_prefix_required(self):
        with pytest.raises(DataError):
            Vocab(["a", "b", "c", "d"])

    def test_encode_decode_roundtrip(self):
        vocab = Vocab(list(RESERVED_TOKENS) + ["cat", "dog"])
        ids = vocab.encode(["dog", "cat"])
        assert ids == [5, 4]
        assert vocab.decode(ids) == ["dog", "cat"]

    def test_oov_maps_to_unk(self):
        vocab = Vocab(list(RESERVED_TOKENS) + ["cat"])
        assert vocab.encode(["wolf"]) == [UNK]

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            Vocab(list(RESERVED_TOKENS) + ["cat", "cat"])

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocab(list(RESERVED_TOKENS) + ["cat", "dog"])
        path = str(tmp_path / "vocab.txt")
        vocab.save(path)
        assert Vocab.load(path).tokens == vocab.tokens


class TestBuildVocab:
    def test_frequency_then_lexicographic(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_text("b a a c b b\n")
        vocab = build_vocab([str(path)], max_size=6)
        # b (3) first, then a (2); c dropped by the size cap
        assert vocab.tokens[4:] == ["b", "a"]

    def test_tie_broken_lexicographically(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_text("z y x\n")
        vocab = build_vocab([str(path)], max_size=6)
        assert vocab.tokens[4:] == ["x", "y"]

    def test_max_size_below_reserved_rejected(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_text("a\n")
        with pytest.raises(DataError):
            build_vocab([str(path)], max_size=3)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataError):
            build_vocab([str(path)], max_size=10)


class TestLoadParallel:
    def _write(self, tmp_path, src_lines, tgt_lines):
        sp = tmp_path / "src.txt"
        tp = tmp_path / "tgt.txt"
        sp.write_text("\n".join(src_lines) + "\n")
        tp.write_text("\n".join(tgt_lines) + "\n")
        return str(sp), str(tp)

    def test_three_lines_three_pairs(self, tmp_path):
        vocab = Vocab(list(RESERVED_TOKENS) + ["a", "b"])
        sp, tp = self._write(tmp_path, ["a", "b a", "a a"], ["b", "a", "b b"])
        corpus = load_parallel(sp, tp, vocab, vocab, max_len=10)
        assert len(corpus) == 3
        assert corpus.pairs[0].tgt[-1] == EOS
        assert corpus.filtered_count == 0
        assert corpus.references[0] == [tuple(vocab.encode(["b"]))]

    def test_mismatched_counts_rejected(self, tmp_path):
        vocab = Vocab(list(RESERVED_TOKENS) + ["a"])
        sp, tp = self._write(tmp_path, ["a", "a"], ["a"])
        with pytest.raises(DataError):
            load_parallel(sp, tp, vocab, vocab, max_len=10)

    def test_overlength_pair_filtered_and_counted(self, tmp_path):
        vocab = Vocab(list(RESERVED_TOKENS) + ["a"])
        # target of length max_len reaches max_len+1 after EOS -> filtered
        sp, tp = self._write(tmp_path, ["a", "a"], ["a", "a a a"])
        corpus = load_parallel(sp, tp, vocab, vocab, max_len=3)
        assert len(corpus) == 1
        assert corpus.filtered_count == 1


class TestSynthetic:
    def test_copy_and_reverse_targets(self):
        for task, transform in (("copy", lambda s: s), ("reverse", lambda s: s[::-1])):
            train, _, _ = gen_synthetic(task, 10, 30, (2, 4), seed=0)
            for pair in train.pairs:
                assert pair.tgt == transform(list(pair.src)) + [EOS]

    def test_lexicon_swap_rule_by_hand(self):
        # substitution then swap of positions (0,1) and (3,4)
        mapping = {4: 7, 5: 8, 6: 9}
        assert apply_lexicon([4, 5], mapping) == [8, 7]
        assert apply_lexicon([4, 5, 6, 4, 5], mapping) == [8, 7, 9, 8, 7]

    def test_lexicon_task_is_bijective_substitution(self):
        train, _, _ = gen_synthetic("lexicon", 10, 50, (2, 4), seed=1)
        for pair in train.pairs:
            src_counts = sorted(np.bincount(pair.src, minlength=10)[4:])
            tgt_counts = sorted(np.bincount(pair.tgt[:-1], minlength=10)[4:])
            # a bijective substitution permutes token multiplicities
            assert src_counts == tgt_counts
            assert len(pair.tgt) == len(pair.src) + 1

    def test_splits_disjoint_and_sized(self):
        train, valid, test = gen_synthetic("copy", 12, 100, (2, 5), seed=2)
        assert len(train) == 100
        assert len(valid) == len(test) == 20
        seen = {tuple(p.src) for p in train.pairs}
        assert not seen & {tuple(p.src) for p in valid.pairs}
        assert not seen & {tuple(p.src) for p in test.pairs}

    def test_synthetic_corpora_filter_nothing(self):
        # filtered_count is a declared field, so every corpus carries it
        for corpus in gen_synthetic("copy", 10, 30, (2, 4), seed=3):
            assert corpus.filtered_count == 0
            assert "filtered_count" in {f.name for f in fields(corpus)}

    def test_valid_and_test_carry_four_identical_references(self):
        _, valid, test = gen_synthetic("copy", 10, 30, (2, 4), seed=3)
        for corpus in (valid, test):
            for refs in corpus.references:
                assert len(refs) == 4
                assert len(set(refs)) == 1

    def test_reproducible(self):
        a = gen_synthetic("lexicon", 10, 40, (2, 4), seed=9)
        b = gen_synthetic("lexicon", 10, 40, (2, 4), seed=9)
        for ca, cb in zip(a, b):
            assert [p.src for p in ca.pairs] == [p.src for p in cb.pairs]
            assert [p.tgt for p in ca.pairs] == [p.tgt for p in cb.pairs]

    def test_unknown_task_rejected(self):
        with pytest.raises(DataError):
            gen_synthetic("sort", 10, 10, (2, 4), seed=0)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(DataError):
            synthetic_vocab(4)

    def test_too_few_distinct_sources_rejected(self):
        # 2 content tokens, lengths 1..2: exactly 2 + 4 distinct sources
        splits = gen_synthetic("copy", 6, 2, (1, 2), seed=0, n_valid=2, n_test=2)
        assert sorted(tuple(p.src) for c in splits for p in c.pairs) == [
            (4,), (4, 4), (4, 5), (5,), (5, 4), (5, 5)
        ]
        with pytest.raises(DataError, match="distinct sources"):
            gen_synthetic("copy", 6, 3, (1, 2), seed=0, n_valid=2, n_test=2)


class TestReadTokenLines:
    @pytest.mark.parametrize("word", ["<pad>", "<eos>", "<bos>"])
    def test_model_input_rejects_reserved_words(self, tmp_path, word):
        # line 1 passes: <unk> is an ordinary word
        path = tmp_path / "f.txt"
        path.write_text(f"a <unk> b\nc {word} d\n")
        assert read_token_lines(str(path)) == [["a", "<unk>", "b"], ["c", word, "d"]]
        with pytest.raises(DataError, match=f"f.txt: line 2: reserved token {word}$"):
            read_token_lines(str(path), model_input=True)

    def test_splits_on_whitespace(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a  b\tc\n\nd\n")
        assert read_token_lines(str(path)) == [["a", "b", "c"], [], ["d"]]

    @pytest.mark.parametrize(
        "sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_lines_break_only_at_newlines(self, tmp_path, sep):
        # str.splitlines would also break at these; they separate tokens
        path = tmp_path / "f.txt"
        path.write_text(f"a b{sep}c\nd e\n", encoding="utf-8")
        assert read_token_lines(str(path)) == [["a", "b", "c"], ["d", "e"]]
