import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riskseq import trainer
from riskseq.cli import _load_train_inputs, build_parser, main
from riskseq.data import Vocab, read_token_lines
from riskseq.decoder import beam_decode
from riskseq.diffcore import ParamStore
from riskseq.model import EOS, ModelError, load_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def task_dir(workdir, capsys):
    code, _, _ = run(
        capsys, "gen-synthetic", "--task", "copy", "--vocab-size", "8",
        "--n-sentences", "30", "--len-min", "2", "--len-max", "4",
        "--seed", "5", "--out-dir", "task", "--quiet",
    )
    assert code == 0
    return workdir / "task"


@pytest.fixture
def trained(task_dir, capsys):
    code, _, _ = run(
        capsys, "train", "--quiet",
        "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
        "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
        "--valid-ref", "task/valid.ref",
        "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
        "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
        "--max-len", "6", "--batch-size", "8", "--max-updates", "6",
        "--eval-every", "3", "--seed", "0",
        "--checkpoint-out", "model.ckpt", "--curve-out", "curve.csv",
    )
    assert code == 0
    return task_dir


# every subcommand that reads no --config, with its required flags
UNCONFIGURED = {
    "gen-synthetic": ["gen-synthetic", "--task", "copy", "--vocab-size", "8",
                      "--n-sentences", "30", "--out-dir", "t"],
    "build-vocab": ["build-vocab", "--input", "t", "--max-size", "6", "--output", "v"],
    "decode": ["decode", "--checkpoint", "m", "--input", "i", "--output", "o",
               "--src-vocab", "v", "--tgt-vocab", "v"],
    "evaluate": ["evaluate", "--hyp", "h", "--ref", "r"],
    "sample": ["sample", "--checkpoint", "m", "--src-vocab", "v", "--tgt-vocab", "v",
               "--input", "i", "--gold", "g"],
    "oracle": ["oracle", "--vocab", "6", "--max-len", "3"],
}


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "evaluate", "--bogus")
        assert code == 1
        assert "usage error" in err

    def test_missing_file_is_data_error(self, capsys, workdir):
        code, _, err = run(
            capsys, "evaluate", "--hyp", "no.txt", "--ref", "missing.txt"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--hyp", "h", "--ref", "r", "--workers", "2"],
            ["build-vocab", "--input", "t", "--max-size", "6",
             "--output", "v", "--lowercase"],
            ["train", "--train-src", "s", "--train-tgt", "t", "--src-vocab", "v",
             "--tgt-vocab", "v", "--checkpoint-out", "m", "--criterion", "mrt",
             "--allow-random-init"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert run(capsys, *argv)[0] == 1

    @pytest.mark.parametrize(
        "command, flag",
        [(command, "--config") for command in UNCONFIGURED]
        + [(command, "--seed") for command in ("build-vocab", "decode", "evaluate")],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, workdir,
                                                            command, flag):
        value = "missing.json" if flag == "--config" else "5"
        code, out, err = run(capsys, *UNCONFIGURED[command], flag, value, "--quiet")
        assert code == 1
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not out


def _one_line_data_error(code, out, err):
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out


class TestBadRunSettings:
    """Malformed settings are data errors (exit 2), found before any work."""

    @pytest.mark.parametrize(
        "setting",
        [{"batch_size": "8"}, {"learning_rate": "0.5"}, {"eval_every": None},
         {"embed_dim": 2.5}, {"seed": "a"}, {"loss_kind": 5}, {"k": 2.0},
         {"max_updates": True}, {"init_checkpoint": 5},
         {"allow_random_init": "no"},  # not a key
         {"src_vocab_size": 7}, {"tgt_vocab_size": 99},  # set by the vocab files
         {"grad_clip_norm": math.nan}, {"alpha": math.inf}],
        ids=lambda setting: next(iter(setting)),
    )
    def test_config_value_of_the_wrong_type(self, task_dir, workdir, capsys,
                                            setting):
        (workdir / "cfg.json").write_text(json.dumps(setting))
        code, out, err = run(
            capsys, "train", "--config", "cfg.json", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--checkpoint-out", "m.ckpt",
        )
        _one_line_data_error(code, out, err)
        assert next(iter(setting)) in err
        assert not os.path.exists("m.ckpt")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--seed", "-1", "--train-src", "task/train.src",
              "--train-tgt", "task/train.tgt", "--src-vocab", "task/vocab.txt",
              "--tgt-vocab", "task/vocab.txt", "--checkpoint-out", "m.ckpt"],
             "--seed must be >= 0"),
            (["gen-synthetic", "--seed", "-3", "--task", "copy",
              "--vocab-size", "8", "--n-sentences", "30", "--out-dir", "t"],
             "--seed must be >= 0"),
            (["gen-synthetic", "--task", "copy", "--vocab-size", "8",
              "--n-sentences", "0", "--out-dir", "t"],
             "n_sentences must be >= 1"),
            (["oracle", "--vocab", "4", "--max-len", "3"], "--vocab must be >= 5"),
        ],
        ids=["train-seed", "gen-seed", "gen-n-sentences", "oracle-vocab"],
    )
    def test_out_of_range_flag(self, task_dir, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--quiet")
        _one_line_data_error(code, out, err)
        assert message in err
        assert not os.path.exists("m.ckpt") and not os.path.exists("t")

    def test_oracle_without_seeds(self, workdir, capsys):
        code, out, err = run(
            capsys, "oracle", "--vocab", "6", "--max-len", "3", "--ks", "2",
            "--n-seeds", "0", "--quiet",
        )
        assert code == 2
        assert err == "error: n_seeds must be >= 1, got 0\n"
        assert out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [(["--ks", "5", "0"], "--ks must all be >= 1, got 0"),
         (["--alpha", "0"], "alpha must be positive and finite, got 0.0"),
         (["--alpha", "nan"], "alpha must be positive and finite, got nan"),
         (["--alpha", "inf"], "alpha must be positive and finite, got inf"),
         (["--max-len", "2", "--ks", "5", "--n-seeds", "2"],
          "--max-len must be >= 3 (2 gold tokens + EOS), got 2")],
        ids=["ks", "alpha", "alpha-nan", "alpha-inf", "max-len"],
    )
    def test_oracle_flag_rejected_before_output(self, workdir, capsys, flags,
                                                message):
        code, out, err = run(
            capsys, "oracle", "--vocab", "6", "--max-len", "3", *flags, "--quiet",
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_k_sweep_without_seeds(self, trained, capsys):
        code, out, err = run(
            capsys, "k-sweep", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--max-updates", "2", "--eval-every", "2",
            "--init-checkpoint", "model.ckpt", "--ks", "2", "--n-seeds", "0",
        )
        assert code == 2
        assert err == "error: n_seeds must be >= 1, got 0\n"
        assert out == ""


class TestGenSynthetic:
    def test_writes_vocab_and_splits(self, task_dir):
        assert (task_dir / "vocab.txt").exists()
        assert len(read_token_lines(str(task_dir / "train.src"))) == 30
        src = read_token_lines(str(task_dir / "train.src"))
        tgt = read_token_lines(str(task_dir / "train.tgt"))
        assert src == tgt  # copy task
        # 4 identical references for valid/test
        assert (task_dir / "valid.ref.0").exists()
        assert (task_dir / "valid.ref.3").exists()

    def test_vocab_loads(self, task_dir):
        vocab = Vocab.load(str(task_dir / "vocab.txt"))
        assert vocab.size == 8

    def test_too_few_distinct_sources_is_data_error(self, workdir, capsys):
        # 2 content tokens at lengths 2..3 give 12 sources; 20+20+20 needed
        code, _, err = run(
            capsys, "gen-synthetic", "--task", "copy", "--vocab-size", "6",
            "--n-sentences", "20", "--len-min", "2", "--len-max", "3",
            "--out-dir", "small", "--quiet",
        )
        assert code == 2
        assert "distinct sources" in err


class TestBuildVocab:
    def test_builds_from_text(self, workdir, capsys):
        (workdir / "text.txt").write_text("b a a\n")
        code, _, _ = run(
            capsys, "build-vocab", "--input", "text.txt",
            "--max-size", "6", "--output", "v.txt", "--quiet",
        )
        assert code == 0
        assert Vocab.load("v.txt").tokens[4:] == ["a", "b"]


class TestTrainDecodeEvaluate:
    def test_train_writes_checkpoint_and_curve(self, trained, workdir, capsys):
        assert (workdir / "model.ckpt").exists()
        assert (workdir / "model.ckpt.json").exists()
        lines = (workdir / "curve.csv").read_text().splitlines()
        assert lines[0] == "update,seconds,valid_bleu,train_objective"
        assert len(lines) == 3  # evals at update 3 and 6

    @pytest.mark.parametrize("flag", ["--checkpoint-out", "--curve-out"])
    def test_output_in_missing_directory_fails_before_training(
        self, task_dir, workdir, capsys, monkeypatch, flag
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the outputs")

        monkeypatch.setattr(trainer, "train", no_training)
        outputs = {"--checkpoint-out": "model.ckpt", "--curve-out": "curve.csv",
                   flag: "missing/out"}
        code, out, err = run(
            capsys, "train", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--max-updates", "2", *[arg for item in outputs.items() for arg in item],
        )
        assert code == 2
        assert err == f"error: {flag} missing/out: no such directory\n"
        assert not out
        assert sorted(os.listdir(workdir)) == ["task"]

    def test_config_header_on_stderr(self, task_dir, capsys):
        code = main([
            "train", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "8", "--max-updates", "2",
            "--checkpoint-out", "m2.ckpt",
        ])
        err = capsys.readouterr().err
        assert code == 0
        header = json.loads(err.splitlines()[0])
        assert header["config"]["train"]["max_updates"] == 2
        assert header["config"]["model"]["hidden_dim"] == 6

    def test_decode_then_evaluate(self, trained, workdir, capsys):
        code, _, _ = run(
            capsys, "decode", "--checkpoint", "model.ckpt",
            "--input", "task/valid.src", "--output", "hyp.txt",
            "--beam", "2", "--src-vocab", "task/vocab.txt",
            "--tgt-vocab", "task/vocab.txt", "--quiet",
        )
        assert code == 0
        n_valid = len(read_token_lines("task/valid.src"))
        assert len(read_token_lines("hyp.txt")) == n_valid

        code, out, _ = run(
            capsys, "evaluate", "--hyp", "hyp.txt",
            "--ref", "task/valid.ref", "--quiet",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("BLEU = ")
        assert lines[1].startswith("TER = ")
        assert lines[2].startswith("NIST = ")

    def test_decode_writes_one_line_per_input_line(self, trained, workdir, capsys):
        # U+2028 separates tokens but does not end a line
        first, second = read_token_lines("task/valid.src")[:2]
        (workdir / "in.src").write_text(
            "\u2028".join(first) + "\n" + " ".join(second) + "\n", encoding="utf-8"
        )
        code, _, _ = run(
            capsys, "decode", "--checkpoint", "model.ckpt", "--input", "in.src",
            "--output", "hyp.txt", "--src-vocab", "task/vocab.txt",
            "--tgt-vocab", "task/vocab.txt", "--quiet",
        )
        assert code == 0
        assert (workdir / "hyp.txt").read_text(encoding="utf-8").count("\n") == 2

    def test_decode_mixed_lengths_writes_lines_in_input_order(
        self, trained, workdir, capsys
    ):
        """Sources decode in groups of one length; the output lines keep
        the input's order, each the line's translation decoded alone."""
        lines = read_token_lines("task/valid.src")
        lines = sorted(lines, key=len)[::-1] + lines
        assert len({len(words) for words in lines}) > 1
        (workdir / "in.src").write_text("\n".join(map(" ".join, lines)) + "\n")
        code, _, _ = run(
            capsys, "decode", "--checkpoint", "model.ckpt", "--input", "in.src",
            "--output", "hyp.txt", "--beam", "3", "--src-vocab", "task/vocab.txt",
            "--tgt-vocab", "task/vocab.txt", "--quiet",
        )
        assert code == 0
        vocab = Vocab.load("task/vocab.txt")
        params, _ = load_model("model.ckpt", (vocab.tokens, vocab.tokens))
        want = [
            " ".join(vocab.decode([t for t in out if t != EOS]))
            for out in (beam_decode(params, vocab.encode(w), 3, 6) for w in lines)
        ]
        assert (workdir / "hyp.txt").read_text().splitlines() == want

    def test_decode_empty_line_rejected_before_output(self, trained, workdir, capsys):
        first, third = read_token_lines("task/valid.src")[:2]
        (workdir / "in.src").write_text(f"{' '.join(first)}\n\n{' '.join(third)}\n")
        code, out, err = run(
            capsys, "decode", "--checkpoint", "model.ckpt", "--input", "in.src",
            "--output", "hyp.txt", "--src-vocab", "task/vocab.txt",
            "--tgt-vocab", "task/vocab.txt", "--quiet",
        )
        _one_line_data_error(code, out, err)
        assert err == "error: in.src: line 2 is empty\n"
        assert not (workdir / "hyp.txt").exists()

    def test_decode_truncated_checkpoint_is_data_error(self, trained, workdir, capsys):
        blob = (workdir / "model.ckpt").read_bytes()
        (workdir / "model.ckpt").write_bytes(blob[: len(blob) // 2])
        code, _, err = run(
            capsys, "decode", "--checkpoint", "model.ckpt",
            "--input", "task/valid.src", "--output", "hyp.txt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--quiet",
        )
        assert code == 2
        assert err.startswith("error: truncated checkpoint")

    @pytest.mark.parametrize("command", ["decode", "sample"])
    def test_vocab_size_mismatch_is_data_error(self, trained, workdir, capsys,
                                               command):
        big = Vocab(Vocab.load("task/vocab.txt").tokens
                    + [f"x{i}" for i in range(22)])
        big.save("big_vocab.txt")
        io = (["--output", "hyp.txt"] if command == "decode"
              else ["--gold", "task/valid.tgt"])
        code, out, err = run(
            capsys, command, "--checkpoint", "model.ckpt",
            "--input", "task/valid.src", *io,
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "big_vocab.txt",
            "--quiet",
        )
        assert code == 2
        assert "vocab sizes 8/30" in err
        assert not out and not os.path.exists("hyp.txt")

    @pytest.mark.parametrize(
        "limits", [["--beam", "0"], ["--beam", "2", "--max-len", "0"],
                   ["--beam", "1", "--max-len", "0"]],
    )
    def test_beam_or_length_below_one_is_data_error(self, trained, workdir,
                                                    capsys, limits):
        code, _, err = run(
            capsys, "decode", "--checkpoint", "model.ckpt",
            "--input", "task/valid.src", "--output", "hyp.txt", *limits,
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--quiet",
        )
        assert code == 2
        assert err.startswith("error: ") and "must be >= 1" in err

    @pytest.mark.parametrize(
        "limits, message",
        [(["--beam", "0"], "beam width must be >= 1, got 0"),
         (["--max-len", "-3"], "length limit must be >= 1, got -3")],
        ids=["beam", "max-len"],
    )
    def test_limits_checked_on_empty_input(self, trained, workdir, capsys,
                                           limits, message):
        (workdir / "empty.src").write_text("")
        code, out, err = run(
            capsys, "decode", "--checkpoint", "model.ckpt",
            "--input", "empty.src", "--output", "hyp.txt", *limits,
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--quiet",
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out and not os.path.exists("hyp.txt")

    def test_evaluate_perfect_hypothesis(self, task_dir, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--hyp", "task/valid.tgt",
            "--ref", "task/valid.ref", "--quiet",
        )
        assert code == 0
        assert out.splitlines()[0] == "BLEU = 100.00"
        assert out.splitlines()[1] == "TER = 0.00"

    def test_evaluate_line_count_mismatch(self, task_dir, workdir, capsys):
        (workdir / "short.txt").write_text("w00\n")
        code, _, err = run(
            capsys, "evaluate", "--hyp", "short.txt",
            "--ref", "task/valid.ref", "--quiet",
        )
        assert code == 2

    def test_evaluate_empty_reference_line_names_file_and_line(self, workdir, capsys):
        (workdir / "hyp.txt").write_text("w00 w01\nw02\n")
        (workdir / "gap.ref").write_text("w00 w01\n\n")
        code, out, err = run(capsys, "evaluate", "--hyp", "hyp.txt", "--ref", "gap.ref")
        assert code == 2
        assert err == "error: gap.ref: line 2 is empty\n"
        assert not out


class TestConfigFile:
    def test_unknown_key_rejected(self, task_dir, workdir, capsys):
        (workdir / "cfg.json").write_text('{"optimizer": "adam"}')
        code, _, err = run(
            capsys, "train", "--config", "cfg.json",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--checkpoint-out", "m.ckpt", "--quiet",
        )
        assert code == 2
        assert "optimizer" in err

    def test_flags_override_config(self, task_dir, workdir, capsys):
        (workdir / "cfg.json").write_text(
            '{"max_updates": 50, "batch_size": 8, "hidden_dim": 6, '
            '"embed_dim": 4, "attention_dim": 4, "max_len": 6}'
        )
        code = main([
            "train", "--config", "cfg.json", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--max-updates", "2",
            "--checkpoint-out", "m3.ckpt",
        ])
        err = capsys.readouterr().err
        assert code == 0
        header = json.loads(err.splitlines()[0])
        assert header["config"]["train"]["max_updates"] == 2
        assert header["config"]["train"]["batch_size"] == 8


    def test_workers_other_than_one_rejected(self, task_dir, workdir, capsys):
        (workdir / "cfg.json").write_text('{"workers": 4}')
        code, _, err = run(
            capsys, "train", "--config", "cfg.json",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--checkpoint-out", "m.ckpt", "--quiet",
        )
        assert code == 2
        assert "workers must be 1" in err


class TestInitCheckpointMismatch:
    def _train_from(self, capsys, checkpoint, hidden_dim, command="train", *flags):
        out = (["--checkpoint-out", "out.ckpt"] if command == "train"
               else ["--ks", "2"])
        return run(
            capsys, command, "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", hidden_dim,
            "--attention-dim", "4", "--max-len", "6", "--batch-size", "4",
            "--max-updates", "1", "--init-checkpoint", checkpoint, *out, *flags,
        )

    def test_missing_tensor_is_data_error(self, trained, workdir, capsys):
        full = ParamStore.load("model.ckpt")
        partial = ParamStore()
        for name, arr in full.items():
            if name != "dec_init_b":
                partial.add(name, arr)
        partial.save("partial.ckpt")
        # the full model's sidecar: --init-checkpoint requires one
        (workdir / "partial.ckpt.json").write_bytes((workdir / "model.ckpt.json").read_bytes())
        code, _, err = self._train_from(capsys, "partial.ckpt", "6")
        assert code == 2
        assert "dec_init_b" in err
        assert not os.path.exists("out.ckpt")

    @pytest.mark.parametrize("command", ["train", "k-sweep"])
    def test_other_hidden_dim_is_data_error(self, trained, workdir, capsys,
                                            command):
        # the fixture trained with --hidden-dim 6
        code, out, err = self._train_from(capsys, "model.ckpt", "4", command)
        assert code == 2
        assert not out
        assert "does not fit the model config" in err
        assert not os.path.exists("out.ckpt")

    @pytest.mark.parametrize("command", ["train", "k-sweep"])
    def test_checkpoint_without_sidecar_is_data_error(self, trained, workdir, capsys,
                                                      command):
        # --init-checkpoint is read as decode reads --checkpoint
        os.remove("model.ckpt.json")
        code, out, err = self._train_from(
            capsys, "model.ckpt", "6", command, "--criterion", "mrt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--eval-every", "1",
        )
        _one_line_data_error(code, out, err)
        assert "model.ckpt.json" in err
        assert not os.path.exists("out.ckpt")


class TestSidecar:
    """The config sidecar next to a checkpoint, and the vocab hashes that
    ``train`` records in it."""

    def _load(self, capsys, command, tgt_vocab="task/vocab.txt"):
        io = (["--output", "hyp.txt"] if command == "decode"
              else ["--gold", "task/valid.tgt"])
        return run(
            capsys, command, "--checkpoint", "model.ckpt",
            "--input", "task/valid.src", *io,
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", tgt_vocab,
            "--quiet",
        )

    def _edit_sidecar(self, workdir, edit):
        path = workdir / "model.ckpt.json"
        sidecar = json.loads(path.read_text())
        edit(sidecar)
        path.write_text(json.dumps(sidecar))

    def _reordered_vocab(self):
        tokens = Vocab.load("task/vocab.txt").tokens
        Vocab(tokens[:4] + tokens[:3:-1]).save("reordered.txt")
        return "reordered.txt"

    @pytest.mark.parametrize(
        "change, message",
        [({"extra": 1}, "unknown keys ['extra']"),
         ({"hidden_dim": "4"}, "non-integer values for ['hidden_dim']")],
    )
    def test_malformed_sidecar_is_data_error(self, trained, workdir, capsys,
                                             change, message):
        self._edit_sidecar(workdir, lambda d: d.update(change))
        code, out, err = self._load(capsys, "decode")
        assert code == 2
        assert message in err
        assert not out and not os.path.exists("hyp.txt")

    @pytest.mark.parametrize("command", ["decode", "sample"])
    def test_reordered_vocab_is_data_error(self, trained, workdir, capsys,
                                           command):
        code, out, err = self._load(capsys, command, self._reordered_vocab())
        assert code == 2
        assert "target vocab is not the one the checkpoint was trained with" in err
        assert not out and not os.path.exists("hyp.txt")

    def test_reordered_vocab_rejects_init_checkpoint(self, trained, workdir,
                                                     capsys):
        code, out, err = run(
            capsys, "train", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt",
            "--tgt-vocab", self._reordered_vocab(),
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "1",
            "--init-checkpoint", "model.ckpt", "--checkpoint-out", "out.ckpt",
        )
        assert code == 2
        assert "target vocab is not the one" in err
        assert not os.path.exists("out.ckpt")

    def test_sidecar_without_vocab_hashes_loads(self, trained, workdir, capsys):
        def drop_hashes(sidecar):
            assert sidecar.pop("src_vocab_sha256") and sidecar.pop("tgt_vocab_sha256")

        self._edit_sidecar(workdir, drop_hashes)
        assert self._load(capsys, "decode")[0] == 0
        assert os.path.exists("hyp.txt")


NOT_UTF8 = b"\xff\xfew00 w01\n"  # a UTF-16 byte-order mark


class TestUnreadableFiles:
    """A file that is not UTF-8 text, or a directory where a file belongs,
    is a data error (exit 2) with one line, not a traceback."""

    DECODE = ["decode", "--checkpoint", "model.ckpt", "--input", "task/valid.src",
              "--output", "hyp.txt", "--src-vocab", "task/vocab.txt",
              "--tgt-vocab", "task/vocab.txt"]
    ARGV = {
        "input": ["evaluate", "--hyp", "bad.txt", "--ref", "task/valid.ref"],
        "build-vocab-input": ["build-vocab", "--input", "bad.txt", "--max-size", "6",
                              "--output", "v.txt"],
        "vocab": DECODE[:-3] + ["bad.txt"] + DECODE[-2:],
        "config": ["train", "--config", "bad.txt", "--train-src", "task/train.src",
                   "--train-tgt", "task/train.tgt", "--src-vocab", "task/vocab.txt",
                   "--tgt-vocab", "task/vocab.txt", "--checkpoint-out", "m.ckpt"],
        "checkpoint": ["decode", "--checkpoint", "task"] + DECODE[3:],
        "sidecar": DECODE,
        "directory": ["evaluate", "--hyp", "task", "--ref", "task/valid.ref"],
    }

    @pytest.mark.parametrize("kind", list(ARGV))
    def test_data_error_not_traceback(self, trained, workdir, capsys, kind):
        bad = "model.ckpt.json" if kind == "sidecar" else "bad.txt"
        (workdir / bad).write_bytes(NOT_UTF8)
        code, out, err = run(capsys, *self.ARGV[kind], "--quiet")
        _one_line_data_error(code, out, err)
        assert not any(os.path.exists(f) for f in ("hyp.txt", "v.txt", "m.ckpt"))

    @pytest.mark.parametrize(
        "kind, content",
        [("input", NOT_UTF8), ("vocab", NOT_UTF8), ("sidecar", NOT_UTF8),
         ("config", b"{bad json"), ("sidecar", b"{bad json")],
    )
    def test_error_names_the_file(self, trained, workdir, capsys, kind, content):
        bad = "model.ckpt.json" if kind == "sidecar" else "bad.txt"
        (workdir / bad).write_bytes(content)
        code, out, err = run(capsys, *self.ARGV[kind], "--quiet")
        _one_line_data_error(code, out, err)
        assert f"error: {bad}: " in err or f"error: config {bad}: " in err


class TestReservedWords:
    """<pad>, <eos> and <bos> in a line a model reads are data errors, found
    before any work; <unk> is an ordinary word."""

    ARGV = {
        "train": ["train", "--train-src", "task/train.src", "--train-tgt",
                  "task/train.tgt", "--src-vocab", "task/vocab.txt", "--tgt-vocab",
                  "task/vocab.txt", "--max-updates", "4", "--checkpoint-out", "m.ckpt"],
        "sample": ["sample", "--checkpoint", "model.ckpt", "--input", "task/valid.src",
                   "--gold", "task/valid.tgt", "--src-vocab", "task/vocab.txt",
                   "--tgt-vocab", "task/vocab.txt"],
        "decode": TestUnreadableFiles.DECODE,
    }

    @pytest.mark.parametrize(
        "command, path, word",
        [("train", "task/train.tgt", "<eos>"), ("train", "task/train.tgt", "<bos>"),
         ("train", "task/train.src", "<pad>"), ("sample", "task/valid.tgt", "<eos>"),
         ("decode", "task/valid.src", "<pad>")],
    )
    def test_rejected_before_output(self, trained, workdir, capsys, command, path,
                                    word):
        lines = (workdir / path).read_text().splitlines()
        words = lines[1].split()
        # mid-line, but <pad> last, where it could pass for padding
        words.insert(len(words) if word == "<pad>" else 1, word)
        lines[1] = " ".join(words)
        (workdir / "bad.txt").write_text("\n".join(lines) + "\n")
        argv = ["bad.txt" if a == path else a for a in self.ARGV[command]]
        code, out, err = run(capsys, *argv, "--quiet")
        _one_line_data_error(code, out, err)
        assert err == f"error: bad.txt: line 2: reserved token {word}\n"
        assert not os.path.exists("m.ckpt") and not os.path.exists("hyp.txt")


class TestSampleAndOracle:
    def test_sample_output_format(self, trained, capsys):
        code, out, _ = run(
            capsys, "sample", "--checkpoint", "model.ckpt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--input", "task/valid.src", "--gold", "task/valid.tgt",
            "--k", "5", "--seed", "0", "--quiet",
        )
        assert code == 0
        rows = out.splitlines()
        assert rows
        for row in rows:
            logprob, loss, weight, _tokens = row.split("\t")
            assert float(logprob) <= 0
            assert -1.0 <= float(loss) <= 10.0
            assert 0.0 <= float(weight) <= 1.0

    @pytest.mark.parametrize("emptied", ["input", "gold"])
    def test_sample_empty_line_rejected_before_output(self, trained, workdir,
                                                      capsys, emptied):
        files = {"input": "task/valid.src", "gold": "task/valid.tgt"}
        lines = (workdir / files[emptied]).read_text().splitlines(keepends=True)
        (workdir / "emptied.txt").write_text("".join(lines[:1] + ["\n"] + lines[2:]))
        files[emptied] = "emptied.txt"
        code, out, err = run(
            capsys, "sample", "--checkpoint", "model.ckpt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--input", files["input"], "--gold", files["gold"],
            "--k", "4", "--seed", "0", "--quiet",
        )
        _one_line_data_error(code, out, err)
        assert err == "error: emptied.txt: line 2 is empty\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
    def test_sample_alpha_must_be_positive_and_finite(self, trained, capsys, alpha):
        code, out, err = run(
            capsys, "sample", "--checkpoint", "model.ckpt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--input", "task/valid.src", "--gold", "task/valid.tgt",
            "--k", "5", "--alpha", alpha, "--quiet",
        )
        _one_line_data_error(code, out, err)
        assert err == f"error: alpha must be positive and finite, got {float(alpha)}\n"

    def test_oracle_csv_sections(self, workdir, capsys):
        code, out, _ = run(
            capsys, "oracle", "--vocab", "6", "--max-len", "3",
            "--ks", "5", "10", "--n-seeds", "5", "--seed", "1", "--quiet",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "section,key,value"
        sections = {line.split(",")[0] for line in lines[1:]}
        assert sections == {"space", "risk", "gradient"}
        grad_line = [l for l in lines if l.startswith("gradient,max_rel_error")]
        assert float(grad_line[0].split(",")[2]) <= 1e-4


    def test_oracle_with_nist_loss(self, workdir, capsys):
        code, out, _ = run(
            capsys, "oracle", "--vocab", "6", "--max-len", "3",
            "--loss", "neg_snist", "--ks", "10", "--n-seeds", "2", "--quiet",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == [
            "sequences", "terminated_mass", "exact", "sampled_mean_k10",
            "sampled_std_k10", "max_rel_error",
        ]
        assert all(math.isfinite(float(r[2])) for r in rows)
        assert float(rows[-1][2]) <= 1e-4


class TestValidationReferences:
    """--max-len 5 drops some validation pairs; the references of the kept
    pairs must still be their own."""

    @pytest.fixture
    def lex_dir(self, workdir, capsys):
        code, _, _ = run(
            capsys, "gen-synthetic", "--task", "lexicon", "--vocab-size", "12",
            "--n-sentences", "60", "--len-min", "2", "--len-max", "6",
            "--out-dir", "d", "--quiet",
        )
        assert code == 0
        return workdir / "d"

    def _train_argv(self, valid_ref):
        return [
            "train", "--quiet",
            "--train-src", "d/train.src", "--train-tgt", "d/train.tgt",
            "--valid-src", "d/valid.src", "--valid-tgt", "d/valid.tgt",
            "--valid-ref", valid_ref,
            "--src-vocab", "d/vocab.txt", "--tgt-vocab", "d/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "5", "--max-updates", "0", "--checkpoint-out", "m.ckpt",
        ]

    def _valid_corpus(self, valid_ref):
        args = build_parser().parse_args(self._train_argv(valid_ref))
        return _load_train_inputs(args)[4]

    def test_multi_file_references_follow_kept_pairs(self, lex_dir):
        valid = self._valid_corpus("d/valid.ref")
        assert valid.filtered_count > 0 and len(valid) > 0
        for pair, refs in zip(valid.pairs, valid.references):
            assert refs == [tuple(pair.tgt[:-1])] * 4

    def test_single_reference_file_is_used(self, lex_dir):
        lines = (lex_dir / "valid.tgt").read_text().splitlines()
        (lex_dir / "rev.ref").write_text(
            "".join(" ".join(reversed(l.split())) + "\n" for l in lines))
        valid = self._valid_corpus("d/rev.ref")
        assert valid.filtered_count > 0
        for pair, refs in zip(valid.pairs, valid.references):
            assert refs == [tuple(reversed(pair.tgt[:-1]))]

    def test_short_reference_file_is_data_error(self, lex_dir, capsys):
        lines = (lex_dir / "valid.ref.0").read_text().splitlines()
        (lex_dir / "short.ref").write_text("\n".join(lines[:-1]) + "\n")
        code, _, err = run(capsys, *self._train_argv("d/short.ref"))
        assert code == 2
        assert "reference lines" in err

    def test_empty_reference_line_is_data_error(self, lex_dir, capsys):
        ref = lex_dir / "valid.ref.0"
        lines = ref.read_text().splitlines()
        lines[1] = ""
        ref.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, *self._train_argv("d/valid.ref"))
        assert code == 2
        assert err == "error: d/valid.ref.0: line 2 is empty\n"
        assert not out


    @pytest.mark.parametrize(
        "command, rows",
        [("train", ["--checkpoint-out", "m.ckpt"]),
         ("alpha-sweep", ["--alphas", "1.0"]),
         ("k-sweep", ["--ks", "2", "--init-checkpoint", "m.ckpt"])],
    )
    def test_validation_set_emptied_by_max_len_is_data_error(
        self, lex_dir, capsys, command, rows
    ):
        # every kept validation line has 5+ words, so --max-len 5 drops all
        for side in ("src", "tgt"):
            lines = (lex_dir / f"valid.{side}").read_text().splitlines()
            long = [l for l in lines if len(l.split()) >= 5]
            assert long
            (lex_dir / f"long.{side}").write_text("\n".join(long) + "\n")
        code, out, err = run(
            capsys, command, "--quiet",
            "--train-src", "d/train.src", "--train-tgt", "d/train.tgt",
            "--valid-src", "d/long.src", "--valid-tgt", "d/long.tgt",
            "--src-vocab", "d/vocab.txt", "--tgt-vocab", "d/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "5", "--max-updates", "2", "--eval-every", "1", *rows,
        )
        assert code == 2
        assert "no validation pair fits max_len=5" in err
        assert not out

    @pytest.mark.parametrize(
        "command, rows",
        [("train", ["--checkpoint-out", "m.ckpt"]),
         ("alpha-sweep", ["--alphas", "1.0"]),
         ("k-sweep", ["--ks", "2", "--init-checkpoint", "m.ckpt"])],
    )
    def test_training_set_emptied_by_max_len_is_data_error(
        self, lex_dir, capsys, monkeypatch, command, rows
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on an empty corpus")

        monkeypatch.setattr(trainer, "train", no_training)
        code, out, err = run(
            capsys, command, "--quiet",
            "--train-src", "d/train.src", "--train-tgt", "d/train.tgt",
            "--valid-src", "d/valid.src", "--valid-tgt", "d/valid.tgt",
            "--src-vocab", "d/vocab.txt", "--tgt-vocab", "d/vocab.txt",
            "--max-len", "1", "--max-updates", "2", "--eval-every", "1", *rows,
        )
        assert code == 2
        n_train = len((lex_dir / "train.src").read_text().splitlines())
        assert err == f"error: no training pair fits max_len=1 ({n_train} over length)\n"
        assert not out


class TestSweeps:
    def test_alpha_sweep_rows_in_input_order(self, trained, capsys, monkeypatch):
        loads, load = [], ParamStore.load.__func__

        def counted(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(ParamStore, "load", classmethod(counted))
        code, out, _ = run(
            capsys, "alpha-sweep", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--valid-ref", "task/valid.ref",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", "2", "--k", "3",
            "--init-checkpoint", "model.ckpt",
            "--alphas", "1.0", "0.005",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,valid_bleu"
        assert lines[1].startswith("1,") or lines[1].startswith("1.0,")
        assert lines[2].startswith("0.005,")
        assert loads == ["model.ckpt"]

    @pytest.mark.parametrize(
        "start, message",
        [([], "error: alpha-sweep requires an initial checkpoint\n"),
         (["--init-checkpoint", "model.ckpt"], "does not fit the model config")],
        ids=["no-checkpoint", "other-hidden-dim"],
    )
    def test_alpha_sweep_start_checked_before_any_row(self, trained, capsys, start, message):
        # the fixture trained with --hidden-dim 6
        code, out, err = run(
            capsys, "alpha-sweep", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "4", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", "2", "--k", "3", *start, "--alphas", "1.0", "0.5",
        )
        assert code == 2
        assert not out
        assert message in err

    @pytest.mark.parametrize(
        "command, rows, failed",
        [("alpha-sweep", ["--alphas", "1.0", "0.5"], "0.5,error"),
         ("k-sweep", ["--ks", "2", "3", "--n-seeds", "2"], "3,error,error")],
    )
    def test_row_error_is_reported_in_its_row(self, trained, capsys, caplog,
                                              monkeypatch, command, rows, failed):
        calls, real_train = [], trainer.train

        def second_row_fails(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 2:
                raise ModelError("a row that fails")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(trainer, "train", second_row_fails)
        code, out, _ = run(
            capsys, command, "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", "2", "--k", "3", "--init-checkpoint", "model.ckpt", *rows,
        )
        assert code == 0
        _, first, second = out.splitlines()
        assert "error" not in first and second == failed
        assert "failed: a row that fails" in caplog.text

    def test_k_sweep_requires_init_checkpoint(self, task_dir, capsys):
        code, _, err = run(
            capsys, "k-sweep", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6",
            "--ks", "2",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, eval_every, with_valid",
        [
            ("alpha-sweep", "2", False),
            ("alpha-sweep", "0", True),
            ("alpha-sweep", "3", True),
            ("k-sweep", "2", False),
            ("k-sweep", "3", True),
        ],
    )
    def test_sweep_without_a_score_fails_before_training(
        self, trained, capsys, monkeypatch, command, eval_every, with_valid
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a sweep that cannot score trained a row")

        monkeypatch.setattr(trainer, "train", no_training)
        rows = ["--alphas", "1.0"] if command == "alpha-sweep" else ["--ks", "2"]
        valid = (["--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt"]
                 if with_valid else [])
        code, out, err = run(
            capsys, command, "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            *valid,
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", eval_every, "--init-checkpoint", "model.ckpt", *rows,
        )
        assert code == 2
        assert err.startswith("error: a sweep needs")
        assert not out

    @pytest.mark.parametrize(
        "command, rows, message",
        [
            ("alpha-sweep", ["--alphas", "0.5", "-1"], "alpha must be positive and finite"),
            ("alpha-sweep", ["--alphas", "0.5", "0"], "alpha must be positive and finite"),
            ("alpha-sweep", ["--alphas", "0.5", "nan"], "alpha must be positive and finite"),
            ("alpha-sweep", ["--alphas", "0.5", "inf"], "alpha must be positive and finite"),
            ("k-sweep", ["--ks", "3", "0"], "k must be >= 1"),
        ],
        ids=["alpha-negative", "alpha-zero", "alpha-nan", "alpha-inf", "k-zero"],
    )
    def test_sweep_rejects_a_bad_row_value_before_the_first_row(
        self, trained, capsys, monkeypatch, command, rows, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a sweep with a bad row value trained a row")

        monkeypatch.setattr(trainer, "train", no_training)
        code, out, err = run(
            capsys, command, "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", "2", "--k", "3", "--init-checkpoint", "model.ckpt", *rows,
        )
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not out

    def test_k_sweep_reports_stddev_and_bleu(self, trained, capsys):
        code, out, _ = run(
            capsys, "k-sweep", "--quiet",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--valid-ref", "task/valid.ref",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", "2",
            "--init-checkpoint", "model.ckpt",
            "--ks", "2", "4", "--n-seeds", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,risk_stddev,valid_bleu"
        assert len(lines) == 3
        for line in lines[1:]:
            k, std, bleu = line.split(",")
            assert float(std) >= 0.0

    def test_k_sweep_with_nist_loss(self, trained, capsys):
        code, out, _ = run(
            capsys, "k-sweep", "--quiet", "--loss", "neg_snist",
            "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
            "--valid-src", "task/valid.src", "--valid-tgt", "task/valid.tgt",
            "--valid-ref", "task/valid.ref",
            "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
            "--embed-dim", "4", "--hidden-dim", "6", "--attention-dim", "4",
            "--max-len", "6", "--batch-size", "4", "--max-updates", "2",
            "--eval-every", "2",
            "--init-checkpoint", "model.ckpt",
            "--ks", "2", "4", "--n-seeds", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,risk_stddev,valid_bleu"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]
        for line in lines[1:]:
            _, std, bleu = line.split(",")
            assert float(std) >= 0.0 and 0.0 <= float(bleu) <= 100.0


def _sidecar_with(**change):
    def prepare(workdir):
        path = workdir / "model.ckpt.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    return prepare


def _write(**files):
    def prepare(workdir):
        for name, text in files.items():
            (workdir / name).write_text(text)
    return prepare


class TestMalformedInputs:
    """Each input here is a data error (exit 2): one error line on stderr,
    nothing on stdout and no output file."""

    TRAIN = ["train", "--train-src", "task/train.src", "--train-tgt", "task/train.tgt",
             "--src-vocab", "task/vocab.txt", "--tgt-vocab", "task/vocab.txt",
             "--checkpoint-out", "m.ckpt"]
    CASES = {
        "config-array": (_write(**{"cfg.json": "[1, 2]"}),
                         TRAIN + ["--config", "cfg.json"],
                         "config cfg.json: expected a JSON object"),
        "no-reference": (_write(),
                         ["evaluate", "--hyp", "task/valid.tgt", "--ref", "none.ref"],
                         "no reference file at none.ref or none.ref.0"),
        "gold-shorter-than-input": (
            _write(**{"in.src": "w04 w05\nw05 w06\n", "gold.txt": "w04 w05\n"}),
            ["sample", "--checkpoint", "model.ckpt", "--src-vocab", "task/vocab.txt",
             "--tgt-vocab", "task/vocab.txt", "--input", "in.src", "--gold", "gold.txt"],
            "2 source lines vs 1 gold lines"),
        "length-range": (_write(),
                         ["gen-synthetic", "--task", "copy", "--vocab-size", "8",
                          "--n-sentences", "30", "--len-min", "0", "--out-dir", "out"],
                         "bad length range (0, 6)"),
        "empty-hyp-and-ref": (_write(**{"e.hyp": "", "e.ref": ""}),
                              ["evaluate", "--hyp", "e.hyp", "--ref", "e.ref"],
                              "empty references"),
        "sidecar-array": (_write(**{"model.ckpt.json": "[]"}), TestUnreadableFiles.DECODE,
                          "model.ckpt.json: expected a JSON object"),
        "sidecar-hash-number": (_sidecar_with(src_vocab_sha256=5),
                                TestUnreadableFiles.DECODE,
                                "model.ckpt.json: vocab hashes must be strings"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_error_line_and_no_output(self, trained, workdir, capsys, case):
        prepare, argv, message = self.CASES[case]
        prepare(workdir)
        code, out, err = run(capsys, *argv, "--quiet")
        _one_line_data_error(code, out, err)
        assert err == f"error: {message}\n"
        assert not any(os.path.exists(f) for f in ("m.ckpt", "hyp.txt", "out"))


class TestChildProcess:
    """``python -m riskseq.cli``, as the benchmark runs decode."""

    def _decode(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                        os.environ.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "riskseq.cli", *TestUnreadableFiles.DECODE,
             "--quiet", *extra],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_decode_exits_0_and_writes_its_output(self, trained, workdir):
        proc = self._decode()
        assert proc.returncode == 0, proc.stderr
        assert not proc.stdout and not proc.stderr
        hyps = (workdir / "hyp.txt").read_text().splitlines()
        assert len(hyps) == len(read_token_lines("task/valid.src"))

    def test_bad_beam_exits_2_with_one_error_line(self, trained, workdir):
        proc = self._decode("--beam", "0")
        _one_line_data_error(proc.returncode, proc.stdout, proc.stderr)
        assert proc.stderr == "error: beam width must be >= 1, got 0\n"
        assert not os.path.exists("hyp.txt")
