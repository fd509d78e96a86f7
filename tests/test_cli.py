import json
import os

import pytest

from riskseq.cli import main
from riskseq.data import Vocab, read_token_lines


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


class TestSweeps:
    def test_alpha_sweep_rows_in_input_order(self, trained, capsys):
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
