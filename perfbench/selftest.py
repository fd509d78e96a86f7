"""Fast self-test of the benchmark (about a minute on 2 CPUs).

Runs every workload at a tiny size, traced and untraced, and checks that:
every metric named in BENCHMARK.json is emitted; count metrics repeat
exactly; the span wrappers restore every original; a corrupted decode
output, a failing ``riskseq decode`` and a forced ``TrainError`` count as
failed operations; the host-speed sampler restores SIGALRM; and the
benchmark refuses to run without the source.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

import run
import snapshot
from spans import TARGETS, Tracer

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def _declared() -> dict:
    with open(os.path.join(snapshot.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


@check
def declared_matches_code():
    d = _declared()
    assert d["workloads"] == list(run.WORKLOADS), d["workloads"]
    assert d["end_to_end"] == run.END_TO_END, d["end_to_end"]
    assert d["per_layer"] == run.PER_LAYER, d["per_layer"]


@check
def every_workload_emits_every_metric():
    d = _declared()
    for name in run.WORKLOADS:
        for trace, wanted in ((False, d["end_to_end"]), (True, d["per_layer"])):
            record = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)
            result = record["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (name, trace, record["errors"])
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == set(wanted), (name, trace)
            for key, m in result["metrics"].items():
                assert m["unit"] == wanted[key]
                assert np.isfinite(m["value"]), (name, key, m)
                if not trace:
                    assert m["value"] != 0, (name, key)


@check
def counts_repeat_across_invocations():
    for name in ("mrt-lexicon", "decode-beam10"):
        a, b = (run.run(name, seed=5, seconds=0, trace=True, tiny=True)["result"]
                for _ in range(2))
        for key in run.COUNTS:
            assert a["metrics"][key] == b["metrics"][key], (name, key)


def _target_values() -> dict:
    out = {}
    for _, module_name, path, _ in TARGETS:
        mod = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".", 1)
            out[path] = getattr(mod, cls_name).__dict__[attr]
        else:
            for mod_name, m in sys.modules.items():
                if mod_name == "riskseq" or mod_name.startswith("riskseq."):
                    for key, val in vars(m).items():
                        if key == path and callable(val):
                            out[f"{mod_name}.{key}"] = val
    return out


@check
def wrappers_restore_originals():
    snapshot.use_checkout_source()
    import riskseq.cli  # noqa: F401

    before = _target_values()
    tracer = Tracer()
    with tracer.installed():
        during = _target_values()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) >= len(TARGETS), changed
        from riskseq import decoder, trainer

        assert trainer.decode_corpus is decoder.decode_corpus
        assert riskseq.cli.beam_decode is decoder.beam_decode
    after = _target_values()
    assert all(after[k] is before[k] for k in before)
    try:
        with tracer.installed():
            raise KeyError("boom")
    except KeyError:
        pass
    assert all(_target_values()[k] is before[k] for k in before)


@check
def host_speed_restores_the_alarm():
    import signal

    from hostspeed import INTERVAL_S, HostSpeed

    before = signal.getsignal(signal.SIGALRM)
    try:
        with HostSpeed() as timer:
            deadline = time.perf_counter() + 5 * INTERVAL_S
            while time.perf_counter() < deadline:
                pass
            raise KeyError("boom")
    except KeyError:
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timer.samples) >= 4 and timer.seconds > 0, timer.samples


def _tiny(name: str) -> run.Workload:
    return run.Workload(**{**run.WORKLOADS[name].__dict__, **run.TINY})


@check
def forced_train_error_counts_as_failed():
    snapshot.use_checkout_source()
    w = _tiny("mle-lexicon")
    workdir = os.path.join(run.WORK, "selftest-train")
    try:
        s = run.setup(w, 0, workdir)
        bad = s.snapshot_params.copy()
        bad.set_flat(np.full(bad.size, np.nan))
        rep = run.train_rep(w, s, 0, initial=bad)
        assert rep.failed == rep.ops == w.updates, rep
        assert rep.error.startswith("TrainError"), rep.error
        good = run.train_rep(w, s, 0)
        assert good.failed == 0 and good.error is None, good
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@check
def corrupted_decode_output_counts_as_failed():
    snapshot.use_checkout_source()
    import riskseq.cli as cli_mod

    w = _tiny("decode-beam10")
    workdir = os.path.join(run.WORK, "selftest-decode")
    real_main = cli_mod.main

    def corrupt(extra):
        def main(argv):
            code = real_main(argv)
            out = argv[argv.index("--output") + 1]
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(extra)
            return code
        return main

    try:
        s = run.setup(w, 0, workdir)
        assert run.decode_rep(w, s, in_process=True).failed == 0
        # an extra line appended to the real output
        cli_mod.main = corrupt("w01 w02\n")
        rep = run.decode_rep(w, s, in_process=True)
        cli_mod.main = real_main
        assert rep.failed == w.decode_n, rep
        # a token outside the vocabulary, and a short output
        out = os.path.join(workdir, "bad.hyp")
        for text, n in (("w01 zzz\n", 1), ("w01\n", 2)):
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                run.check_decode_output(out, n, s.vocab_tokens)
            except run.BenchFailure:
                continue
            raise AssertionError(f"accepted corrupted output {text!r}")
        # a failing riskseq decode process (truncated checkpoint)
        with open(s.ckpt, "r+b") as fh:
            fh.truncate(100)
        rep = run.decode_rep(w, s, in_process=False)
        assert rep.failed == w.decode_n and "failed" in rep.error, rep
    finally:
        cli_mod.main = real_main
        shutil.rmtree(workdir, ignore_errors=True)


@check
def refuses_to_run_without_source():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(snapshot.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(snapshot.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mle-lexicon",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode != 0, out.stdout
        assert '"correct"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for fn in CHECKS:
        try:
            fn()
            print(f"PASS {fn.__name__}", flush=True)
        except Exception:  # report every check, then fail the run
            failures += 1
            print(f"FAIL {fn.__name__}", flush=True)
            traceback.print_exc()
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
