"""Every exported name resolves, so a deletion cannot leave a stale export,
every public definition is exported, and every function the benchmark
traces still exists under its name."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import riskseq

MODULES = ["riskseq"] + [
    f"riskseq.{info.name}" for info in pkgutil.iter_modules(riskseq.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"duplicates in {module_name}.__all__"


@pytest.mark.parametrize("module_name", [m for m in MODULES if m != "riskseq.cli"])
def test_all_lists_every_public_definition(module_name):
    """Each library module's ``__all__`` names every public function and
    class it defines; ``cli`` defines no ``__all__``."""
    module = importlib.import_module(module_name)
    unlisted = [
        name for name, obj in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module_name and name not in module.__all__
    ]
    assert not unlisted, f"{module_name}.__all__ leaves out {unlisted}"


def test_every_error_class_subclasses_riskseq_error():
    """``cli.main`` turns a ``RiskseqError`` into exit code 2; an error
    class outside it would escape as a traceback. ``cli.UsageError`` is the
    one exception: it exits 1."""
    from riskseq.cli import UsageError
    from riskseq.diffcore import RiskseqError

    outside = [
        f"{name}.{cls.__name__}"
        for name in MODULES
        for cls in vars(importlib.import_module(name)).values()
        if inspect.isclass(cls) and issubclass(cls, BaseException)
        and cls.__module__ == name and cls is not UsageError
        and not issubclass(cls, RiskseqError)
    ]
    assert not outside, f"errors outside RiskseqError: {outside}"


SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "span, module_name, path",
    [target[:3] for target in _load_spans().TARGETS],
)
def test_every_benchmark_span_target_resolves(span, module_name, path):
    """The benchmark silently skips a traced function that moved or was
    renamed, so check here that each one still exists."""
    obj = importlib.import_module(module_name)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{span}: {module_name}.{path} is gone"
        obj = getattr(obj, attr)
    assert callable(obj), f"{span}: {module_name}.{path} is not callable"


def test_cli_decodes_with_the_decoder_beam_search():
    import riskseq.cli
    import riskseq.decoder

    assert riskseq.cli.decode_corpus is riskseq.decoder.decode_corpus


TRAINING_SPANS = {
    "trainer.train", "mrt.sample_space", "mrt.sample_trajectories",
    "mrt.build_space", "mrt.q_distribution", "mrt.expected_risk", "mrt.mrt_grad",
    "metrics.delta", "mrt.mle_loss_and_grad", "diffcore.gradient",
}


def test_benchmark_spans_fire_in_training():
    """A call routed around a traced name records no span, which the check
    above cannot see: train one MRT and one MLE update under the tracer."""
    import riskseq.cli  # noqa: F401  (every module loaded before tracing)
    import riskseq.trainer
    from conftest import noisy_params, toy_config
    from riskseq.data import Corpus, SentencePair
    from riskseq.model import EOS

    cfg = toy_config()
    pairs = [SentencePair([4, 5, 4], [5, 4, 5, EOS]), SentencePair([5, 5], [4, 5, EOS])]
    corpus = Corpus(name="toy", pairs=pairs,
                    references=[[tuple(p.tgt[:-1])] for p in pairs])
    start = noisy_params(cfg, seed=0)
    tracer = _load_spans().Tracer()
    with tracer.installed():
        for criterion in ("mrt", "mle"):
            tc = riskseq.trainer.TrainConfig(criterion=criterion, batch_size=2,
                                             max_updates=1, eval_every=0, k=5)
            riskseq.trainer.train(tc, cfg, corpus, None, start)
    missing = TRAINING_SPANS - set(tracer.names)
    assert not missing, f"spans that never fired: {sorted(missing)}"
