"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

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
