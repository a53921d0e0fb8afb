import importlib
import pkgutil

import pytest

import hurwitz

MODULES = [hurwitz] + [
    importlib.import_module(f"hurwitz.{info.name}")
    for info in pkgutil.iter_modules(hurwitz.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
