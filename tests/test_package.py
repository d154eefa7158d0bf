import inspect

import pytest

import cpfuse
from cpfuse import als, degradation, experiment, fileio, metrics, solver, tensors

MODULES = (als, degradation, experiment, fileio, metrics, solver, tensors)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_exported_from_its_module(module):
    for name in module.__all__:
        assert getattr(cpfuse, name) is getattr(module, name)


def test_package_exports_exactly_the_modules_public_names():
    exported = {name for name, value in vars(cpfuse).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for module in MODULES for name in module.__all__}
