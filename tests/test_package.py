"""The package's public names are its modules' ``__all__`` lists, each written once."""

import collections
import importlib
import pkgutil

import abicreg

# the order of the wildcard imports in abicreg/__init__.py
EXPORTING = ("errors", "model", "estimators", "marginal", "selection", "bias", "problems")


def _modules():
    return [importlib.import_module(f"abicreg.{name}") for name in EXPORTING]


def test_all_is_version_then_each_module_all_in_import_order():
    expected = ["__version__"]
    for module in _modules():
        expected += module.__all__
    assert abicreg.__all__ == expected


def test_no_name_is_exported_twice_or_by_two_modules():
    assert len(abicreg.__all__) == len(set(abicreg.__all__))
    owners = collections.defaultdict(list)
    for module in _modules():
        for name in module.__all__:
            owners[name].append(module.__name__)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


def test_every_name_is_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(abicreg, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_name_shadows_a_module():
    # abicreg.<module> must stay the module, which the benchmark's tracer patches
    modules = {info.name for info in pkgutil.iter_modules(abicreg.__path__)}
    assert modules.isdisjoint(abicreg.__all__)
    for module in _modules():
        assert getattr(abicreg, module.__name__.rpartition(".")[2]) is module
