"""Public-API hygiene: every exported name resolves and is documented.

Guards against drift between ``__all__`` lists and module contents as
the library grows, and enforces the documentation contract (every
public item carries a docstring).  The module list is walked from the
package itself, so a new module is covered and a deleted one needs no
edit here.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk() -> tuple[list[str], list[str]]:
    """Every ``repro`` module, split into packages and plain modules."""
    packages = ["repro"]
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        (packages if info.ispkg else modules).append(info.name)
    return packages, modules


PACKAGES, MODULES = _walk()


@pytest.mark.parametrize("name", PACKAGES + MODULES)
class TestModule:
    def test_imports(self, name):
        importlib.import_module(name)

    def test_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} must define __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert (
                    obj.__doc__ and obj.__doc__.strip()
                ), f"{name}.{symbol} lacks a docstring"


def test_main_package_version():
    import repro

    assert repro.__version__ == "1.0.0"
