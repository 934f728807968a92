"""Every ``__all__`` entry in the package resolves.

A definition deleted from a module but left in an export list would
otherwise surface only when a user runs ``from repro.x import *`` or
imports the name through the package.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names() -> list[str]:
    return ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith("__main__")
    )


@pytest.mark.parametrize("name", _module_names())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
