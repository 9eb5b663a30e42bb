"""Every exported name resolves.

A deletion that leaves a stale entry in the package's or a module's
__all__ would otherwise only fail on a star import or a user's lookup.
"""

import importlib
import pkgutil

import pytest

import uacg

MODULES = sorted(m.name for m in pkgutil.iter_modules(uacg.__path__, prefix="uacg."))


def test_modules_found():
    assert "uacg.analysis" in MODULES and "uacg.linalg" in MODULES


@pytest.mark.parametrize("module_name", ["uacg", *MODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
