"""The package's per-process state is the README's "Per-process state" table.

Every functools cache of a uacg module, and verification._FOLDS, must be a
row of that table with the bound the row gives, and every row must be one
of them: a cache is added, dropped or rebounded only with its row.
"""

import importlib
import pkgutil
from pathlib import Path

import uacg
from uacg import verification

README = Path(__file__).parents[1] / "README.md"


def documented() -> dict:
    section = README.read_text(encoding="utf-8").split("\n## Per-process state\n", 1)[1]
    rows = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            name, _, bound = (cell.strip() for cell in line.strip("|").split("|")[:3])
            rows[name.strip("`")] = None if bound == "none" else int(bound)
    return rows


def held() -> dict:
    found = {"verification._FOLDS": verification._LAYOUTS}
    for info in pkgutil.iter_modules(uacg.__path__, prefix="uacg."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                name = f"{module.__name__.removeprefix('uacg.')}.{obj.__qualname__}"
                found[name] = obj.cache_info().maxsize
    return found


def test_every_cache_is_documented_with_its_bound():
    assert held() == documented()

