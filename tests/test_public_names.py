"""Every name that the package and its modules export in ``__all__`` exists.

``from oddfarey import *`` and tools that walk ``__all__`` (a tracer that
wraps each public function, say) fail on a stale entry, so each name must
resolve by ``getattr``.
"""

import importlib
import pkgutil

import pytest

import oddfarey

_MODULES = [oddfarey] + [
    importlib.import_module(f"oddfarey.{info.name}") for info in pkgutil.iter_modules(oddfarey.__path__)
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
