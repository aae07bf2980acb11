"""Every name that the package and its modules export in ``__all__`` exists
and earns its place.

``from oddfarey import *`` and tools that walk ``__all__`` (a tracer that
wraps each public function, say) fail on a stale entry, so each name must
resolve by ``getattr``.  Each name must also have a caller in the package,
or a stated reason to stay public; a name that only tests call belongs in
``tests/conftest.py`` as an oracle.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oddfarey

_MODULES = [oddfarey] + [
    importlib.import_module(f"oddfarey.{info.name}") for info in pkgutil.iter_modules(oddfarey.__path__)
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# Public names that no module of the package calls, each kept for a reason
# (the same reasons as README's table of them).
_KEPT_WITHOUT_CALLER = {
    "delta": "the paper's gap of two increasing fractions, and the tests' gap oracle",
    "empirical_rho": "the short-interval ratio of README's tour",
    "family_sum_upto": "the oracle of `rho_odd`'s lower bound lo(K)",
    "prev_pair": "the inverse of the triangle map that `dynamics.py` states",
}


def _names_used_in_the_package() -> set[str]:
    """Every name that some module other than ``__init__`` loads as a bare
    name or imports by name.  Attribute access does not count: ``args.delta``
    is not ``farey.delta``."""
    used = set()
    for path in Path(oddfarey.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


_USED = _names_used_in_the_package()


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_has_a_caller_or_a_reason(module):
    idle = [name for name in getattr(module, "__all__", ()) if name not in _USED | _KEPT_WITHOUT_CALLER.keys()]
    assert idle == []


def test_every_kept_name_is_still_exported_and_idle():
    """A kept name that gains a caller, or leaves ``__all__``, leaves the list."""
    exported = {name for module in _MODULES for name in getattr(module, "__all__", ())}
    assert sorted(_KEPT_WITHOUT_CALLER) == sorted(exported - _USED)
