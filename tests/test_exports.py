"""Every exported name resolves, in the package and in each of its modules."""
import importlib
import pkgutil

import pytest

import zonotile

MODULES = sorted(
    f"zonotile.{m.name}" for m in pkgutil.iter_modules(zonotile.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", ["zonotile", *MODULES])
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []

