"""Each module's __all__ names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import iad

MODULES = [importlib.import_module(f"iad.{m.name}")
           for m in pkgutil.iter_modules(iad.__path__)]


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(mod):
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], f"{mod.__name__}.__all__ names undefined {missing}"
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    unlisted = sorted(defined - set(mod.__all__))
    assert unlisted == [], f"{mod.__name__} defines public {unlisted} outside __all__"
