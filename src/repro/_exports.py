"""Package exports that load on first use (PEP 562).

Each package ``__init__`` names the submodule that defines every public
name; :func:`lazy_exports` builds the module ``__getattr__`` that imports
that submodule the first time the name is read and caches the value in
the package's globals.  ``import repro.<pkg>`` then costs only what the
caller goes on to use — which matters because every simulation point is
a fresh process that, with bytecode writing off, compiles each module
it imports from source.
"""

import importlib
import sys


def lazy_exports(package: str, table: dict):
    """The ``__getattr__`` of ``package``; ``table`` maps each public
    name to the module defining it, relative to ``package``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(
            importlib.import_module(module, package), name)
        return value

    return __getattr__
