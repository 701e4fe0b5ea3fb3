"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names lists them in a
``{name: module}`` table and builds its module-level ``__getattr__`` and
``__dir__`` from it with :func:`lazy_exports`.  A name's module is imported
the first time the name is read, so importing one submodule of a package
no longer imports all of its siblings: a spawned serving worker loads the
serving path and nothing else.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving ``table`` on use.

    ``table`` maps each exported name to the module that defines it,
    relative to ``package`` (``".gateway"``).  A name mapped to its own
    submodule (``"models": ".models"``) exports that submodule.  A resolved
    name is stored in the package namespace, so it is looked up only once.
    """

    def __getattr__(name: str) -> object:
        try:
            module_name = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name, package)
        value = module if module_name == f".{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
