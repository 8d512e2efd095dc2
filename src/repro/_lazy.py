"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every one of them on first touch of the package -- so a
sharded-monitor worker, which needs only the data plane, would pay for the
simulator, the dataset builders and the pcap decoder at spawn.  Instead an
``__init__`` maps each public name to the module defining it, and the name
is imported on first attribute access (``from package import name`` and
``from package import *`` included), then cached in the package namespace.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, resolving ``exports``.

    ``exports`` maps each public name to the module that defines it.
    """
    namespace = importlib.import_module(package).__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
