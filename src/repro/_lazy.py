"""PEP 562 re-exports: a package's names load on first use.

A package passes its ``globals()`` and a table of submodule -> the names
it re-exports from there, and binds the pair this returns::

    __getattr__, __dir__ = lazy_exports(globals(), {"service": ("SimilarityService",)})

The first read of a name imports its submodule and binds the value in the
package, so later reads never come back here. A submodule resolves by
attribute too: every key of the table, and each of ``submodules``.

A name that is also a submodule (``repro.index.kmeans`` the function,
``repro.index.kmeans`` the module) must be bound eagerly instead: the
first import of the submodule would rebind the attribute to the module.
Each submodule in ``eager`` is imported at once and its names bound.
"""

from importlib import import_module
from typing import Callable, Dict, Iterable, Mapping, Tuple


def lazy_exports(namespace: Dict, exports: Mapping[str, Iterable[str]],
                 submodules: Iterable[str] = (),
                 eager: Iterable[str] = ()) -> Tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``__dir__`` lists its globals and its ``__all__``."""
    package = namespace["__name__"]
    for module in eager:
        source = import_module(f"{package}.{module}")
        namespace.update((name, getattr(source, name))
                         for name in exports[module])
    home = {name: module for module, names in exports.items() for name in names}
    reachable = {*exports, *submodules}

    def __getattr__(name: str):
        if name in home:
            value = getattr(import_module(f"{package}.{home[name]}"), name)
            namespace[name] = value
            return value
        if name in reachable:
            return import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted({*namespace, *namespace.get("__all__", ())})

    return __getattr__, __dir__
