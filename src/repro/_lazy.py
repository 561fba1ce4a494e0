"""Lazy package exports (PEP 562), so a run loads only the layers it uses.

A package ``__init__`` lists which submodule defines each name it exports
and gets back its ``__all__`` and a module ``__getattr__``::

    __all__, __getattr__ = lazy_exports(__name__, {
        "client": ("NfsClient",),
        "protocol": ("protocol",),   # the submodule itself
    })

Nothing is imported until a name is first looked up, so importing the
package (or any of its submodules) costs only the package's own body.
"""

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, sources: Dict[str, Tuple[str, ...]]
                 ) -> Tuple[List[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for ``package``.

    ``sources`` maps a submodule name to the names it exports; a name
    equal to its submodule's name exports the submodule itself.
    """
    origin = {name: module for module, names in sources.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        loaded = importlib.import_module("." + module, package)
        return loaded if name == module else getattr(loaded, name)

    return list(origin), __getattr__
