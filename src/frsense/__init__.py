"""Fisher-Rao geometry of densities and prior-sensitivity analysis tools.

``import frsense`` loads the geometry core: ``errors``, ``grid``,
``geometry``, ``measures`` and ``io``, all that reading density matrices,
summarizing them and comparing the summaries needs.  The samplers, the
sweep driver and the config reader (``samplers``, ``sweep`` and ``config``)
load on first use of one of their names, as in ``frsense.run_sweep`` or
``from frsense import DpConfig``, and the name then stays bound here; a
sampler name loads only its own model's module.  ``from frsense import *``
and ``dir(frsense)`` load them all.
"""

from importlib import import_module as _import_module

from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403

__version__ = "0.13.0"

#: Submodules loaded on first use, in the order a missing name is looked up.
_DEFERRED = ("samplers", "sweep", "config")


def _public_names() -> list:
    """Every public name of the package, the deferred ones loaded first."""
    for module_name in _DEFERRED:
        module = _import_module(f".{module_name}", __name__)
        globals().update((name, getattr(module, name)) for name in module.__all__)
    return [name for name in globals() if not name.startswith("_")]


def __getattr__(name: str):
    if name == "__all__":
        return _public_names()
    if not name.startswith("_"):
        for module_name in _DEFERRED:
            module = _import_module(f".{module_name}", __name__)
            if name == module_name:
                return module
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_public_names()})
