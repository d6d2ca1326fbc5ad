"""Posterior samplers producing grid-evaluated density draws.

``common`` loads with the package.  Each model's sampler module loads on
the first use of one of its names, so a sweep imports only the model it
runs; ``dir()`` and ``from frsense.samplers import *`` load them all.
"""

from importlib import import_module as _import_module

from . import common
from .common import *  # noqa: F401,F403

#: Each sampler module and the public names it defines, loaded on first use.
_MODULE_NAMES = {
    "dp": (
        "UniformBase",
        "BetaBase",
        "DpConfig",
        "dp_posterior",
        "expected_remainder",
    ),
    "dpgmm": ("DpgmmConfig", "dpgmm_posterior"),
    "griffin": ("CcvConfig", "DcvConfig", "ccv_posterior", "dcv_posterior", "sample_griffin_steel"),
}

__all__ = [*common.__all__, *(name for names in _MODULE_NAMES.values() for name in names)]


def __getattr__(name: str):
    for module_name, names in _MODULE_NAMES.items():
        if name == module_name:
            return _import_module(f".{module_name}", __name__)
        if name in names:
            value = globals()[name] = getattr(_import_module(f".{module_name}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_MODULE_NAMES})
