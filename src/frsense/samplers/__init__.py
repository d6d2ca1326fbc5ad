"""Posterior samplers producing grid-evaluated density draws."""

from . import common, dp, dpgmm, griffin
from .common import *  # noqa: F401,F403
from .dp import *  # noqa: F401,F403
from .dpgmm import *  # noqa: F401,F403
from .griffin import *  # noqa: F401,F403

__all__ = [*common.__all__, *dp.__all__, *dpgmm.__all__, *griffin.__all__]
