"""Fisher-Rao geometry of densities and prior-sensitivity analysis tools."""

from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .samplers import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403

__version__ = "0.6.0"
