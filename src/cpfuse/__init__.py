"""Nonnegative coupled CP fusion of hyperspectral and multispectral images.

The package's public names are exactly those its modules list in ``__all__``.
"""

from .als import *  # noqa: F401,F403
from .degradation import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403
from .fileio import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .tensors import *  # noqa: F401,F403

__version__ = "0.1.0"
