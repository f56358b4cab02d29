"""Finite-sum optimization with shuffling-type gradient methods.

Implements epoch-based shuffling gradient descent together with the
supporting machinery needed to study it under generalized smoothness:
benchmark problems, permutation schemes, stepsize/epoch planning from
declared smoothness moduli, assumption diagnostics, dataset ingest and
a config-driven experiment runner.

The root exports each module's ``__all__``; ``cli`` stays out of it.
"""

from .shuffling import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .smoothness import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .ingest import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403

from . import shuffling, problems, smoothness, optimize, diagnostics, ingest, experiment

__version__ = "0.1.0"

__all__ = [name for module in (shuffling, problems, smoothness, optimize, diagnostics, ingest,
                               experiment) for name in module.__all__]
