"""Markov feedback diagnostics for iterative self-correction loops.

Models a refinement loop as a two-state chain over per-problem
correctness, driven by an error-introduction rate (eir) and an
error-correction rate (ecr). Provides exact dynamics, a seeded Monte
Carlo population simulator, rate estimation from correctness logs,
paired significance tests, an adaptive stopping controller, and the
self-consistency voting baseline.
"""

__version__ = "0.1.0"

from .dynamics import *  # noqa: F401,F403
from .schedule import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .logs import *  # noqa: F401,F403
from .estimate import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .asc import *  # noqa: F401,F403
from .baselines import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
