"""Exact combinatorics engine for the sock-sorting process.

``n`` pairs of socks come out of a dryer one at a time; a sock joins the
sorting table unless its partner is already there, in which case both
leave. The table count after each draw traces a Dyck path, and the path
is determined by the tuple of heights its down-steps are taken from.
This package enumerates those objects, converts losslessly between
them, computes each outcome's exact rational probability, and verifies
the law against exhaustive and Monte Carlo oracles.
"""

from . import core, errors, probability
from .core import *
from .errors import *
from .probability import *

# Bound on first use (PEP 562): ``process`` imports numpy, which the
# exact-law commands never need.
_PROCESS_NAMES = (
    "DEFAULT_BRUTE_FORCE_CAP",
    "DEFAULT_SIMULATION_CAP",
    "Sock",
    "SockSequence",
    "ProcessTrace",
    "SimulationReport",
    "run_process",
    "random_permutation",
    "monte_carlo",
    "brute_force_counts",
)


def __getattr__(name: str):
    if name in _PROCESS_NAMES:
        from . import process

        return getattr(process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *errors.__all__,
    *probability.__all__,
    *_PROCESS_NAMES,
]
