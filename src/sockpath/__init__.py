"""Exact combinatorics engine for the sock-sorting process.

``n`` pairs of socks come out of a dryer one at a time; a sock joins the
sorting table unless its partner is already there, in which case both
leave. The table count after each draw traces a Dyck path, and the path
is determined by the tuple of heights its down-steps are taken from.
This package enumerates those objects, converts losslessly between
them, computes each outcome's exact rational probability, and verifies
the law against exhaustive and Monte Carlo oracles.
"""

from .core import (
    DEFAULT_ENUMERATION_CAP,
    DyckPath,
    KTuple,
    catalan,
    down_step_indices,
    dyck_paths,
    ktuple_of_path,
    path_of_ktuple,
    validate_ktuple,
)
from .errors import (
    MalformedInputError,
    PathValidityError,
    ResourceLimitError,
    SockPathError,
    TupleValidityError,
    ValidityError,
)
from .probability import (
    DistributionTable,
    ExactProb,
    MarginalStat,
    enumerate_ktuples,
    full_distribution,
    marginal_xk,
    max_distribution,
    permutation_count,
    tuple_probability,
)


# The names of ``__all__`` not bound above come from ``process`` on first
# use (PEP 562): it imports numpy, which the exact-law commands never need.
def __getattr__(name: str):
    if name in __all__:
        from . import process

        return getattr(process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_BRUTE_FORCE_CAP",
    "DEFAULT_SIMULATION_CAP",
    "KTuple",
    "DyckPath",
    "Sock",
    "SockSequence",
    "ProcessTrace",
    "DistributionTable",
    "MarginalStat",
    "ExactProb",
    "SimulationReport",
    "SockPathError",
    "MalformedInputError",
    "ValidityError",
    "TupleValidityError",
    "PathValidityError",
    "ResourceLimitError",
    "catalan",
    "validate_ktuple",
    "ktuple_of_path",
    "path_of_ktuple",
    "down_step_indices",
    "dyck_paths",
    "enumerate_ktuples",
    "tuple_probability",
    "permutation_count",
    "full_distribution",
    "marginal_xk",
    "max_distribution",
    "run_process",
    "random_permutation",
    "monte_carlo",
    "brute_force_counts",
]
