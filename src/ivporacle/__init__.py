"""Randomized and query-model solvers for initial-value problems.

The solver advances a degree ``r + 1`` Taylor piece per step and corrects
each step with an estimate of the integral of the scaled Taylor residual.
Swapping the integral estimator switches the computational model: exact
quadrature, deterministic function values, Monte Carlo with a control
variate, or a simulated bounded-error quantum counting oracle.  Error is
measured in the sup norm over the whole interval and costs are tracked per
model so empirical convergence orders and cost exponents can be compared
against the predicted power laws.
"""

import importlib

from . import errors, problem, quad, solver, taylor
from .errors import *
from .problem import *
from .taylor import *
from .quad import *
from .solver import *

__version__ = "0.1.0"

# The sweep driver is imported on first use of ``cli`` or of a name it exports (PEP 562).
_CLI_NAMES = ("ExperimentConfig", "SweepRow", "estimate_cost_exponent", "estimate_order",
              "rows_to_csv", "run_sweep")


def __getattr__(name):
    if name != "cli" and name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cli = importlib.import_module(f"{__name__}.cli")  # ``from . import cli`` would recurse here
    return cli if name == "cli" else getattr(cli, name)


def __dir__():
    return sorted(set(globals()) | set(_CLI_NAMES))


# Each module's ``__all__`` is its public list; the package exports their union.
__all__ = [*errors.__all__, *problem.__all__, *taylor.__all__, *quad.__all__, *solver.__all__,
           *_CLI_NAMES, "__version__"]
