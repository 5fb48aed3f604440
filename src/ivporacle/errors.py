"""Exception types shared across the package, and the checks of count, real
and seed arguments that raise them: ``int``, ``float`` and numpy numbers pass,
``bool``, strings and other types such as ``fractions.Fraction`` do not."""

import numpy as np


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (bad order, bad k, ...)."""


class DomainError(ValueError):
    """A numeric input lies outside the admissible domain (non-finite point,
    evaluation time outside the solution interval, ...)."""


class UnknownProblemError(LookupError):
    """Requested catalog entry does not exist."""


class DivergenceError(RuntimeError):
    """The numerical trajectory left the trust region during stepping;
    ``ledger`` holds what the solve had charged, the diverging step included."""

    def __init__(self, step: int, norm: float, ledger):
        self.step = step
        self.norm = norm
        self.ledger = ledger
        super().__init__(f"trajectory diverged at step {step} (|y| ~ {norm:.3e})")


class StationaryStartError(ContractViolationError):
    """``f(eta) = 0``: the solver does not support a stationary start.

    ``ledger`` holds what the failed solve had charged: the first step's
    Taylor data ``w_0``, from which the check reads ``f(eta)``.
    """

    def __init__(self, ledger):
        self.ledger = ledger
        super().__init__("f(eta) must be nonzero (stationary start not supported)")


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``: an ``int`` or ``np.integer`` (bool excluded) of at least ``least``."""
    # an exact int skips the slower isinstance checks; bool is an int subclass
    if ((type(value) is not int and (isinstance(value, bool) or not isinstance(value, np.integer)))
            or value < least):
        raise ContractViolationError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """Whether ``value`` is an int, float or numpy number, bool excluded."""
    return not isinstance(value, bool) and isinstance(value, (float, int, np.floating, np.integer))


def check_real(name: str, value, lo: float, hi: float) -> float:
    """``value`` as a ``float``: a real (see :func:`is_real`) in ``(lo, hi)``."""
    if (type(value) is not float and not is_real(value)) or not lo < value < hi:  # exact float: fast path
        raise ContractViolationError(f"{name} must be a number in ({lo}, {hi}), got {value!r}")
    return float(value)


def check_seed(seed) -> int:
    """``seed`` as an ``int``: an ``int`` or ``np.integer`` (bool excluded) in ``[0, 2**64)``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise ContractViolationError(f"seed must be a non-negative 64-bit integer, got {seed!r}")
    return int(seed)
