"""Exception types shared across the package."""


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
