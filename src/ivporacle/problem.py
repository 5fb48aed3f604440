"""Problem definitions for autonomous initial value problems.

A problem is the ODE ``z'(t) = f(z(t))`` on ``[a, b]`` with ``z(a) = eta``,
together with the declared smoothness class ``(r, rho)`` of ``f`` and an
oracle that serves values and partial derivatives of ``f`` up to order ``r``.
Everything downstream (local Taylor models, integral oracles, the stepper)
talks to the right-hand side exclusively through that oracle, and all
evaluation costs are tallied on a :class:`CostLedger`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolationError, DomainError, UnknownProblemError

__all__ = [
    "HolderSmoothness",
    "IVPProblem",
    "CostLedger",
    "eval_partial",
    "eval_rhs",
    "catalog",
    "catalog_names",
]

#: Highest supported differentiability order of the right-hand side.
MAX_ORDER = 3


@dataclasses.dataclass(frozen=True)
class HolderSmoothness:
    """Declared smoothness class ``(r, rho)`` of a right-hand side or integrand.

    ``f`` has ``r`` bounded derivatives, ``0 <= r <= 3``, and its ``r``-th
    derivative is ``rho``-Holder, ``rho`` in ``(0, 1]``; for ``r = 0`` only
    ``rho = 1`` (plain Lipschitz continuity) is admitted.  Every cost and
    error exponent depends on the class only through ``r + rho``, so no
    constants are carried.  This is the one check of the class.
    """

    r: int
    rho: float

    def __post_init__(self):
        if not isinstance(self.r, int) or not 0 <= self.r <= MAX_ORDER:
            raise ContractViolationError(f"r must be an integer in [0, {MAX_ORDER}], got {self.r}")
        if not 0.0 < self.rho <= 1.0:
            raise ContractViolationError(f"rho must lie in (0, 1], got {self.rho}")
        if self.r == 0 and self.rho != 1.0:
            raise ContractViolationError("r = 0 requires rho = 1")
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def order(self) -> float:
        """Total smoothness ``r + rho`` that drives every cost exponent."""
        return self.r + self.rho


@dataclasses.dataclass
class CostLedger:
    """Running tally of the information cost of a computation.

    ``classical_evals`` counts plain evaluations of ``f`` or its partial
    derivatives, ``oracle_queries`` queries to an integral functional or
    oracle, and ``repetitions`` boosting repetitions.  Counters only ever
    increase.  A solve charges each evaluation once: the start check
    ``f(eta)`` and, per step, ``f(y_i)`` and each distinct partial up to
    order ``r`` are classical evaluations; the step's correction goes to one
    counter by mode:

    * ``det_exact``: ``dim`` queries (one exact functional per component);
    * ``det_values``: the quadrature's points, as classical evaluations;
    * ``randomized``: ``k`` x the per-call points, as queries;
    * ``quantum_sim``: ``k`` x the modeled budget, as queries (never the
      simulator's internal reference nodes);

    and each boosted step adds ``k`` repetitions.
    """

    classical_evals: int = 0
    oracle_queries: int = 0
    repetitions: int = 0

    def charge_classical(self, count: int = 1) -> None:
        if count < 0:
            raise ContractViolationError("cost increments must be non-negative")
        self.classical_evals += count

    def charge_queries(self, count: int) -> None:
        if count < 0:
            raise ContractViolationError("cost increments must be non-negative")
        self.oracle_queries += count

    def charge_repetitions(self, count: int) -> None:
        if count < 0:
            raise ContractViolationError("cost increments must be non-negative")
        self.repetitions += count

    @property
    def total(self) -> int:
        return self.classical_evals + self.oracle_queries


#: Oracle signature: ``oracle(y, component, alpha) -> float`` where ``alpha``
#: is a multi-index over the state variables.  Batched calls receive ``y`` of
#: shape ``(dim, m)`` and return shape ``(m,)``.
RhsOracle = Callable[[np.ndarray, int, tuple[int, ...]], "float | np.ndarray"]


@dataclasses.dataclass(frozen=True)
class IVPProblem:
    """An autonomous initial value problem with derivative-oracle access.

    Instances are immutable; solves never mutate the problem, only their own
    private :class:`CostLedger`.
    """

    dim: int
    interval: tuple[float, float]
    eta: np.ndarray
    rhs_oracle: RhsOracle
    smoothness: HolderSmoothness
    reference: Optional[Callable[[float], np.ndarray]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolationError("dim must be at least 1")
        a, b = float(self.interval[0]), float(self.interval[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval ends must be finite, got ({a}, {b})")
        if not a < b:
            raise ContractViolationError(f"interval must satisfy a < b, got ({a}, {b})")
        object.__setattr__(self, "interval", (a, b))
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        if eta.shape != (self.dim,):
            raise ContractViolationError(f"eta must have {self.dim} components, got shape {eta.shape}")
        if not np.all(np.isfinite(eta)):
            raise DomainError("eta must be finite")
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)


def _check_point(problem: IVPProblem, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[0] != problem.dim:
        raise ContractViolationError(f"point has {y.shape[0]} components, problem has {problem.dim}")
    if not np.all(np.isfinite(y)):
        raise DomainError("evaluation point must be finite")
    return y


def eval_partial(
    problem: IVPProblem,
    y: np.ndarray,
    component: int,
    alpha: Sequence[int],
    ledger: Optional[CostLedger] = None,
) -> float:
    """Evaluate one partial derivative of one component of the right-hand side.

    Parameters
    ----------
    y : array of shape (dim,)
        Evaluation point.
    component : int
        Component index of ``f`` (0-based).
    alpha : sequence of int
        Multi-index over the state variables; total order at most the
        declared ``r``.  The all-zero multi-index requests a plain value.
    ledger : CostLedger, optional
        Charged one classical evaluation when given.

    Returns
    -------
    float
        ``d^alpha f_component(y)``.
    """
    y = _check_point(problem, y)
    if not 0 <= component < problem.dim:
        raise ContractViolationError(f"component {component} out of range for dim {problem.dim}")
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != problem.dim or any(a < 0 for a in alpha):
        raise ContractViolationError(f"alpha must be {problem.dim} non-negative integers, got {alpha}")
    if sum(alpha) > problem.smoothness.r:
        raise ContractViolationError(
            f"partial of order {sum(alpha)} requested but only r = {problem.smoothness.r} declared"
        )
    if ledger is not None:
        ledger.charge_classical(1)
    return float(problem.rhs_oracle(y, component, alpha))


def eval_rhs(problem: IVPProblem, y: np.ndarray, ledger: Optional[CostLedger] = None) -> np.ndarray:
    """Evaluate the full right-hand side vector ``f(y)``.

    Accepts a single point of shape ``(dim,)`` or a batch of shape
    ``(dim, m)`` and returns the matching shape.  Charges one classical
    evaluation of ``f`` per point.
    """
    y = _check_point(problem, y)
    zero = (0,) * problem.dim
    npoints = 1 if y.ndim == 1 else y.shape[1]
    if ledger is not None:
        ledger.charge_classical(npoints)
    out = np.empty(y.shape, dtype=float)
    for j in range(problem.dim):
        out[j] = problem.rhs_oracle(y, j, zero)
    return out


# --------------------------------------------------------------------------
# catalog


def _scalar_exponential(smooth: HolderSmoothness, eta: float, interval: tuple[float, float]) -> IVPProblem:
    # z' = z.
    def oracle(y, component, alpha):
        order = sum(alpha)
        if order == 0:
            return y[0]
        if order == 1:
            return np.ones_like(y[0])
        return np.zeros_like(y[0])

    a = interval[0]

    def reference(t):
        return np.array([eta * math.exp(t - a)])

    return IVPProblem(dim=1, interval=interval, eta=np.array([eta]), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference, name="scalar-exponential")


def _scalar_quadratic(smooth: HolderSmoothness, eta: float, interval: tuple[float, float]) -> IVPProblem:
    # z' = z^2 with blow-up at t = a + 1/eta; the default [0, 0.5] keeps the
    # solution inside [1, 2].
    def oracle(y, component, alpha):
        order = sum(alpha)
        if order == 0:
            return y[0] * y[0]
        if order == 1:
            return 2.0 * y[0]
        if order == 2:
            return 2.0 * np.ones_like(y[0])
        return np.zeros_like(y[0])

    a = interval[0]

    def reference(t):
        return np.array([eta / (1.0 - eta * (t - a))])

    return IVPProblem(dim=1, interval=interval, eta=np.array([eta]), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference, name="scalar-quadratic")


def _logistic(smooth: HolderSmoothness, eta: float, interval: tuple[float, float]) -> IVPProblem:
    # z' = z(1 - z); polynomial of degree 2, so the residual vanishes for r >= 2.
    def oracle(y, component, alpha):
        order = sum(alpha)
        if order == 0:
            return y[0] * (1.0 - y[0])
        if order == 1:
            return 1.0 - 2.0 * y[0]
        if order == 2:
            return -2.0 * np.ones_like(y[0])
        return np.zeros_like(y[0])

    a = interval[0]
    if eta == 0.0:
        raise DomainError("logistic eta must be nonzero")
    c = 1.0 / eta - 1.0

    def reference(t):
        return np.array([1.0 / (1.0 + c * math.exp(-(t - a)))])

    return IVPProblem(dim=1, interval=interval, eta=np.array([eta]), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference, name="logistic")


@dataclasses.dataclass(frozen=True)
class GBundle:
    """Scalar integrand ``g`` with its derivatives and antiderivative.

    ``derivs[k]`` evaluates ``g^(k)``; ``antideriv`` evaluates
    ``G(t) = int_0^t g``.
    """

    derivs: tuple[Callable, ...]
    antideriv: Callable
    label: str = "custom-g"


def _cos_pi_bundle() -> GBundle:
    pi = math.pi
    return GBundle(
        derivs=(
            lambda u: np.cos(pi * u),
            lambda u: -pi * np.sin(pi * u),
            lambda u: -pi * pi * np.cos(pi * u),
            lambda u: pi ** 3 * np.sin(pi * u),
        ),
        antideriv=lambda t: np.sin(pi * t) / pi,
        label="cos-pi",
    )


_G_REGISTRY: dict[str, Callable[[], GBundle]] = {"cos-pi": _cos_pi_bundle}


def _integration_reduction(smooth: HolderSmoothness, eta: tuple[float, float],
                           interval: tuple[float, float], g: Optional[GBundle]) -> IVPProblem:
    # u' = 1, v' = g(u): solving this IVP computes int_0^t g, which makes the
    # solver directly comparable against plain quadrature.
    bundle = g if g is not None else _cos_pi_bundle()
    if len(bundle.derivs) < smooth.r + 1:
        raise ContractViolationError(f"g bundle has {len(bundle.derivs)} derivatives, need {smooth.r + 1}")

    derivs = bundle.derivs

    def oracle(y, component, alpha):
        order = sum(alpha)
        if component == 0:
            if order == 0:
                return np.ones_like(y[0])
            return np.zeros_like(y[0])
        if alpha[1] > 0:
            return np.zeros_like(y[0])
        return derivs[order](y[0])

    a = interval[0]
    anti = bundle.antideriv
    u0, v0 = eta

    def reference(t):
        return np.array([u0 + (t - a), v0 + anti(u0 + (t - a)) - anti(u0)])

    return IVPProblem(dim=2, interval=interval, eta=np.array(eta), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference,
                      name=f"integration-reduction:{bundle.label}")


#: Default ``(eta, interval)`` per entry; ``eta`` lists one value per component.
_DEFAULTS = {
    "scalar-exponential": ((1.0,), (0.0, 1.0)),
    "scalar-quadratic": ((1.0,), (0.0, 0.5)),
    "logistic": ((0.2,), (0.0, 1.0)),
    "integration-reduction": ((0.0, 0.0), (0.0, 1.0)),
}


def _numbers(name: str, value, count: int) -> tuple[float, ...]:
    """``value`` as ``count`` floats; a scalar counts as one."""
    try:
        v = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise ContractViolationError(f"{name} must be {count} number(s), got {value!r}") from None
    if v.size != count:
        raise ContractViolationError(f"{name} must be {count} number(s), got {v.size}")
    return tuple(float(x) for x in v)


def catalog_names() -> tuple[str, ...]:
    return tuple(_DEFAULTS)


def catalog(
    name: str,
    *,
    r: int = 0,
    rho: float = 1.0,
    eta=None,
    interval: Optional[tuple[float, float]] = None,
    g: Optional[GBundle] = None,
) -> IVPProblem:
    """Construct a named benchmark problem.

    ``name`` is one of ``scalar-exponential``, ``scalar-quadratic``,
    ``logistic`` or ``integration-reduction``; the latter accepts an optional
    ``g`` bundle (default: ``cos(pi u)``) and may be written
    ``integration-reduction:cos-pi`` to pick a registered integrand by key.
    ``r``/``rho`` declare the class ``(r, rho)`` the solver should exploit;
    ``eta`` (a number, or one value per component) and ``interval`` (two
    numbers) override the entry defaults.
    """
    smooth = HolderSmoothness(r=r, rho=rho)
    base, g_key = name.split(":", 1) if ":" in name else (name, None)
    if base not in _DEFAULTS:
        raise UnknownProblemError(f"unknown problem {name!r}; known: {', '.join(_DEFAULTS)}")
    default_eta, default_interval = _DEFAULTS[base]
    eta = _numbers("eta", default_eta if eta is None else eta, len(default_eta))
    interval = _numbers("interval", default_interval if interval is None else interval, 2)

    if base == "scalar-exponential":
        return _scalar_exponential(smooth, eta[0], interval)
    if base == "scalar-quadratic":
        return _scalar_quadratic(smooth, eta[0], interval)
    if base == "logistic":
        return _logistic(smooth, eta[0], interval)
    if g_key is not None:
        if g_key not in _G_REGISTRY:
            raise UnknownProblemError(f"unknown integrand key {g_key!r}; known: {', '.join(_G_REGISTRY)}")
        g = _G_REGISTRY[g_key]()
    return _integration_reduction(smooth, eta, interval, g)
