"""Problem definitions for autonomous initial value problems.

A problem is the ODE ``z'(t) = f(z(t))`` on ``[a, b]`` with ``z(a) = eta``,
together with a smoothness declaration for ``f`` and an oracle that serves
values and partial derivatives of ``f`` up to the declared order.  Everything
downstream (local Taylor models, integral oracles, the stepper) talks to the
right-hand side exclusively through that oracle, and all evaluation costs are
tallied on a :class:`CostLedger`.
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
    """Declared regularity class of a right-hand side.

    Parameters
    ----------
    r : int
        Number of bounded derivatives, ``0 <= r <= 3``.
    rho : float
        Holder exponent of the ``r``-th derivative, in ``(0, 1]``.  For
        ``r = 0`` only ``rho = 1`` (plain Lipschitz continuity) is admitted.
    deriv_bounds : tuple of float
        Bounds ``D_0, ..., D_r`` on the sup norms of ``f`` and its partial
        derivatives over the relevant compact enclosure.  All positive.
    holder_const : float
        Holder constant of the ``r``-th derivative (max norm), positive.
    lipschitz : float
        Lipschitz constant of ``f`` itself.  Must equal ``holder_const``
        when ``r = 0`` and must not exceed ``D_1`` when ``r >= 1``.
    """

    r: int
    rho: float
    deriv_bounds: tuple[float, ...]
    holder_const: float
    lipschitz: float

    def __post_init__(self):
        if not isinstance(self.r, int) or not 0 <= self.r <= MAX_ORDER:
            raise ContractViolationError(f"r must be an integer in [0, {MAX_ORDER}], got {self.r}")
        if not 0.0 < self.rho <= 1.0:
            raise ContractViolationError(f"rho must lie in (0, 1], got {self.rho}")
        if self.r == 0 and self.rho != 1.0:
            raise ContractViolationError("r = 0 requires rho = 1")
        bounds = tuple(float(b) for b in self.deriv_bounds)
        object.__setattr__(self, "deriv_bounds", bounds)
        if len(bounds) != self.r + 1:
            raise ContractViolationError(
                f"deriv_bounds must list D_0..D_{self.r} ({self.r + 1} values), got {len(bounds)}"
            )
        if any(b <= 0 for b in bounds):
            raise ContractViolationError("all derivative bounds must be positive")
        if self.holder_const <= 0:
            raise ContractViolationError("holder_const must be positive")
        if self.lipschitz <= 0:
            raise ContractViolationError("lipschitz must be positive")
        if self.r == 0:
            if self.lipschitz != self.holder_const:
                raise ContractViolationError("for r = 0 the Lipschitz and Holder constants coincide")
        elif self.lipschitz > self.deriv_bounds[1]:
            raise ContractViolationError("lipschitz constant may not exceed the first derivative bound")

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


def _smoothness_from_table(r: int, rho: float, bounds: Sequence[float], holder: Sequence[float],
                           lipschitz: float) -> HolderSmoothness:
    # bounds/holder are tabulated per derivative order for the entry's enclosure;
    # zero entries get a small positive floor so the declaration stays admissible.
    floor = 1e-3
    d = tuple(max(float(bounds[i]), floor) for i in range(r + 1))
    # holder[r] is a Lipschitz constant; on an enclosure of diameter <= 3 it
    # converts to a rho-Holder constant via the factor diam^(1-rho).
    h = max(float(holder[r]) * 3.0 ** (1.0 - rho), floor)
    lip = h if r == 0 else min(float(lipschitz), d[1])
    return HolderSmoothness(r=r, rho=float(rho), deriv_bounds=d, holder_const=h, lipschitz=lip)


def _scalar_exponential(r: int, rho: float, eta: float, interval: tuple[float, float]) -> IVPProblem:
    # z' = z.  Enclosure for the default setup (eta=1 on [0,1]) is [1, e],
    # padded to [0.5, 3].
    def oracle(y, component, alpha):
        order = sum(alpha)
        if order == 0:
            return y[0]
        if order == 1:
            return np.ones_like(y[0])
        return np.zeros_like(y[0])

    a = interval[0]
    eta_f = float(eta)

    def reference(t):
        return np.array([eta_f * math.exp(t - a)])

    smooth = _smoothness_from_table(r, rho, bounds=[3.0, 1.0, 0.0, 0.0], holder=[1.0, 0.0, 0.0, 0.0],
                                    lipschitz=1.0)
    return IVPProblem(dim=1, interval=interval, eta=np.array([eta_f]), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference, name="scalar-exponential")


def _scalar_quadratic(r: int, rho: float, eta: float, interval: tuple[float, float]) -> IVPProblem:
    # z' = z^2 with blow-up at t = a + 1/eta; the default [0, 0.5] keeps the
    # solution inside [1, 2], padded to [0.5, 2.5].
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
    eta_f = float(eta)

    def reference(t):
        return np.array([eta_f / (1.0 - eta_f * (t - a))])

    smooth = _smoothness_from_table(r, rho, bounds=[6.25, 5.0, 2.0, 0.0], holder=[5.0, 2.0, 0.0, 0.0],
                                    lipschitz=5.0)
    return IVPProblem(dim=1, interval=interval, eta=np.array([eta_f]), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference, name="scalar-quadratic")


def _logistic(r: int, rho: float, eta: float, interval: tuple[float, float]) -> IVPProblem:
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
    eta_f = float(eta)
    if eta_f == 0.0:
        raise DomainError("logistic eta must be nonzero")
    c = 1.0 / eta_f - 1.0

    def reference(t):
        return np.array([1.0 / (1.0 + c * math.exp(-(t - a)))])

    smooth = _smoothness_from_table(r, rho, bounds=[0.25, 1.0, 2.0, 0.0], holder=[1.0, 2.0, 0.0, 0.0],
                                    lipschitz=1.0)
    return IVPProblem(dim=1, interval=interval, eta=np.array([eta_f]), rhs_oracle=oracle,
                      smoothness=smooth, reference=reference, name="logistic")


@dataclasses.dataclass(frozen=True)
class GBundle:
    """Scalar integrand ``g`` with its derivatives and antiderivative.

    ``derivs[k]`` evaluates ``g^(k)``; ``antideriv`` evaluates
    ``G(t) = int_0^t g``.  ``bounds[k]`` bounds ``|g^(k)|`` on [0, 1] and
    ``holder[k]`` is the Lipschitz constant of ``g^(k)`` there.
    """

    derivs: tuple[Callable, ...]
    antideriv: Callable
    bounds: tuple[float, ...]
    holder: tuple[float, ...]
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
        bounds=(1.0, math.pi, math.pi ** 2, math.pi ** 3),
        holder=(math.pi, math.pi ** 2, math.pi ** 3, math.pi ** 4),
        label="cos-pi",
    )


_G_REGISTRY: dict[str, Callable[[], GBundle]] = {"cos-pi": _cos_pi_bundle}


def _integration_reduction(r: int, rho: float, eta, interval: tuple[float, float],
                           g: Optional[GBundle]) -> IVPProblem:
    # u' = 1, v' = g(u): solving this IVP computes int_0^t g, which makes the
    # solver directly comparable against plain quadrature.
    bundle = g if g is not None else _cos_pi_bundle()
    if len(bundle.derivs) < r + 1:
        raise ContractViolationError(f"g bundle provides {len(bundle.derivs)} derivatives, need r+1 = {r + 1}")

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
    eta_vec = np.zeros(2) if eta is None else np.asarray(eta, dtype=float).reshape(-1)
    if eta_vec.shape != (2,):
        raise ContractViolationError(f"eta must have 2 components, got {eta_vec.size}")
    u0, v0 = float(eta_vec[0]), float(eta_vec[1])

    def reference(t):
        return np.array([u0 + (t - a), v0 + anti(u0 + (t - a)) - anti(u0)])

    pad = lambda seq: tuple(seq) + (0.0,) * (4 - len(seq))
    bounds = pad(bundle.bounds)
    bounds = (max(1.0, bounds[0]),) + bounds[1:]
    smooth = _smoothness_from_table(r, rho, bounds=bounds, holder=pad(bundle.holder),
                                    lipschitz=bounds[1] if bounds[1] > 0 else bundle.holder[0])
    return IVPProblem(dim=2, interval=interval, eta=eta_vec, rhs_oracle=oracle,
                      smoothness=smooth, reference=reference,
                      name=f"integration-reduction:{bundle.label}")


_DEFAULTS = {
    "scalar-exponential": (1.0, (0.0, 1.0)),
    "scalar-quadratic": (1.0, (0.0, 0.5)),
    "logistic": (0.2, (0.0, 1.0)),
    "integration-reduction": (None, (0.0, 1.0)),
}


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
    ``r``/``rho`` select the declared smoothness the solver should exploit;
    ``eta`` and ``interval`` override the entry defaults.
    """
    if not isinstance(r, int) or not 0 <= r <= MAX_ORDER:
        raise ContractViolationError(f"r must be an integer in [0, {MAX_ORDER}], got {r}")
    base = name
    g_key = None
    if ":" in name:
        base, g_key = name.split(":", 1)
    if base not in _DEFAULTS:
        raise UnknownProblemError(f"unknown problem {name!r}; known: {', '.join(_DEFAULTS)}")
    default_eta, default_interval = _DEFAULTS[base]
    eta = default_eta if eta is None else eta
    interval = default_interval if interval is None else (float(interval[0]), float(interval[1]))

    if base == "scalar-exponential":
        return _scalar_exponential(r, rho, eta, interval)
    if base == "scalar-quadratic":
        return _scalar_quadratic(r, rho, eta, interval)
    if base == "logistic":
        return _logistic(r, rho, eta, interval)
    if g_key is not None:
        if g_key not in _G_REGISTRY:
            raise UnknownProblemError(f"unknown integrand key {g_key!r}; known: {', '.join(_G_REGISTRY)}")
        g = _G_REGISTRY[g_key]()
    return _integration_reduction(r, rho, eta, interval, g)
