"""Problem definitions for autonomous initial value problems.

A problem is the ODE ``z'(t) = f(z(t))`` on ``[a, b]`` with ``z(a) = eta``,
together with the declared smoothness class ``(r, rho)`` of ``f`` and two
callables: ``f`` itself, vectorized over points, and a jet that serves the
values and all partial derivatives of ``f`` up to order ``r`` at one point
in one call.  Everything downstream (local Taylor models, integral oracles,
the stepper) talks to the right-hand side exclusively through these two, and
all evaluation costs are tallied on a :class:`CostLedger`.

The named problems of :func:`catalog` are data: a scalar entry is one row of
``f``, its derivatives, its closed-form solution and its defaults, and an
integrand of ``integration-reduction`` is one row of ``g``, its derivatives
and its antiderivative; one builder per shape turns a row into a problem,
whose ``f`` and jet both read the row.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ContractViolationError, DomainError, UnknownProblemError, check_count, check_real,
                     is_real)

__all__ = [
    "HolderSmoothness",
    "IVPProblem",
    "CostLedger",
    "eval_partial",
    "eval_rhs",
    "catalog",
    "catalog_names",
    "MAX_ORDER",
]

#: Highest supported differentiability order of the right-hand side.
MAX_ORDER = 3


@dataclasses.dataclass(frozen=True, init=False)
class HolderSmoothness:
    """Declared smoothness class ``(r, rho)`` of a right-hand side or integrand.

    ``f`` has ``r`` bounded derivatives, ``0 <= r <= 3``, and its ``r``-th
    derivative is ``rho``-Holder, ``rho`` in ``(0, 1]``; for ``r = 0`` only
    ``rho = 1`` (plain Lipschitz continuity) is admitted.  Every cost and
    error exponent depends on the class only through ``r + rho``, so no
    constants are carried.  This is the one check of the class.  Built once
    per oracle call, it checks in ``__init__`` and sets both fields at once.
    """

    r: int
    rho: float

    def __init__(self, r, rho):
        r = check_count("r", r, 0)
        rho = check_real("rho", rho, 0, math.inf)
        if r > MAX_ORDER or rho > 1.0:
            raise ContractViolationError(f"need r <= {MAX_ORDER} and rho <= 1, got ({r}, {rho})")
        if r == 0 and rho != 1.0:
            raise ContractViolationError("r = 0 requires rho = 1")
        self.__dict__.update(r=r, rho=rho)

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
    increase.  A solve charges each evaluation once: per step, ``f(y_i)``
    and each distinct partial up to order ``r`` are classical evaluations
    (the stationary-start check reads ``f(eta)`` from the first step's);
    the step's correction goes to one counter by mode:

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
        self.classical_evals += check_count("count", count, 0)

    def charge_queries(self, count: int) -> None:
        self.oracle_queries += check_count("count", count, 0)

    def charge_repetitions(self, count: int) -> None:
        self.repetitions += check_count("count", count, 0)

    @property
    def total(self) -> int:
        return self.classical_evals + self.oracle_queries


#: Right-hand side signature: ``f(y)`` maps a point ``(dim,)`` to ``(dim,)``
#: and a batch ``(dim, m)`` to ``(dim, m)``, one column per point.
Rhs = Callable[[np.ndarray], np.ndarray]

#: Jet signature: ``jet(y, r) -> (T_0, ..., T_r)`` with ``T_j = f^(j)(y) / j!``
#: of shape ``(dim,) * (j + 1)``, component axis first, every index
#: permutation filled: the whole order-``r`` Taylor data at one point
#: ``(dim,)``, ``T_0 = f(y)``.
Jet = Callable[[np.ndarray, int], tuple[np.ndarray, ...]]

#: Reference signature: ``reference(t)`` maps times of any shape to the solution,
#: ``(dim,) + np.shape(t)``: ``(dim, m)`` for the audit's block of ``m`` times.
Reference = Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass(frozen=True)
class IVPProblem:
    """An autonomous initial value problem ``z' = f(z)``, given as ``(f, jet)``.

    ``f`` serves values at points (:func:`eval_rhs`) and ``jet`` the
    order-``r`` Taylor data at one point (:func:`~ivporacle.taylor.build_w`);
    the optional ``reference`` is the exact solution, which only the audit
    reads.  See :data:`Rhs`, :data:`Jet` and :data:`Reference` for their
    shapes.  Instances are immutable; solves never mutate the problem, only
    their own private :class:`CostLedger`.
    """

    dim: int
    interval: tuple[float, float]
    eta: np.ndarray
    f: Rhs
    jet: Jet
    smoothness: HolderSmoothness
    reference: Optional[Reference] = None
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "dim", check_count("dim", self.dim))
        for field, value in (("f", self.f), ("jet", self.jet)):
            if not callable(value):
                raise ContractViolationError(f"{field} must be callable, got {value!r}")
        if not (self.reference is None or callable(self.reference)):
            raise ContractViolationError(f"reference must be None or callable, got {self.reference!r}")
        if not isinstance(self.smoothness, HolderSmoothness):
            raise ContractViolationError(f"smoothness must be a HolderSmoothness, got {self.smoothness!r}")
        a, b = _numbers("interval", self.interval, 2)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval ends must be finite, got ({a}, {b})")
        if not a < b:
            raise ContractViolationError(f"interval must satisfy a < b, got ({a}, {b})")
        object.__setattr__(self, "interval", (a, b))
        eta = np.array(_numbers("eta", self.eta, self.dim))
        if not np.all(np.isfinite(eta)):
            raise DomainError("eta must be finite")
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)


def _check_point(problem: IVPProblem, y: np.ndarray, batch: bool = False) -> np.ndarray:
    """``y`` as a float point ``(dim,)`` or, with ``batch``, also ``(dim, m)``."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in ((1, 2) if batch else (1,)) or y.shape[0] != problem.dim:
        allowed = f"({problem.dim},) or ({problem.dim}, m)" if batch else f"({problem.dim},)"
        raise ContractViolationError(f"point must have shape {allowed}, got {y.shape}")
    # a point's few entries are tested on Python floats, which skips numpy's per-call cost
    if not (all(map(math.isfinite, y.tolist())) if y.ndim == 1
            else np.logical_and.reduce(np.isfinite(y), axis=None)):
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
        Multi-index over the state variables (a sequence or 1-d integer array
        of counts); total order at most the declared ``r``.  The all-zero
        multi-index requests a plain value.
    ledger : CostLedger, optional
        Charged one classical evaluation when given.

    Returns
    -------
    float
        ``d^alpha f_component(y)``, read off ``problem.jet(y, sum(alpha))``.
    """
    y = _check_point(problem, y)
    if check_count("component", component, 0) >= problem.dim:
        raise ContractViolationError(f"component {component} out of range for dim {problem.dim}")
    if isinstance(alpha, np.ndarray):
        alpha = alpha.tolist()
    if not isinstance(alpha, Sequence) or len(alpha) != problem.dim:
        raise ContractViolationError(f"alpha must be a sequence of {problem.dim} counts, got {alpha!r}")
    alpha = tuple(check_count("alpha entry", a, 0) for a in alpha)
    order = sum(alpha)
    if order > problem.smoothness.r:
        raise ContractViolationError(
            f"partial of order {order} requested but only r = {problem.smoothness.r} declared"
        )
    # the sorted index (i1 <= ... <= i_order) of the tensor entry alpha names
    index = tuple(i for i, a in enumerate(alpha) for _ in range(a))
    if ledger is not None:
        ledger.charge_classical(1)
    return float(problem.jet(y, order)[order][(component, *index)]) * math.factorial(order)


def eval_rhs(problem: IVPProblem, y: np.ndarray, ledger: Optional[CostLedger] = None) -> np.ndarray:
    """Evaluate the full right-hand side vector ``f(y)``.

    Accepts a single point of shape ``(dim,)`` or a batch of shape
    ``(dim, m)`` and returns the matching shape.  Charges one classical
    evaluation of ``f`` per point, and returns a fresh array that the
    caller may write into.
    """
    y = _check_point(problem, y, batch=True)
    if ledger is not None:
        ledger.charge_classical(1 if y.ndim == 1 else y.shape[1])
    out = np.array(problem.f(y), dtype=float)
    if out.shape != y.shape:
        raise ContractViolationError(f"f must return the point's shape {y.shape}, got {out.shape}")
    return out


# --------------------------------------------------------------------------
# catalog


def _constant(c: float) -> Callable:
    """A derivative that is ``c`` everywhere, in ``z``'s shape: exactly ``c``
    (``+0.0``, never ``-0.0``, for zero) at a finite ``z``."""
    return lambda z: z * 0.0 + c


def _exp(s) -> np.ndarray:
    """``math.exp`` by element: libm's bits and ``OverflowError``, not numpy's (SIMD) exp."""
    return np.array(list(map(math.exp, s.ravel().tolist()))).reshape(s.shape)


#: Scalar entries ``z' = f(z)``, one row each: ``f`` and its derivatives up to
#: ``MAX_ORDER`` as functions of the state, the solution as a function of ``eta``
#: and the array ``t - a``, and the default ``eta`` and interval.
_SCALAR_ROWS = {
    "scalar-exponential": (
        (lambda z: z, _constant(1.0), _constant(0.0), _constant(0.0)),
        lambda eta, s: eta * _exp(s),
        1.0, (0.0, 1.0),
    ),
    # blow-up at t = a + 1/eta; the default [0, 0.5] keeps the solution inside [1, 2]
    "scalar-quadratic": (
        (lambda z: z * z, lambda z: 2.0 * z, _constant(2.0), _constant(0.0)),
        lambda eta, s: eta / (1.0 - eta * s),
        1.0, (0.0, 0.5),
    ),
    # z(1 - z) has degree 2, so the residual vanishes for r >= 2
    "logistic": (
        (lambda z: z * (1.0 - z), lambda z: 1.0 - 2.0 * z, _constant(-2.0), _constant(0.0)),
        lambda eta, s: 1.0 / (1.0 + (1.0 / eta - 1.0) * _exp(-s)),
        0.2, (0.0, 1.0),
    ),
}

#: Integrands of ``integration-reduction:<key>``, one row each: ``g`` and its
#: derivatives up to ``MAX_ORDER``, and ``G(u) = int_0^u g``.
_G_REGISTRY = {
    "cos-pi": (
        (lambda u: np.cos(np.pi * u), lambda u: -np.pi * np.sin(np.pi * u),
         lambda u: -np.pi * np.pi * np.cos(np.pi * u), lambda u: np.pi ** 3 * np.sin(np.pi * u)),
        lambda u: np.sin(np.pi * u) / np.pi,
    ),
}


def _scalar(name: str, key: Optional[str], smooth: HolderSmoothness, eta: tuple[float],
            interval: tuple[float, float]) -> IVPProblem:
    # Row ``name`` of _SCALAR_ROWS; ``f`` is its first entry, elementwise.
    if key is not None:
        raise UnknownProblemError(f"{name} takes no ':<key>', got {name}:{key}")
    derivs, solution, _, _ = _SCALAR_ROWS[name]
    eta0, a = eta[0], interval[0]
    try:  # a closed form that divides by zero in eta alone (logistic from 0) has no reference
        solution(eta0, np.zeros(0))
    except ZeroDivisionError:
        raise DomainError(f"{name} has no closed-form solution from eta = {eta0!r}") from None

    def jet(y, r):
        z = float(y[0])  # a Python float does the row's arithmetic faster, with the same bits
        return tuple([np.array(derivs[j](z) / math.factorial(j), ndmin=j + 1) for j in range(r + 1)])

    return IVPProblem(dim=1, interval=interval, eta=np.array(eta), f=derivs[0], jet=jet, smoothness=smooth,
                      reference=lambda t: solution(eta0, np.asarray(t, dtype=float) - a)[None], name=name)


def _integration_reduction(name: str, key: Optional[str], smooth: HolderSmoothness,
                           eta: tuple[float, float], interval: tuple[float, float]) -> IVPProblem:
    # u' = 1, v' = g(u): solving this IVP computes int_0^t g, which makes the
    # solver directly comparable against plain quadrature.
    key = "cos-pi" if key is None else key
    if key not in _G_REGISTRY:
        raise UnknownProblemError(f"unknown integrand key {key!r}; known: {', '.join(_G_REGISTRY)}")
    derivs, anti = _G_REGISTRY[key]

    def f(y):
        out = np.empty(y.shape)
        out[0] = 1.0
        out[1] = derivs[0](y[0])
        return out

    def jet(y, r):
        # only d^j v' / du^j is nonzero beyond the constant u' = 1
        u = y[0]
        tensors = [np.array([1.0, derivs[0](u)])]
        for j in range(1, r + 1):
            t = np.zeros((2,) * (j + 1))
            t[(1,) + (0,) * j] = derivs[j](u) / math.factorial(j)
            tensors.append(t)
        return tuple(tensors)

    a = interval[0]
    u0, v0 = eta

    def reference(t):
        return np.array([u0 + (t - a), v0 + anti(u0 + (t - a)) - anti(u0)])

    return IVPProblem(dim=2, interval=interval, eta=np.array(eta), f=f, jet=jet, smoothness=smooth,
                      reference=reference, name=f"{name}:{key}")


#: Every entry: its builder, default ``eta`` (one value per component) and
#: default interval.
_CATALOG = {
    **{name: (_scalar, (eta,), interval) for name, (_, _, eta, interval) in _SCALAR_ROWS.items()},
    "integration-reduction": (_integration_reduction, (0.0, 0.0), (0.0, 1.0)),
}


def _numbers(name: str, value, count: int) -> tuple[float, ...]:
    """``value`` as ``count`` floats, a scalar counting as one.  Each must pass
    :func:`~ivporacle.errors.is_real` (no bool or string); non-finite ones are left to the caller."""
    v = np.asarray(value, dtype=object).reshape(-1)
    if v.size != count or not all(map(is_real, v)):
        raise ContractViolationError(f"{name} must be {count} real number(s), got {value!r}")
    return tuple(float(x) for x in v)


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog(name: str, *, r: int = 0, rho: float = 1.0, eta=None,
            interval: Optional[tuple[float, float]] = None) -> IVPProblem:
    """Construct a named benchmark problem.

    ``name`` is one of ``scalar-exponential``, ``scalar-quadratic``,
    ``logistic`` or ``integration-reduction``; the latter integrates
    ``cos(pi u)`` and may be written ``integration-reduction:<key>`` to pick
    a registered integrand by key (``cos-pi`` is the default).  A ``:<key>``
    on a scalar entry raises :class:`UnknownProblemError`.
    ``r``/``rho`` declare the class ``(r, rho)`` the solver should exploit;
    ``eta`` (a number, or one value per component) and ``interval`` (two
    numbers) override the entry defaults.
    """
    if not isinstance(name, str):
        raise ContractViolationError(f"problem name must be a string, got {name!r}")
    smooth = HolderSmoothness(r=r, rho=rho)
    base, key = name.split(":", 1) if ":" in name else (name, None)
    if base not in _CATALOG:
        raise UnknownProblemError(f"unknown problem {name!r}; known: {', '.join(_CATALOG)}")
    build, default_eta, default_interval = _CATALOG[base]
    eta = _numbers("eta", default_eta if eta is None else eta, len(default_eta))
    interval = _numbers("interval", default_interval if interval is None else interval, 2)
    return build(base, key, smooth, eta, interval)
