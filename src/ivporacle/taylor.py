"""Local Taylor machinery for one solver step.

Per step the solver builds, from derivative-oracle data at the current state
``y_i``, fetched once:

* ``w`` -- the order ``r`` Taylor expansion of ``f`` around ``y_i``,
* ``l`` -- the degree ``r+1`` Taylor polynomial of the local solution through
  ``(x_i, y_i)``, with its derivatives read off ``w``,
* the exact value of ``int w(l(t)) dt`` over the step (a Gauss rule exact
  for its degree, no sampling), and
* the scaled residual ``g(u) = h^-(r+rho) * (f(l(x_i+u h)) - w(l(x_i+u h)))``
  on ``[0, 1]``, whose integral the oracles estimate.

All polynomial coefficients live in the shifted basis ``(t - x_i)^k`` so that
evaluation at the base point is exact.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolationError
from .problem import CostLedger, IVPProblem, _check_point, eval_partial, eval_rhs
from .quad import _gauss_rule

__all__ = [
    "VecPolynomial",
    "TaylorMap",
    "ResidualIntegrand",
    "local_derivatives",
    "build_l",
    "build_w",
    "integrate_w_of_l",
]


@functools.lru_cache(maxsize=None)
def _factorials(q: int) -> np.ndarray:
    """``0!, 1!, ..., (q-1)!`` as floats, read-only."""
    row = np.array([float(math.factorial(k)) for k in range(q)])
    row.setflags(write=False)
    return row


@dataclasses.dataclass(frozen=True)
class VecPolynomial:
    """Vector-valued polynomial in the shifted basis ``(t - center)^k``.

    ``coeffs`` has shape ``(degree + 1, dim)``; row ``k`` multiplies
    ``(t - center)^k``.
    """

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ContractViolationError("coeffs must be a (degree+1, dim) array")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "center", float(self.center))

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def eval_offset(self, s):
        """Evaluate at offset ``s = t - center`` (scalar or 1-d array)."""
        s = np.asarray(s, dtype=float)
        sv = s.reshape(-1)
        c = self.coeffs
        if len(c) == 1:
            acc = np.repeat(c[0][:, None], sv.size, axis=1)
        else:
            # Horner in place on one fresh array, the same operations in the same order
            acc = c[-1][:, None] * sv + c[-2][:, None]
            for k in range(len(c) - 3, -1, -1):
                acc *= sv
                acc += c[k][:, None]
        return acc[:, 0] if s.ndim == 0 else acc

    def __call__(self, t):
        return self.eval_offset(np.asarray(t, dtype=float) - self.center)


def _derivative_tensor(problem: IVPProblem, y: np.ndarray, order: int,
                       ledger: Optional[CostLedger]) -> np.ndarray:
    """Dense symmetric tensor of all order-``order`` partials of ``f`` at ``y``.

    Shape ``(dim,) * (order + 1)`` with the component axis first.  Each
    distinct partial is fetched from the oracle exactly once and copied to
    every index permutation.
    """
    d = problem.dim
    tensor = np.empty((d,) * (order + 1), dtype=float)
    for comp in range(d):
        # one sorted index tuple (i1 <= ... <= i_order) per distinct partial
        for idxs in itertools.combinations_with_replacement(range(d), order):
            alpha = [0] * d
            for i in idxs:
                alpha[i] += 1
            val = eval_partial(problem, y, comp, alpha, ledger)
            for perm in set(itertools.permutations(idxs)):
                tensor[(comp,) + perm] = val
    return tensor


def local_derivatives(w: TaylorMap, upto: int) -> list[np.ndarray]:
    """Time derivatives of the local solution through ``w.center``.

    Returns ``[z(x_i), z'(x_i), ..., z^(upto)(x_i)]`` for the solution of
    ``z' = f(z)`` restarted at ``w.center``, by differentiating the ODE:

    ``z' = f``, ``z'' = f' z'``, ``z''' = f''(z', z') + f' z''``,
    ``z'''' = f'''(z', z', z') + 3 f''(z', z'') + f' z'''``.

    The partials are read off the map, ``f^(j) = j! w.tensors[j]``, so no
    evaluation is made.  Needs ``upto <= w.order + 1``.
    """
    if not 0 <= upto <= w.order + 1:
        raise ContractViolationError(f"upto must lie in [0, r+1] = [0, {w.order + 1}], got {upto}")
    out = [w.center.copy()]
    if upto == 0:
        return out
    d1 = w.tensors[0]
    out.append(d1)
    if upto >= 2:
        f1 = w.tensors[1]
        out.append(f1 @ d1)
    if upto >= 3:
        f2 = 2.0 * w.tensors[2]
        out.append(np.einsum("ijk,j,k->i", f2, d1, d1) + f1 @ out[2])
    if upto >= 4:
        f3 = 6.0 * w.tensors[3]
        out.append(
            np.einsum("ijkl,j,k,l->i", f3, d1, d1, d1)
            + 3.0 * np.einsum("ijk,j,k->i", f2, d1, out[2])
            + f1 @ out[3]
        )
    return out


def build_l(derivs: Sequence[np.ndarray], x_i: float) -> VecPolynomial:
    """Taylor polynomial with the given derivatives at ``x_i``.

    ``derivs`` lists ``z(x_i), z'(x_i), ..., z^(q)(x_i)``; the result has
    degree ``q`` and coefficients ``derivs[k] / k!`` in the shifted basis.
    """
    if len(derivs) == 0:
        raise ContractViolationError("derivs must contain at least the value itself")
    coeffs = np.array(derivs, dtype=float)
    if coeffs.ndim == 1:  # scalar derivatives: dim 1
        coeffs = coeffs[:, None]
    # row k over k!, whatever the trailing shape, so a bad one meets VecPolynomial's check
    return VecPolynomial(center=float(x_i), coeffs=(coeffs.T / _factorials(len(coeffs))).T)


@dataclasses.dataclass(frozen=True)
class TaylorMap:
    """Truncated Taylor expansion of ``f`` around a center state.

    ``tensors[j]`` stores the symmetric coefficient tensor
    ``f^(j)(center) / j!`` with shape ``(dim,) * (j + 1)`` (component axis
    first), so ``w(y) = sum_j tensors[j][(y - center)^(x) j]``.
    """

    center: np.ndarray
    tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        c = np.array(self.center, dtype=float)  # a copy: freezing must not touch the caller's array
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def order(self) -> int:
        return len(self.tensors) - 1

    def __call__(self, y):
        """Evaluate at a point ``(dim,)`` or batch ``(dim, m)``."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 1
        pts = y[:, None] if scalar else y
        t = self.tensors
        order = len(t) - 1
        if order == 0:
            acc = np.repeat(t[0][:, None], pts.shape[1], axis=1)
        else:
            # T0 + T1 dy + ..., summed left to right in place (T0 + E equals E + T0 bit for bit)
            dy = pts - self.center[:, None]
            acc = np.einsum("ci,im->cm", t[1], dy)
            acc += t[0][:, None]
            if order >= 2:
                acc += np.einsum("cij,im,jm->cm", t[2], dy, dy)
            if order >= 3:
                acc += np.einsum("cijk,im,jm,km->cm", t[3], dy, dy, dy)
        return acc[:, 0] if scalar else acc


def build_w(problem: IVPProblem, y: np.ndarray, ledger: Optional[CostLedger] = None) -> TaylorMap:
    """Order ``r`` Taylor map of ``f`` around a point ``y`` of shape ``(dim,)``:
    the one place a step fetches (and charges) ``f`` and its partials, each
    distinct one once.

    With ``problem.jet`` the data comes from one jet call, charged by count:
    ``f`` once and ``dim * C(dim + j - 1, j)`` partials of each order ``j``.
    Without it, from ``f(y)`` and one oracle call per distinct partial.
    """
    r = problem.smoothness.r
    y = _check_point(problem, y)
    if problem.jet is not None:
        d = problem.dim
        if ledger is not None:
            ledger.charge_classical(1 + sum(d * math.comb(d + j - 1, j) for j in range(1, r + 1)))
        return TaylorMap(center=y, tensors=tuple(problem.jet(y, r)))
    tensors = [eval_rhs(problem, y, ledger)]
    for j in range(1, r + 1):
        tensors.append(_derivative_tensor(problem, y, j, ledger) / math.factorial(j))
    return TaylorMap(center=y, tensors=tuple(tensors))


def integrate_w_of_l(w: TaylorMap, l: VecPolynomial, h: float) -> np.ndarray:
    """``int w(l(t)) dt`` over the step of length ``h`` from ``l.center``.

    ``w(l(t))`` is a polynomial of degree ``w.order * l.degree``, so the
    Gauss rule with ``w.order * l.degree // 2 + 1`` nodes integrates it
    exactly up to rounding; no right-hand-side evaluation is made.
    """
    if not h > 0:
        raise ContractViolationError(f"step size h must be positive, got {h!r}")
    nodes, weights = _gauss_rule(w.order * l.degree // 2 + 1)
    return h * (w(l.eval_offset(nodes * h)) @ weights)


@dataclasses.dataclass
class ResidualIntegrand:
    """Scaled step residual ``g(u)`` on the unit interval.

    ``g(u) = scale * (f(l(x_i + u h)) - w(l(x_i + u h)))`` with
    ``x_i = l.center`` and ``scale = h^-(r + rho)``; ``h`` is stored as a
    ``float``.  Evaluating it charges nothing: the oracle that integrates it
    reports its price, and the solver charges that once.
    """

    problem: IVPProblem
    w: TaylorMap
    l: VecPolynomial
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ContractViolationError("step size h must be positive")
        self.h = float(self.h)
        self.scale = self.h ** (-self.problem.smoothness.order)

    @property
    def dim(self) -> int:
        return self.problem.dim

    def __call__(self, u):
        pts = self.l.eval_offset(np.asarray(u, dtype=float) * self.h)
        gap = eval_rhs(self.problem, pts)  # a fresh array, reused for the result
        gap -= self.w(pts)
        gap *= self.scale
        return gap
