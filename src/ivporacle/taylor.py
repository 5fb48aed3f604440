"""Local Taylor machinery for one solver step.

Per step the solver builds, from derivative-oracle data at the current state
``y_i``, fetched once:

* ``w`` -- the order ``r`` Taylor expansion of ``f`` around ``y_i``,
* ``l`` -- the degree ``r+1`` Taylor polynomial of the local solution through
  ``(x_i, y_i)``, with its derivatives read off ``w``,
* the exact value of ``int w(l(t)) dt`` over the step (polynomial calculus,
  no sampling), and
* the scaled residual ``g(u) = h^-(r+rho) * (f(l(x_i+u h)) - w(l(x_i+u h)))``
  on ``[0, 1]``, whose integral the oracles estimate.

All polynomial coefficients live in the shifted basis ``(t - x_i)^k`` so that
evaluation at the base point is exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolationError
from .problem import CostLedger, IVPProblem, eval_partial, eval_rhs

__all__ = [
    "VecPolynomial",
    "TaylorMap",
    "ResidualIntegrand",
    "local_derivatives",
    "build_l",
    "build_w",
    "integrate_w_of_l",
    "residual",
]


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
        scalar = s.ndim == 0
        sv = s.reshape(-1)
        acc = np.repeat(self.coeffs[-1][:, None], sv.size, axis=1)
        for k in range(self.degree - 1, -1, -1):
            acc = acc * sv + self.coeffs[k][:, None]
        return acc[:, 0] if scalar else acc

    def __call__(self, t):
        return self.eval_offset(np.asarray(t, dtype=float) - self.center)


def _multi_indices(dim: int, order: int):
    """Sorted index tuples (i1 <= ... <= i_order), one per multi-index."""
    return itertools.combinations_with_replacement(range(dim), order)


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
        for idxs in _multi_indices(d, order):
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
    rows = [np.atleast_1d(np.asarray(v, dtype=float)) / math.factorial(k) for k, v in enumerate(derivs)]
    return VecPolynomial(center=float(x_i), coeffs=np.stack(rows))


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
        c = np.asarray(self.center, dtype=float)
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
        dy = pts - self.center[:, None]
        acc = np.repeat(self.tensors[0][:, None], pts.shape[1], axis=1)
        if self.order >= 1:
            acc = acc + np.einsum("ci,im->cm", self.tensors[1], dy)
        if self.order >= 2:
            acc = acc + np.einsum("cij,im,jm->cm", self.tensors[2], dy, dy)
        if self.order >= 3:
            acc = acc + np.einsum("cijk,im,jm,km->cm", self.tensors[3], dy, dy, dy)
        return acc[:, 0] if scalar else acc


def build_w(problem: IVPProblem, y: np.ndarray, ledger: Optional[CostLedger] = None) -> TaylorMap:
    """Order ``r`` Taylor map of ``f`` around ``y``: the one place a step
    fetches (and charges) ``f`` and its partials, each distinct one once."""
    r = problem.smoothness.r
    y = np.asarray(y, dtype=float)
    tensors = [eval_rhs(problem, y, ledger)]
    for j in range(1, r + 1):
        tensors.append(_derivative_tensor(problem, y, j, ledger) / math.factorial(j))
    return TaylorMap(center=y, tensors=tuple(tensors))


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def _compose(w: TaylorMap, l: VecPolynomial) -> VecPolynomial:
    """Exact coefficients of ``t -> w(l(t))`` in the basis of ``l``.

    Works multi-index by multi-index: the order-``j`` term contributes
    ``multinomial(j, alpha) * tensors[j][comp, alpha] * prod_i q_i^alpha_i``
    where ``q = l - center`` componentwise.  Degree is at most
    ``order(w) * degree(l)``.
    """
    d = l.dim
    # q_i(s) = l_i(s) - center_i; constant coefficient cancels exactly at
    # the step start because l(x_i) == center.
    q = [l.coeffs[:, i].copy() for i in range(d)]
    for i in range(d):
        q[i][0] = q[i][0] - w.center[i]
    out_deg = w.order * l.degree
    out = np.zeros((max(out_deg, 0) + 1, d))
    out[0] = w.tensors[0]
    for j in range(1, w.order + 1):
        tensor = w.tensors[j]
        for idxs in _multi_indices(d, j):
            alpha = [0] * d
            for i in idxs:
                alpha[i] += 1
            coeff_mult = math.factorial(j)
            for a in alpha:
                coeff_mult //= math.factorial(a)
            prod = np.array([1.0])
            for i, a in enumerate(alpha):
                for _ in range(a):
                    prod = _poly_mul(prod, q[i])
            weight = tensor[(slice(None),) + idxs]  # shape (d,)
            out[: prod.size] += float(coeff_mult) * np.outer(prod, weight)
    return VecPolynomial(center=l.center, coeffs=out)


def integrate_w_of_l(w: TaylorMap, l: VecPolynomial, x_i: float, x_next: float) -> np.ndarray:
    """Exact ``int_{x_i}^{x_next} w(l(t)) dt`` by polynomial calculus.

    Composes symbolically and integrates monomials in closed form; no
    right-hand-side evaluations and no quadrature error.
    """
    if not x_next > x_i:
        raise ContractViolationError("integration interval must have positive length")
    composed = _compose(w, l)
    h = x_next - x_i
    total = np.zeros(l.dim)
    for k in range(composed.degree + 1):
        total = total + composed.coeffs[k] * (h ** (k + 1) / (k + 1))
    return total


@dataclasses.dataclass
class ResidualIntegrand:
    """Scaled step residual ``g(u)`` on the unit interval.

    ``g(u) = scale * (f(l(x_i + u h)) - w(l(x_i + u h)))`` with
    ``scale = h^-(r + rho)``.  Evaluating it charges nothing: the oracle that
    integrates it reports its price, and the solver charges that once.
    """

    problem: IVPProblem
    w: TaylorMap
    l: VecPolynomial
    x_i: float
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ContractViolationError("step size h must be positive")
        self.scale = float(self.h) ** (-self.problem.smoothness.order)

    @property
    def dim(self) -> int:
        return self.problem.dim

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        pts = self.l.eval_offset(u * self.h)
        fv = eval_rhs(self.problem, pts)
        return (fv - self.w(pts)) * self.scale


def residual(problem: IVPProblem, w: TaylorMap, l: VecPolynomial, x_i: float, h: float) -> ResidualIntegrand:
    """Residual integrand for one step; see :class:`ResidualIntegrand`."""
    return ResidualIntegrand(problem=problem, w=w, l=l, x_i=float(x_i), h=float(h))
