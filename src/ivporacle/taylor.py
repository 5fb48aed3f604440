"""Local Taylor machinery for one solver step.

Per step the solver builds, from the problem's jet at the current state
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
import math
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolationError, check_count, check_real, step_power
# eval_partial is unused here; it stays a module attribute because the
# benchmark's tracer (perfbench/spans.py) patches it by name.
from .problem import CostLedger, IVPProblem, _check_point, eval_partial, eval_rhs  # noqa: F401
from .quad import _gauss_rule, horner

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
        if c.ndim != 2 or 0 in c.shape:
            raise ContractViolationError(f"coeffs must be a (degree+1, dim) array, got shape {c.shape}")
        if c.flags.writeable or c.base is not None:  # a read-only array owning its data (build_l's) is kept
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
        acc = horner(self.coeffs[:, :, None], s.reshape(-1))
        return acc[:, 0] if s.ndim == 0 else acc

    def __call__(self, t):
        return self.eval_offset(np.asarray(t, dtype=float) - self.center)


def local_derivatives(w: TaylorMap, upto: int) -> list[np.ndarray]:
    """Time derivatives of the local solution through ``w.center``.

    Returns ``[z(x_i), z'(x_i), ..., z^(upto)(x_i)]`` for the solution of
    ``z' = f(z)`` restarted at ``w.center``, by differentiating the ODE:

    ``z' = f``, ``z'' = f' z'``, ``z''' = f''(z', z') + f' z''``,
    ``z'''' = f'''(z', z', z') + 3 f''(z', z'') + f' z'''``.

    The partials are read off the map, ``f^(j) = j! w.tensors[j]``, so no
    evaluation is made.  Needs ``upto <= w.order + 1``.
    """
    if check_count("upto", upto, 0) > w.order + 1:
        raise ContractViolationError(f"upto must be at most r + 1 = {w.order + 1}, got {upto}")
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
    coeffs = np.array(derivs, dtype=float)  # a fresh array: divided in place, then frozen
    if coeffs.ndim == 1:  # scalar derivatives: dim 1
        coeffs = coeffs[:, None]
    # row k over k!, whatever the shape, so a bad one (or none) meets VecPolynomial's check
    np.divide(coeffs.T, _factorials(len(coeffs)), out=coeffs.T)
    coeffs.setflags(write=False)  # so VecPolynomial keeps it without a copy
    return VecPolynomial(center=float(x_i), coeffs=coeffs)


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
        if y.ndim not in (1, 2) or y.shape[0] != self.dim:
            raise ContractViolationError(f"point must be ({self.dim},) or ({self.dim}, m), got {y.shape}")
        return self._batch(y[:, None])[:, 0] if y.ndim == 1 else self._batch(y)

    def _batch(self, pts: np.ndarray) -> np.ndarray:
        """The unchecked kernel: ``w`` at a float batch ``(dim, m)``, as a fresh array."""
        t = self.tensors
        if len(t) == 1:
            return np.repeat(t[0][:, None], pts.shape[1], axis=1)
        # T0 + T1 dy + ..., summed left to right in place (T0 + E equals E + T0 bit for bit)
        dy = pts - self.center[:, None]
        acc = np.einsum("ci,im->cm", t[1], dy)
        acc += t[0][:, None]
        if len(t) > 2:
            acc += np.einsum("cij,im,jm->cm", t[2], dy, dy)
        if len(t) > 3:
            acc += np.einsum("cijk,im,jm,km->cm", t[3], dy, dy, dy)
        return acc


@functools.lru_cache(maxsize=None)
def _jet_layout(dim: int, r: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Shapes ``(dim,) * (j + 1)`` of an order-``r`` jet's tensors, and the count of distinct
    values they hold: ``f`` once and ``dim * C(dim + j - 1, j)`` partials of each order ``j``."""
    return (tuple((dim,) * (j + 1) for j in range(r + 1)),
            1 + sum(dim * math.comb(dim + j - 1, j) for j in range(1, r + 1)))


def build_w(problem: IVPProblem, y: np.ndarray, ledger: Optional[CostLedger] = None) -> TaylorMap:
    """Order ``r`` Taylor map of ``f`` around a point ``y`` of shape ``(dim,)``:
    the one place a step fetches (and charges) ``f`` and its partials.

    The data comes from one ``problem.jet(y, r)`` call, charged by count
    (see :func:`_jet_layout`).  A jet that does not return ``r + 1`` arrays
    of shapes ``(dim,) * (j + 1)`` raises :class:`ContractViolationError`.
    """
    r = problem.smoothness.r
    y = _check_point(problem, y)
    tensors = problem.jet(y, r)
    want, count = _jet_layout(problem.dim, r)
    got = (tuple([getattr(t, "shape", None) for t in tensors]) if isinstance(tensors, (tuple, list))
           else tensors)
    if type(got) is not tuple or got != want:
        raise ContractViolationError(f"jet(y, {r}) must return arrays of shapes {want}, got {got}")
    if ledger is not None:
        ledger.charge_classical(count)
    return TaylorMap(center=y, tensors=tuple(tensors))


def integrate_w_of_l(w: TaylorMap, l: VecPolynomial, h: float) -> np.ndarray:
    """``int w(l(t)) dt`` over the step of length ``h`` from ``l.center``.

    ``w(l(t))`` is a polynomial of degree ``w.order * l.degree``, so the
    Gauss rule with ``w.order * l.degree // 2 + 1`` nodes integrates it
    exactly up to rounding; no right-hand-side evaluation is made.
    """
    check_real("h", h, 0, math.inf)
    nodes, weights = _gauss_rule(w.order * l.degree // 2 + 1)
    return h * (w._batch(horner(l.coeffs[:, :, None], nodes * h)) @ weights)


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
        self.h = check_real("h", self.h, 0, math.inf)
        self.scale = step_power(self.h, -self.problem.smoothness.order)

    @property
    def dim(self) -> int:
        return self.problem.dim

    def __call__(self, u):
        s = np.asarray(u, dtype=float) * self.h
        pts = horner(self.l.coeffs[:, :, None], s.reshape(-1))  # the piece at x_i + u h, unchecked
        gap = eval_rhs(self.problem, pts)  # a fresh array, reused for the result
        gap -= self.w._batch(pts)
        gap *= self.scale
        return gap if s.ndim else gap[:, 0]
