"""Local Taylor machinery for one solver step.

Per step the solver builds, from the problem's jet at the current state
``y_i``, fetched once:

* ``w`` -- the order ``r`` Taylor expansion of ``f`` around ``y_i``,
* ``l`` -- the degree ``r+1`` Taylor polynomial of the local solution through
  ``(x_i, y_i)``, with its derivatives read off ``w``,
* the scaled residual ``g(u) = h^-(r+rho) * (f(l(x_i+u h)) - w(l(x_i+u h)))``
  on ``[0, 1]``, whose integral the oracles estimate, and
* the exact value of ``int w(l(t)) dt`` over the step (a Gauss rule exact
  for its degree, no sampling), which each evaluation of ``g`` reads off the
  same pass over ``l`` and ``w``.

All polynomial coefficients live in the shifted basis ``(t - x_i)^k`` so that
evaluation at the base point is exact.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ContractViolationError, check_count, check_real, step_power
# eval_partial is unused here; it stays a module attribute because the
# benchmark's tracer (perfbench/spans.py) patches it by name.
from .problem import CostLedger, IVPProblem, _check_point, eval_partial, eval_rhs  # noqa: F401
from .quad import _built, _einsum, _frozen, _gauss_rule, _is_own_nodes, horner

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


def _check_coeffs(c: np.ndarray) -> np.ndarray:
    """``c`` itself, if it is a ``(degree + 1, dim)`` array with no empty axis."""
    if c.ndim != 2 or 0 in c.shape:
        raise ContractViolationError(f"coeffs must be a (degree+1, dim) array, got shape {c.shape}")
    return c


@dataclasses.dataclass(frozen=True)
class VecPolynomial:
    """Vector-valued polynomial in the shifted basis ``(t - center)^k``.

    ``coeffs`` has shape ``(degree + 1, dim)``; row ``k`` multiplies
    ``(t - center)^k``.
    """

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(_check_coeffs(np.asarray(self.coeffs, dtype=float))))
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
        if s.ndim > 1:
            raise ContractViolationError(f"offsets must be a scalar or a 1-d array, got shape {s.shape}")
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
    out = [w.center]  # read-only; build_l copies it
    if upto == 0:
        return out
    d1 = w.tensors[0]
    out.append(d1)
    if upto >= 2:
        f1 = w.tensors[1]
        out.append(f1 @ d1)
    if upto >= 3:
        f2 = 2.0 * w.tensors[2]
        out.append(_einsum("ijk,j,k->i", f2, d1, d1) + f1 @ out[2])
    if upto >= 4:
        f3 = 6.0 * w.tensors[3]
        out.append(
            _einsum("ijkl,j,k,l->i", f3, d1, d1, d1)
            + 3.0 * _einsum("ijk,j,k->i", f2, d1, out[2])
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
    np.divide(coeffs.T, _factorials(len(_check_coeffs(coeffs))), out=coeffs.T)
    coeffs.setflags(write=False)  # so _frozen keeps it, and copies only the scalars' view
    return _built(VecPolynomial, center=float(x_i), coeffs=_frozen(coeffs))


def _map_center(y) -> np.ndarray:
    """A Taylor map's center: ``y`` as a float array, kept if read-only and its own (solve's state)."""
    return _frozen(np.asarray(y, dtype=float))


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
        object.__setattr__(self, "center", _map_center(self.center))

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
            return t[0][:, None].repeat(pts.shape[1], axis=1)
        # T0 + T1 dy + ..., summed left to right in place (T0 + E equals E + T0 bit for bit)
        dy = pts - self.center[:, None]
        acc = _einsum("ci,im->cm", t[1], dy)
        acc += t[0][:, None]
        if len(t) > 2:
            acc += _einsum("cij,im,jm->cm", t[2], dy, dy)
        if len(t) > 3:
            acc += _einsum("cijk,im,jm,km->cm", t[3], dy, dy, dy)
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
    return _built(TaylorMap, center=_map_center(y), tensors=tuple(tensors))


def _exact_rule(w: TaylorMap, l: VecPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss rule on ``[0, 1]`` exact for ``w(l(t))``, a polynomial of degree
    ``w.order * l.degree``: ``w.order * l.degree // 2 + 1`` nodes."""
    return _gauss_rule(w.order * l.degree // 2 + 1)


def integrate_w_of_l(w: TaylorMap, l: VecPolynomial, h: float) -> np.ndarray:
    """``int w(l(t)) dt`` over the step of length ``h`` from ``l.center``.

    The Gauss rule :func:`_exact_rule` integrates ``w(l(t))`` exactly up to
    rounding; no right-hand-side evaluation is made.
    """
    check_real("h", h, 0, math.inf)
    nodes, weights = _exact_rule(w, l)
    return h * (w._batch(horner(l.coeffs[:, :, None], nodes * h)) @ weights)


def _residual_scale(problem: IVPProblem, h: float) -> float:
    """The residual's scale ``h^-(r + rho)``; :class:`DomainError` if it overflows."""
    return step_power(h, -problem.smoothness.order)


@dataclasses.dataclass
class ResidualIntegrand:
    """Scaled step residual ``g(u)`` on the unit interval.

    ``g(u) = scale * (f(l(x_i + u h)) - w(l(x_i + u h)))`` with
    ``x_i = l.center`` and ``scale = h^-(r + rho)``; ``h`` is stored as a
    ``float``.  Evaluating it charges nothing: the oracle that integrates it
    reports its price, and the solver charges that once.

    An evaluation makes one pass over ``l`` and ``w``, at the offsets ``u``
    followed by the nodes of the Gauss rule exact for ``w(l(t))``, and calls
    ``f`` at ``u``'s points only.  From the nodes' values it keeps
    ``step_integral``, the exact ``int w(l(t)) dt`` over the step, read-only
    and equal bit for bit to :func:`integrate_w_of_l`'s; the solver reads it
    after its oracle has evaluated ``g``.

    The scaled grid ``concat(u, nodes) * h`` is kept, one for all residuals,
    only when ``u`` is a node array the oracles cached (``quad._panel_nodes``),
    and reused while ``u``, the rule and ``h`` stay: a solve's steps share it.
    A caller's ``u``, even a read-only one, gets a fresh grid every time.
    """

    problem: IVPProblem
    w: TaylorMap
    l: VecPolynomial
    h: float

    # (u, nodes, h, grid), replaced whole, so concurrent solves read a consistent one
    _kept: ClassVar[tuple] = (None, None, None, None)

    def __post_init__(self):
        self.h = check_real("h", self.h, 0, math.inf)
        self.scale = _residual_scale(self.problem, self.h)

    @property
    def dim(self) -> int:
        return self.problem.dim

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        m = u.size
        nodes, weights = _exact_rule(self.w, self.l)
        # the piece at x_i + u h and at the exact rule's nodes, then w there, unchecked
        pts = horner(self.l.coeffs[:, :, None], self._grid(u, nodes))
        w_l = self.w._batch(pts)
        integral = self.h * (w_l[:, m:] @ weights)
        integral.setflags(write=False)
        self.step_integral = integral
        # f gets a C-contiguous batch: a slice of dim 1's single row is one, a wider one is copied
        gap = eval_rhs(self.problem, pts[:, :m] if len(pts) == 1 else pts[:, :m].copy())
        gap -= w_l[:, :m]  # gap is a fresh array, reused for the result
        gap *= self.scale
        return gap if u.ndim else gap[:, 0]

    def _grid(self, u: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """``concat(u, nodes) * h``, the kept one if it was made of the same arrays and ``h``."""
        kept_u, kept_nodes, kept_h, grid = ResidualIntegrand._kept
        if u is kept_u and nodes is kept_nodes and self.h == kept_h:
            return grid
        grid = np.concatenate((u.reshape(-1), nodes)) * self.h
        if _is_own_nodes(u):
            grid.setflags(write=False)
            ResidualIntegrand._kept = (u, nodes, self.h, grid)
        return grid
