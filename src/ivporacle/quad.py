"""Integral oracles for vector integrands on the unit interval.

Three oracles estimate ``int_0^1 g(u) du`` for integrands from the class with
``r`` derivatives and a ``rho``-Holder top derivative, each under the one
accuracy contract an :class:`OracleConfig` states:

:func:`integrate_deterministic`
    Composite interpolatory (Gauss) quadrature sized so the worst-case error
    over the class is at most ``eps1``; query budget grows like
    ``eps1 ** (-1 / (r + rho))``.

:func:`integrate_randomized`
    A control-variate Monte Carlo scheme: the exact integral of a piecewise
    interpolant of ``g`` plus a plain Monte Carlo average of the interpolation
    residual.  Unbiased, with RMS error at most ``eps1 / 2`` on the class, so
    a single run lands within ``eps1`` with probability at least 3/4
    (Chebyshev).  Budget grows like ``eps1 ** (-1 / (r + rho + 1/2))``.

:func:`integrate_quantum_sim`
    A statistical stand-in for a quantum integration device.  It is given
    the integral, which the caller computes with :func:`integrate_reference`
    (the one reference quadrature, also the solver's exact mode), and emits,
    independently per component, that reference plus uniform noise within
    ``eps1`` (probability 3/4) or a disjoint outlier band up to ``10 eps1``
    (probability 1/4).  Queries are charged at the modeled budget
    ``ceil(cost_constant * eps1 ** (-1 / (r + rho + 1)))``, not at the
    reference's node count.

All oracles are deterministic functions of their inputs and, for the two
randomized ones, of the generator they draw from (``default_rng(config.seed)``
unless given).  Integrands map a float array of shape ``(m,)`` to values of
shape ``(m,)`` or ``(dim, m)``, and must not write to their argument, which
may be a cached, read-only node array.  They are pointwise: the value at
``u`` depends only on ``u``, so an oracle evaluates all its node sets in one
call, and the values do not depend on how the nodes are grouped.  Oracles charge nothing themselves: each
reports its price in ``IntegralEstimate.queries``, and the caller charges it.

Boosting makes ``k`` independent runs of a randomized oracle on one integrand.
Both take ``rng=`` and ``k=`` to make them as one batch: the runs draw one
block of uniforms from ``rng``, run ``j`` reading row ``j``, and the work
common to all runs (the control variate, or the simulator's reference) is
done once.  The ``(k, dim)`` batch costs ``k`` per-call budgets and equals
``k`` successive single calls on a generator in the same state bit for bit;
:func:`median_of` merges it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

try:  # the C kernel np.einsum forwards to when optimize=False: its bits, without its Python dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

from .errors import ContractViolationError, check_count, check_real, check_seed
from .problem import HolderSmoothness

__all__ = [
    "IntegralEstimate",
    "OracleConfig",
    "integrate_deterministic",
    "integrate_randomized",
    "integrate_quantum_sim",
    "integrate_reference",
    "boost_median",
    "median_of",
    "repetitions_for",
    "derive_seed",
]

def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and owns its data, else a read-only copy: a value
    object keeps a fresh array its maker froze, and never freezes or shares a caller's."""
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.setflags(write=False)
    return a


def _built(cls, **fields):
    """An instance of the value class ``cls`` holding ``fields`` unchecked, in one write: for
    fields the package has just made, arrays fresh and read-only, as the checks would leave them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclasses.dataclass(frozen=True, init=False)
class IntegralEstimate:
    """One oracle output: the estimate and its price.

    ``value`` has shape ``(dim,)`` for one run, or ``(k, dim)`` for a batch
    of ``k`` runs whose ``queries`` is their summed price.
    """

    value: np.ndarray
    queries: int

    def __init__(self, value, queries):  # checked, then set in one write, as HolderSmoothness is
        v = np.asarray(value, dtype=float)
        self.__dict__.update(value=_frozen(v.reshape(1) if v.ndim == 0 else v),
                             queries=check_count("queries", queries, 0))


@dataclasses.dataclass(frozen=True, init=False)
class OracleConfig:
    """The accuracy contract of an oracle call, the same for every oracle.

    ``eps1`` is the finite positive per-call accuracy target; ``smoothness``
    the ``(r, rho)`` pair of the integrand class, checked by
    :class:`~ivporacle.problem.HolderSmoothness`; ``seed`` a non-negative
    64-bit base seed (read only by the randomized oracles); ``cost_constant``
    the finite positive multiplier in every query-budget formula.  Reals are
    stored as ``float`` and the seed as ``int``.
    """

    eps1: float
    smoothness: tuple[int, float]
    seed: int
    cost_constant: float

    def __init__(self, eps1, smoothness, seed=0, cost_constant=4.0):  # as HolderSmoothness is
        try:
            r, rho = smoothness
        except (TypeError, ValueError):
            raise ContractViolationError(
                f"smoothness must be an (r, rho) pair, got {smoothness!r}") from None
        smooth = HolderSmoothness(r, rho)
        self.__dict__.update(eps1=check_real("eps1", eps1, 0, math.inf), smoothness=(smooth.r, smooth.rho),
                             seed=check_seed(seed),
                             cost_constant=check_real("cost_constant", cost_constant, 0, math.inf))


def _eval(g, u: np.ndarray) -> np.ndarray:
    """Evaluate an integrand on a batch, normalizing the result to (dim, m)."""
    out = np.asarray(g(np.asarray(u, dtype=float)), dtype=float)
    if out.ndim == 1:
        out = out[None, :]
    return out


@functools.lru_cache(maxsize=None)
def _gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1]; weights sum to 1; read-only."""
    x, w = np.polynomial.legendre.leggauss(q)
    rule = (x + 1.0) / 2.0, w / 2.0
    for a in rule:
        a.setflags(write=False)
    return rule


def horner(coeffs, s):
    """``sum_k coeffs[k] s^k``, each row broadcast against ``s``: the one Horner order of every
    shifted-basis polynomial, in place on one fresh array; degree 0 is ``coeffs[0] * 1.0``, exact."""
    if len(coeffs) == 1:
        return coeffs[0] * np.ones_like(s, dtype=float)
    acc = coeffs[-1] * s
    acc += coeffs[-2]
    for k in range(len(coeffs) - 3, -1, -1):
        acc *= s
        acc += coeffs[k]
    return acc


@functools.lru_cache(maxsize=None)
def _vandermonde_inv(q: int) -> np.ndarray:
    """Inverse Vandermonde on the q-point Gauss nodes of [0, 1].

    Maps node values to monomial coefficients of the local interpolant;
    read-only.
    """
    nodes, _ = _gauss_rule(q)
    inv = np.linalg.inv(np.vander(nodes, q, increasing=True))
    inv.setflags(write=False)
    return inv


@functools.lru_cache(maxsize=64)
def _panel_nodes(panels: int | tuple[int, ...], q: int) -> np.ndarray:
    """The q Gauss nodes of each of ``panels`` equal panels of [0, 1], panel by panel; for a
    tuple of panel counts, each count's nodes in turn.  Read-only."""
    nodes_ref, _ = _gauss_rule(q)
    counts = panels if isinstance(panels, tuple) else (panels,)
    nodes = np.concatenate([((np.arange(p, dtype=float)[:, None] + nodes_ref[None, :]) / p).reshape(-1)
                            for p in counts])
    nodes.setflags(write=False)
    return nodes


def _gauss_sum(vals: np.ndarray, panels: int) -> np.ndarray:
    """The composite Gauss estimate of ``int_0^1`` from (dim, panels * q) values at the panel nodes."""
    q = vals.shape[1] // panels
    return _einsum("dpq,q->d", vals.reshape(len(vals), panels, q), _gauss_rule(q)[1]) / panels


#: The reference quadrature's default tolerance, and its last level's panels.
REFERENCE_TOL = 1e-12
REFERENCE_MAX_PANELS = 4096


def integrate_reference(g, tol: float = REFERENCE_TOL) -> np.ndarray:
    """High-accuracy reference integral by panel-doubling composite Gauss.

    A 16-point rule on 8, 16, 32, ... panels stops once two successive levels
    agree to ``tol`` (finite, positive) in the max norm; a ``tol`` below the
    rounding error of ``g``'s values runs to ``REFERENCE_MAX_PANELS`` panels,
    whose estimate is returned as-is.  ``g`` is called once for the 8- and
    16-panel levels together, and once for each later level.
    """
    check_real("tol", tol, 0, math.inf)
    both = _eval(g, _panel_nodes((8, 16), 16))
    prev, cur, panels = _gauss_sum(both[:, :8 * 16], 8), _gauss_sum(both[:, 8 * 16:], 16), 16
    while not np.maximum.reduce(np.abs(cur - prev)) <= tol and panels < REFERENCE_MAX_PANELS:
        panels *= 2
        prev, cur = cur, _gauss_sum(_eval(g, _panel_nodes(panels, 16)), panels)
    return cur


def _budget(cfg: OracleConfig, exponent_shift: float) -> int:
    r, rho = cfg.smoothness
    return math.ceil(cfg.cost_constant * cfg.eps1 ** (-1.0 / (r + rho + exponent_shift)))


def integrate_deterministic(g, cfg: OracleConfig) -> IntegralEstimate:
    """Composite Gauss quadrature sized to the class budget.

    Uses ``r + 1`` nodes per panel (exact for piecewise polynomials of
    degree ``r`` and beyond), with the panel count chosen so total queries
    stay within ``ceil(cost_constant * eps1 ** (-1/(r+rho)))``.
    """
    r, _ = cfg.smoothness
    q = r + 1
    budget = _budget(cfg, 0.0)
    panels = max(1, budget // q)
    return _emit(_gauss_sum(_eval(g, _panel_nodes(panels, q)), panels), panels * q)


def _runs(cfg: OracleConfig, rng, k: Optional[int]) -> tuple[np.random.Generator, int]:
    """The generator to draw from and the number of runs, 1 for a single call."""
    k = 1 if k is None else check_count("k", k)
    return (np.random.default_rng(cfg.seed) if rng is None else rng), k


def _emit(value: np.ndarray, queries: int) -> IntegralEstimate:
    """The estimate of a fresh float array an oracle made, frozen, and its ``int`` price."""
    value.setflags(write=False)
    return _built(IntegralEstimate, value=value, queries=queries)


def integrate_randomized(g, cfg: OracleConfig, rng: Optional[np.random.Generator] = None,
                         k: Optional[int] = None) -> IntegralEstimate:
    """Control-variate Monte Carlo estimate.

    Splits the budget between a piecewise degree-``r`` interpolant of ``g``
    (integrated exactly) and uniform samples of the residual ``g - P``.  The
    estimator is unbiased; the interpolant reproduces polynomials of degree
    at most ``r`` exactly, so such integrands are computed to rounding error
    regardless of the seed.

    The samples are drawn from ``rng`` (default ``default_rng(config.seed)``).
    With ``k`` the call makes ``k`` runs from one ``(k, nsamples)`` block,
    run ``j`` taking row ``j``, and returns their ``(k, dim)`` values charged
    at ``k`` times the per-call budget.  The interpolant is built once, and
    ``g`` is called once, on the panel nodes and the samples of all runs.
    """
    rng, runs = _runs(cfg, rng, k)
    r, _ = cfg.smoothness
    q = r + 1
    budget = _budget(cfg, 0.5)
    panels = max(1, budget // (2 * q))
    nsamples = max(1, budget - panels * q)

    u = rng.random((runs, nsamples)).reshape(-1)
    vals = _eval(g, np.concatenate((_panel_nodes(panels, q), u)))
    at_nodes, at_u = vals[:, :panels * q], vals[:, panels * q:]
    det_part = _gauss_sum(at_nodes, panels)
    scaled = u * panels
    idx = np.minimum(scaled.astype(int), panels - 1)
    xi = scaled - idx
    coeffs = _einsum("pq,dkq->dkp", _vandermonde_inv(q), at_nodes.reshape(len(vals), panels, q))
    resid = at_u - horner(coeffs.transpose(2, 0, 1).take(idx, axis=2), xi)  # (q, dim, m) rows, contiguous
    residual_means = np.add.reduce(resid.reshape(resid.shape[0], runs, nsamples), axis=2) / nsamples
    return _emit(det_part + (residual_means[:, 0] if k is None else residual_means.T),
                 runs * (panels * q + nsamples))


def integrate_quantum_sim(cfg: OracleConfig, reference: np.ndarray,
                          rng: Optional[np.random.Generator] = None,
                          k: Optional[int] = None) -> IntegralEstimate:
    """Simulated quantum integral oracle.

    Emits, independently per component, ``reference + noise`` where the noise
    is uniform in ``[-eps1, eps1]`` with probability 3/4 and uniform over the
    outlier band ``[-10 eps1, -eps1) u (eps1, 10 eps1]`` otherwise, so a
    single call succeeds at the advertised 3/4 rate and boosting has genuine
    outliers to suppress.  ``reference`` is the integral the device would
    estimate, which the caller computes (the solver with
    :func:`integrate_reference`), so no integrand is passed or evaluated;
    queries are charged at the modeled budget.

    The draws are one ``(k, dim, 3)`` block from ``rng`` (default
    ``default_rng(config.seed)``; ``k = 1`` for a single call): each
    component reads three fixed slots, band, noise and sign.  With ``k`` the
    ``(k, dim)`` values are returned, charged at ``k`` times the budget.
    """
    rng, runs = _runs(cfg, rng, k)
    reference = np.asarray(reference, dtype=float).reshape(-1)
    eps = cfg.eps1
    band, unit, sign = rng.random((runs, len(reference), 3)).transpose(2, 0, 1)
    # Noise is computed as ``Generator.uniform(lo, hi)`` does it, ``lo + (hi - lo) * random()``.
    magnitude = eps + (10.0 * eps - eps) * unit
    noise = np.where(band < 0.75, -eps + (eps - -eps) * unit, np.where(sign < 0.5, magnitude, -magnitude))
    return _emit(reference + (noise[0] if k is None else noise), runs * _budget(cfg, 1.0))


def boost_median(run: Callable[[int], IntegralEstimate], k: int) -> IntegralEstimate:
    """Boost a probabilistic estimator by a componentwise median of ``k`` runs.

    ``run(j)`` must produce the ``j``-th independent estimate (callers seed
    it from ``j``, or draw it from a generator the runs share).  Runs execute
    and merge in index order, so the result does not depend on scheduling.
    ``k = 1`` returns the single run unchanged.
    """
    k = check_count("k", k)
    estimates = [run(j) for j in range(k)]
    if k == 1:
        return estimates[0]
    return median_of(IntegralEstimate(value=np.stack([e.value for e in estimates]),
                                      queries=sum(e.queries for e in estimates)))


def median_of(batch: IntegralEstimate) -> IntegralEstimate:
    """Componentwise median of a batch of ``(k, dim)`` runs, at their summed price.

    Equal to ``np.median(batch.value, axis=0)`` bit for bit, without its
    generic reduction machinery: the partition ``np.partition`` makes, on
    the copy it makes, puts the middle entries and, last, any NaN in place,
    so even a NaN's sign and payload match.  The median is the middle entry
    for odd ``k`` and the mean of the middle two for even ``k``, both summed
    from ``+0.0`` as ``np.median`` sums, so a ``-0.0`` median reads ``+0.0``.
    A column holding a NaN gets the NaN its last partitioned entry holds.
    """
    k = len(batch.value)
    m = k // 2
    s = batch.value.copy(order="K")
    s.partition([m, -1] if k % 2 else [m - 1, m, -1], axis=0)
    median = 0.0 + s[m] if k % 2 else (0.0 + s[m - 1] + s[m]) / 2
    if math.isnan(np.maximum.reduce(s[-1], axis=None, initial=-math.inf)):  # maximum keeps a NaN
        median = np.where(np.isnan(s[-1]), s[-1], median)
    if s.ndim == 1:  # k runs of one component: a scalar, which IntegralEstimate makes (1,)
        return IntegralEstimate(value=median, queries=batch.queries)
    return _emit(median, batch.queries)


def repetitions_for(delta: float, n: int, c: float = 3.0) -> int:
    """Median repetitions for per-step success level ``(1 - delta)^(1/n)``.

    ``k = max(1, ceil(c * log2(1 / (1 - (1 - delta)^(1/n)))))``; the failure
    level per boosted call is split evenly (in probability) over the ``n``
    steps of a solve.  Requires ``0 < delta < 1/2`` and a finite ``c > 0``.
    """
    delta = check_real("delta", delta, 0, 0.5)
    n = check_count("n", n)
    c = check_real("c", c, 0, math.inf)
    per_step_failure = 1.0 - (1.0 - delta) ** (1.0 / n)
    return max(1, math.ceil(c * math.log2(1.0 / per_step_failure)))


def derive_seed(base: int, *path: int) -> int:
    """Fold a base seed and an integer path into a fresh 64-bit seed.

    Deterministic and collision-resistant: every path, such as a test's
    (trial, repetition) pair, gets its own independent seed.  ``base`` is a
    seed as :class:`OracleConfig` takes it; each path entry is an integer
    ``>= 0``.
    """
    ss = np.random.SeedSequence([check_seed(base)] + [check_count("path entry", p, 0) for p in path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
