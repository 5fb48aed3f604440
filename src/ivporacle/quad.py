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
may be a cached, read-only node array.  Oracles charge nothing themselves: each
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

from .errors import ContractViolationError
from .problem import HolderSmoothness

__all__ = [
    "IntegralEstimate",
    "OracleConfig",
    "integrate_deterministic",
    "integrate_randomized",
    "integrate_quantum_sim",
    "integrate_reference",
    "quantum_reference",
    "boost_median",
    "median_of",
    "repetitions_for",
    "derive_seed",
]

@dataclasses.dataclass(frozen=True)
class IntegralEstimate:
    """One oracle output: the estimate and its price.

    ``value`` has shape ``(dim,)`` for one run, or ``(k, dim)`` for a batch
    of ``k`` runs whose ``queries`` is their summed price.
    """

    value: np.ndarray
    queries: int

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        if self.queries < 0:
            raise ContractViolationError("queries must be non-negative")


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """The accuracy contract of an oracle call, the same for every oracle.

    ``eps1`` is the finite positive per-call accuracy target; ``smoothness``
    the ``(r, rho)`` pair of the integrand class, checked by
    :class:`~ivporacle.problem.HolderSmoothness`; ``seed`` a non-negative
    64-bit base seed (read only by the randomized oracles); ``cost_constant``
    the finite positive multiplier in every query-budget formula.
    """

    eps1: float
    smoothness: tuple[int, float]
    seed: int = 0
    cost_constant: float = 4.0

    def __post_init__(self):
        check_real("eps1", self.eps1, 0, math.inf)
        try:
            r, rho = self.smoothness
        except (TypeError, ValueError):
            raise ContractViolationError(
                f"smoothness must be an (r, rho) pair, got {self.smoothness!r}") from None
        smooth = HolderSmoothness(r, rho)
        object.__setattr__(self, "smoothness", (smooth.r, smooth.rho))
        check_seed(self.seed)
        check_real("cost_constant", self.cost_constant, 0, math.inf)


def check_seed(seed) -> None:
    """Reject a seed that is not an ``int`` or ``np.integer`` (bool excluded) in ``[0, 2**64)``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise ContractViolationError(f"seed must be a non-negative 64-bit integer, got {seed!r}")


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``: an ``int`` or ``np.integer`` (bool excluded) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ContractViolationError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def check_real(name: str, value, lo: float, hi: float) -> None:
    """Reject a ``value`` outside ``(lo, hi)`` or not an int, float or numpy number (bool excluded)."""
    if (isinstance(value, bool) or not isinstance(value, (float, int, np.floating, np.integer))
            or not lo < value < hi):
        raise ContractViolationError(f"{name} must be a number in ({lo}, {hi}), got {value!r}")


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
def _panel_nodes(panels: int, q: int) -> np.ndarray:
    """The q Gauss nodes of each of ``panels`` equal panels of [0, 1], panel by panel; read-only."""
    nodes_ref, _ = _gauss_rule(q)
    starts = np.arange(panels, dtype=float)
    nodes = ((starts[:, None] + nodes_ref[None, :]) / panels).reshape(-1)
    nodes.setflags(write=False)
    return nodes


def _panel_values(g, panels: int, q: int) -> np.ndarray:
    """Evaluate ``g`` on all panel Gauss nodes; shape (dim, panels, q)."""
    vals = _eval(g, _panel_nodes(panels, q))
    return vals.reshape(vals.shape[0], panels, q)


def _panel_gauss(g, panels: int, q: int) -> np.ndarray:
    vals = _panel_values(g, panels, q)
    _, w_ref = _gauss_rule(q)
    return np.einsum("dpq,q->d", vals, w_ref) / panels


#: Panels of the reference quadrature's last level.
REFERENCE_MAX_PANELS = 4096


def integrate_reference(g, tol: float = 1e-12) -> np.ndarray:
    """High-accuracy reference integral by panel-doubling composite Gauss.

    A 16-point rule on 8, 16, 32, ... panels stops once two successive levels
    agree to ``tol`` (finite, positive) in the max norm; a ``tol`` below the
    rounding error of ``g``'s values runs to ``REFERENCE_MAX_PANELS`` panels,
    whose estimate is returned as-is.
    """
    check_real("tol", tol, 0, math.inf)
    prev = _panel_gauss(g, 8, 16)
    panels = 16
    while panels <= REFERENCE_MAX_PANELS:
        cur = _panel_gauss(g, panels, 16)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
        panels *= 2
    return prev


#: The simulated-quantum oracle's reference is the one reference quadrature;
#: the caller computes it once per ``g`` and passes it in.
quantum_reference = integrate_reference


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
    value = _panel_gauss(g, panels, q)
    return IntegralEstimate(value=value, queries=panels * q)


def _runs(cfg: OracleConfig, rng, k: Optional[int]) -> tuple[np.random.Generator, int]:
    """The generator to draw from and the number of runs, 1 for a single call."""
    k = 1 if k is None else check_count("k", k)
    return (np.random.default_rng(cfg.seed) if rng is None else rng), k


def _emit(values: np.ndarray, per_call: int, k: Optional[int]) -> IntegralEstimate:
    """One run's estimate, or the batch of ``(k, dim)`` runs charged ``k`` calls."""
    return IntegralEstimate(value=values[0] if k is None else values, queries=len(values) * per_call)


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
    at ``k`` times the per-call budget.  The interpolant is built once and
    ``g`` is called once for the samples of all runs.
    """
    rng, runs = _runs(cfg, rng, k)
    r, _ = cfg.smoothness
    q = r + 1
    budget = _budget(cfg, 0.5)
    panels = max(1, budget // (2 * q))
    nsamples = max(1, budget - panels * q)

    vals = _panel_values(g, panels, q)
    _, w_ref = _gauss_rule(q)
    det_part = np.einsum("dpq,q->d", vals, w_ref) / panels

    u = rng.random((runs, nsamples)).reshape(-1)
    idx = np.minimum((u * panels).astype(int), panels - 1)
    xi = u * panels - idx
    coeffs = np.einsum("pq,dkq->dkp", _vandermonde_inv(q), vals)
    local = coeffs[:, idx, :]  # (dim, k * nsamples, q)
    p_at_u = local[:, :, q - 1]
    for m in range(q - 2, -1, -1):
        p_at_u = p_at_u * xi + local[:, :, m]
    resid = _eval(g, u) - p_at_u
    residual_means = np.mean(resid.reshape(resid.shape[0], runs, nsamples), axis=2)
    values = (det_part[:, None] + residual_means).T
    return _emit(values, panels * q + nsamples, k)


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
    :func:`quantum_reference`), so no integrand is passed or evaluated;
    queries are charged at the modeled budget.

    The draws are one ``(k, dim, 3)`` block from ``rng`` (default
    ``default_rng(config.seed)``; ``k = 1`` for a single call): each
    component reads three fixed slots, band, noise and sign.  With ``k`` the
    ``(k, dim)`` values are returned, charged at ``k`` times the budget.
    """
    rng, runs = _runs(cfg, rng, k)
    budget = _budget(cfg, 1.0)
    reference = np.asarray(reference, dtype=float).reshape(-1).tolist()
    eps = cfg.eps1
    values = []
    for run in rng.random((runs, len(reference), 3)).tolist():
        # Noise is computed as ``Generator.uniform(lo, hi)`` does it,
        # ``lo + (hi - lo) * random()``.
        value = []
        for ref_j, (band, unit, sign) in zip(reference, run):
            if band < 0.75:
                noise = -eps + (eps - -eps) * unit
            else:
                magnitude = eps + (10.0 * eps - eps) * unit
                noise = magnitude if sign < 0.5 else -magnitude
            value.append(ref_j + noise)
        values.append(value)
    return _emit(np.array(values), budget, k)


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
    """Componentwise median of a batch of ``(k, dim)`` runs, at their summed price."""
    return IntegralEstimate(value=np.median(batch.value, axis=0), queries=batch.queries)


def repetitions_for(delta: float, n: int, c: float = 3.0) -> int:
    """Median repetitions for per-step success level ``(1 - delta)^(1/n)``.

    ``k = max(1, ceil(c * log2(1 / (1 - (1 - delta)^(1/n)))))``; the failure
    level per boosted call is split evenly (in probability) over the ``n``
    steps of a solve.  Requires ``0 < delta < 1/2`` and a finite ``c > 0``.
    """
    check_real("delta", delta, 0, 0.5)
    n = check_count("n", n)
    check_real("c", c, 0, math.inf)
    per_step_failure = 1.0 - (1.0 - delta) ** (1.0 / n)
    return max(1, math.ceil(c * math.log2(1.0 / per_step_failure)))


def derive_seed(base: int, *path: int) -> int:
    """Fold a base seed and an integer path into a fresh 64-bit seed.

    Deterministic and collision-resistant: every path, such as a test's
    (trial, repetition) pair, gets its own independent seed.
    """
    ss = np.random.SeedSequence([int(base)] + [int(p) for p in path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
