"""Stepping algorithm assembling Taylor pieces and oracle-estimated corrections.

One solve on a uniform grid ``x_i = a + i h`` repeats, from the current state
``y_i``:

1. build the local Taylor piece ``l_i`` (degree ``r+1``) and the Taylor map
   ``w_i`` of ``f`` around ``y_i``;
2. integrate ``w_i(l_i(t))`` over the step exactly (polynomial calculus);
3. estimate ``A_i ~ int_0^1 g_i(u) du`` for the scaled residual ``g_i`` with
   the mode's integral oracle at per-step accuracy ``eps1 = h``, boosted by a
   componentwise median for the probabilistic oracles;
4. update ``y_{i+1} = y_i + int w_i(l_i) + h^(r+rho+1) A_i``.

The continuous output is the piecewise polynomial made of the ``l_i``; its
distance to the true solution contracts at order ``r + rho + 1`` in ``h``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

from .errors import ContractViolationError, DivergenceError, DomainError
from .problem import CostLedger, IVPProblem, eval_rhs
from .quad import (
    OracleConfig,
    boost_median,
    derive_seed,
    integrate_deterministic,
    integrate_quantum_sim,
    integrate_randomized,
    integrate_reference,
    quantum_reference,
    repetitions_for,
)
from .taylor import VecPolynomial, build_l, build_w, integrate_w_of_l, local_derivatives, residual

__all__ = ["MODES", "BOOSTED_MODES", "SolveConfig", "Trajectory", "solve", "eval_trajectory", "sup_error"]

MODES = ("det_exact", "det_values", "randomized", "quantum_sim")
BOOSTED_MODES = ("randomized", "quantum_sim")

#: Trajectories whose max norm exceeds this multiple of (1 + |eta|) abort.
DIVERGENCE_FACTOR = 1e6

#: Tolerance of the det_exact reference quadrature (exact-functional stand-in).
DET_EXACT_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class SolveConfig:
    """Solve parameters: grid size, oracle mode, failure budget, seeding."""

    n: int
    mode: str = "det_exact"
    delta: float = 0.1
    seed: int = 0
    cost_constant: float = 4.0
    c: float = 3.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ContractViolationError(f"n must be a positive integer, got {self.n}")
        if self.mode not in MODES:
            raise ContractViolationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.delta < 0.5:
            raise ContractViolationError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ContractViolationError("seed must be a non-negative 64-bit integer")
        if not self.cost_constant > 0:
            raise ContractViolationError("cost_constant must be positive")
        if not self.c > 0:
            raise ContractViolationError("c must be positive")


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Piecewise-polynomial solver output plus its cost ledger.

    ``pieces[i]`` is the degree ``r+1`` polynomial on
    ``[breakpoints[i], breakpoints[i+1]]`` with ``pieces[i](x_i) = y_i``
    exactly; ``endpoints[i]`` are the grid states with ``endpoints[0] = eta``.
    """

    breakpoints: np.ndarray
    pieces: tuple[VecPolynomial, ...]
    endpoints: np.ndarray
    ledger: CostLedger
    mode: str

    @property
    def n(self) -> int:
        return len(self.pieces)

    @property
    def dim(self) -> int:
        return self.endpoints.shape[1]


def solve(problem: IVPProblem, cfg: SolveConfig) -> Trajectory:
    """Run the stepper over the problem's interval.

    Raises :class:`DivergenceError` if the state norm exceeds
    ``1e6 (1 + |eta|)`` (the standing-assumption check ``f(eta) != 0`` is
    also enforced here, where the first evaluation happens anyway).
    """
    a, b = problem.interval
    n = cfg.n
    h = (b - a) / n
    r = problem.smoothness.r
    rho = problem.smoothness.rho
    scale = h ** (r + rho + 1.0)
    ledger = CostLedger()

    f_eta = eval_rhs(problem, problem.eta, ledger)
    if np.max(np.abs(f_eta)) == 0.0:
        raise ContractViolationError("f(eta) must be nonzero (stationary start not supported)")

    oracle_cfg = None
    if cfg.mode in ("det_values", "randomized", "quantum_sim"):
        kind = "deterministic" if cfg.mode == "det_values" else cfg.mode
        oracle_cfg = OracleConfig(kind=kind, eps1=h, smoothness=(r, rho),
                                  seed=cfg.seed, cost_constant=cfg.cost_constant)
    k = repetitions_for(cfg.delta, n, cfg.c) if cfg.mode in BOOSTED_MODES else 1

    bound = DIVERGENCE_FACTOR * (1.0 + np.max(np.abs(problem.eta)))
    y = problem.eta.copy()
    pieces = []
    endpoints = [y.copy()]
    for i in range(n):
        x_i = a + i * h
        derivs = local_derivatives(problem, y, r + 1, ledger)
        l_i = build_l(derivs, x_i)
        w_i = build_w(problem, y, ledger)
        step_integral = integrate_w_of_l(w_i, l_i, x_i, x_i + h)
        g_i = residual(problem, w_i, l_i, x_i, h, ledger)

        if cfg.mode == "det_exact":
            a_i = integrate_reference(g_i.detached(), tol=DET_EXACT_TOL)
            ledger.charge_queries(problem.dim)
        elif cfg.mode == "det_values":
            a_i = integrate_deterministic(g_i, oracle_cfg).value
        else:  # boosted: randomized or quantum_sim
            oracle = integrate_randomized
            if cfg.mode == "quantum_sim":
                oracle = functools.partial(integrate_quantum_sim,
                                           reference=quantum_reference(g_i.detached()))
            est = boost_median(
                lambda j: oracle(g_i, dataclasses.replace(oracle_cfg, seed=derive_seed(cfg.seed, i, j))),
                k,
            )
            ledger.charge_queries(est.queries)
            ledger.charge_repetitions(k)
            a_i = est.value

        y = y + step_integral + scale * a_i
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > bound:
            raise DivergenceError(step=i, norm=float(np.max(np.abs(y))))
        pieces.append(l_i)
        endpoints.append(y.copy())

    breakpoints = np.array([a + i * h for i in range(n)] + [b])
    return Trajectory(breakpoints=breakpoints, pieces=tuple(pieces),
                      endpoints=np.array(endpoints), ledger=ledger, mode=cfg.mode)


def eval_trajectory(traj: Trajectory, t: float) -> np.ndarray:
    """Evaluate the piecewise output at ``t``.

    Pieces are taken left-closed: ``t`` in ``[x_i, x_{i+1})`` selects piece
    ``i``, and ``t = b`` selects the last piece.
    """
    t = float(t)
    a, b = traj.breakpoints[0], traj.breakpoints[-1]
    if not a <= t <= b:
        raise DomainError(f"t = {t} outside solution interval [{a}, {b}]")
    i = int(np.searchsorted(traj.breakpoints, t, side="right")) - 1
    i = min(max(i, 0), traj.n - 1)
    piece = traj.pieces[i]
    return piece.eval_offset(t - piece.center)


def sup_error(traj: Trajectory, reference: Callable[[float], np.ndarray],
              samples_per_step: int = 8) -> float:
    """Max-norm gap between trajectory and reference on a per-piece grid.

    Samples ``samples_per_step`` equispaced points per piece, endpoints
    included, so grid states and interiors are both audited.
    """
    if samples_per_step < 2:
        raise ContractViolationError("samples_per_step must be at least 2")
    worst = 0.0
    for i, piece in enumerate(traj.pieces):
        lo, hi = traj.breakpoints[i], traj.breakpoints[i + 1]
        ts = np.linspace(lo, hi, samples_per_step)
        approx = piece.eval_offset(ts - piece.center)
        exact = np.stack([np.asarray(reference(t), dtype=float) for t in ts], axis=1)
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    return worst
