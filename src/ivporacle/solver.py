"""Stepping algorithm assembling Taylor pieces and oracle-estimated corrections.

One solve on a uniform grid ``x_i = a + i h`` repeats, from the current state
``y_i``:

1. fetch ``f`` and its partials at ``y_i`` once into the Taylor map ``w_i``,
   and derive from it the local Taylor piece ``l_i`` (degree ``r+1``);
2. estimate ``A_i ~ int_0^1 g_i(u) du`` for the scaled residual ``g_i`` with
   the mode's integral oracle at per-step accuracy ``eps1 = h``, boosted by a
   componentwise median for the probabilistic oracles, which ``quantum_sim``
   reads off the middle pair of its noise, ordered a block of steps at a time;
3. read ``int w_i(l_i(t)) dt`` over the step, which each evaluation of
   ``g_i`` computes exactly (a Gauss rule exact for its degree) in the same
   pass over ``l_i`` and ``w_i``, so every corrector evaluates ``g_i``;
4. update ``y_{i+1} = y_i + int w_i(l_i) + h^(r+rho+1) A_i``.

The continuous output is the piecewise polynomial made of the ``l_i``; its
distance to the true solution contracts at order ``r + rho + 1`` in ``h``.
Each corrector charges its oracle's reported price to one counter, by the
rule in :class:`~ivporacle.problem.CostLedger`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import (ContractViolationError, DivergenceError, DomainError, StationaryStartError,
                     check_count, check_real, check_seed, is_real, step_power)
# eval_rhs, boost_median, derive_seed, integrate_quantum_sim and integrate_w_of_l
# are unused here, and a quantum_sim step calls integrate_reference by a second
# name, quantum_reference (below); they stay module attributes because the
# benchmark's tracer (perfbench/spans.py) patches them by name.
from .problem import CostLedger, IVPProblem, Reference, eval_rhs  # noqa: F401
from .quad import (  # noqa: F401
    REFERENCE_TOL,
    OracleConfig,
    _built,
    boost_median,
    derive_seed,
    horner,
    integrate_deterministic,
    integrate_quantum_sim,
    integrate_randomized,
    integrate_reference,
    median_of,
    repetitions_for,
)
from .quad import _budget, _median_rule, _middle, _noise, _within
from .taylor import (  # noqa: F401
    ResidualIntegrand,
    VecPolynomial,
    _residual_scale,
    build_l,
    build_w,
    integrate_w_of_l,
    local_derivatives,
)

quantum_reference = integrate_reference

__all__ = ["MODES", "BOOSTED_MODES", "SolveConfig", "Trajectory", "solve", "eval_trajectory", "sup_error"]

#: Trajectories whose max norm exceeds this multiple of (1 + |eta|) abort.
DIVERGENCE_FACTOR = 1e6

#: A step's reference integral stops at REFERENCE_TOL or at this many
#: rounding units of the residual's values, whichever is larger.
ROUNDING_ULPS = 64

#: sup_error evaluates pieces this many at a time, which bounds the memory
#: its sample arrays and reference values take at any n.
AUDIT_PIECES = 64

#: quantum_sim noise is ordered this many steps at a time, in max(one step's draws, NOISE_DOUBLES) doubles.
NOISE_STEPS = 64
NOISE_DOUBLES = 2 ** 16


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
        object.__setattr__(self, "n", check_count("n", self.n))
        if self.mode not in MODES:
            raise ContractViolationError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "seed", check_seed(self.seed))
        for name, hi in (("delta", 0.5), ("cost_constant", np.inf), ("c", np.inf)):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0, hi))


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


class _Run(NamedTuple):
    """What a corrector needs beyond the step's residual; ``gen`` is the solve's Philox generator
    and ``noise`` its ``_middle_noise``, lazy, read by quantum_sim steps only; ``None`` when unboosted."""

    ledger: CostLedger
    oracle: OracleConfig
    k: int
    gen: Optional[np.random.Generator]
    noise: Optional[Iterator[tuple[np.ndarray, np.ndarray]]] = None

    def rng(self, i: int) -> np.random.Generator:
        """Step ``i``'s Philox stream, keyed by ``(oracle.seed, i)``; its k runs draw one block.

        The solve's generator is rekeyed in place to the state a fresh
        ``Philox(key=np.array([seed, i], dtype=np.uint64))`` starts in:
        counter and buffer zero, buffer empty, no spare 32-bit half.  So the
        stream is that of a fresh generator, without its seed hashing.
        """
        self.gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (self.oracle.seed, i)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self.gen


def reference_tol(scale: float, f_y: np.ndarray) -> float:
    """Stop rule of the reference integral of ``scale * (f(l) - w(l))``.

    Its values round at about ``eps * scale * max|f(y_i)|`` (``eps = 2**-52``,
    ``f_y = f(y_i)`` already fetched), and no two panel levels agree more
    closely; stopping at ``ROUNDING_ULPS`` such units moves ``y_{i+1}`` by
    about as many ulps of the step's increment ``h f(y_i)``.
    """
    return max(REFERENCE_TOL, ROUNDING_ULPS * 2.0 ** -52 * scale * float(np.maximum.reduce(np.abs(f_y))))


def _det_exact(g: ResidualIntegrand, i: int, run: _Run) -> np.ndarray:
    run.ledger.charge_queries(g.dim)
    return integrate_reference(g, tol=reference_tol(g.scale, g.w.tensors[0]))


def _det_values(g: ResidualIntegrand, i: int, run: _Run) -> np.ndarray:
    est = integrate_deterministic(g, run.oracle)
    run.ledger.charge_classical(est.queries)
    return est.value


def _randomized(g: ResidualIntegrand, i: int, run: _Run) -> np.ndarray:
    batch = integrate_randomized(g, run.oracle, rng=run.rng(i), k=run.k)
    return _boosted(run, batch.queries, median_of(batch).value)


def _quantum_sim(g: ResidualIntegrand, i: int, run: _Run) -> np.ndarray:
    """``median_of`` of the step's simulator batch, bit for bit, as ``fl(ref + x)`` is monotone in ``x``."""
    reference = quantum_reference(g, tol=reference_tol(g.scale, g.w.tensors[0]))
    lo, hi = next(run.noise)
    top = reference + hi
    median = _median_rule(top if run.k % 2 else reference + lo, top, top, run.k)
    return _boosted(run, run.k * _budget(run.oracle, 1.0), median)


def _boosted(run: _Run, queries: int, a_i: np.ndarray) -> np.ndarray:
    run.ledger.charge_queries(queries)
    run.ledger.charge_repetitions(run.k)
    return a_i


def _middle_noise(run: _Run, n: int, dim: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Steps ``0 .. n-1``'s middle pairs of ``integrate_quantum_sim``'s noise on their streams, in turn,
    made ``NOISE_STEPS`` steps at a time in at most ``max(one step's draws, NOISE_DOUBLES)`` doubles."""
    steps = max(1, min(NOISE_STEPS, NOISE_DOUBLES // (run.k * dim * 3)))
    for first in range(0, n, steps):
        block = np.empty((min(steps, n - first), run.k, dim, 3))
        for j, draws in enumerate(block):
            run.rng(first + j).random(out=draws)
        lo, hi, _ = _middle(_noise(run.oracle.eps1, block).swapaxes(0, 1))
        yield from zip(lo, hi)


class _Mode(NamedTuple):
    """A solver mode: whether its steps are boosted, and its corrector
    ``(g_i, i, run) -> A_i``.  Every oracle reads the solve's one
    ``run.oracle``; ``det_exact`` calls none and ignores it."""

    boosted: bool
    correct: Callable[[ResidualIntegrand, int, _Run], np.ndarray]


# Correctors reach the oracles through this module's globals at call time.
_MODES = {
    "det_exact": _Mode(False, _det_exact),
    "det_values": _Mode(False, _det_values),
    "randomized": _Mode(True, _randomized),
    "quantum_sim": _Mode(True, _quantum_sim),
}
MODES = tuple(_MODES)
BOOSTED_MODES = tuple(name for name, mode in _MODES.items() if mode.boosted)


def solve(problem: IVPProblem, cfg: SolveConfig) -> Trajectory:
    """Run the stepper over the problem's interval.

    Raises :class:`DivergenceError` if the state norm exceeds
    ``1e6 (1 + |eta|)``, and :class:`StationaryStartError` if ``f(eta) = 0``
    (the standing assumption, read off the first step's Taylor data ``w_0``,
    so the check costs no evaluation).  Both carry the ledger charged so far.
    An ``h`` whose ``h^(r+rho+1)`` or ``h^-(r+rho)`` overflows raises
    :class:`DomainError` first, before any step charges anything.
    """
    a, b = problem.interval
    n = cfg.n
    h = check_real("h", (b - a) / n, 0, np.inf)
    r = problem.smoothness.r
    rho = problem.smoothness.rho
    scale = step_power(h, r + rho + 1.0)
    residual_scale = _residual_scale(problem, h)
    ledger = CostLedger()
    mode = _MODES[cfg.mode]
    oracle_cfg = OracleConfig(eps1=h, smoothness=(r, rho), seed=cfg.seed,
                              cost_constant=cfg.cost_constant)
    k = repetitions_for(cfg.delta, n, cfg.c) if mode.boosted else 1
    gen = np.random.Generator(np.random.Philox(key=0)) if mode.boosted else None
    run = _Run(ledger=ledger, oracle=oracle_cfg, k=k, gen=gen)
    run = run._replace(noise=_middle_noise(run, n, len(problem.eta))) if mode.boosted else run

    bound = float(DIVERGENCE_FACTOR * (1.0 + np.max(np.abs(problem.eta))))
    y = problem.eta  # read-only, rebound each step
    pieces = []
    endpoints = [y]
    for i in range(n):
        x_i = a + i * h
        w_i = build_w(problem, y, ledger)
        if i == 0 and np.max(np.abs(w_i.tensors[0])) == 0.0:
            raise StationaryStartError(ledger)
        l_i = build_l(local_derivatives(w_i, r + 1), x_i)
        g_i = _built(ResidualIntegrand, problem=problem, w=w_i, l=l_i, h=h, scale=residual_scale)
        a_i = mode.correct(g_i, i, run)

        y = y + g_i.step_integral + scale * a_i
        y.setflags(write=False)  # so the next step's TaylorMap keeps it without a copy
        if not _within(y, bound):  # a NaN or infinite state fails it too
            raise DivergenceError(step=i, norm=float(np.maximum.reduce(np.abs(y))), ledger=ledger)
        pieces.append(l_i)
        endpoints.append(y)

    breakpoints = np.array([a + i * h for i in range(n)] + [b])
    return Trajectory(breakpoints=breakpoints, pieces=tuple(pieces),
                      endpoints=np.array(endpoints), ledger=ledger, mode=cfg.mode)


def eval_trajectory(traj: Trajectory, t: float) -> np.ndarray:
    """Evaluate the piecewise output at ``t``.

    Pieces are taken left-closed: ``t`` in ``[x_i, x_{i+1})`` selects piece
    ``i``, and ``t = b`` selects the last piece; ``t`` is one real number.
    """
    if not is_real(t):
        raise ContractViolationError(f"t must be a real number, got {t!r}")
    t = float(t)
    a, b = traj.breakpoints[0], traj.breakpoints[-1]
    if not a <= t <= b:
        raise DomainError(f"t = {t} outside solution interval [{a}, {b}]")
    i = int(np.searchsorted(traj.breakpoints, t, side="right")) - 1
    i = min(max(i, 0), traj.n - 1)
    return traj.pieces[i](t)


def sup_error(traj: Trajectory, reference: Reference, samples_per_step: int = 8) -> float:
    """Max-norm gap between trajectory and reference on a per-piece grid.

    Samples ``samples_per_step`` equispaced points per piece, endpoints
    included, so grid states and interiors are both audited.  Pieces are
    audited ``AUDIT_PIECES`` at a time: one batched Horner pass, and one
    ``reference`` call with the block's ``m`` sample times, a 1-d float
    array in piece order, which must return a ``(dim, m)`` array.  The
    breakpoints must increase strictly.  A NaN gap at any sample makes the
    result NaN.
    """
    check_count("samples_per_step", samples_per_step, 2)
    try:
        coeffs = np.array([piece.coeffs for piece in traj.pieces])  # (n, degree + 1, dim)
        if (coeffs.ndim != 3 or np.shape(traj.breakpoints) != (len(coeffs) + 1,)
                or not np.all(np.diff(traj.breakpoints) > 0)):
            raise ValueError
    except ValueError:
        raise ContractViolationError("a trajectory needs n pieces of one degree and dim "
                                     "and n + 1 strictly increasing breakpoints") from None
    dim = coeffs.shape[2]
    centers = np.array([piece.center for piece in traj.pieces])
    gaps = []
    for lo in range(0, len(coeffs), AUDIT_PIECES):
        part = slice(lo, lo + AUDIT_PIECES)
        ts = np.linspace(traj.breakpoints[:-1][part], traj.breakpoints[1:][part], samples_per_step, axis=1)
        s = (ts - centers[part, None])[:, :, None]
        approx = horner(coeffs[part].transpose(1, 0, 2)[:, :, None], s)  # (pieces, samples, dim)
        values = reference(ts.ravel())  # outside the try: the reference's own errors pass through
        try:
            exact = np.asarray(values, dtype=float)
            if exact.shape != (dim, ts.size):
                raise ValueError
        except ValueError:
            raise ContractViolationError(f"reference must map {ts.size} times to ({dim}, {ts.size})") from None
        gaps.append(np.max(np.abs(approx - exact.reshape((dim,) + ts.shape).transpose(1, 2, 0))))
    return float(np.max(gaps))
