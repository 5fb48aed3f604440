"""Solver tests: stepping identity, convergence orders, costs, reproducibility.

``modified_euler`` below is an independently written specialization for
r = 0; the general stepper must reproduce it bit for bit, which pins down
the exact arithmetic of the update (no algebraically-equal-but-reordered
variants allowed).  ``per_repetition_stepper`` covers the boosted modes at
any r: it runs each of a step's k repetitions as its own single-call oracle,
all drawing in turn from the step's ``Philox`` stream keyed by (seed, step),
and the batched stepper must match it bit for bit and ledger for ledger.
"""

import dataclasses
import math

import numpy as np
import pytest

from ivporacle import (
    ContractViolationError,
    CostLedger,
    DivergenceError,
    DomainError,
    IntegralEstimate,
    MODES,
    OracleConfig,
    ResidualIntegrand,
    SolveConfig,
    TaylorMap,
    Trajectory,
    VecPolynomial,
    boost_median,
    build_l,
    build_w,
    catalog,
    catalog_names,
    eval_rhs,
    eval_trajectory,
    integrate_deterministic,
    integrate_quantum_sim,
    integrate_randomized,
    integrate_reference,
    integrate_w_of_l,
    local_derivatives,
    repetitions_for,
    solve,
    sup_error,
)
from ivporacle import solver
from ivporacle.problem import _G_REGISTRY
from ivporacle.solver import reference_tol
from conftest import assert_as_public, per_partial_jet, per_partial_oracle


def modified_euler(problem, cfg):
    """Independent r = 0 stepper: y + h f(y) + h^(1+rho) A, same oracles."""
    a, b = problem.interval
    n = cfg.n
    h = (b - a) / n
    rho = problem.smoothness.rho
    ledger = CostLedger()
    f_eta = eval_rhs(problem, problem.eta, ledger)
    if np.max(np.abs(f_eta)) == 0.0:
        raise ContractViolationError("stationary start")
    oracle_cfg = OracleConfig(eps1=h, smoothness=(0, rho),
                              seed=cfg.seed, cost_constant=cfg.cost_constant)
    k = repetitions_for(cfg.delta, n, cfg.c) if cfg.mode in ("randomized", "quantum_sim") else 1
    y = problem.eta.copy()
    states = [y.copy()]
    for i in range(n):
        f0 = eval_rhs(problem, y, ledger)

        def g(u, y=y, f0=f0):
            u = np.asarray(u, dtype=float)
            s = u * h
            pts = f0[:, None] * s + y[:, None] if s.ndim else f0 * s + y
            fv = eval_rhs(problem, pts, ledger)
            w = f0[:, None] if s.ndim else f0
            return (fv - w) * h ** (-rho)

        g.dim = problem.dim
        gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, i], dtype=np.uint64)))
        if cfg.mode == "det_exact":
            a_i = integrate_reference(lambda u: g(u, y=y, f0=f0), tol=reference_tol(h ** (-rho), f0))
        elif cfg.mode == "det_values":
            a_i = integrate_deterministic(g, oracle_cfg).value
        elif cfg.mode == "randomized":
            a_i = boost_median(lambda j: integrate_randomized(g, oracle_cfg, rng=gen), k).value
        else:
            ref = integrate_reference(g, tol=reference_tol(h ** (-rho), f0))
            a_i = boost_median(
                lambda j: integrate_quantum_sim(oracle_cfg, reference=ref, rng=gen), k).value
        y = y + f0 * (h ** 1 / 1) + h ** (1.0 + rho) * a_i
        states.append(y.copy())
    return np.array(states)


def per_repetition_stepper(problem, cfg):
    """Boosted stepper with one single-call oracle per repetition.

    Returns the grid states and the ledger, charged by the documented rule:
    one fetch of the Taylor data per step, then the k runs' queries and
    repetitions.
    """
    a, b = problem.interval
    n = cfg.n
    h = (b - a) / n
    r, rho = problem.smoothness.r, problem.smoothness.rho
    ledger = CostLedger()
    oracle_cfg = OracleConfig(eps1=h, smoothness=(r, rho),
                              seed=cfg.seed, cost_constant=cfg.cost_constant)
    k = repetitions_for(cfg.delta, n, cfg.c)
    y = problem.eta.copy()
    states = [y.copy()]
    for i in range(n):
        x_i = a + i * h
        w_i = build_w(problem, y, ledger)
        l_i = build_l(local_derivatives(w_i, r + 1), x_i)
        g = ResidualIntegrand(problem, w_i, l_i, h)
        gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, i], dtype=np.uint64)))
        if cfg.mode == "randomized":
            run = lambda j: integrate_randomized(g, oracle_cfg, rng=gen)
        else:
            ref = integrate_reference(g, tol=reference_tol(g.scale, w_i.tensors[0]))
            run = lambda j: integrate_quantum_sim(oracle_cfg, reference=ref, rng=gen)
        est = boost_median(run, k)
        ledger.charge_queries(est.queries)
        ledger.charge_repetitions(k)
        y = y + integrate_w_of_l(w_i, l_i, h) + h ** (r + rho + 1.0) * est.value
        states.append(y.copy())
    return np.array(states), ledger


class TestSolveConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n=0),
        dict(n=2.5),
        dict(n=4, mode="rk4"),
        dict(n=4, delta=0.5),
        dict(n=4, delta=0.0),
        dict(n=4, seed=-3),
        dict(n=4, seed=2.7),
        dict(n=4, seed=True),
        dict(n=4, seed="3"),
        dict(n=4, seed=2 ** 64),
        dict(n=4, cost_constant=0.0),
        dict(n=4, c=-1.0),
        dict(n=4, mode="randomized", c=math.inf),
        dict(n=4, mode="quantum_sim", cost_constant=math.inf),
        dict(n=4, cost_constant=math.inf),
        dict(n=True),
        dict(n=np.int64(0)),
        dict(n=4, delta="0.1"),
        dict(n=4, delta=None),
        dict(n=4, delta=True),
        dict(n=4, c="3"),
        dict(n=4, c=None),
        dict(n=4, cost_constant="4"),
        dict(n=4, cost_constant=None),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ContractViolationError):
            SolveConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = SolveConfig(n=8, delta=np.float32(0.25), c=np.int64(3), cost_constant=np.float64(4.0),
                          seed=np.uint32(5))
        assert (cfg.delta, cfg.c, cfg.cost_constant, cfg.seed) == (0.25, 3, 4.0, 5)
        assert list(map(type, (cfg.delta, cfg.c, cfg.cost_constant, cfg.seed))) == [float, float, float, int]

    def test_numpy_integer_seed_accepted(self):
        # The randomized mode passes the seed on to its OracleConfig too.
        p = catalog("logistic", r=1)
        traj = solve(p, SolveConfig(n=4, mode="randomized", seed=np.int64(5)))
        same = solve(p, SolveConfig(n=4, mode="randomized", seed=5))
        np.testing.assert_array_equal(traj.endpoints, same.endpoints)

    def test_defaults(self):
        cfg = SolveConfig(n=8)
        assert cfg.mode == "det_exact"
        assert cfg.delta == 0.1
        assert SolveConfig(n=np.int64(8)) == cfg and type(SolveConfig(n=np.int64(8)).n) is int


class TestSolveBasics:
    def test_one_step_hand_value(self):
        # h = 0.1: 1 + 0.1 + 0.01 * (1/2)
        p = catalog("scalar-exponential", r=0, interval=(0.0, 0.1))
        traj = solve(p, SolveConfig(n=1))
        assert traj.endpoints[-1, 0] == pytest.approx(1.105, abs=1e-12)

    def test_trajectory_structure(self):
        p = catalog("scalar-quadratic", r=2)
        traj = solve(p, SolveConfig(n=5))
        assert traj.n == 5
        assert traj.dim == 1
        assert len(traj.breakpoints) == 6
        np.testing.assert_allclose(traj.breakpoints, np.linspace(0.0, 0.5, 6), atol=1e-15)
        np.testing.assert_array_equal(traj.endpoints[0], p.eta)
        for i, piece in enumerate(traj.pieces):
            assert piece.degree == 3  # r + 1
            np.testing.assert_array_equal(piece(traj.breakpoints[i]), traj.endpoints[i])

    def test_linear_rhs_r1_residual_vanishes(self):
        # w reproduces f, so the correction target is zero and det modes agree
        p = catalog("scalar-exponential", r=1)
        t_exact = solve(p, SolveConfig(n=8, mode="det_exact"))
        t_values = solve(p, SolveConfig(n=8, mode="det_values"))
        np.testing.assert_allclose(t_exact.endpoints, t_values.endpoints, atol=1e-12)

    def test_product_formula_r0(self):
        # per step the update factors: y -> y (1 + h + h^2/2)
        p = catalog("scalar-exponential", r=0)
        n = 16
        traj = solve(p, SolveConfig(n=n))
        h = 1.0 / n
        expected = (1.0 + h + 0.5 * h * h) ** n
        assert traj.endpoints[-1, 0] == pytest.approx(expected, abs=1e-12)

    def test_integration_reduction_endpoint(self):
        # v(1) = int_0^1 cos(pi u) du = 0
        p = catalog("integration-reduction:cos-pi", r=2)
        traj = solve(p, SolveConfig(n=32))
        assert abs(traj.endpoints[-1, 1]) <= 1e-6

    def test_stationary_start_rejected(self):
        p = catalog("logistic", eta=1.0)  # f(1) = 0
        with pytest.raises(ContractViolationError):
            solve(p, SolveConfig(n=4))

    def test_divergence_reported_with_step(self):
        # quadratic blow-up at t = 1 inside the requested interval
        p = catalog("scalar-quadratic", r=1, interval=(0.0, 2.0))
        with pytest.raises(DivergenceError) as info:
            solve(p, SolveConfig(n=64))
        assert 0 <= info.value.step < 64

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_state_diverges(self, mode):
        """A residual that is NaN makes the state NaN, which the max-norm
        check refuses as np.max's NaN rule does, at step 0 with its ledger."""
        p = catalog("logistic", r=1)
        nan_f = dataclasses.replace(p, f=lambda y: np.full(y.shape, np.nan))
        with pytest.raises(DivergenceError) as info:
            solve(nan_f, SolveConfig(n=4, mode=mode))
        assert info.value.step == 0 and math.isnan(info.value.norm)
        assert info.value.ledger.classical_evals >= 1


class TestUnusableStep:
    """A step size whose power overflows a float is a DomainError, not a bare OverflowError."""

    def test_solve_refuses_it_before_any_step(self, monkeypatch):
        fetched = []
        monkeypatch.setattr(solver, "build_w", lambda *args: fetched.append(args))
        # h^(r+rho+1) overflows, then the residual's scale h^-(r+rho)
        for p, match in ((catalog("scalar-exponential", r=3, interval=(0.0, 1e100)), "h = 1e\\+100"),
                         (catalog("logistic", r=1, interval=(0.0, 1e-160)), "h = 1e-160")):
            for mode in MODES:
                with pytest.raises(DomainError, match=match):
                    solve(p, SolveConfig(n=1, mode=mode))
        assert fetched == []

    def test_residual_scale_overflow(self):
        p = catalog("logistic", r=1, interval=(0.0, 1e-160))
        with pytest.raises(DomainError):
            solve(p, SolveConfig(n=1))
        w = build_w(p, p.eta)
        l = build_l(local_derivatives(w, 2), 0.0)
        with pytest.raises(DomainError, match="overflows"):
            ResidualIntegrand(p, w, l, 1e-160)
        # an h whose powers stay finite still steps, a subnormal h^(r+rho+1) included
        assert ResidualIntegrand(p, w, l, 1e-150).scale == 1e-150 ** -2.0
        assert solve(catalog("scalar-exponential", r=0, interval=(0.0, 1e-160)), SolveConfig(n=1)).n == 1


class TestUncheckedStep:
    """A step builds its value objects unchecked, as the public constructors would."""

    def test_step_residual_matches_the_public_constructor(self, monkeypatch):
        seen = []
        for name, mode in solver._MODES.items():
            watch = lambda g, i, run, correct=mode.correct: seen.append(g) or correct(g, i, run)
            monkeypatch.setitem(solver._MODES, name, mode._replace(correct=watch))
        p = catalog("integration-reduction", r=2)
        for mode in MODES:
            seen.clear()
            solve(p, SolveConfig(n=3, mode=mode))
            assert len(seen) == 3
            for g in seen:
                assert_as_public(g)

    def test_solve_runs_no_value_object_check(self, monkeypatch):
        """Guards the saving: no step re-checks a map, piece, residual or estimate."""
        calls = []
        for cls, attr in ((VecPolynomial, "__post_init__"), (TaylorMap, "__post_init__"),
                          (ResidualIntegrand, "__post_init__"), (IntegralEstimate, "__init__")):
            def counted(self, *args, original=getattr(cls, attr), **kwargs):
                calls.append(type(self).__name__)
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, attr, counted)
        VecPolynomial(0.0, [[1.0]])
        IntegralEstimate(0.5, 1)
        assert calls == ["VecPolynomial", "IntegralEstimate"]  # the counters count
        calls.clear()
        for name, r in (("logistic", 1), ("integration-reduction", 3)):
            for mode in MODES:
                solve(catalog(name, r=r), SolveConfig(n=4, mode=mode))
        assert calls == []


class TestEvalTrajectory:
    def test_grid_points_exact(self):
        p = catalog("scalar-quadratic", r=1)
        traj = solve(p, SolveConfig(n=4))
        for i, t in enumerate(traj.breakpoints[:-1]):
            np.testing.assert_array_equal(eval_trajectory(traj, t), traj.endpoints[i])

    def test_right_endpoint_uses_last_piece(self):
        p = catalog("scalar-exponential", r=0)
        traj = solve(p, SolveConfig(n=4))
        expected = traj.pieces[-1](traj.breakpoints[-1])
        np.testing.assert_array_equal(eval_trajectory(traj, 1.0), expected)

    def test_midpoint_of_degree_one_piece(self):
        p = catalog("scalar-exponential", r=0, interval=(0.0, 0.1))
        traj = solve(p, SolveConfig(n=1))
        assert eval_trajectory(traj, 0.05)[0] == pytest.approx(1.05, abs=1e-15)

    @pytest.mark.parametrize("t", [-0.1, 1.1, math.nan])
    def test_domain_guard(self, t):
        p = catalog("scalar-exponential", r=0)
        traj = solve(p, SolveConfig(n=4))
        with pytest.raises(DomainError):
            eval_trajectory(traj, t)

    @pytest.mark.parametrize("t", [True, "0.5", None, np.array([0.5]), np.array(0.5)],
                             ids=["bool", "str", "none", "1-d", "0-d"])
    def test_time_must_be_one_real_number(self, t):
        traj = solve(catalog("scalar-exponential", r=0), SolveConfig(n=4))
        with pytest.raises(ContractViolationError):
            eval_trajectory(traj, t)

    def test_integer_and_numpy_times_accepted(self):
        traj = solve(catalog("scalar-exponential", r=0), SolveConfig(n=4))
        for t in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
            np.testing.assert_array_equal(eval_trajectory(traj, t), eval_trajectory(traj, 1.0))


def per_piece_sup_error(traj, reference, samples_per_step=8):
    """The audit as it was first written: one linspace, Horner pass and
    stack per piece.  ``sup_error`` must match it bit for bit wherever no
    gap is NaN (this loop drops a NaN gap; ``sup_error`` returns NaN)."""
    worst = 0.0
    for i, piece in enumerate(traj.pieces):
        lo, hi = traj.breakpoints[i], traj.breakpoints[i + 1]
        ts = np.linspace(lo, hi, samples_per_step)
        approx = piece.eval_offset(ts - piece.center)
        exact = np.stack([np.asarray(reference(t), dtype=float) for t in ts], axis=1)
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    return worst


def zero_reference(t):
    """The solution ``0`` of a 1-d problem, at times of any shape."""
    return np.zeros((1,) + np.shape(t))


def hand_trajectory(coeffs, breakpoints=(0.0, 1.0)):
    """Trajectory with one piece per coefficient array, centred at its left end."""
    pieces = tuple(VecPolynomial(center=lo, coeffs=np.array(c)) for lo, c in zip(breakpoints, coeffs))
    return Trajectory(breakpoints=np.array(breakpoints), pieces=pieces,
                      endpoints=np.zeros((len(breakpoints), 1)), ledger=CostLedger(), mode="det_exact")


class TestSupError:
    def test_self_reference_is_zero(self):
        # single piece: no seams, so the trajectory matches itself exactly;
        # eval_trajectory takes one time, so the reference stacks its columns
        p = catalog("logistic", r=1)
        traj = solve(p, SolveConfig(n=1))
        assert sup_error(traj, lambda ts: np.stack([eval_trajectory(traj, t) for t in ts], axis=1)) == 0.0

    def test_constant_gap(self):
        traj = Trajectory(
            breakpoints=np.array([0.0, 1.0]),
            pieces=(VecPolynomial(center=0.0, coeffs=np.array([[1.0]])),),
            endpoints=np.array([[1.0], [1.0]]),
            ledger=CostLedger(), mode="det_exact",
        )
        assert sup_error(traj, zero_reference) == 1.0
        for samples in (2, 3, 8):
            assert (sup_error(traj, zero_reference, samples)
                    == per_piece_sup_error(traj, zero_reference, samples) == 1.0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
    def test_matches_per_piece_loop(self, name, mode):
        for r in range(4):
            p = catalog(name, r=r)
            for n in (1, 7, 64):
                traj = solve(p, SolveConfig(n=n, mode=mode, seed=3))
                for samples in (2, 3, 8):
                    got = sup_error(traj, p.reference, samples)
                    assert got == per_piece_sup_error(traj, p.reference, samples), (r, n, samples)
                    assert math.isfinite(got)

    @pytest.mark.parametrize("name", ["logistic", "integration-reduction"])
    def test_matches_per_piece_loop_across_blocks(self, name):
        # pieces are audited AUDIT_PIECES at a time: cover full and partial blocks
        p = catalog(name, r=1)
        traj = solve(p, SolveConfig(n=2 * solver.AUDIT_PIECES + 3))
        for samples in (2, 3, 8):
            assert sup_error(traj, p.reference, samples) == per_piece_sup_error(traj, p.reference, samples)

    def test_reference_called_once_per_block_in_piece_order(self):
        p = catalog("integration-reduction", r=2)
        n = 2 * solver.AUDIT_PIECES + 3
        traj = solve(p, SolveConfig(n=n))
        seen = []

        def reference(ts):
            seen.append(ts)
            return p.reference(ts)

        sup_error(traj, reference, samples_per_step=3)
        want = [t for i in range(n) for t in np.linspace(traj.breakpoints[i], traj.breakpoints[i + 1], 3)]
        assert len(seen) == math.ceil(n / solver.AUDIT_PIECES) == 3
        assert [ts.size for ts in seen] == [3 * solver.AUDIT_PIECES, 3 * solver.AUDIT_PIECES, 3 * 3]
        assert all(type(ts) is np.ndarray and ts.ndim == 1 and ts.dtype == np.float64 for ts in seen)
        assert np.concatenate(seen).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
    def test_reference_on_blocks_matches_calls_per_time(self, name):
        # the audit's one call per block must give the bits of one call per time
        p = catalog(name)
        for t in p.interval:
            for time in (t, np.float64(t)):
                one = p.reference(time)
                assert one.shape == (p.dim,)
                assert one.tobytes() == p.reference(np.array([t]))[:, 0].tobytes()
        for n in (1, 7, 64, 2 * solver.AUDIT_PIECES + 3):
            traj = solve(p, SolveConfig(n=n))
            for samples in (2, 3, 8):
                blocks = []
                sup_error(traj, lambda ts: blocks.append(ts) or p.reference(ts), samples)
                assert len(blocks) == math.ceil(n / solver.AUDIT_PIECES)
                assert blocks[0][0] == p.interval[0] and blocks[-1][-1] == p.interval[1]
                for ts in blocks:
                    got = p.reference(ts)
                    want = np.stack([p.reference(t) for t in ts], axis=1)
                    assert got.shape == (p.dim, ts.size)
                    assert got.tobytes() == want.tobytes(), (n, samples)

    @pytest.mark.parametrize("n", [4, 2 * solver.AUDIT_PIECES + 3])
    def test_nan_gap_on_one_piece_is_nan(self, n):
        p = catalog("scalar-exponential", r=0)
        traj = solve(p, SolveConfig(n=n))

        def reference(t):  # NaN inside the last piece, which is in the last block, only
            return np.where((1 - 0.5 / n < t) & (t < 1), np.nan, p.reference(t))

        assert math.isfinite(per_piece_sup_error(traj, reference))
        assert math.isnan(sup_error(traj, reference))

    def test_all_nan_reference_is_nan(self):
        traj = solve(catalog("scalar-exponential", r=0), SolveConfig(n=4))
        nan_reference = lambda t: np.full((1,) + np.shape(t), np.nan)
        assert per_piece_sup_error(traj, nan_reference) == 0.0
        assert math.isnan(sup_error(traj, nan_reference))

    @pytest.mark.parametrize("traj", [
        hand_trajectory([[[1.0]], [[1.0], [2.0]]], (0.0, 0.5, 1.0)),  # degrees 0 and 1
        hand_trajectory([[[1.0]], [[1.0, 2.0]]], (0.0, 0.5, 1.0)),  # dims 1 and 2
        hand_trajectory([[[1.0]], [[1.0]]], (0.0, 1.0)),  # two pieces, two breakpoints
        hand_trajectory([], (0.0,)),  # no pieces
        hand_trajectory([[[1.0]], [[1.0]]], (0.0, 0.5, 0.5)),  # a zero-width piece
        hand_trajectory([[[1.0]], [[1.0]]], (1.0, 0.5, 0.0)),  # decreasing
        hand_trajectory([[[1.0]], [[1.0]]], (0.0, np.nan, 1.0)),  # NaN breakpoint
    ], ids=["degree", "dim", "breakpoints", "empty", "repeated", "decreasing", "nan"])
    def test_mixed_or_short_trajectory_rejected(self, traj):
        with pytest.raises(ContractViolationError):
            sup_error(traj, zero_reference)

    @pytest.mark.parametrize("reference", [
        lambda ts: 0.0,  # scalar for a 1-d trajectory
        lambda ts: np.zeros((2, ts.size)),  # two components for one
        lambda ts: np.zeros((ts.size, 1)),  # (m, dim): one row per time
        lambda ts: np.zeros((1, ts.size, 1)),  # an extra axis
        lambda ts: [[0.0 if t < 0.5 else [0.0, 0.0] for t in ts]],  # shape changes along the grid
        lambda ts: [["zero"] * ts.size],  # not numeric
    ], ids=["scalar", "too-long", "2-d", "3-d", "ragged", "text"])
    def test_reference_of_wrong_shape_rejected(self, reference):
        traj = hand_trajectory([[[1.0]]])
        with pytest.raises(ContractViolationError):
            sup_error(traj, reference)

    def test_reference_errors_pass_through(self):
        def reference(ts):
            raise DomainError("time outside the reference's domain")

        with pytest.raises(DomainError):
            sup_error(hand_trajectory([[[1.0]]]), reference)

    def test_samples_per_step_floor(self):
        p = catalog("scalar-exponential", r=0)
        traj = solve(p, SolveConfig(n=2))
        with pytest.raises(ContractViolationError):
            sup_error(traj, p.reference, samples_per_step=1)

    @pytest.mark.parametrize("samples", [0, 2.5, "8", True])
    def test_samples_per_step_must_be_an_integer(self, samples):
        p = catalog("scalar-exponential", r=0)
        traj = solve(p, SolveConfig(n=2))
        with pytest.raises(ContractViolationError):
            sup_error(traj, p.reference, samples_per_step=samples)

    def test_halving_h_quarters_error(self):
        p = catalog("scalar-exponential", r=0)
        errs = {n: sup_error(solve(p, SolveConfig(n=n)), p.reference) for n in (16, 32)}
        ratio = errs[16] / errs[32]
        assert 3.0 <= ratio <= 5.0  # 2^(r+rho+1) = 4 within 25%


ORDER_CASES = [
    ("scalar-exponential", 0, 1.0),
    ("scalar-exponential", 1, 1.0),
    ("scalar-exponential", 2, 1.0),
    ("integration-reduction:cos-pi", 0, 1.0),
    ("integration-reduction:cos-pi", 1, 1.0),
    ("integration-reduction:cos-pi", 2, 1.0),
]


@pytest.mark.parametrize("name,r,rho", ORDER_CASES)
def test_det_exact_convergence_order(name, r, rho):
    """log-log slope of sup_error vs h must sit near r + rho + 1."""
    p = catalog(name, r=r, rho=rho)
    ns = np.array([8, 16, 32, 64, 128])
    errs = np.array([sup_error(solve(p, SolveConfig(n=int(n))), p.reference) for n in ns])
    hs = (p.interval[1] - p.interval[0]) / ns
    slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
    assert r + rho + 0.7 <= slope <= r + rho + 1.5, (name, r, rho, slope)


@pytest.mark.parametrize("mode", ["randomized", "quantum_sim"])
def test_probabilistic_order_bound(mode):
    """sup_error <= 3x the det_exact error at the same n, for >= 90% of seeds."""
    p = catalog("scalar-exponential", r=0)
    n = 16
    base = sup_error(solve(p, SolveConfig(n=n, mode="det_exact")), p.reference)
    bound = 3.0 * base
    hits = 0
    seeds = 200
    for seed in range(seeds):
        traj = solve(p, SolveConfig(n=n, mode=mode, delta=0.1, seed=seed))
        hits += sup_error(traj, p.reference) <= bound
    assert hits / seeds >= 0.9, (mode, hits / seeds)


#: Exact (classical_evals, oracle_queries, repetitions) per mode, by the rule
#: in the CostLedger docstring.  Classical: per step one fetch of f and of
#: each distinct partial, 1 at r = 0 and 1 + 4 + 6 + 8 = 19 for the 2-d
#: problem at r = 3 (the stationary-start check reads f(eta) from step 0's);
#: det_values adds its quadrature points (32 and 4 per step).  Queries: dim per det_exact step, k times the per-call budget
#: per boosted step (16 points or 12 modeled queries at r = 0, k = 19; 6 for
#: both at r = 3, k = 16).
LEDGERS = {
    ("scalar-exponential", 0, 8): {
        "det_exact": (8, 8, 0), "det_values": (264, 0, 0),
        "randomized": (8, 2432, 152), "quantum_sim": (8, 1824, 152)},
    ("integration-reduction:cos-pi", 3, 4): {
        "det_exact": (76, 8, 0), "det_values": (92, 0, 0),
        "randomized": (76, 384, 64), "quantum_sim": (76, 384, 64)},
}


def assert_ledgers(mode):
    for (name, r, n), triples in LEDGERS.items():
        led = solve(catalog(name, r=r), SolveConfig(n=n, mode=mode)).ledger
        assert (led.classical_evals, led.oracle_queries, led.repetitions) == triples[mode], (name, r)


class TestCostAccounting:
    def test_det_exact_charges_one_functional_per_component_per_step(self):
        p = catalog("integration-reduction:cos-pi", r=1)
        traj = solve(p, SolveConfig(n=6, mode="det_exact"))
        assert traj.ledger.oracle_queries == 6 * 2
        assert traj.ledger.repetitions == 0
        assert_ledgers("det_exact")

    def test_det_values_pays_in_classical_evals(self):
        assert_ledgers("det_values")

    def test_boosted_modes_log_repetitions(self):
        p = catalog("scalar-exponential", r=0)
        n = 8
        k = repetitions_for(0.1, n)
        for mode in ("randomized", "quantum_sim"):
            traj = solve(p, SolveConfig(n=n, mode=mode, delta=0.1))
            assert traj.ledger.repetitions == n * k, mode

    def test_randomized_charges_classical_and_queries(self):
        # Classical evaluations pay for the Taylor data only; each run's
        # points are charged once, as oracle queries.
        p = catalog("scalar-exponential", r=0)
        n = 8
        k = repetitions_for(0.1, n)
        per_call = 16  # budget ceil(4 * 8 ** (2/3)): 8 one-node panels + 8 samples
        traj = solve(p, SolveConfig(n=n, mode="randomized"))
        assert traj.ledger.oracle_queries == n * k * per_call == 2432
        assert_ledgers("randomized")

    def test_quantum_queries_are_modeled_budget(self):
        p = catalog("scalar-exponential", r=0)
        n = 8
        k = repetitions_for(0.1, n)
        per_call = math.ceil(4.0 * (1.0 / n) ** (-0.5))
        traj = solve(p, SolveConfig(n=n, mode="quantum_sim"))
        assert traj.ledger.oracle_queries == n * k * per_call
        # the reference quadrature inside the simulator is never charged
        assert_ledgers("quantum_sim")


@pytest.mark.parametrize("mode", ["randomized", "quantum_sim"])
@pytest.mark.parametrize("name,r", [
    ("scalar-exponential", 1),
    ("logistic", 1),
    ("integration-reduction:cos-pi", 3),
])
def test_batched_boosting_matches_per_repetition_runs(mode, name, r):
    """All k repetitions of a step in one oracle call: same states, same ledger."""
    p = catalog(name, r=r)
    configs = [SolveConfig(n=8, mode=mode, seed=seed) for seed in (0, 5, 2 ** 64 - 1)]
    configs.append(SolveConfig(n=8, mode=mode, seed=3, delta=0.49, c=0.01))
    assert repetitions_for(0.49, 8, 0.01) == 1
    for cfg in configs:
        states, ledger = per_repetition_stepper(p, cfg)
        traj = solve(p, cfg)
        np.testing.assert_array_equal(traj.endpoints, states)
        assert traj.ledger == ledger


def fresh_stream(seed, i):
    """Step ``i``'s stream as a new generator.  The key is a uint64 array:
    ``key=[seed, i]`` goes through float64 and so mangles a seed such as
    2**64 - 1 that float64 cannot hold."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))


def draw_mix(gen):
    """Draws that read the 32-bit half store and the 64-bit buffer in turn."""
    return [gen.integers(0, 2 ** 32, size=3, dtype=np.uint32).tobytes(), gen.random(5).tobytes(),
            gen.integers(0, 2 ** 32, size=1, dtype=np.uint32).tobytes(), gen.standard_normal(4).tobytes()]


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)])
def test_rekeyed_stream_equals_a_fresh_generator(seed):
    """The solve's one generator, rekeyed per step, draws what a new
    ``Philox`` keyed by ``(seed, i)`` draws, whatever state the previous
    step left it in: mid-buffer, or holding a spare 32-bit half."""
    oracle = OracleConfig(eps1=0.1, smoothness=(0, 1.0), seed=seed)
    run = solver._Run(ledger=CostLedger(), oracle=oracle, k=1, gen=np.random.Generator(np.random.Philox()))
    for i, leftover in enumerate([lambda g: None, lambda g: g.random(1),
                                  lambda g: g.integers(0, 10, size=3, dtype=np.uint32),
                                  lambda g: g.integers(0, 10, size=1, dtype=np.uint32), draw_mix]):
        gen = run.rng(i)
        assert gen is run.gen
        assert draw_mix(gen) == draw_mix(fresh_stream(seed, i))
        leftover(gen)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
def test_jet_and_per_partial_solves_are_identical(mode, name):
    """A jet built from one oracle call per partial changes nothing: same
    states, pieces and ledger."""
    for r in range(4):
        p = catalog(name, r=r)
        cfg = SolveConfig(n=9, mode=mode, seed=5)
        per_partial = dataclasses.replace(p, jet=per_partial_jet(per_partial_oracle(name), p.dim))
        got, want = solve(p, cfg), solve(per_partial, cfg)
        assert got.endpoints.tobytes() == want.endpoints.tobytes()
        assert [q.coeffs.tobytes() for q in got.pieces] == [q.coeffs.tobytes() for q in want.pieces]
        assert got.ledger == want.ledger


@pytest.mark.parametrize("mode", MODES)
def test_seed_reproducibility(mode):
    p = catalog("scalar-quadratic", r=1)
    cfg = SolveConfig(n=8, mode=mode, seed=1234)
    t1, t2 = solve(p, cfg), solve(p, cfg)
    np.testing.assert_array_equal(t1.endpoints, t2.endpoints)
    for a, b in zip(t1.pieces, t2.pieces):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,r", [("logistic", 1), ("integration-reduction", 3)])
def test_only_boosted_modes_read_the_seed(mode, name, r):
    """The sweep solves a cell of an unboosted mode once for all its seeds,
    which holds only while such a mode reads no seed: at the extreme seeds
    its endpoints, pieces and ledger are identical, and a boosted mode's
    endpoints differ."""
    p = catalog(name, r=r)
    t0, t1 = (solve(p, SolveConfig(n=16, mode=mode, seed=seed)) for seed in (0, 2 ** 64 - 1))
    same = (t0.endpoints.tobytes() == t1.endpoints.tobytes()
            and [a.coeffs.tobytes() for a in t0.pieces] == [b.coeffs.tobytes() for b in t1.pieces]
            and t0.ledger == t1.ledger)
    assert same is (mode not in solver.BOOSTED_MODES)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["scalar-exponential", "logistic"])
def test_general_stepper_specializes_to_modified_euler(mode, name):
    """At r = 0 the stepper is modified Euler, bit for bit."""
    p = catalog(name, r=0)
    for seed in (0, 1, 2, 2 ** 64 - 1):
        cfg = SolveConfig(n=8, mode=mode, seed=seed)
        states = modified_euler(p, cfg)
        traj = solve(p, cfg)
        np.testing.assert_array_equal(traj.endpoints, states)


REFERENCE_CASES = [("logistic", "det_exact"), ("integration-reduction:cos-pi", "quantum_sim")]


def residual_levels(monkeypatch, problem, cfg):
    """Solve, and return each step's count of residual evaluations.

    Only the step's reference integral evaluates the residual in these
    modes (the simulator is handed the reference), once per panel level.
    """
    original = ResidualIntegrand.__call__
    steps, counts = [], {}

    def counted(self, u):
        if id(self) not in counts:
            steps.append(self)
            counts[id(self)] = 0
        counts[id(self)] += 1
        return original(self, u)

    with monkeypatch.context() as m:
        m.setattr(ResidualIntegrand, "__call__", counted)
        solve(problem, cfg)
    return [counts[id(g)] for g in steps]


@pytest.mark.parametrize("name,mode", REFERENCE_CASES)
def test_reference_converges_in_two_levels(monkeypatch, name, mode):
    """At r = 3, n = 256 the residual's rounding noise exceeds 1e-12, and the
    reference stops at the rounding level after the 8- and 16-panel levels."""
    cfg = SolveConfig(n=256, mode=mode, seed=1)
    levels = residual_levels(monkeypatch, catalog(name, r=3), cfg)
    assert len(levels) == cfg.n
    assert max(levels) <= 2


@pytest.mark.parametrize("name,mode", REFERENCE_CASES)
def test_reference_stop_keeps_endpoints_to_rounding(monkeypatch, name, mode):
    """Against a stepper whose references keep the full-depth 1e-12 rule, the
    endpoints move by at most ROUNDING_ULPS ulps of each step's increment
    ``h f(y_i)`` plus one ulp of ``y_i`` per step, and the ledger not at all."""
    p = catalog(name, r=3)
    cfg = SolveConfig(n=256, mode=mode, seed=1)
    fast = solve(p, cfg)
    with monkeypatch.context() as m:
        m.setattr(solver, "reference_tol", lambda scale, f_y: solver.REFERENCE_TOL)
        full = solve(p, cfg)
    h = (p.interval[1] - p.interval[0]) / cfg.n
    f_max = max(np.max(np.abs(eval_rhs(p, y))) for y in fast.endpoints)
    y_max = np.max(np.abs(fast.endpoints))
    bound = cfg.n * np.finfo(float).eps * (solver.ROUNDING_ULPS * h * f_max + y_max)
    assert np.max(np.abs(fast.endpoints - full.endpoints)) <= bound
    assert fast.ledger == full.ledger


def test_max_norms_keep_np_max_bits():
    """The step's max-norms, ``np.maximum.reduce(np.abs(x))``, give the
    bits of ``np.max(np.abs(x))``, NaNs included, and ``reference_tol``
    those of its old body."""
    payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]
    specials = [np.nan, -np.nan, payload, np.inf, -np.inf, 0.0, -0.0, 1e-310, -2.5, 7.0]
    rng = np.random.default_rng(5)
    vectors = [np.array([s]) for s in specials]
    vectors += [rng.choice(specials, size=k) for k in (2, 3, 5) for _ in range(30)]
    for x in vectors:
        norm = np.maximum.reduce(np.abs(x))
        assert np.asarray(norm).tobytes() == np.asarray(np.max(np.abs(x))).tobytes()
        for scale in (1.0, 3.7e12, 0.0):
            with np.errstate(invalid="ignore"):  # the old np.float64 product warned at 0 * inf
                old = max(solver.REFERENCE_TOL,
                          solver.ROUNDING_ULPS * np.finfo(float).eps * scale * float(np.max(np.abs(x))))
            assert np.float64(reference_tol(scale, x)).tobytes() == np.float64(old).tobytes()
