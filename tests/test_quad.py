"""Oracle tests: accuracy contracts, budgets, emission law, boosting, seeding.

Expected integrals come from closed forms (kink family in conftest) or from
the independent composite-Gauss reference there, never from the oracles
themselves.
"""

import dataclasses
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from ivporacle import (
    MODES,
    ContractViolationError,
    IntegralEstimate,
    OracleConfig,
    SolveConfig,
    boost_median,
    catalog,
    catalog_names,
    derive_seed,
    integrate_deterministic,
    integrate_quantum_sim,
    integrate_randomized,
    integrate_reference,
    repetitions_for,
    solve,
)
from ivporacle import quad, solver, taylor
from ivporacle.quad import (REFERENCE_MAX_PANELS, REFERENCE_TOL, _budget, _eval, _gauss_rule, _panel_nodes,
                            _vandermonde_inv, horner, median_of)
from ivporacle.taylor import ResidualIntegrand, build_l, build_w, local_derivatives
from conftest import assert_as_public, make_kink_integrand, reference_integral


def det_cfg(eps1, r=0, rho=1.0, cc=4.0):
    return OracleConfig(eps1=eps1, smoothness=(r, rho), cost_constant=cc)


def rand_cfg(eps1, r=0, rho=1.0, seed=0, cc=4.0):
    return OracleConfig(eps1=eps1, smoothness=(r, rho), seed=seed, cost_constant=cc)


def quant_cfg(eps1, r=0, rho=1.0, seed=0, cc=4.0):
    return OracleConfig(eps1=eps1, smoothness=(r, rho), seed=seed, cost_constant=cc)


class TestEstimateAndConfigContracts:
    def test_estimate_value_read_only_and_1d(self):
        est = IntegralEstimate(value=0.5, queries=3)
        assert est.value.shape == (1,)
        with pytest.raises(ValueError):
            est.value[0] = 1.0

    def test_estimate_keeps_callers_array_writeable(self):
        a = np.array([1.0, 2.0])
        est = IntegralEstimate(a, 1)
        a[0] = 3.0
        assert est.value[0] == 1.0
        assert not est.value.flags.writeable

    def test_estimate_keeps_a_frozen_owner_without_copy(self):
        a = np.array([1.0, 2.0])
        a.setflags(write=False)
        assert IntegralEstimate(a, 1).value is a
        view = a[:1]  # read-only, but its data belongs to another array
        assert IntegralEstimate(view, 1).value is not view

    def test_negative_queries_rejected(self):
        for queries in (-1, 2.5, "3", True, None):
            with pytest.raises(ContractViolationError):
                IntegralEstimate(value=0.0, queries=queries)

    def test_numpy_queries_stored_as_int(self):
        est = IntegralEstimate(value=0.0, queries=np.int64(3))
        assert type(est.queries) is int and est.queries == 3

    @pytest.mark.parametrize("value", [np.zeros((3, 2, 2)), np.zeros((1, 1, 1)), np.zeros((3, 0)),
                                       np.zeros((0, 2)), np.zeros(0), [[]]])
    def test_estimate_refuses_more_than_two_axes_or_an_empty_one(self, value):
        with pytest.raises(ContractViolationError, match="no empty axis"):
            IntegralEstimate(value=value, queries=4)

    @pytest.mark.parametrize("kwargs", [
        dict(eps1=0.0, smoothness=(0, 1.0)),
        dict(eps1=0.1, smoothness=(0, 0.5)),
        dict(eps1=0.1, smoothness=(-1, 1.0)),
        dict(eps1=0.1, smoothness=(0, 1.0), seed=-1),
        dict(eps1=0.1, smoothness=(0, 1.0), seed=2.7),
        dict(eps1=0.1, smoothness=(0, 1.0), seed=True),
        dict(eps1=0.1, smoothness=(0, 1.0), seed="3"),
        dict(eps1=0.1, smoothness=(0, 1.0), seed=2 ** 64),
        dict(eps1=0.1, smoothness=(0, 1.0), cost_constant=0.0),
        dict(eps1=0.1, smoothness=(0, 1.0), cost_constant=math.inf),
        dict(eps1=0.1, smoothness=(0, 1.0), cost_constant=math.nan),
        dict(eps1=0.1, smoothness=(4, 1.0)),
        dict(eps1=0.1, smoothness=(1, 1.0, 2)),
        dict(eps1=math.inf, smoothness=(0, 1.0)),
        dict(eps1=math.nan, smoothness=(0, 1.0)),
        dict(eps1="0.1", smoothness=(0, 1.0)),
        dict(eps1=None, smoothness=(0, 1.0)),
        dict(eps1=True, smoothness=(0, 1.0)),
        dict(eps1=0.1, smoothness=(0, 1.0), cost_constant="4"),
        dict(eps1=0.1, smoothness=(0, 1.0), cost_constant=None),
        dict(eps1=0.1, smoothness=1),
        dict(eps1=0.1, smoothness=None),
        dict(eps1=0.1, smoothness=(1, Fraction(1, 2))),
        dict(eps1=0.1, smoothness=(1.0, 1.0)),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ContractViolationError):
            OracleConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = OracleConfig(eps1=np.float32(0.25), smoothness=(0, 1.0), seed=np.uint64(7),
                           cost_constant=np.int64(4))
        assert cfg.eps1 == 0.25 and cfg.cost_constant == 4 and cfg.seed == 7
        assert (type(cfg.eps1), type(cfg.cost_constant), type(cfg.seed)) == (float, float, int)
        # Stored as a float, a float32 eps1 prices its budget in float64: 4 / eps1 is
        # 40000.001..., not float32's 40000.0.
        eps1 = np.float32(1e-4)
        for value in (eps1, float(eps1)):
            assert integrate_deterministic(lambda u: u, det_cfg(value)).queries == 40_001

    def test_one_config_drives_every_oracle(self, rng):
        # One accuracy contract, three oracles: each meets its own budget
        # formula at the shared eps1, and the randomized ones read its seed.
        g = make_kink_integrand(rng, 1, 1.0, dim=2)
        eps1 = 1e-2
        cfg = OracleConfig(eps1=eps1, smoothness=(1, 1.0), seed=3)
        ref = integrate_reference(g)
        det = integrate_deterministic(g, cfg)
        rand = integrate_randomized(g, cfg)
        quant = integrate_quantum_sim(cfg, reference=ref)
        assert np.max(np.abs(det.value - g.exact)) <= eps1
        assert np.max(np.abs(rand.value - g.exact)) <= 10 * eps1
        assert np.max(np.abs(quant.value - ref)) <= 10 * eps1
        assert det.queries <= math.ceil(4.0 * eps1 ** (-1.0 / 2.0))
        assert rand.queries <= math.ceil(4.0 * eps1 ** (-1.0 / 2.5))
        assert quant.queries == math.ceil(4.0 * eps1 ** (-1.0 / 3.0))
        again = integrate_randomized(g, cfg, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(rand.value, again.value)
        again = integrate_quantum_sim(cfg, reference=ref, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(quant.value, again.value)


class TestDeterministicOracle:
    def test_linear_integrand(self):
        est = integrate_deterministic(lambda u: u, det_cfg(1e-3))
        assert abs(est.value[0] - 0.5) <= 1e-3

    def test_cosine_integrand(self):
        est = integrate_deterministic(lambda u: np.cos(np.pi * u), det_cfg(1e-3))
        assert abs(est.value[0]) <= 1e-3

    def test_three_halves_power(self):
        # closed form 2/5
        est = integrate_deterministic(lambda u: u ** 1.5, det_cfg(1e-4, r=1, rho=0.5))
        assert abs(est.value[0] - 0.4) <= 1e-4

    def test_budget_respected(self):
        for eps1, r, rho in [(1e-2, 0, 1.0), (1e-2, 1, 1.0), (1e-3, 2, 0.5)]:
            est = integrate_deterministic(lambda u: u, det_cfg(eps1, r=r, rho=rho))
            assert est.queries <= math.ceil(4.0 * eps1 ** (-1.0 / (r + rho)))

    def test_seed_irrelevant(self):
        g = lambda u: np.sin(3 * u)
        a = integrate_deterministic(g, det_cfg(1e-2))
        b = integrate_deterministic(g, det_cfg(1e-2))
        np.testing.assert_array_equal(a.value, b.value)

    @pytest.mark.parametrize("r,rho", [(0, 1.0), (1, 1.0), (2, 1.0), (1, 0.5)])
    @pytest.mark.parametrize("eps1", [1e-1, 1e-2, 1e-3])
    def test_class_error_bound(self, rng, r, rho, eps1):
        """Worst observed error over 50 in-class integrands stays within eps1."""
        for _ in range(50):
            g = make_kink_integrand(rng, r, rho)
            est = integrate_deterministic(g, det_cfg(eps1, r=r, rho=rho))
            assert np.max(np.abs(est.value - g.exact)) <= eps1

    def test_vector_integrand_componentwise(self, rng):
        g = make_kink_integrand(rng, 1, 1.0, dim=3)
        est = integrate_deterministic(g, det_cfg(1e-3, r=1))
        assert est.value.shape == (3,)
        np.testing.assert_allclose(est.value, g.exact, atol=1e-3)


class TestRandomizedOracle:
    def test_constant_reproduced_exactly(self):
        for seed in (0, 1, 99):
            est = integrate_randomized(lambda u: np.full_like(u, 2.5), rand_cfg(1e-1, seed=seed))
            assert est.value[0] == pytest.approx(2.5, abs=1e-13)

    def test_polynomials_up_to_r_exact(self):
        est = integrate_randomized(lambda u: u, rand_cfg(1e-1, r=1, seed=5))
        assert est.value[0] == pytest.approx(0.5, abs=1e-12)

    def test_signed_kink_success_frequency(self):
        # odd kink about 1/2 plus identity: exact integral 1/2
        g = lambda u: np.abs(u - 0.5) ** 1.5 * np.sign(u - 0.5) + u
        eps1 = 1e-2
        hits = 0
        for seed in range(200):
            est = integrate_randomized(g, rand_cfg(eps1, seed=seed))
            hits += abs(est.value[0] - 0.5) <= eps1
        assert hits / 200 >= 0.75

    def test_rms_within_target(self, rng):
        eps1 = 1e-2
        for _ in range(10):
            g = make_kink_integrand(rng, 0, 1.0)
            errs = np.array([
                integrate_randomized(g, rand_cfg(eps1, seed=seed)).value[0] - g.exact[0]
                for seed in range(500)
            ])
            assert np.sqrt(np.mean(errs ** 2)) <= eps1

    def test_unbiasedness_via_seed_average(self, rng):
        g = make_kink_integrand(rng, 0, 1.0)
        vals = np.array([integrate_randomized(g, rand_cfg(5e-2, seed=s)).value[0]
                         for s in range(800)])
        # mean over seeds converges to the true integral well below eps1
        assert abs(vals.mean() - g.exact[0]) < 5e-3

    def test_seed_determinism_and_sensitivity(self):
        g = lambda u: np.exp(u)
        a = integrate_randomized(g, rand_cfg(1e-2, seed=11))
        b = integrate_randomized(g, rand_cfg(1e-2, seed=11))
        c = integrate_randomized(g, rand_cfg(1e-2, seed=12))
        np.testing.assert_array_equal(a.value, b.value)
        assert not np.array_equal(a.value, c.value)

    def test_budget_respected(self):
        for eps1, r, rho in [(1e-2, 0, 1.0), (1e-3, 1, 1.0), (1e-2, 2, 0.5)]:
            est = integrate_randomized(lambda u: u, rand_cfg(eps1, r=r, rho=rho))
            budget = math.ceil(4.0 * eps1 ** (-1.0 / (r + rho + 0.5)))
            assert est.queries <= max(budget, r + 2)


def _old_integrate_randomized(g, cfg, rng, k):
    """``integrate_randomized`` as it was before its control variate went
    through ``quad.horner``, kept as an oracle: the same bits are required."""
    runs = 1 if k is None else k
    q = cfg.smoothness[0] + 1
    budget = _budget(cfg, 0.5)
    panels = max(1, budget // (2 * q))
    nsamples = max(1, budget - panels * q)
    vals = _eval(g, _panel_nodes(panels, q))
    vals = vals.reshape(vals.shape[0], panels, q)
    det_part = np.einsum("dpq,q->d", vals, _gauss_rule(q)[1]) / panels
    u = rng.random((runs, nsamples)).reshape(-1)
    idx = np.minimum((u * panels).astype(int), panels - 1)
    xi = u * panels - idx
    coeffs = np.einsum("pq,dkq->dkp", _vandermonde_inv(q), vals)
    local = coeffs[:, idx, :]  # (dim, k * nsamples, q)
    p_at_u = local[:, :, q - 1]
    for m in range(q - 2, -1, -1):
        p_at_u = p_at_u * xi + local[:, :, m]
    resid = _eval(g, u) - p_at_u
    values = (det_part[:, None] + np.mean(resid.reshape(resid.shape[0], runs, nsamples), axis=2)).T
    return values[0] if k is None else values


def _catalog_residual(name, r, h):
    p = catalog(name, r=r)
    w = build_w(p, p.eta)
    return ResidualIntegrand(p, w, build_l(local_derivatives(w, r + 1), p.interval[0]), h)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("integrand", ["residual", "kink"])
def test_control_variate_matches_old_body_bit_for_bit(integrand, k, r):
    """Every control-variate degree, q = 1 included, single and batched."""
    g = (_catalog_residual("integration-reduction", r, 0.3) if integrand == "residual"
         else make_kink_integrand(np.random.default_rng(r), r, 1.0, dim=2))
    for eps1 in (1e-1, 1e-2):
        cfg = rand_cfg(eps1, r=r, seed=4)
        got = integrate_randomized(g, cfg, rng=np.random.default_rng(4), k=k)
        want = _old_integrate_randomized(g, cfg, np.random.default_rng(4), k)
        assert got.value.shape == want.shape and got.value.tobytes() == want.tobytes()


class _Counting:
    """An integrand, or a right-hand side, that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, u):
        self.calls += 1
        return self.fn(u)


def _old_level(g, panels):
    """One level of the reference quadrature, from its own call of ``g``."""
    vals = _eval(g, _panel_nodes(panels, 16))
    vals = vals.reshape(vals.shape[0], panels, 16)
    return np.einsum("dpq,q->d", vals, _gauss_rule(16)[1]) / panels


def _old_integrate_reference(g, tol=REFERENCE_TOL):
    """``integrate_reference`` as it was before its 8- and 16-panel levels
    shared one call of ``g``, kept as an oracle: the same bits are required."""
    prev = _old_level(g, 8)
    panels = 16
    while panels <= REFERENCE_MAX_PANELS:
        cur = _old_level(g, panels)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
        panels *= 2
    return prev


def _old_randomized_estimate(g, cfg, rng=None, k=None):
    """``_old_integrate_randomized`` behind ``integrate_randomized``'s signature and price."""
    price = integrate_randomized(np.zeros_like, cfg, rng=np.random.default_rng(), k=k).queries
    return IntegralEstimate(value=_old_integrate_randomized(g, cfg, rng, k), queries=price)


_REFERENCE_INTEGRANDS = [(name, r) for name in catalog_names() for r in range(4)] + [("kink", 1)]


def _reference_integrand(name, r):
    if name == "kink":
        return make_kink_integrand(np.random.default_rng(9), r, 0.5, dim=2)
    return _catalog_residual(name, r, 0.3)


@pytest.mark.parametrize("name,r", _REFERENCE_INTEGRANDS)
def test_reference_matches_old_body_and_calls_once_per_new_level(name, r):
    """The merged first call returns the old bits at a stop at 16 panels, at
    a later level and at ``REFERENCE_MAX_PANELS``; it calls ``g`` once for
    the first two levels and once per later level."""
    g = _reference_integrand(name, r)
    levels = [_old_level(g, 8 * 2 ** j) for j in range(10)]  # 8, 16, ..., 4096 panels
    gaps = [np.max(np.abs(b - a)) for a, b in zip(levels, levels[1:])]
    # Stop at 16 panels, at the first later level that agrees more closely,
    # and (unless two levels agree exactly) never.
    later = [gap for gap in gaps[1:] if gap < gaps[0]]
    tols = [gaps[0]] + later[:1] + ([min(gaps) / 2] if min(gaps) > 0 else [])
    for tol in (max(tol, 1e-300) for tol in tols):
        stop = next((j for j, gap in enumerate(gaps) if gap <= tol), None)
        counted, old = _Counting(g), _Counting(g)
        got = integrate_reference(counted, tol=tol)
        want = _old_integrate_reference(old, tol=tol)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == levels[9 if stop is None else stop + 1].tobytes()
        assert counted.calls == (9 if stop is None else 1 + stop) == old.calls - 1


def test_reference_call_counts():
    """Each stop the stop rule can make: 16 panels, ``j`` levels later, never."""
    smooth = _Counting(np.exp)
    integrate_reference(smooth)
    assert smooth.calls == 1
    # Its successive levels differ by 1.9e-4, 1.1e-4, 9.2e-6, 7.2e-6, 5.2e-6,
    # 1.4e-6, 1.7e-7, 1.2e-7 and 8.1e-8.
    kink = make_kink_integrand(np.random.default_rng(9), 0, 0.5, dim=2)
    stops = []
    for tol in (1e-3, 1e-5, 1e-6, 1e-8):
        counted = _Counting(kink)
        integrate_reference(counted, tol=tol)
        stops.append(counted.calls)
    assert stops == [1, 3, 7, 9]


def test_nan_gap_keeps_the_reference_going():
    """A NaN gap between levels never passes the stop rule: an integrand that
    is NaN in one component runs to ``REFERENCE_MAX_PANELS`` as the old body
    does, and returns its last level's bits."""
    kink = make_kink_integrand(np.random.default_rng(9), 1, 1.0, dim=2)

    def half_nan(u):
        vals = kink(u)
        vals[1] = np.nan
        return vals

    for tol in (1e-3, 1.0, 1e300):
        counted, old = _Counting(half_nan), _Counting(half_nan)
        got = integrate_reference(counted, tol=tol)
        assert counted.calls == 9 and old.calls == 0
        assert got.tobytes() == _old_integrate_reference(old, tol=tol).tobytes()
        assert np.isfinite(got[0]) and np.isnan(got[1])


def test_oracles_call_the_integrand_once():
    g = make_kink_integrand(np.random.default_rng(3), 1, 1.0, dim=2)
    for r in range(4):
        counted = _Counting(g)
        integrate_deterministic(counted, det_cfg(1e-2, r=r))
        assert counted.calls == 1
        for k in (None, 3):
            counted = _Counting(g)
            integrate_randomized(counted, rand_cfg(1e-2, r=r), k=k)
            assert counted.calls == 1


@pytest.mark.parametrize("oracle", [
    lambda g: integrate_deterministic(g, det_cfg(0.1, r=1)),
    lambda g: integrate_reference(g),
    lambda g: integrate_randomized(g, rand_cfg(0.1, r=1), k=3),
], ids=["deterministic", "reference", "randomized"])
@pytest.mark.parametrize("make", [
    lambda u: np.ones(3),
    lambda u: np.float64(0.5),
    lambda u: np.ones((2, len(u) + 1)),
    lambda u: np.ones((1, 2, len(u))),
], ids=["three-values", "scalar", "one-value-too-many", "3-d"])
def test_oracles_refuse_an_integrand_result_of_the_wrong_shape(oracle, make):
    """A result that is neither ``(m,)`` nor ``(dim, m)`` for the ``m`` nodes passed is a
    ContractViolationError that names both shapes, not a reshape error deep inside."""
    calls = []

    def g(u):
        out = make(u)
        calls.append((len(u), np.shape(out)))
        return out

    with pytest.raises(ContractViolationError) as info:
        oracle(g)
    (m, got), = calls
    assert f"map {m} nodes to shape ({m},) or (dim, {m}), got {got}" in str(info.value)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("mode", MODES)
def test_solve_calls_f_once_per_step(monkeypatch, mode, name, r):
    """Every mode calls ``f`` once per step, and the old two-call oracles
    give the same endpoints and the same ledger."""
    n = 8
    problem = catalog(name, r=r)
    counted = _Counting(problem.f)
    traj = solve(dataclasses.replace(problem, f=counted), SolveConfig(n=n, mode=mode, seed=2))
    assert counted.calls == n
    monkeypatch.setattr(solver, "integrate_reference", _old_integrate_reference)
    monkeypatch.setattr(solver, "quantum_reference", _old_integrate_reference)
    monkeypatch.setattr(solver, "integrate_randomized", _old_randomized_estimate)
    counted = _Counting(problem.f)
    old = solve(dataclasses.replace(problem, f=counted), SolveConfig(n=n, mode=mode, seed=2))
    assert counted.calls == (n if mode == "det_values" else 2 * n)
    assert traj.endpoints.tobytes() == old.endpoints.tobytes()
    assert dataclasses.astuple(traj.ledger) == dataclasses.astuple(old.ledger)


@pytest.mark.parametrize("shape,s", [
    ((1,), np.linspace(0.0, 1.0, 5)),
    ((2, 1), np.linspace(-1.0, 1.0, 7)),
    ((3, 1), np.zeros((0,))),
    ((2, 4, 1), np.full(3, 0.5)),
    ((2, 1, 3), np.zeros((2, 4, 3))),
])
def test_horner_degree_zero_matches_ones_product(shape, s):
    """Degree 0 is ``c[0] * np.ones_like(s)`` in bits: -0.0 and NaNs of
    either sign and any payload included."""
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, 1.5, -2.0, np.inf])
    specials = np.concatenate([specials, np.frombuffer(np.uint64(0xFFF8_0000_0000_1234).tobytes(), float)])
    c = np.resize(specials, shape)[None]
    want = c[0] * np.ones_like(s)
    got = horner(c, s)
    assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_einsum_is_the_c_kernel_np_einsum_calls():
    """The step kernels call the function ``np.einsum`` forwards to when
    ``optimize=False``, so they keep its bits."""
    assert quad._einsum is np.einsum._implementation.__globals__["c_einsum"]
    assert taylor._einsum is quad._einsum


class TestQuantumSimOracle:
    def test_query_budget_formula(self):
        est = integrate_quantum_sim(quant_cfg(1e-2, cc=1.0), reference=np.array([0.5]))
        assert est.queries == 10  # ceil(100 ** 0.5)

    def test_emission_band_frequency(self):
        eps1 = 1e-2
        ref = np.array([0.5])
        hits = 0
        trials = 2000
        for seed in range(trials):
            est = integrate_quantum_sim(quant_cfg(eps1, seed=seed), reference=ref)
            hits += abs(est.value[0] - 0.5) <= eps1
        assert 0.72 <= hits / trials <= 0.78

    def test_outlier_branch_bounded_and_disjoint(self):
        eps1 = 1e-2
        ref = np.array([0.0])
        outliers = []
        for seed in range(3000):
            v = integrate_quantum_sim(quant_cfg(eps1, seed=seed), reference=ref).value[0]
            assert abs(v) <= 10 * eps1
            if abs(v) > eps1:
                outliers.append(v)
        # roughly a quarter of emissions, never past the 10 eps1 band
        assert 0.20 <= len(outliers) / 3000 <= 0.30
        assert min(np.abs(outliers)) > eps1

    def test_zero_integrand_reference_is_zero(self):
        g = lambda u: 0.0 * u
        est = integrate_quantum_sim(quant_cfg(1e-2, seed=4), reference=integrate_reference(g))
        assert abs(est.value[0]) <= 10 * 1e-2

    def test_emission_matches_scalar_generator_draws(self):
        # The law drawn value by value with Generator.random/uniform, as a
        # reference for the oracle's block of draws.  At dim 1 the band,
        # noise and sign draws are the stream in order.  At dim 2 component
        # j reads slots 3j, 3j+1 and 3j+2 as band, noise and sign, whether or
        # not it is an outlier.
        eps1 = 1e-2

        def emit(ref_j, band, unit, sign):
            if band < 0.75:
                return ref_j + (-eps1 + (eps1 - -eps1) * unit)
            magnitude = eps1 + (10.0 * eps1 - eps1) * unit
            return ref_j + (magnitude if sign < 0.5 else -magnitude)

        ref1, ref2 = np.array([0.3]), np.array([0.3, -1.7])
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            if rng.random() < 0.75:
                noise = rng.uniform(-eps1, eps1)
            else:
                magnitude = rng.uniform(eps1, 10.0 * eps1)
                noise = magnitude if rng.random() < 0.5 else -magnitude
            est = integrate_quantum_sim(quant_cfg(eps1, seed=seed), reference=ref1)
            np.testing.assert_array_equal(est.value, ref1 + noise)

            slots = np.random.default_rng(seed).random(6).tolist()
            expected = [emit(ref2[j], *slots[3 * j:3 * j + 3]) for j in range(2)]
            est = integrate_quantum_sim(quant_cfg(eps1, seed=seed), reference=ref2)
            np.testing.assert_array_equal(est.value, expected)

    def test_seed_determinism(self):
        g = lambda u: u ** 2
        a = integrate_quantum_sim(quant_cfg(1e-2, seed=8), reference=integrate_reference(g))
        b = integrate_quantum_sim(quant_cfg(1e-2, seed=8), reference=integrate_reference(g))
        np.testing.assert_array_equal(a.value, b.value)

    def test_components_draw_independently(self, rng):
        g = make_kink_integrand(rng, 0, 1.0, dim=2)
        ref = reference_integral(g)
        in_band = np.zeros(2)
        for seed in range(1000):
            est = integrate_quantum_sim(quant_cfg(1e-2, seed=seed), reference=ref)
            in_band += np.abs(est.value - ref) <= 1e-2
        assert np.all(in_band / 1000 >= 0.68) and np.all(in_band / 1000 <= 0.82)


def _old_integrate_quantum_sim(cfg, reference, rng, k):
    """The simulator's values as its per-run, per-component loop of Python
    floats computed them: the bit-for-bit oracle of the array form."""
    reference = np.asarray(reference, dtype=float).reshape(-1).tolist()
    eps = cfg.eps1
    values = []
    for run in rng.random((k, len(reference), 3)).tolist():
        value = []
        for ref_j, (band, unit, sign) in zip(reference, run):
            if band < 0.75:
                noise = -eps + (eps - -eps) * unit
            else:
                magnitude = eps + (10.0 * eps - eps) * unit
                noise = magnitude if sign < 0.5 else -magnitude
            value.append(ref_j + noise)
        values.append(value)
    return np.array(values)


@pytest.mark.parametrize("reference", [np.zeros((2, 2)), np.zeros(0), [[0.5]], "0.5", True, 1 + 2j,
                                       np.array([1 + 0j]), np.array([None])])
def test_quantum_sim_refuses_a_reference_that_is_not_a_real_vector(reference):
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ContractViolationError, match="reference must be"):
        integrate_quantum_sim(quant_cfg(1e-2), reference, rng=rng, k=3)
    assert rng.bit_generator.state == state  # refused before any draw


def test_quantum_sim_accepts_a_real_number_or_vector():
    for reference in (0.5, np.float32(0.5), 2, np.int64(-3), np.array(0.5), [0.25, -1], np.arange(3)):
        est = integrate_quantum_sim(quant_cfg(1e-2), reference, k=2)
        assert est.value.shape == (2, np.size(reference))


@pytest.mark.parametrize("k", [1, 2, 3, 34])
def test_a_quantum_sim_step_reads_its_median_off_the_noise(monkeypatch, k):
    """``fl(ref + x)`` is monotone in ``x``, so a quantum_sim step's rule on the
    reference plus the noise's middle pair is ``median_of`` of the reference
    plus all its runs' noise, bit for bit: ties that rounding makes at
    ``ref = 1e16``, the signed zeros of ``ref = -noise_j``, +-inf, and NaNs of
    either sign and another payload."""
    gen = np.random.default_rng(29)
    payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]
    eps = 0.7
    for trial in range(200):
        dim = int(gen.integers(1, 4))
        noise = quad._noise(eps, gen.random((k, dim, 3)))
        if trial % 4 == 0:  # exact noise values, repeated, and zeros
            noise = gen.choice([0.0, 0.5, -0.5, 1.0, -1.0, eps, -eps], size=(k, dim))
        reference = gen.normal(size=dim) * 10.0 ** gen.integers(-3, 4)
        picks = gen.integers(0, 6, size=dim)
        reference[picks == 1] = 1e16
        reference[picks == 2] = -noise[gen.integers(0, k, size=dim), np.arange(dim)][picks == 2]
        specials = gen.choice([math.inf, -math.inf, math.nan, -math.nan, payload_nan], size=dim)
        reference[picks == 3] = specials[picks == 3]
        with np.errstate(invalid="ignore"):
            want = median_of(IntegralEstimate(reference + noise, queries=7))
        lo, hi, _ = quad._middle(noise.copy())
        g = types.SimpleNamespace(scale=1.0, w=types.SimpleNamespace(tensors=[np.ones(dim)]))
        monkeypatch.setattr(solver, "quantum_reference", lambda g, tol: reference)
        ledger = solver.CostLedger()
        run = solver._Run(ledger=ledger, oracle=quant_cfg(eps), k=k, gen=None, noise=iter([(lo, hi)]))
        with np.errstate(invalid="ignore"):
            got = solver._quantum_sim(g, 0, run)
        assert got.tobytes() == want.value.tobytes(), (reference, noise)
        assert (ledger.oracle_queries, ledger.repetitions) == (k * _budget(quant_cfg(eps), 1.0), k)


def test_quantum_sim_matches_old_loop_bit_for_bit():
    fuzz = np.random.default_rng(21)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 0.3]
    for _ in range(300):
        k, dim = int(fuzz.integers(1, 42)), int(fuzz.integers(1, 4))
        eps1 = float(10.0 ** fuzz.uniform(-300, 3))
        reference = np.where(fuzz.random(dim) < 0.5, fuzz.choice(specials, dim), fuzz.normal(0, 10, dim))
        cfg = quant_cfg(eps1, r=int(fuzz.integers(0, 4)))
        seed = int(fuzz.integers(2 ** 63))
        want = _old_integrate_quantum_sim(cfg, reference, np.random.default_rng(seed), k)
        got = integrate_quantum_sim(cfg, reference, rng=np.random.default_rng(seed), k=k)
        assert got.value.tobytes() == want.tobytes(), (k, dim, eps1, reference)
        one = integrate_quantum_sim(cfg, reference, rng=np.random.default_rng(seed))
        assert one.value.tobytes() == want[0].tobytes()
    # a single run on the config's own generator
    cfg = quant_cfg(1e-2, seed=99)
    want = _old_integrate_quantum_sim(cfg, [0.25, -1.0], np.random.default_rng(99), 1)
    assert integrate_quantum_sim(cfg, [0.25, -1.0]).value.tobytes() == want[0].tobytes()


@pytest.mark.parametrize("k", [None, 1, 5])
def test_oracle_estimates_match_the_public_constructor(k):
    """Each oracle builds its estimate unchecked, single run included: the same one the
    public constructor makes, read-only, owning its data, sharing none with its inputs."""
    g = _catalog_residual("integration-reduction", 2, 0.3)
    reference = integrate_reference(g)
    for est in (integrate_randomized(g, rand_cfg(1e-2, r=2), rng=np.random.default_rng(3), k=k),
                integrate_quantum_sim(quant_cfg(1e-2, r=2), reference, rng=np.random.default_rng(3), k=k)):
        assert est.value.shape == ((2,) if k is None else (k, 2))
        assert_as_public(est, reference)
    assert_as_public(integrate_deterministic(g, det_cfg(1e-2, r=2)))


def on_integrand(oracle, g):
    """``oracle`` as a function of ``(cfg, **kwargs)`` on ``g``; the simulator
    is given ``g``'s integral in place of ``g``."""
    if oracle is integrate_quantum_sim:
        ref = integrate_reference(g)
        return lambda cfg, **kwargs: oracle(cfg, reference=ref, **kwargs)
    return lambda cfg, **kwargs: oracle(g, cfg, **kwargs)


class TestBatchedRuns:
    @pytest.mark.parametrize("oracle,make_cfg", [
        (integrate_randomized, rand_cfg),
        (integrate_quantum_sim, quant_cfg),
    ])
    def test_batch_equals_single_calls(self, rng, oracle, make_cfg):
        # k runs from one generator equal k successive single calls on a
        # generator in the same state.
        g = make_kink_integrand(rng, 1, 1.0, dim=2)
        cfg = make_cfg(1e-2, r=1)
        stream = lambda: np.random.Generator(np.random.Philox(key=np.array([5, 3], dtype=np.uint64)))
        call = on_integrand(oracle, g)
        batch = call(cfg, rng=stream(), k=6)
        gen = stream()
        singles = [call(cfg, rng=gen) for _ in range(6)]
        assert batch.value.shape == (6, 2)
        np.testing.assert_array_equal(batch.value, np.stack([e.value for e in singles]))
        assert batch.queries == 6 * singles[0].queries
        boosted = boost_median(lambda j: singles[j], 6)
        np.testing.assert_array_equal(median_of(batch).value, boosted.value)
        assert median_of(batch).queries == boosted.queries

    @pytest.mark.parametrize("oracle,make_cfg", [
        (integrate_randomized, rand_cfg),
        (integrate_quantum_sim, quant_cfg),
    ])
    def test_empty_batch_rejected(self, oracle, make_cfg):
        call = on_integrand(oracle, lambda u: u)
        for k in (0, -1, 2.5, np.int64(0)):
            with pytest.raises(ContractViolationError):
                call(make_cfg(1e-2), k=k)

    @pytest.mark.parametrize("oracle,make_cfg", [
        (integrate_randomized, rand_cfg),
        (integrate_quantum_sim, quant_cfg),
    ])
    def test_default_generator_is_config_seed(self, rng, oracle, make_cfg):
        g = make_kink_integrand(rng, 1, 1.0, dim=2)
        cfg = make_cfg(1e-2, r=1, seed=77)
        call = on_integrand(oracle, g)
        for k in (None, 4, np.int64(4)):
            default = call(cfg, k=k)
            explicit = call(cfg, rng=np.random.default_rng(77), k=k)
            np.testing.assert_array_equal(default.value, explicit.value)
            assert default.queries == explicit.queries


class TestReferenceQuadratures:
    def test_panel_doubling_hits_tolerance(self):
        val = integrate_reference(lambda u: np.exp(u), tol=1e-13)
        assert abs(val[0] - (np.e - 1.0)) < 1e-12

    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0),
        dict(tol=-1e-12),
        dict(tol=math.nan),
        dict(tol=math.inf),
        dict(tol="1e-9"),
        dict(tol=None),
    ])
    def test_reference_validation(self, kwargs):
        with pytest.raises(ContractViolationError):
            integrate_reference(lambda u: np.exp(u), **kwargs)

    @pytest.mark.parametrize("panels,q", [(1, 1), (3, 2), (8, 16), (4096, 16), (341, 3)])
    def test_panel_nodes_cached_read_only_and_exact(self, panels, q):
        """The cached nodes are the bits of the uncached formula, shared and
        read-only, like every other cached rule array."""
        nodes_ref, weights = _gauss_rule(q)
        starts = np.arange(panels, dtype=float)
        want = ((starts[:, None] + nodes_ref[None, :]) / panels).reshape(-1)
        nodes = _panel_nodes(panels, q)
        assert nodes.tobytes() == want.tobytes() and nodes.shape == want.shape
        assert _panel_nodes(panels, q) is nodes
        for cached in (nodes, nodes_ref, weights, _vandermonde_inv(q)):
            with pytest.raises(ValueError):
                cached[0] = 0.5

    def test_integrate_reference_matches_independent_quadrature(self, rng):
        g = make_kink_integrand(rng, 1, 1.0, dim=2)
        np.testing.assert_allclose(integrate_reference(g), reference_integral(g), atol=1e-9)
        np.testing.assert_allclose(integrate_reference(g), g.exact, atol=1e-9)


class TestBoostMedian:
    def test_median_of_three(self):
        vals = iter([0.4, 0.9, 0.5])
        run = lambda j: IntegralEstimate(value=next(vals), queries=2)
        est = boost_median(run, 3)
        assert est.value[0] == 0.5
        assert est.queries == 6
        vals = iter([0.4, 0.9, 0.5])
        again = boost_median(run, np.int64(3))
        assert (again.value[0], again.queries) == (0.5, 6)

    def test_k1_is_identity(self):
        run = lambda j: IntegralEstimate(value=0.7, queries=5)
        est = boost_median(run, 1)
        assert est.value[0] == 0.7
        assert est.queries == 5

    @pytest.mark.parametrize("k", [0, -2, True, np.int64(0)])
    def test_invalid_k(self, k):
        with pytest.raises(ContractViolationError):
            boost_median(lambda j: None, k)

    @pytest.mark.parametrize("value", [np.zeros((0, 2)), np.zeros(0)])
    def test_median_of_refuses_an_empty_batch(self, value):
        # the estimate's constructor refuses it, before median_of sees it
        with pytest.raises(ContractViolationError, match="no empty axis"):
            median_of(IntegralEstimate(value=value, queries=0))

    def test_median_of_equals_numpy_median(self):
        """Seeded fuzz against ``np.median``, the old body, kept as the
        oracle: same bytes at k = 1..41, dim 1..3, with NaNs of either sign
        and another payload, +-inf, +-0.0 and values whose sum overflows
        mixed in."""
        gen = np.random.default_rng(2026)
        payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]
        specials = np.array([np.nan, -np.nan, payload_nan, np.inf, -np.inf, 0.0, -0.0,
                             1e308, -1e308, 1.0, 5e-324])
        for _ in range(500):
            for k in range(1, 42):
                dim = int(gen.integers(1, 4))
                value = gen.normal(size=(k, dim))
                pick = gen.random((k, dim)) < gen.random()
                value[pick] = gen.choice(specials, size=int(pick.sum()))
                # inf + -inf and 1e308 + 1e308 warn in both
                with np.errstate(invalid="ignore", over="ignore"):
                    want = np.median(value, axis=0)
                    got = median_of(IntegralEstimate(value=value, queries=k))
                assert got.value.tobytes() == want.tobytes(), value
                assert got.queries == k
        # one component's runs as a 1-d batch: its (1,) median
        value = np.array([0.5, np.nan, 2.0, -1.0])
        want = np.median(value[:, None], axis=0)
        assert median_of(IntegralEstimate(value=value, queries=4)).value.tobytes() == want.tobytes()

    def test_median_of_matches_the_public_constructor(self):
        gen = np.random.default_rng(5)
        for value in (gen.normal(size=(5, 2)), np.array([[1.0, np.nan], [3.0, 0.0]]), gen.normal(size=4)):
            batch = IntegralEstimate(value=value, queries=4)
            assert_as_public(median_of(batch), value, batch.value)

    def test_runs_receive_their_index(self):
        seen = []
        def run(j):
            seen.append(j)
            return IntegralEstimate(value=float(j), queries=1)
        boost_median(run, 5)
        assert seen == [0, 1, 2, 3, 4]

    def test_quantum_boosting_suppresses_outliers(self):
        # k=15 lifts a 3/4 per-run rate into the high nineties
        eps1 = 1e-2
        ref = np.array([0.5])
        success = 0
        trials = 1000
        for trial in range(trials):
            est = boost_median(
                lambda j: integrate_quantum_sim(
                    quant_cfg(eps1, seed=derive_seed(trial, j)), reference=ref),
                15,
            )
            success += abs(est.value[0] - 0.5) <= eps1
        assert success / trials >= 0.99


class TestRepetitionsFor:
    def test_single_step_quarter_delta(self):
        assert repetitions_for(0.25, 1) == 6

    def test_sixteen_steps_quarter_delta(self):
        assert repetitions_for(0.25, 16) == 18

    def test_floor_at_one(self):
        assert repetitions_for(0.49, 1, c=0.01) == 1

    def test_monotone_in_n_and_delta(self):
        ks_n = [repetitions_for(0.1, n) for n in (1, 4, 16, 64, 256)]
        assert ks_n == sorted(ks_n)
        ks_d = [repetitions_for(d, 16) for d in (0.4, 0.2, 0.1, 0.01)]
        assert ks_d == sorted(ks_d)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.7, -0.1, "0.1", None, True])
    def test_delta_domain(self, delta):
        with pytest.raises(ContractViolationError):
            repetitions_for(delta, 4)

    def test_n_and_c_domains(self):
        for n in (0, True, np.int64(0)):
            with pytest.raises(ContractViolationError):
                repetitions_for(0.1, n)
        assert repetitions_for(0.1, np.int64(8)) == repetitions_for(0.1, 8)
        # a float32 delta is computed with as a float: in float32 arithmetic this k is 69
        delta = np.float32(0.01)
        assert repetitions_for(delta, 100_000) == repetitions_for(float(delta), 100_000) == 70
        for c in (0.0, math.inf, math.nan, "3", None, True):
            with pytest.raises(ContractViolationError):
                repetitions_for(0.1, 4, c=c)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)

    def test_path_sensitivity(self):
        seeds = {derive_seed(42, i, j) for i in range(8) for j in range(8)}
        assert len(seeds) == 64

    def test_range(self):
        s = derive_seed(2 ** 63, 999)
        assert 0 <= s < 2 ** 64

    @pytest.mark.parametrize("base,path", [
        (-1, (2,)), (1.5, ()), (True, ()), ("1", ()), (2 ** 64, ()), (None, ()),
        (1, (-1,)), (1, (0.5,)), (1, (True,)), (1, ("2",)),
    ])
    def test_bad_base_or_path_rejected(self, base, path):
        with pytest.raises(ContractViolationError):
            derive_seed(base, *path)

    def test_numpy_integers_accepted(self):
        assert derive_seed(np.uint64(42), np.int64(3)) == derive_seed(42, 3)


def test_simultaneous_boosted_success_rate(rng):
    """n boosted calls must all land inside eps1 with frequency >= 1 - delta."""
    n, delta, eps1 = 8, 0.1, 1e-2
    k = repetitions_for(delta, n)
    ref = np.array([0.25])
    ok = 0
    trials = 200
    for trial in range(trials):
        all_in = True
        for step in range(n):
            est = boost_median(
                lambda j: integrate_quantum_sim(
                    quant_cfg(eps1, seed=derive_seed(9000 + trial, step, j)),
                    reference=ref),
                k,
            )
            if abs(est.value[0] - 0.25) > eps1:
                all_in = False
                break
        ok += all_in
    assert ok / trials >= 1.0 - delta
