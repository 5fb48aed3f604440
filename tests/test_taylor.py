"""Taylor-layer tests: local derivatives, pieces, maps, step integral, residual.

The load-bearing property here is the step identity: the exactly-integrated
Taylor part plus the rescaled residual integral reproduces the exact integral
of f along the piece.  Everything else in the solver leans on that algebra.
"""

import itertools
import math

import numpy as np
import pytest

from ivporacle import (
    ContractViolationError,
    CostLedger,
    TaylorMap,
    VecPolynomial,
    build_l,
    build_w,
    catalog,
    eval_rhs,
    integrate_w_of_l,
    local_derivatives,
    residual,
)
from conftest import reference_integral


class TestVecPolynomial:
    def test_eval_offset_scalar_and_batch(self):
        p = VecPolynomial(center=2.0, coeffs=np.array([[1.0], [3.0], [0.5]]))
        assert p.eval_offset(0.0) == pytest.approx([1.0])
        # 1 + 3*0.2 + 0.5*0.04 at t = 2.2
        assert p(2.2)[0] == pytest.approx(1.62)
        batch = p.eval_offset(np.array([0.0, 1.0]))
        assert batch.shape == (1, 2)
        np.testing.assert_allclose(batch[:, 1], [4.5])

    def test_degree_and_dim(self):
        p = VecPolynomial(center=0.0, coeffs=np.zeros((4, 3)))
        assert p.degree == 3
        assert p.dim == 3

    def test_coeffs_read_only(self):
        p = VecPolynomial(center=0.0, coeffs=np.ones((2, 1)))
        with pytest.raises(ValueError):
            p.coeffs[0, 0] = 2.0

    def test_bad_coeff_shape(self):
        with pytest.raises(ContractViolationError):
            VecPolynomial(center=0.0, coeffs=np.ones(3))


class TestLocalDerivatives:
    def test_linear_rhs_all_derivatives_equal(self):
        p = catalog("scalar-exponential", r=1, eta=2.0)
        derivs = local_derivatives(build_w(p, np.array([2.0])), 2)
        np.testing.assert_allclose(np.concatenate(derivs), [2.0, 2.0, 2.0])

    def test_quadratic_rhs_hand_recurrence(self):
        # z' = z^2 at z = 1: z'' = 2 z z' = 2
        p = catalog("scalar-quadratic", r=1)
        derivs = local_derivatives(build_w(p, np.array([1.0])), 2)
        np.testing.assert_allclose(np.concatenate(derivs), [1.0, 1.0, 2.0])

    def test_quadratic_rhs_factorial_chain(self):
        # exact solution 1/(1-t) has k-th derivative k! at t=0
        p = catalog("scalar-quadratic", r=3)
        derivs = local_derivatives(build_w(p, np.array([1.0])), 4)
        np.testing.assert_allclose(np.concatenate(derivs), [1.0, 1.0, 2.0, 6.0, 24.0])

    def test_two_dimensional_chain(self):
        # u' = 1, v' = cos(pi u) at u = 0.25: higher v-derivatives walk the
        # cos/sin ladder with pi factors
        p = catalog("integration-reduction:cos-pi", r=3, eta=(0.25, 0.0))
        derivs = local_derivatives(build_w(p, p.eta), 4)
        s2 = np.sqrt(2.0) / 2.0
        pi = np.pi
        expected = [
            [0.25, 0.0],
            [1.0, s2],
            [0.0, -pi * s2],
            [0.0, -pi ** 2 * s2],
            [0.0, pi ** 3 * s2],
        ]
        for got, want in zip(derivs, expected):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_upto_zero_returns_point(self):
        p = catalog("logistic")
        derivs = local_derivatives(build_w(p, np.array([0.3])), 0)
        assert len(derivs) == 1
        np.testing.assert_allclose(derivs[0], [0.3])

    def test_upto_beyond_r_plus_one_rejected(self):
        p = catalog("scalar-exponential", r=1)
        with pytest.raises(ContractViolationError):
            local_derivatives(build_w(p, np.array([1.0])), 3)

    def test_each_partial_fetched_once(self):
        # dim 1, r 2: build_w fetches one f value, one f', one f''; the
        # derivatives are read off the map without a further fetch
        p = catalog("scalar-quadratic", r=2)
        ledger = CostLedger()
        w = build_w(p, np.array([1.0]), ledger)
        assert ledger.classical_evals == 3
        local_derivatives(w, 3)
        assert ledger.classical_evals == 3


class TestBuildL:
    def test_taylor_assembly(self):
        l = build_l([np.array([1.0]), np.array([1.0]), np.array([1.0])], x_i=0.5)
        np.testing.assert_allclose(l.coeffs[:, 0], [1.0, 1.0, 0.5])
        assert l.center == 0.5
        assert l(0.5)[0] == 1.0

    def test_constant_rhs_gives_line(self):
        l = build_l([np.array([2.0]), np.array([3.0]), np.array([0.0])], x_i=0.0)
        assert l(1.0)[0] == pytest.approx(5.0)

    def test_zero_derivs_give_zero_polynomial(self):
        l = build_l([np.zeros(2), np.zeros(2), np.zeros(2)], x_i=0.0)
        np.testing.assert_array_equal(l.coeffs, np.zeros((3, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            build_l([], x_i=0.0)


class TestBuildW:
    def test_order_zero_is_constant_f(self):
        p = catalog("scalar-exponential", r=0)
        w = build_w(p, np.array([1.0]))
        assert w.order == 0
        assert w(np.array([5.0]))[0] == 1.0

    def test_linear_rhs_reproduced_exactly(self):
        p = catalog("scalar-exponential", r=1)
        w = build_w(p, np.array([1.0]))
        for y in [0.0, 1.0, 3.7]:
            assert w(np.array([y]))[0] == pytest.approx(y)

    def test_first_order_expansion_of_square(self):
        # f(z) = z^2 about 1: w(y) = 1 + 2 (y - 1)
        p = catalog("scalar-quadratic", r=1)
        w = build_w(p, np.array([1.0]))
        assert w(np.array([1.3]))[0] == pytest.approx(1.6)

    def test_center_value_matches_f_exactly(self):
        for name, r in [("logistic", 2), ("scalar-quadratic", 3), ("integration-reduction", 2)]:
            p = catalog(name, r=r)
            y = p.eta + 0.05
            w = build_w(p, y)
            np.testing.assert_array_equal(w(y), eval_rhs(p, y))

    def test_caller_state_stays_writable_and_is_not_aliased(self):
        y = np.array([0.3])
        w = build_w(catalog("logistic", r=1), y)
        y[0] = 0.4
        assert w.center[0] == 0.3
        with pytest.raises(ValueError):
            w.center[0] = 0.5

    def test_batch_evaluation_matches_loop(self):
        p = catalog("scalar-quadratic", r=2)
        w = build_w(p, np.array([1.2]))
        ys = np.linspace(0.8, 1.6, 6)[None, :]
        batch = w(ys)
        single = np.stack([w(ys[:, j]) for j in range(6)], axis=1)
        np.testing.assert_array_equal(batch, single)


class TestIntegrateWofL:
    def test_constant_map_times_length(self):
        w = TaylorMap(center=np.array([1.0]), tensors=(np.array([1.0]),))
        l = build_l([np.array([7.0]), np.array([1.0])], x_i=0.0)
        assert integrate_w_of_l(w, l, 0.1)[0] == pytest.approx(0.1)

    def test_identity_map_quadratic_piece(self):
        w = TaylorMap(center=np.array([1.0]), tensors=(np.array([1.0]), np.eye(1)))
        l = build_l([np.array([1.0]), np.array([1.0]), np.array([1.0])], x_i=0.0)
        got = integrate_w_of_l(w, l, 0.1)[0]
        assert got == pytest.approx(0.10516666666666667, abs=1e-16)

    def test_zero_piece_zero_integral(self):
        w = TaylorMap(center=np.array([0.0]), tensors=(np.array([0.0]), np.eye(1)))
        l = build_l([np.zeros(1), np.zeros(1)], x_i=0.0)
        assert integrate_w_of_l(w, l, 0.3)[0] == 0.0

    def test_empty_interval_rejected(self):
        w = TaylorMap(center=np.array([0.0]), tensors=(np.array([1.0]),))
        l = build_l([np.zeros(1)], x_i=0.0)
        for h in (0.0, -0.1, math.nan):
            with pytest.raises(ContractViolationError):
                integrate_w_of_l(w, l, h)

    @pytest.mark.parametrize("name,r", [("scalar-quadratic", 2), ("logistic", 2),
                                        ("integration-reduction:cos-pi", 3)])
    def test_matches_reference_quadrature(self, name, r):
        """The few-node Gauss rule must agree with brute-force quadrature of w(l(t))."""
        p = catalog(name, r=r)
        y = p.eta + 0.1
        x_i, h = p.interval[0], 0.37
        w = build_w(p, y)
        l = build_l(local_derivatives(w, r + 1), x_i)
        exact = integrate_w_of_l(w, l, h)
        brute = h * reference_integral(lambda u: w(l.eval_offset(u * h)))
        np.testing.assert_allclose(exact, brute, atol=1e-13)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_full_degree_random_map(self, r, dim):
        """A dense map and piece make w(l(t)) reach its full degree r(r+1)."""
        rng = np.random.default_rng(1000 * r + dim)
        center = rng.uniform(-1.0, 1.0, dim)
        tensors = [rng.uniform(-1.0, 1.0, dim)]
        for j in range(1, r + 1):
            t = rng.uniform(-1.0, 1.0, (dim,) * (j + 1))
            perms = list(itertools.permutations(range(1, j + 1)))
            tensors.append(sum(np.transpose(t, (0,) + p) for p in perms) / len(perms))
        w = TaylorMap(center=center, tensors=tuple(tensors))
        coeffs = rng.uniform(-1.0, 1.0, (r + 2, dim))
        coeffs[0] = center
        l = VecPolynomial(center=0.3, coeffs=coeffs)
        h = 0.9
        brute = h * reference_integral(lambda u: w(l.eval_offset(u * h)))
        np.testing.assert_allclose(integrate_w_of_l(w, l, h), brute, rtol=1e-13, atol=0.0)


class TestResidual:
    def test_scaled_gap_is_identity_for_linear_f_at_r0(self):
        p = catalog("scalar-exponential", r=0)
        y = np.array([1.0])
        w = build_w(p, y)
        l = build_l(local_derivatives(w, 1), 0.0)
        g = residual(p, w, l, 0.25)
        np.testing.assert_allclose(g(np.array([0.0, 0.25, 1.0]))[0], [0.0, 0.25, 1.0], atol=1e-15)

    @pytest.mark.parametrize("name,r", [("scalar-exponential", 1), ("scalar-quadratic", 2),
                                        ("logistic", 2)])
    def test_polynomial_rhs_within_order_nulls_residual(self, name, r):
        # once w carries every nonzero derivative of f, the gap vanishes
        p = catalog(name, r=r)
        y = p.eta + 0.05
        w = build_w(p, y)
        l = build_l(local_derivatives(w, r + 1), 0.0)
        g = residual(p, w, l, 0.125)
        assert np.max(np.abs(g(np.linspace(0.0, 1.0, 9)))) < 1e-12

    def test_scale_exponent(self):
        p = catalog("logistic", r=1, rho=0.5)
        y = np.array([0.3])
        w = build_w(p, y)
        l = build_l(local_derivatives(w, 2), 0.0)
        g = residual(p, w, l, 0.01)
        assert g.scale == pytest.approx(0.01 ** (-1.5))

    def test_nonpositive_step_rejected(self):
        p = catalog("scalar-exponential", r=0)
        y = np.array([1.0])
        w = build_w(p, y)
        l = build_l(local_derivatives(w, 1), 0.0)
        with pytest.raises(ContractViolationError):
            residual(p, w, l, 0.0)


@pytest.mark.parametrize("name,r,rho", [
    ("scalar-exponential", 0, 1.0),
    ("scalar-exponential", 2, 1.0),
    ("scalar-quadratic", 1, 1.0),
    ("logistic", 1, 0.5),
    ("integration-reduction:cos-pi", 2, 1.0),
])
def test_step_identity_against_reference(name, r, rho):
    """exact(int w(l)) + h^(r+rho+1) int g == int f(l) along the piece."""
    p = catalog(name, r=r, rho=rho)
    rng = np.random.default_rng(7)
    for _ in range(4):
        y = p.eta + rng.uniform(-0.05, 0.05, size=p.dim)
        x_i = p.interval[0] + rng.uniform(0.0, 0.1)
        h = rng.uniform(0.05, 0.2)
        w = build_w(p, y)
        l = build_l(local_derivatives(w, r + 1), x_i)
        taylor_part = integrate_w_of_l(w, l, h)
        g = residual(p, w, l, h)
        lhs = taylor_part + h ** (r + rho + 1.0) * reference_integral(g)
        rhs = h * reference_integral(lambda u: eval_rhs(p, l.eval_offset(u * h)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
