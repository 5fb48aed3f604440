"""Taylor-layer tests: local derivatives, pieces, maps, step integral, residual.

The load-bearing property here is the step identity: the exactly-integrated
Taylor part plus the rescaled residual integral reproduces the exact integral
of f along the piece.  Everything else in the solver leans on that algebra.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ivporacle import (
    ContractViolationError,
    CostLedger,
    ResidualIntegrand,
    TaylorMap,
    VecPolynomial,
    build_l,
    build_w,
    catalog,
    catalog_names,
    eval_rhs,
    integrate_w_of_l,
    local_derivatives,
)
from ivporacle.problem import _G_REGISTRY
from ivporacle.quad import _gauss_rule
from ivporacle.taylor import _factorials
from conftest import assert_as_public, per_partial_jet, per_partial_oracle, reference_integral


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
        for shape in ((3,), (0, 1), (0, 2), (2, 0), (1, 1, 1)):
            with pytest.raises(ContractViolationError):
                VecPolynomial(center=0.0, coeffs=np.ones(shape))


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
        w = build_w(catalog("scalar-exponential", r=1), np.array([1.0]))
        for upto in (3, -1, 1.5, True, "1", None, np.float64(1.0)):
            with pytest.raises(ContractViolationError):
                local_derivatives(w, upto)

    def test_numpy_upto_accepted(self):
        w = build_w(catalog("scalar-quadratic", r=1), np.array([1.0]))
        np.testing.assert_array_equal(np.concatenate(local_derivatives(w, np.int64(2))), [1.0, 1.0, 2.0])

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
        for derivs in ([], [np.zeros((2, 2)), np.zeros((2, 2))]):  # none, and matrices
            with pytest.raises(ContractViolationError, match="degree\\+1, dim"):
                build_l(derivs, x_i=0.0)


def test_build_w_and_build_l_match_their_public_constructors():
    """Both build their result unchecked: the object the public constructor
    makes, read-only, sharing no memory with the caller's arrays."""
    for name, r in [("logistic", 2), ("integration-reduction", 3), ("scalar-exponential", 0)]:
        p = catalog(name, r=r)
        y = p.eta + 0.05  # writable, so the map copies it
        w = build_w(p, y)
        assert_as_public(w, y)
        derivs = local_derivatives(w, r + 1)
        assert_as_public(build_l(derivs, 0.25), *derivs)
    scalars = [1.0, np.float64(2.0), np.array(6.0)]
    assert_as_public(build_l(scalars, np.float32(0.5)), scalars[2])


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

    def test_frozen_state_is_kept_and_a_view_copied(self):
        """A read-only state that owns its data, as ``solve`` makes each step,
        becomes the map's center without a copy, and ``local_derivatives``
        returns that center; a read-only view of another array is copied."""
        p = catalog("logistic", r=1)
        y = np.array([0.3])
        y.setflags(write=False)
        w = build_w(p, y)
        assert w.center is y and local_derivatives(w, 2)[0] is y
        base = np.array([0.3, 0.7])
        view = base[:1]
        view.setflags(write=False)
        w = build_w(p, view)
        assert w.center is not view and not np.shares_memory(w.center, base)
        base[0] = 0.4
        assert w.center[0] == 0.3

    def test_batch_evaluation_matches_loop(self):
        p = catalog("scalar-quadratic", r=2)
        w = build_w(p, np.array([1.2]))
        ys = np.linspace(0.8, 1.6, 6)[None, :]
        batch = w(ys)
        single = np.stack([w(ys[:, j]) for j in range(6)], axis=1)
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("name,r,point", [
        ("logistic", 1, np.zeros(3)),
        ("logistic", 1, np.zeros((2, 4))),
        ("integration-reduction", 1, np.zeros(1)),
        ("integration-reduction", 2, np.zeros((1, 4))),
        ("integration-reduction", 0, np.zeros((2, 2, 2))),
        ("integration-reduction", 1, np.float64(0.0)),
    ])
    def test_point_of_the_wrong_dimension_rejected(self, name, r, point):
        p = catalog(name, r=r)
        with pytest.raises(ContractViolationError, match="point"):
            build_w(p, p.eta)(point)

    @pytest.mark.parametrize("bad", [
        lambda good, y, r: good(y, r)[:-1],
        lambda good, y, r: good(y, r) + (np.zeros((2,) * (r + 2)),),
        lambda good, y, r: good(y, r)[:1] + (np.zeros((2, 2, 2)),) + good(y, r)[2:],
        lambda good, y, r: (np.zeros(3),) + good(y, r)[1:],
        lambda good, y, r: (good(y, r)[0][None, :],) + good(y, r)[1:],
        lambda good, y, r: None,
    ], ids=["one-tensor-short", "one-tensor-too-many", "T1-of-order-2", "T0-of-dim-3", "T0-batched",
            "None"])
    def test_jet_of_the_wrong_shape_rejected(self, bad):
        p = catalog("integration-reduction", r=2)
        broken = dataclasses.replace(p, jet=lambda y, r: bad(p.jet, y, r))
        ledger = CostLedger()
        with pytest.raises(ContractViolationError, match="jet"):
            build_w(broken, p.eta, ledger)
        assert ledger.classical_evals == 0


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


# every catalog row and every registered integrand serves its jet
@pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_jet_matches_per_partial_path_bit_for_bit(name, r):
    """The jet gives the tensors of one oracle call per distinct partial,
    its T_0 is f, and build_w charges f once and each partial once."""
    p = catalog(name, r=r)
    oracle, orders = per_partial_oracle(name), []

    def counted(y, component, alpha):
        orders.append(sum(alpha))
        return oracle(y, component, alpha)

    reference_jet = per_partial_jet(counted, p.dim)
    a, b = p.interval
    points = [np.asarray(p.reference(a + frac * (b - a))) for frac in (0.0, 0.4, 1.0)]
    points += [np.full(p.dim, c) for c in (-1.3, 0.0, 2.9)]
    for y in points:
        orders.clear()
        want = reference_jet(y, r)
        assert [_bits(t) for t in p.jet(y, r)] == [_bits(t) for t in want]
        assert _bits(eval_rhs(p, y)) == _bits(want[0])
        ledger = CostLedger()
        w = build_w(p, y, ledger)
        assert [_bits(t) for t in w.tensors] == [_bits(t) for t in want]
        assert ledger.classical_evals == 1 + np.count_nonzero(orders)
        assert ledger.classical_evals == 1 + sum(p.dim * math.comb(p.dim + j - 1, j) for j in range(1, r + 1))


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
        for h in (0.0, -0.1, math.nan, math.inf, "1", None, True):
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
        g = ResidualIntegrand(p, w, l, 0.25)
        np.testing.assert_allclose(g(np.array([0.0, 0.25, 1.0]))[0], [0.0, 0.25, 1.0], atol=1e-15)

    @pytest.mark.parametrize("name,r", [("scalar-exponential", 1), ("scalar-quadratic", 2),
                                        ("logistic", 2)])
    def test_polynomial_rhs_within_order_nulls_residual(self, name, r):
        # once w carries every nonzero derivative of f, the gap vanishes
        p = catalog(name, r=r)
        y = p.eta + 0.05
        w = build_w(p, y)
        l = build_l(local_derivatives(w, r + 1), 0.0)
        g = ResidualIntegrand(p, w, l, 0.125)
        assert np.max(np.abs(g(np.linspace(0.0, 1.0, 9)))) < 1e-12

    def test_scale_exponent(self):
        p = catalog("logistic", r=1, rho=0.5)
        y = np.array([0.3])
        w = build_w(p, y)
        l = build_l(local_derivatives(w, 2), 0.0)
        g = ResidualIntegrand(p, w, l, 0.01)
        assert g.scale == pytest.approx(0.01 ** (-1.5))

    def test_step_stored_as_float(self):
        p = catalog("logistic", r=1)
        w = build_w(p, np.array([0.3]))
        l = build_l(local_derivatives(w, 2), 0.0)
        for h in (np.float64(0.125), 1, np.float32(0.5)):
            g = ResidualIntegrand(p, w, l, h)
            assert type(g.h) is float and g.h == float(h)
            assert g.scale == float(h) ** (-p.smoothness.order)

    def test_nonpositive_step_rejected(self):
        p = catalog("scalar-exponential", r=0)
        y = np.array([1.0])
        w = build_w(p, y)
        l = build_l(local_derivatives(w, 1), 0.0)
        for h in (0.0, -0.1, math.nan, math.inf, "1", None, True):
            with pytest.raises(ContractViolationError):
                ResidualIntegrand(p, w, l, h)


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
        g = ResidualIntegrand(p, w, l, h)
        lhs = taylor_part + h ** (r + rho + 1.0) * reference_integral(g)
        rhs = h * reference_integral(lambda u: eval_rhs(p, l.eval_offset(u * h)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# The evaluators as they were before they worked in place, kept as oracles:
# the lean ones must give the same bits, the sign of zero included.

def _old_eval_offset(poly, s):
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    sv = s.reshape(-1)
    acc = np.repeat(poly.coeffs[-1][:, None], sv.size, axis=1)
    for k in range(poly.degree - 1, -1, -1):
        acc = acc * sv + poly.coeffs[k][:, None]
    return acc[:, 0] if scalar else acc


def _old_map_call(w, y):
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    pts = y[:, None] if scalar else y
    dy = pts - w.center[:, None]
    acc = np.repeat(w.tensors[0][:, None], pts.shape[1], axis=1)
    if w.order >= 1:
        acc = acc + np.einsum("ci,im->cm", w.tensors[1], dy)
    if w.order >= 2:
        acc = acc + np.einsum("cij,im,jm->cm", w.tensors[2], dy, dy)
    if w.order >= 3:
        acc = acc + np.einsum("cijk,im,jm,km->cm", w.tensors[3], dy, dy, dy)
    return acc[:, 0] if scalar else acc


def _old_build_l(derivs, x_i):
    rows = [np.atleast_1d(np.asarray(v, dtype=float)) / math.factorial(k) for k, v in enumerate(derivs)]
    return VecPolynomial(center=float(x_i), coeffs=np.stack(rows))


def _old_residual_call(g, u):
    u = np.asarray(u, dtype=float)
    pts = _old_eval_offset(g.l, u * g.h)
    fv = eval_rhs(g.problem, pts)
    return (fv - _old_map_call(g.w, pts)) * g.scale


_OFFSETS = (0.0, -0.0, 0.37, np.array([0.0, -0.0, 0.013, 0.5, 1.0]), np.linspace(-0.3, 1.2, 11))


@pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_lean_evaluators_match_old_bodies_bit_for_bit(name, r):
    """Every catalog step's Taylor map, piece, step polynomial and residual,
    at scalar and batch inputs, against the old evaluators."""
    p = catalog(name, r=r)
    a, b = p.interval
    states = [np.asarray(p.reference(a + frac * (b - a))) for frac in (0.0, 0.4, 1.0)]
    states += [np.full(p.dim, c) for c in (-1.3, 0.0, 2.9)]
    for y in states:
        w = build_w(p, y)
        derivs = local_derivatives(w, r + 1)
        l, l_old = build_l(derivs, a), _old_build_l(derivs, a)
        assert _bits(l.coeffs) == _bits(l_old.coeffs) and l.center == l_old.center
        for s in _OFFSETS:
            assert _bits(l.eval_offset(s)) == _bits(_old_eval_offset(l, s))
        batch = y[:, None] + np.linspace(-0.25, 0.25, 7)
        for pt in (y, y + 0.125, batch):
            assert _bits(w(pt)) == _bits(_old_map_call(w, pt))
        for h in (0.3, 1.0 / 48):  # not powers of two, so scaling rounds
            g = ResidualIntegrand(p, w, l, h)
            for u in (0.0, 0.75, np.linspace(0.0, 1.0, 9)):
                assert _bits(g(u)) == _bits(_old_residual_call(g, u))


def _signed_zeros(rng, shape):
    """Uniform values in [-1, 1] with about a third of them replaced by +0.0 or -0.0."""
    x = rng.uniform(-1.0, 1.0, shape)
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.15] = -0.0
    return x


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_lean_evaluators_on_random_data_bit_for_bit(order, dim):
    """Degree-0 pieces and order-0 maps included, with signed zeros in every input."""
    rng = np.random.default_rng(100 * order + dim)
    for _ in range(5):
        poly = VecPolynomial(center=0.25, coeffs=_signed_zeros(rng, (order + 1, dim)))
        for s in (0.0, -0.0, _signed_zeros(rng, 6)):
            assert _bits(poly.eval_offset(s)) == _bits(_old_eval_offset(poly, s))
        derivs = [_signed_zeros(rng, dim) for _ in range(order + 1)]
        assert _bits(build_l(derivs, 0.5).coeffs) == _bits(_old_build_l(derivs, 0.5).coeffs)
        center = _signed_zeros(rng, dim)
        w = TaylorMap(center=center, tensors=tuple(_signed_zeros(rng, (dim,) * (j + 1))
                                                   for j in range(order + 1)))
        for y in (center, _signed_zeros(rng, dim), _signed_zeros(rng, (dim, 4)), center[:, None] + 0.0):
            assert _bits(w(y)) == _bits(_old_map_call(w, y))


# The step bodies as they were before the map's unchecked kernel was split
# out and build_l froze its own array, kept as oracles: the kernel, the step
# integral, the residual and build_l must give their bits.

def _checked_map_call(w, y):
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    pts = y[:, None] if scalar else y
    t = w.tensors
    order = len(t) - 1
    if order == 0:
        acc = np.repeat(t[0][:, None], pts.shape[1], axis=1)
    else:
        dy = pts - w.center[:, None]
        acc = np.einsum("ci,im->cm", t[1], dy)
        acc += t[0][:, None]
        if order >= 2:
            acc += np.einsum("cij,im,jm->cm", t[2], dy, dy)
        if order >= 3:
            acc += np.einsum("cijk,im,jm,km->cm", t[3], dy, dy, dy)
    return acc[:, 0] if scalar else acc


def _checked_integrate_w_of_l(w, l, h):
    nodes, weights = _gauss_rule(w.order * l.degree // 2 + 1)
    return h * (_checked_map_call(w, l.eval_offset(nodes * h)) @ weights)


def _checked_residual_call(g, u):
    pts = g.l.eval_offset(np.asarray(u, dtype=float) * g.h)
    gap = eval_rhs(g.problem, pts)
    gap -= _checked_map_call(g.w, pts)
    gap *= g.scale
    return gap


def _einsum_local_derivatives(w, upto):
    out = [w.center]
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


def _copying_build_l(derivs, x_i):
    coeffs = np.array(derivs, dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    return VecPolynomial(center=float(x_i), coeffs=(coeffs.T / _factorials(len(coeffs))).T)


def _assert_fresh_frozen_piece(l, derivs):
    """``l.coeffs`` is read-only, owns its data and shares no memory with ``derivs``."""
    assert not l.coeffs.flags.writeable and l.coeffs.base is None
    assert not any(np.shares_memory(l.coeffs, d) for d in derivs if isinstance(d, np.ndarray))
    with pytest.raises(ValueError):
        l.coeffs[0, 0] = 1.0


def _step_kernels_agree(p, w, l, derivs, x_i):
    """Every slimmed step body against its oracle, on one state."""
    l_old = _copying_build_l(derivs, x_i)
    assert _bits(l.coeffs) == _bits(l_old.coeffs) and l.center == l_old.center
    _assert_fresh_frozen_piece(l, derivs)
    y = w.center
    for pts in (y[:, None], y[:, None] + np.linspace(-0.25, 0.25, 7), np.stack([y, -y, 0.0 * y], axis=1)):
        assert _bits(w._batch(pts)) == _bits(_checked_map_call(w, pts))
    for pt in (y, y + 0.125):
        assert _bits(w(pt)) == _bits(_checked_map_call(w, pt))
    for h in (0.3, 1.0 / 48, 1.0 / 1024):  # not all powers of two, so scaling rounds
        assert _bits(integrate_w_of_l(w, l, h)) == _bits(_checked_integrate_w_of_l(w, l, h))
        if p is not None:
            g = ResidualIntegrand(p, w, l, h)
            for u in (0.0, -0.0, 0.75, np.linspace(0.0, 1.0, 9), np.array([[0.5, 0.25]])):
                assert _bits(g(u)) == _bits(_checked_residual_call(g, u))


@pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_step_kernels_match_checked_bodies_bit_for_bit(name, r):
    """The map's kernel, ``integrate_w_of_l``, the residual and ``build_l``
    on every catalog step, against the bodies that went through the checked
    calls; ``build_l``'s piece is frozen and its own."""
    p = catalog(name, r=r)
    a, b = p.interval
    states = [np.asarray(p.reference(a + frac * (b - a))) for frac in (0.0, 0.4, 1.0)]
    states += [np.full(p.dim, c) for c in (-1.3, 0.0, -0.0, 2.9)]
    for y in states:
        w = build_w(p, y)
        derivs = local_derivatives(w, r + 1)
        _step_kernels_agree(p, w, build_l(derivs, a), derivs, a)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_step_kernels_on_random_data_bit_for_bit(order, dim):
    """Random maps and pieces with signed zeros in every input, including
    pieces of degree below and above ``order + 1``."""
    rng = np.random.default_rng(1000 + 10 * order + dim)
    for degree in (0, order + 1, 4):
        for _ in range(3):
            w = TaylorMap(center=_signed_zeros(rng, dim),
                          tensors=tuple(_signed_zeros(rng, (dim,) * (j + 1)) for j in range(order + 1)))
            derivs = [_signed_zeros(rng, dim) for _ in range(degree + 1)]
            x_i = float(rng.uniform(-2.0, 2.0))
            _step_kernels_agree(None, w, build_l(derivs, x_i), derivs, x_i)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("upto", [0, 1, 2, 3, 4])
def test_local_derivatives_on_random_data_bit_for_bit(upto, dim):
    """``local_derivatives`` against its ``np.einsum`` body, on maps of every
    order it accepts, with signed zeros in every input."""
    rng = np.random.default_rng(2000 + 10 * upto + dim)
    for order in range(max(upto - 1, 0), 4):
        for _ in range(3):
            w = TaylorMap(center=_signed_zeros(rng, dim),
                          tensors=tuple(_signed_zeros(rng, (dim,) * (j + 1)) for j in range(order + 1)))
            got, want = local_derivatives(w, upto), _einsum_local_derivatives(w, upto)
            assert [_bits(d) for d in got] == [_bits(d) for d in want]


def test_build_l_freezes_a_fresh_array_of_its_own():
    """Read-only inputs, a float32 list and a 2-d array input: each gives a
    frozen piece that aliases none of them and keeps the oracle's bits."""
    base = np.array([[0.5, -0.0], [1.5, 2.0], [-3.0, 6.0]])
    before = base.tobytes()
    inputs = [list(base), base, _frozen(base), [_frozen(row) for row in base],
              [row.astype(np.float32) for row in base]]
    for derivs in inputs:
        l = build_l(derivs, 0.25)
        assert _bits(l.coeffs) == _bits(_copying_build_l(derivs, 0.25).coeffs)
        _assert_fresh_frozen_piece(l, derivs if isinstance(derivs, list) else [derivs])
    assert base.flags.writeable and base.tobytes() == before


def test_piece_keeps_only_a_frozen_array_that_owns_its_data():
    """A writable array or a read-only view is copied; a read-only array that
    owns its data, as ``build_l`` makes, is kept without a copy."""
    owned = _frozen([[1.0], [2.0]])
    assert VecPolynomial(center=0.0, coeffs=owned).coeffs is owned
    writable = np.array([[1.0], [2.0]])
    view = writable[:, :]
    view.setflags(write=False)
    for c in (writable, view, [[1.0], [2.0]]):
        kept = VecPolynomial(center=0.0, coeffs=c).coeffs
        assert kept is not c and not kept.flags.writeable and not np.shares_memory(kept, writable)
        writable[0, 0] = 5.0  # the caller's later write does not reach the piece
        assert kept[0, 0] == 1.0
        writable[0, 0] = 1.0


def test_build_l_accepts_scalar_derivatives():
    scalars = [1.0, np.float64(2.0), np.array(6.0)]
    assert _bits(build_l(scalars, 0.0).coeffs) == _bits(_old_build_l(scalars, 0.0).coeffs)
    assert build_l(scalars, 0.0).coeffs.shape == (3, 1)


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def test_evaluators_write_to_no_input():
    """The caller's offsets, points and states and a piece's coefficients and
    a map's tensors come out unchanged; made read-only, a write would raise."""
    p = catalog("integration-reduction:cos-pi", r=3)
    y = _frozen(p.eta + 0.1)
    w = build_w(p, y)
    w = TaylorMap(center=w.center, tensors=tuple(_frozen(t) for t in w.tensors))
    derivs = [_frozen(d) for d in local_derivatives(w, 4)]
    l = build_l(derivs, 0.0)
    g = ResidualIntegrand(p, w, l, 0.25)
    inputs = [y, *derivs, l.coeffs, *w.tensors]
    before = [a.tobytes() for a in inputs]
    for s in (_frozen(0.3), _frozen(np.linspace(0.0, 1.0, 5))):
        l.eval_offset(s)
        g(s)
        integrate_w_of_l(w, l, 0.25)
    for pt in (y, _frozen(y[:, None] + np.linspace(0.0, 0.5, 3))):
        w(pt)
    # writable inputs are not written either
    s, pts = np.linspace(0.0, 1.0, 5), y[:, None] + np.linspace(0.0, 0.5, 3)
    s_bytes, pts_bytes = s.tobytes(), pts.tobytes()
    l.eval_offset(s)
    g(s)
    w(pts)
    assert s.tobytes() == s_bytes and pts.tobytes() == pts_bytes
    assert [a.tobytes() for a in inputs] == before
