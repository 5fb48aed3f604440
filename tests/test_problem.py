"""Problem-layer tests: smoothness declarations, cost ledger, oracle access, catalog."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivporacle import (
    ContractViolationError,
    CostLedger,
    DomainError,
    HolderSmoothness,
    IVPProblem,
    UnknownProblemError,
    build_w,
    catalog,
    catalog_names,
    eval_partial,
    eval_rhs,
)
from ivporacle.problem import _G_REGISTRY, _SCALAR_ROWS, _check_point
from conftest import per_partial_jet, per_partial_oracle


def make_smoothness(r=1, rho=1.0):
    return HolderSmoothness(r=r, rho=rho)


class TestHolderSmoothness:
    def test_order_is_r_plus_rho(self):
        sm = HolderSmoothness(r=2, rho=0.5)
        assert sm.order == 2.5

    @pytest.mark.parametrize("r", [-1, 4, 1.5, True, "1", None])
    def test_r_out_of_range(self, r):
        with pytest.raises(ContractViolationError):
            HolderSmoothness(r=r, rho=1.0)

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.5, Fraction(1, 2), "1", True, None, np.nan])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(ContractViolationError):
            make_smoothness(r=1, rho=rho)

    def test_numpy_numbers_normalized(self):
        sm = HolderSmoothness(r=np.int64(2), rho=np.float64(0.5))
        assert type(sm.r) is int and type(sm.rho) is float and sm.order == 2.5

    def test_r0_forces_plain_lipschitz(self):
        with pytest.raises(ContractViolationError):
            make_smoothness(r=0, rho=0.5)


@pytest.mark.parametrize("name", catalog_names() + ("integration-reduction:cos-pi",))
def test_batched_oracle_keeps_the_batch_shape_for_every_alpha(name):
    """``f`` on a batch ``(dim, m)`` gives ``(dim, m)`` with the
    point-by-point bits; the jet entry of every partial up to order 3 that
    is zero is +0.0 at a negative state too."""
    p = catalog(name, r=3)
    y = p.eta[:, None] + np.linspace(-1.5, 0.5, 5)
    batch = eval_rhs(p, y)
    assert batch.shape == (p.dim, 5)
    singles = np.stack([eval_rhs(p, y[:, j]) for j in range(5)], axis=1)
    assert batch.tobytes() == singles.tobytes()
    if p.dim == 1:
        for j in range(5):
            for t in p.jet(y[:, j], 3):
                assert not np.any(np.signbit(t) & (t == 0.0))


def _full_jet(name):
    """A scalar row's jet as it was built before, one ``np.full`` per tensor
    from the row's derivatives at the ``np.float64`` state; kept as an oracle."""
    derivs = _SCALAR_ROWS[name][0]

    def jet(y, r):
        z = y[0]
        return tuple(np.full((1,) * (j + 1), derivs[j](z) / math.factorial(j)) for j in range(r + 1))

    return jet


@pytest.mark.parametrize("name", tuple(_SCALAR_ROWS))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_scalar_jets_match_the_full_body_bit_for_bit(name, r):
    """Values, dtype and shapes of every scalar jet tensor, at the catalog's
    states, signed zeros and random states; a derivative that is zero
    everywhere reads +0.0, never -0.0."""
    p = catalog(name, r=r)
    old = _full_jet(name)
    a, b = p.interval
    zs = [float(p.reference(a + frac * (b - a))[0]) for frac in (0.0, 0.4, 1.0)]
    zs += [0.0, -0.0, -1.3, 2.9, 1e-300, -1e150] + list(np.random.default_rng(r).uniform(-5.0, 5.0, 20))
    for z in zs:
        y = np.array([z])
        got, want = p.jet(y, r), old(y, r)
        assert type(got) is tuple and len(got) == r + 1
        for j, (t, u) in enumerate(zip(got, want)):
            assert (t.shape, t.dtype, t.tobytes()) == ((1,) * (j + 1), np.dtype(float), u.tobytes())
        constant_zero = [j for j in range(1, r + 1) if _SCALAR_ROWS[name][0][j](-1.0) == 0.0]
        assert all(not np.signbit(got[j]).any() for j in constant_zero)


def test_eval_partial_reads_the_jet():
    """Orders 0-2 give the per-partial oracle's bits; order 3 is the jet
    entry times 3!, which may differ from it by one rounding."""
    for name in catalog_names():
        p = catalog(name, r=3)
        oracle = per_partial_oracle(name)
        for y in (p.eta, p.eta - 1.3):
            for comp in range(p.dim):
                for order in range(4):
                    for idxs in itertools.combinations_with_replacement(range(p.dim), order):
                        alpha = tuple(idxs.count(i) for i in range(p.dim))
                        want = float(oracle(y, comp, alpha))
                        got = eval_partial(p, y, comp, alpha)
                        if order < 3:
                            assert np.float64(got).tobytes() == np.float64(want).tobytes()
                        else:
                            assert abs(got - want) <= np.spacing(abs(want)), (name, y, alpha)


class TestCostLedger:
    def test_counters_accumulate(self):
        ledger = CostLedger()
        ledger.charge_classical(3)
        ledger.charge_classical()
        ledger.charge_queries(10)
        ledger.charge_repetitions(2)
        assert ledger.classical_evals == 4
        assert ledger.oracle_queries == 10
        assert ledger.repetitions == 2
        assert ledger.total == 14

    @pytest.mark.parametrize("method", ["charge_classical", "charge_queries", "charge_repetitions"])
    def test_negative_increment_rejected(self, method):
        ledger = CostLedger()
        for count in (-1, 2.5, "1", True, None):
            with pytest.raises(ContractViolationError):
                getattr(ledger, method)(count)
        assert ledger == CostLedger()

    def test_numpy_counts_stay_int(self):
        ledger = CostLedger()
        ledger.charge_classical(np.int64(3))
        ledger.charge_queries(np.uint32(4))
        ledger.charge_repetitions(np.int64(0))
        assert (ledger.classical_evals, ledger.oracle_queries, ledger.repetitions) == (3, 4, 0)
        assert all(type(c) is int for c in (ledger.classical_evals, ledger.oracle_queries, ledger.repetitions))


def _zero(y):
    return np.zeros(np.shape(y))


def _zero_jet(y, r):
    return tuple(np.zeros((len(y),) * (j + 1)) for j in range(r + 1))


def make_problem(dim=1, f=_zero, jet=_zero_jet, r=1):
    """A hand-built problem on [0, 1] from eta = 1."""
    return IVPProblem(dim=dim, interval=(0.0, 1.0), eta=np.ones(dim), f=f, jet=jet,
                      smoothness=make_smoothness(r=r))


class TestIVPProblem:
    def test_f_and_jet_serve_eval_rhs_and_build_w(self):
        p = make_problem(f=lambda y: np.cos(y), jet=lambda y, r: (np.cos(y), -np.sin(y)[:, None]))
        assert p.name == "custom" and p.reference is None
        assert eval_rhs(p, p.eta)[0] == np.cos(1.0)
        assert build_w(p, p.eta).tensors[1][0, 0] == -np.sin(1.0)

    @pytest.mark.parametrize("field", ["f", "jet"])
    @pytest.mark.parametrize("value", [None, 1.0, np.zeros(1)])
    def test_non_callable_f_or_jet_rejected(self, field, value):
        with pytest.raises(ContractViolationError, match=field):
            make_problem(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("dim", "1"), ("dim", True), ("dim", 1.0), ("dim", 0),
        ("interval", ("a", 1.0)), ("interval", 0.5), ("interval", (0.0, 0.5, 1.0)),
        ("smoothness", (1, 1.0)), ("smoothness", None), ("reference", 3.0),
        ("eta", "1"), ("eta", True), ("eta", np.array(["1"])), ("eta", [None]),
        ("interval", ("0", "1")), ("interval", (False, True)), ("interval", (0.0, "1")),
    ])
    def test_malformed_field_rejected(self, field, value):
        kwargs = dict(dim=1, interval=(0.0, 1.0), eta=np.ones(1), f=_zero, jet=_zero_jet,
                      smoothness=make_smoothness())
        with pytest.raises(ContractViolationError, match=field):
            IVPProblem(**{**kwargs, field: value})

    def test_numpy_dim_and_interval_accepted(self):
        p = IVPProblem(dim=np.int64(2), interval=np.array([0.0, 2.0]), eta=np.ones(2), f=_zero,
                       jet=_zero_jet, smoothness=make_smoothness(), reference=lambda t: np.ones(2))
        assert type(p.dim) is int and p.interval == (0.0, 2.0)
        q = IVPProblem(dim=2, interval=(np.int64(0), np.float32(2.0)), eta=[np.int64(1), np.float32(0.5)],
                       f=_zero, jet=_zero_jet, smoothness=make_smoothness())
        assert q.eta.tolist() == [1.0, 0.5] and q.eta.dtype == float
        assert [type(v) for v in q.interval] == [float, float] and q.interval == (0.0, 2.0)

    def test_eta_is_read_only(self):
        p = catalog("scalar-exponential")
        with pytest.raises(ValueError):
            p.eta[0] = 2.0

    def test_eta_shape_checked(self):
        with pytest.raises(ContractViolationError):
            IVPProblem(dim=2, interval=(0.0, 1.0), eta=np.array([1.0]),
                       f=_zero, jet=_zero_jet, smoothness=make_smoothness())

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ContractViolationError):
            IVPProblem(dim=1, interval=(1.0, 1.0), eta=np.array([1.0]),
                       f=_zero, jet=_zero_jet, smoothness=make_smoothness())

    def test_nonfinite_eta_rejected(self):
        with pytest.raises(DomainError):
            IVPProblem(dim=1, interval=(0.0, 1.0), eta=np.array([np.inf]),
                       f=_zero, jet=_zero_jet, smoothness=make_smoothness())

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_nonfinite_interval_rejected(self, interval):
        with pytest.raises(DomainError):
            IVPProblem(dim=1, interval=interval, eta=np.array([1.0]),
                       f=_zero, jet=_zero_jet, smoothness=make_smoothness())


class TestEvalPartial:
    def test_value_and_first_partial(self):
        p = catalog("scalar-quadratic", r=1)
        y = np.array([1.5])
        assert eval_partial(p, y, 0, (0,)) == pytest.approx(2.25)
        assert eval_partial(p, y, 0, (1,)) == pytest.approx(3.0)

    def test_order_beyond_declared_r_rejected(self):
        p = catalog("scalar-quadratic", r=1)
        with pytest.raises(ContractViolationError):
            eval_partial(p, np.array([1.0]), 0, (2,))

    def test_component_range_checked(self):
        p = catalog("logistic", r=2)
        for component in (1, -1, 0.5, True, "0", None):
            with pytest.raises(ContractViolationError):
                eval_partial(p, np.array([0.3]), component, (0,))

    # at r = 2 a truncated alpha entry would name a partial the problem serves
    @pytest.mark.parametrize("alpha", [(0, 0), (-1,), (1.5,), ("1",), (True,), 1, None, "1",
                                       np.array(1), np.array([[1]])])
    def test_malformed_alpha_rejected(self, alpha):
        p = catalog("logistic", r=2)
        with pytest.raises(ContractViolationError):
            eval_partial(p, np.array([0.3]), 0, alpha)

    def test_integer_array_alpha_accepted(self):
        p = catalog("logistic", r=2)
        y = np.array([0.3])
        assert eval_partial(p, y, np.int64(0), np.array([2])) == eval_partial(p, y, 0, [2]) == -2.0

    def test_nonfinite_point_rejected(self):
        p = catalog("scalar-exponential")
        with pytest.raises(DomainError):
            eval_partial(p, np.array([np.nan]), 0, (0,))

    def test_charges_one_classical_eval(self):
        p = catalog("scalar-exponential", r=1)
        ledger = CostLedger()
        eval_partial(p, np.array([1.0]), 0, (1,), ledger)
        assert ledger.classical_evals == 1
        # ledger-free calls are legal and free
        eval_partial(p, np.array([1.0]), 0, (1,))
        assert ledger.classical_evals == 1


class TestEvalRhs:
    def test_single_point_shape(self):
        p = catalog("logistic")
        out = eval_rhs(p, np.array([0.25]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.25 * 0.75)

    def test_batch_shape_and_charging(self):
        p = catalog("integration-reduction", r=1)
        pts = np.stack([np.linspace(0.0, 1.0, 5), np.zeros(5)])
        ledger = CostLedger()
        out = eval_rhs(p, pts, ledger)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out[0], 1.0)
        np.testing.assert_allclose(out[1], np.cos(np.pi * pts[0]), atol=1e-14)
        assert ledger.classical_evals == 5

    @pytest.mark.parametrize("f", [
        lambda y: np.zeros(2),
        lambda y: y[0],
        lambda y: np.zeros((1,) + y.shape),
        lambda y: 0.0,
    ], ids=["dim-2", "no-component-axis", "extra-axis", "scalar"])
    def test_f_of_the_wrong_shape_rejected(self, f):
        p = make_problem(f=f)
        for y in (np.array([0.3]), np.full((1, 4), 0.3)):
            with pytest.raises(ContractViolationError, match="shape"):
                eval_rhs(p, y)

    def test_result_is_a_fresh_array(self):
        """f may return its argument; the caller may still write into the result."""
        for p in (catalog("scalar-exponential"), make_problem(f=lambda y: y)):
            for y in (np.array([0.3]), np.full((1, 4), 0.3)):
                out = eval_rhs(p, y)
                out *= 2.0
                assert np.all(y == 0.3)


#: Each user of a point, called on problem ``p`` and point ``y``.
_POINT_USERS = {
    "eval_rhs": lambda p, y: eval_rhs(p, y),
    "eval_partial": lambda p, y: eval_partial(p, y, 0, (0,) * p.dim),
    "build_w": lambda p, y: build_w(p, y),
    "build_w with a per-partial jet": lambda p, y: build_w(
        dataclasses.replace(p, jet=per_partial_jet(per_partial_oracle(p.name), p.dim)), y),
}


@pytest.mark.parametrize("user,name,shape", [
    (user, name, shape)
    for user in _POINT_USERS
    for name, shape in [("logistic", ()), ("logistic", (1, 1, 1)), ("logistic", (2,)),
                        ("integration-reduction", (1,)), ("integration-reduction", (3, 4)),
                        ("integration-reduction", (2, 2, 2))]
] + [(user, name, shape) for user in ("eval_partial", "build_w", "build_w with a per-partial jet")
     for name, shape in [("logistic", (1, 1)), ("integration-reduction", (2, 1))]])
def test_bad_point_shape_raises_typed_error(user, name, shape):
    """A point is (dim,); only eval_rhs also takes a batch (dim, m)."""
    with pytest.raises(ContractViolationError, match="shape"):
        _POINT_USERS[user](catalog(name, r=1), np.full(shape, 0.3))


@pytest.mark.parametrize("user", _POINT_USERS)
def test_point_shapes_accepted(user):
    p = catalog("integration-reduction", r=1)
    _POINT_USERS[user](p, np.full(2, 0.3))
    _POINT_USERS[user](p, [0.3, 0.3])
    if user == "eval_rhs":
        assert eval_rhs(p, np.full((2, 4), 0.3)).shape == (2, 4)
        assert eval_rhs(p, np.full((2, 0), 0.3)).shape == (2, 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nonfinite_point_entry_rejected_in_every_position(dim):
    """A point's entries are tested on Python floats, a batch's by numpy: both refuse
    NaN, inf and -inf in every position, as np.isfinite does."""
    p = make_problem(dim=dim)
    for bad, j in itertools.product((math.nan, -math.nan, math.inf, -math.inf), range(dim)):
        y = np.full(dim, 0.3)
        y[j] = bad
        for point, batch in ((y, False), (y, True), (y[:, None], True)):
            with pytest.raises(DomainError, match="finite"):
                _check_point(p, point, batch=batch)
        with pytest.raises(DomainError, match="finite"):
            eval_rhs(p, y)
    assert _check_point(p, np.full(dim, 0.3)).shape == (dim,)


# reference solutions must actually solve the ODE they are sold with
@pytest.mark.parametrize("name", ["scalar-exponential", "scalar-quadratic", "logistic",
                                  "integration-reduction:cos-pi"])
def test_reference_satisfies_ode(name):
    p = catalog(name, r=1)
    a, b = p.interval
    assert np.allclose(p.reference(a), p.eta, atol=1e-14)
    dt = 1e-6
    for t in np.linspace(a + 2 * dt, b - 2 * dt, 7):
        lhs = (np.asarray(p.reference(t + dt)) - np.asarray(p.reference(t - dt))) / (2 * dt)
        rhs = eval_rhs(p, np.asarray(p.reference(t)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("name", catalog_names())
def test_reference_shape_follows_time_shape(name):
    p = catalog(name)
    for shape in ((), (0,), (1,), (5,), (2, 3)):
        assert p.reference(np.full(shape, p.interval[1])).shape == (p.dim,) + shape


def test_scalar_references_keep_libm_exp():
    # the closed forms per time, as written before references took arrays
    ts = np.linspace(0.0, 1.0, 97)
    assert (catalog("scalar-exponential", eta=1.3).reference(ts).tobytes()
            == np.array([[1.3 * math.exp(t - 0.0) for t in ts]]).tobytes())
    assert (catalog("logistic").reference(ts).tobytes()
            == np.array([[1.0 / (1.0 + (1.0 / 0.2 - 1.0) * math.exp(-(t - 0.0))) for t in ts]]).tobytes())


def test_reference_pole_warns_and_exp_overflow_raises():
    pole = catalog("scalar-quadratic", interval=(0.0, 1.0))  # from eta = 1 it blows up at t = 1
    for t in (1.0, np.float64(1.0), np.array([0.5, 1.0])):
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="divide by zero"):
            warnings.simplefilter("error", RuntimeWarning)
            pole.reference(t)
    huge = catalog("scalar-exponential", interval=(0.0, 1000.0))
    for t in (1000.0, np.array([0.0, 1000.0])):
        with pytest.raises(OverflowError):
            huge.reference(t)


def _multi_indices(dim, order):
    return [alpha for alpha in itertools.product(range(order + 1), repeat=dim) if sum(alpha) == order]


def _partial(p, y, component, alpha):
    """``d^alpha f_component(y)``, read off the jet: its order-``|alpha|`` tensor entry at the
    sorted index ``alpha`` names, times ``|alpha|!``."""
    order = sum(alpha)
    index = tuple(i for i, a in enumerate(alpha) for _ in range(a))
    return p.jet(y, order)[order][(component, *index)] * math.factorial(order)


# every catalog row and every registered integrand serves consistent partials
@pytest.mark.parametrize("name", catalog_names() + tuple(f"integration-reduction:{key}" for key in _G_REGISTRY))
def test_derivative_tables_match_central_differences(name):
    p = catalog(name, r=3)
    a, b = p.interval
    states = [np.asarray(p.reference(a + frac * (b - a))) for frac in (0.3, 0.55, 0.8)]
    d = 1e-5
    for y, component, order in itertools.product(states, range(p.dim), (1, 2, 3)):
        for alpha in _multi_indices(p.dim, order):
            # central difference of the partial one order below, along a variable alpha uses
            i = next(k for k, ak in enumerate(alpha) if ak)
            parent = tuple(ak - (k == i) for k, ak in enumerate(alpha))
            step = d * np.eye(p.dim)[i]
            diff = (_partial(p, y + step, component, parent) - _partial(p, y - step, component, parent)) / (2 * d)
            np.testing.assert_allclose(_partial(p, y, component, alpha), diff, rtol=1e-6,
                                       err_msg=f"{name}: component {component}, alpha {alpha}, y {y}")
    np.testing.assert_array_equal(eval_rhs(p, np.stack(states, axis=1)),
                                  np.stack([eval_rhs(p, y) for y in states], axis=1))


_FLOATS = st.sampled_from([0.0, 1.0, 1.5, 0.5, -0.25, 1e-300, 1e300, np.inf, -np.inf, np.nan])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    name=st.sampled_from(catalog_names() + ("integration-reduction:cos-pi", "integration-reduction:sin-2pi",
                                            "pendulum")),
    r=st.one_of(st.integers(-1, 4), st.sampled_from([True, False, np.int64(1), np.int8(3), 1.0, "1", None])),
    rho=st.one_of(_FLOATS, st.sampled_from([True, "0.5", None, np.float32(0.5), 1])),
    eta=st.one_of(st.none(), _FLOATS, st.lists(_FLOATS, min_size=1, max_size=2)),
    interval=st.one_of(
        st.none(),
        st.sampled_from([(0.0, 1.0), (0.5, 2.0), (1.0, 0.0), (0.0, 0.0), (0.0, np.inf),
                         (-np.inf, 1.0), (np.nan, 1.0)]),
        st.tuples(_FLOATS, _FLOATS, _FLOATS)),
)
def test_catalog_yields_problem_or_typed_error(name, r, rho, eta, interval):
    """Any request builds a well-formed problem of the requested class or
    raises one of the package's typed errors, never a bare exception."""
    try:
        p = catalog(name, r=r, rho=rho, eta=eta, interval=interval)
    except (ContractViolationError, DomainError, UnknownProblemError):
        return
    a, b = p.interval
    assert np.isfinite([a, b]).all() and a < b
    assert p.eta.shape == (p.dim,) and np.isfinite(p.eta).all()
    assert (p.smoothness.r, p.smoothness.rho) == (r, rho)
    assert type(p.smoothness.r) is int and type(p.smoothness.rho) is float


class TestCatalog:
    def test_names_are_stable(self):
        assert catalog_names() == ("scalar-exponential", "scalar-quadratic",
                                   "logistic", "integration-reduction")

    def test_unknown_name(self):
        with pytest.raises(UnknownProblemError):
            catalog("pendulum")

    @pytest.mark.parametrize("name,kwargs,error", [
        ("scalar-exponential", dict(r=4), ContractViolationError),
        ("scalar-exponential", dict(r=-1), ContractViolationError),
        ("scalar-quadratic", dict(r=1.5), ContractViolationError),
        ("integration-reduction", dict(eta=0.5), ContractViolationError),
        ("logistic", dict(eta=0.0), DomainError),
        ("integration-reduction", dict(eta=[0.0, 0.0, 0.0]), ContractViolationError),
        ("logistic", dict(eta=np.array([0.2, 0.3])), ContractViolationError),
        ("scalar-exponential", dict(eta=[]), ContractViolationError),
        ("scalar-exponential", dict(interval=(0.0, 1.0, 2.0)), ContractViolationError),
        ("scalar-exponential", dict(interval=(1.0,)), ContractViolationError),
        ("scalar-quadratic", dict(interval=(0.0, np.inf)), DomainError),
        ("logistic", dict(eta=np.nan), DomainError),
        ("logistic", dict(eta="0.2x"), ContractViolationError),
        ("scalar-exponential", dict(interval=("a", "b")), ContractViolationError),
        ("logistic", dict(r=True), ContractViolationError),
        ("logistic", dict(r="1"), ContractViolationError),
        ("logistic", dict(rho="0.5"), ContractViolationError),
        ("logistic", dict(r=1, rho=True), ContractViolationError),
        ("logistic", dict(rho=None), ContractViolationError),
        ("logistic", dict(interval=("0", "1"), eta="0.3"), ContractViolationError),
        ("logistic", dict(interval=("0", "1")), ContractViolationError),
        ("logistic", dict(eta="0.3"), ContractViolationError),
        ("integration-reduction", dict(eta=[True, "0.5"]), ContractViolationError),
        ("integration-reduction", dict(eta=np.array([False, True])), ContractViolationError),
        ("logistic", dict(eta=True), ContractViolationError),
        ("logistic", dict(interval=(False, True)), ContractViolationError),
        ("logistic", dict(eta=Fraction(1, 2)), ContractViolationError),
        ("logistic", dict(eta=np.inf), DomainError),
        ("logistic", dict(interval=(np.nan, 1.0)), DomainError),
        (None, {}, ContractViolationError),
        (3, {}, ContractViolationError),
        (["logistic"], {}, ContractViolationError),
    ])
    def test_bad_request_raises_typed_error(self, name, kwargs, error):
        with pytest.raises(error):
            catalog(name, **kwargs)

    def test_unknown_integrand_key(self):
        with pytest.raises(UnknownProblemError):
            catalog("integration-reduction:sin-2pi")

    @pytest.mark.parametrize("name", ["logistic:cos-pi", "scalar-exponential:bogus", "scalar-quadratic:",
                                      "integration-reduction:"])
    def test_unknown_key_rejected(self, name):
        with pytest.raises(UnknownProblemError):
            catalog(name)

    def test_bare_integration_reduction_uses_cos_pi(self):
        assert catalog("integration-reduction").name == "integration-reduction:cos-pi"

    @pytest.mark.parametrize("eta", [0.4, np.array([0.4]), [0.4]])
    def test_scalar_eta_as_number_or_one_element_array(self, eta):
        assert catalog("logistic", eta=eta).eta.tolist() == [0.4]

    def test_eta_and_interval_overrides(self):
        p = catalog("scalar-exponential", eta=2.0, interval=(1.0, 3.0))
        assert p.interval == (1.0, 3.0)
        assert p.eta[0] == 2.0
        # reference tracks the override
        assert p.reference(1.0)[0] == pytest.approx(2.0)
        assert p.reference(2.0)[0] == pytest.approx(2.0 * np.e)

    def test_integration_reduction_reference_endpoint(self):
        # int_0^1 cos(pi u) du = 0: the v component must return to zero
        p = catalog("integration-reduction:cos-pi", r=2)
        ref_end = p.reference(p.interval[1])
        assert ref_end[0] == pytest.approx(1.0)
        assert abs(ref_end[1]) < 1e-15

    def test_numpy_integer_r_is_stored_as_int(self):
        s = catalog("logistic", r=np.int64(1), rho=np.float64(0.5)).smoothness
        assert (s.r, s.rho) == (1, 0.5)
        assert type(s.r) is int and type(s.rho) is float

    def test_smoothness_follows_request(self):
        p = catalog("logistic", r=2, rho=1.0)
        assert p.smoothness.r == 2
        assert p.smoothness.rho == 1.0
        assert p.smoothness.order == 3.0
