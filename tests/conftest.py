"""Shared fixtures: independent reference quadrature, in-class integrands and
a per-partial reference for the catalog's jets.

The reference integrator here is deliberately not the library's own
(single-shot composite Gauss at a fixed node count, no panel doubling), so
quadrature assertions compare two separate implementations.  The integrand
factory draws random members of the Holder class the oracles are specified
for, each with a closed-form integral.  The per-partial oracle reads the
catalog's row tables one partial at a time, as the package did before a
problem became ``(f, jet)``; its jet must equal the catalog's bit for bit.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ivporacle.problem import _G_REGISTRY, _SCALAR_ROWS

# one composite Gauss rule, frozen: 16 points per panel
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def assert_as_public(obj, *arguments, public=None):
    """``obj``, a value object the package built unchecked, equals what its class's public
    constructor makes of the same fields, or ``public`` if given, field by field and bit for
    bit; its arrays are read-only, own their data and share no memory with any of
    ``arguments``."""
    fields = vars(obj)
    if public is None:
        public = type(obj)(**{f.name: fields[f.name] for f in dataclasses.fields(obj)})
    public = vars(public)
    assert list(fields) == list(public)
    for name, value in fields.items():
        kept = public[name]
        assert type(value) is type(kept), name
        if isinstance(value, np.ndarray):
            assert (value.dtype, value.shape, value.tobytes()) == (kept.dtype, kept.shape, kept.tobytes()), name
            assert not value.flags.writeable and value.base is None, name
            assert not any(np.shares_memory(value, a) for a in arguments), name
        elif isinstance(value, float):
            assert value.hex() == kept.hex(), name
        else:
            assert value is kept or value == kept, name


def reference_integral(g, nodes=10_000):
    """Composite 16-point Gauss on [0,1] with about `nodes` total points."""
    panels = max(1, nodes // 16)
    edges = np.linspace(0.0, 1.0, panels + 1)
    width = 1.0 / panels
    pts = (edges[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (width / 2.0)).ravel()
    vals = np.asarray(g(pts), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    w = np.tile(_GAUSS_W * (width / 2.0), panels)
    return vals @ w


@dataclasses.dataclass(frozen=True)
class KinkIntegrand:
    """Member of the (r, rho) class: polynomial plus |u - tau|^(r+rho) kink.

    The polynomial part is smooth; the kink term has exactly r bounded
    derivatives with the r-th one rho-Holder, so the class membership is
    sharp.  `exact` is the closed-form integral over [0, 1].
    """

    coeffs: np.ndarray        # (deg+1, dim), ascending powers
    amp: np.ndarray           # (dim,)
    tau: np.ndarray           # (dim,)
    power: float              # r + rho

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        poly = np.zeros((self.dim, u.size))
        for k in range(self.coeffs.shape[0] - 1, -1, -1):
            poly = poly * u[None, :] + self.coeffs[k][:, None]
        kink = self.amp[:, None] * np.abs(u[None, :] - self.tau[:, None]) ** self.power
        return poly + kink

    @property
    def exact(self) -> np.ndarray:
        ks = np.arange(self.coeffs.shape[0])
        poly_part = (self.coeffs / (ks + 1.0)[:, None]).sum(axis=0)
        s = self.power
        kink_part = self.amp * (self.tau ** (s + 1.0) + (1.0 - self.tau) ** (s + 1.0)) / (s + 1.0)
        return poly_part + kink_part


def make_kink_integrand(rng, r, rho, dim=1):
    """Random in-class integrand; coefficients in [-1, 1], kink away from edges."""
    deg = r + 2
    coeffs = rng.uniform(-1.0, 1.0, size=(deg + 1, dim))
    amp = rng.uniform(0.5, 1.0, size=dim)
    tau = rng.uniform(0.2, 0.8, size=dim)
    return KinkIntegrand(coeffs=coeffs, amp=amp, tau=tau, power=r + rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def per_partial_oracle(name):
    """``oracle(y, component, alpha)``: one partial of catalog row ``name``
    at a point ``y``, with ``alpha`` a multi-index over the state variables."""
    base, _, key = name.partition(":")
    if base in _SCALAR_ROWS:
        derivs = _SCALAR_ROWS[base][0]
        return lambda y, component, alpha: derivs[alpha[0]](y[0])
    derivs = _G_REGISTRY[key or "cos-pi"][0]

    def oracle(y, component, alpha):
        # u' = 1 and v' = g(u): only the u-partials of v' are nonzero beyond f
        if component == 0:
            return np.ones_like(y[0]) if sum(alpha) == 0 else np.zeros_like(y[0])
        if alpha[1] > 0:
            return np.zeros_like(y[0])
        return derivs[alpha[0]](y[0])

    return oracle


def per_partial_jet(oracle, dim):
    """A jet built from one ``oracle`` call per distinct partial.

    ``T_0`` holds the ``dim`` values; each order-``j`` partial, fetched once
    per sorted index ``i1 <= ... <= ij``, is copied to every permutation of
    its index and the tensor divided by ``j!``.
    """
    def jet(y, r):
        tensors = [np.array([oracle(y, c, (0,) * dim) for c in range(dim)], dtype=float)]
        for order in range(1, r + 1):
            tensor = np.empty((dim,) * (order + 1))
            for comp in range(dim):
                for idxs in itertools.combinations_with_replacement(range(dim), order):
                    value = float(oracle(y, comp, [idxs.count(i) for i in range(dim)]))
                    for perm in set(itertools.permutations(idxs)):
                        tensor[(comp,) + perm] = value
            tensors.append(tensor / math.factorial(order))
        return tuple(tensors)

    return jet
