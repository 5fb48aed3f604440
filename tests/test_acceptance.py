"""Acceptance suite: eight headline properties, one verdict line each.

Every test prints `criterion N: PASS/FAIL ...` with the measured quantity,
its tolerance, and the elapsed time against the budget, then asserts.  Run
with `-rP` (the repo default) or `-s` to see the lines for passing tests.

Budgets are wall-clock seconds on a desk machine; tolerances are stated
inline and never loosened at runtime.
"""

import time

import numpy as np

from ivporacle import (
    ExperimentConfig,
    OracleConfig,
    ResidualIntegrand,
    SolveConfig,
    boost_median,
    build_l,
    build_w,
    catalog,
    derive_seed,
    estimate_cost_exponent,
    estimate_order,
    eval_rhs,
    integrate_deterministic,
    integrate_quantum_sim,
    integrate_randomized,
    integrate_w_of_l,
    local_derivatives,
    repetitions_for,
    rows_to_csv,
    run_sweep,
    solve,
)
from conftest import make_kink_integrand, reference_integral
from test_solver import modified_euler


def report(criterion, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {verdict}  {detail}  [{elapsed:.1f}s / budget {budget:.0f}s]")


def test_criterion_1_step_identity():
    """Taylor part + rescaled residual integral == exact integral of f along l."""
    budget, tol = 10.0, 1e-10
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = [("scalar-exponential", 0, 1.0), ("scalar-exponential", 2, 1.0),
             ("scalar-quadratic", 1, 1.0), ("scalar-quadratic", 3, 1.0),
             ("logistic", 1, 0.5), ("integration-reduction:cos-pi", 2, 1.0),
             ("integration-reduction:cos-pi", 0, 1.0)]
    worst = 0.0
    for step in range(20):
        name, r, rho = cases[step % len(cases)]
        p = catalog(name, r=r, rho=rho)
        y = p.eta + rng.uniform(-0.05, 0.05, size=p.dim)
        x_i = p.interval[0] + rng.uniform(0.0, 0.2)
        h = rng.uniform(0.02, 0.2)
        w = build_w(p, y)
        l = build_l(local_derivatives(w, r + 1), x_i)
        lhs = y + integrate_w_of_l(w, l, h) \
            + h ** (r + rho + 1.0) * reference_integral(ResidualIntegrand(p, w, l, h))
        rhs = y + h * reference_integral(lambda u: eval_rhs(p, l.eval_offset(u * h)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget
    report(1, ok, f"step-identity gap {worst:.2e} over 20 random steps (tol {tol:.0e})",
           elapsed, budget)
    assert ok


def test_criterion_2_convergence_order():
    """det_exact empirical orders inside [r+rho+0.7, r+rho+1.5]."""
    budget = 60.0
    t0 = time.perf_counter()
    results = []
    ok = True
    for name in ("scalar-exponential", "integration-reduction:cos-pi"):
        for r, rho in ((0, 1.0), (1, 1.0), (2, 1.0)):
            cfg = ExperimentConfig(problems=(name,), modes=("det_exact",),
                                   r_values=(r,), rho_values=(rho,),
                                   n_values=(8, 16, 32, 64, 128, 256))
            slope = estimate_order(run_sweep(cfg))
            lo, hi = r + rho + 0.7, r + rho + 1.5
            ok = ok and lo <= slope <= hi
            results.append(f"{name} ({r},{rho}): {slope:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report(2, ok, "orders " + "; ".join(results) + " (windows r+rho+[0.7,1.5])",
           elapsed, budget)
    assert ok


def test_criterion_3_residual_nullity():
    """Polynomial f of degree <= r: zero correction targets, pure Taylor stepping."""
    budget, tol = 5.0, 1e-12
    t0 = time.perf_counter()
    worst_target, worst_step = 0.0, 0.0
    for name, r in (("scalar-exponential", 1), ("scalar-exponential", 2),
                    ("logistic", 2), ("logistic", 3)):
        p = catalog(name, r=r)
        n = 8
        a, b = p.interval
        h = (b - a) / n
        y = p.eta.copy()
        for i in range(n):
            x_i = a + i * h
            w = build_w(p, y)
            l = build_l(local_derivatives(w, r + 1), x_i)
            target = reference_integral(ResidualIntegrand(p, w, l, h))
            worst_target = max(worst_target, float(np.max(np.abs(target))))
            y = y + integrate_w_of_l(w, l, h)  # A_i dropped entirely
        traj = solve(p, SolveConfig(n=n, mode="det_exact"))
        worst_step = max(worst_step, float(np.max(np.abs(traj.endpoints[-1] - y))))
    elapsed = time.perf_counter() - t0
    ok = worst_target <= tol and worst_step <= tol and elapsed < budget
    report(3, ok, f"max |A target| {worst_target:.1e}, trajectory gap {worst_step:.1e} "
                  f"(tol {tol:.0e})", elapsed, budget)
    assert ok


def test_criterion_4_oracle_contracts():
    """Deterministic error bound; randomized 3/4 success; quantum emission band."""
    budget = 120.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)

    det_worst = 0.0
    for r, rho in ((0, 1.0), (1, 1.0)):
        for eps1 in (1e-1, 1e-2, 1e-3):
            cfg = OracleConfig(eps1=eps1, smoothness=(r, rho))
            for _ in range(50):
                g = make_kink_integrand(rng, r, rho)
                err = np.max(np.abs(integrate_deterministic(g, cfg).value - g.exact))
                det_worst = max(det_worst, float(err / eps1))
    det_ok = det_worst <= 1.0

    eps1 = 1e-2
    g = make_kink_integrand(rng, 0, 1.0)
    hits = sum(
        np.max(np.abs(integrate_randomized(
            g, OracleConfig(eps1=eps1, smoothness=(0, 1.0),
                            seed=seed)).value - g.exact)) <= eps1
        for seed in range(500))
    rand_freq = hits / 500
    rand_ok = rand_freq >= 0.75

    ref = reference_integral(g)
    in_band = sum(
        abs(integrate_quantum_sim(
            OracleConfig(eps1=eps1, smoothness=(0, 1.0), seed=seed),
            reference=ref).value[0] - ref[0]) <= eps1
        for seed in range(10_000))
    quant_freq = in_band / 10_000
    quant_ok = 0.74 <= quant_freq <= 0.76

    elapsed = time.perf_counter() - t0
    ok = det_ok and rand_ok and quant_ok and elapsed < budget
    report(4, ok, f"det worst err/eps1 {det_worst:.3f} (<=1); randomized success "
                  f"{rand_freq:.3f} (>=0.75, 500 seeds); quantum band {quant_freq:.4f} "
                  f"(in [0.74,0.76], 1e4 seeds)", elapsed, budget)
    assert ok


def test_criterion_5_boosting():
    """All n per-step estimates inside eps1 with frequency >= 0.9 over 500 trials."""
    budget, delta = 120.0, 0.1
    t0 = time.perf_counter()
    eps1 = 1e-2
    ref = np.array([0.4])
    freqs = {}
    ok = True
    for n in (16, 64):
        k = repetitions_for(delta, n)
        good = 0
        for trial in range(500):
            all_in = True
            for step in range(n):
                est = boost_median(
                    lambda j: integrate_quantum_sim(
                        OracleConfig(eps1=eps1, smoothness=(0, 1.0),
                                     seed=derive_seed(trial, n, step, j)),
                        reference=ref),
                    k)
                if abs(est.value[0] - ref[0]) > eps1:
                    all_in = False
                    break
            good += all_in
        freqs[n] = good / 500
        ok = ok and freqs[n] >= 1.0 - delta
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    report(5, ok, f"simultaneous success n=16: {freqs[16]:.3f}, n=64: {freqs[64]:.3f} "
                  f"(>= 0.9, 500 trials, k=repetitions_for(0.1, n))", elapsed, budget)
    assert ok


def test_criterion_6_cost_exponents():
    """Measured cost-vs-n slopes match the three model predictions +- 0.15."""
    budget, tol = 300.0, 0.15
    t0 = time.perf_counter()
    ns = (8, 16, 32, 64, 128, 256, 512)
    targets = {
        "det_values": lambda r, rho: 1.0 + 1.0 / (r + rho),
        "randomized": lambda r, rho: (r + rho + 1.5) / (r + rho + 0.5),
        "quantum_sim": lambda r, rho: (r + rho + 2.0) / (r + rho + 1.0),
    }
    slopes = {}
    ok = True
    details = []
    for r, rho in ((0, 1.0), (1, 1.0)):
        for mode, target in targets.items():
            cfg = ExperimentConfig(problems=("scalar-exponential",), modes=(mode,),
                                   r_values=(r,), rho_values=(rho,), n_values=ns,
                                   delta=0.1, seeds=(0,))
            slope = estimate_cost_exponent(run_sweep(cfg), delta=0.1)
            slopes[(mode, r, rho)] = slope
            want = target(r, rho)
            ok = ok and abs(slope - want) <= tol
            details.append(f"{mode}({r},{rho}) {slope:.3f} vs {want:.3f}")
    ordered = (slopes[("quantum_sim", 0, 1.0)] < slopes[("randomized", 0, 1.0)]
               < slopes[("det_values", 0, 1.0)])
    elapsed = time.perf_counter() - t0
    ok = ok and ordered and elapsed < budget
    report(6, ok, "; ".join(details) + f"; ordering quantum<rand<det at (0,1): {ordered} "
                  f"(tol +-{tol})", elapsed, budget)
    assert ok


def test_criterion_7_modified_euler_bit_identity():
    """General stepper at r = 0 reproduces a hand-written modified Euler bit for bit."""
    budget = 5.0
    t0 = time.perf_counter()
    combos = [
        ("scalar-exponential", "det_exact", 0), ("scalar-exponential", "det_values", 1),
        ("scalar-exponential", "randomized", 2), ("scalar-exponential", "quantum_sim", 3),
        ("logistic", "randomized", 4), ("logistic", "quantum_sim", 5),
        ("scalar-quadratic", "randomized", 6), ("scalar-quadratic", "det_exact", 7),
        ("logistic", "det_values", 8), ("scalar-quadratic", "quantum_sim", 9),
    ]
    identical = 0
    for name, mode, seed in combos:
        p = catalog(name, r=0)
        cfg = SolveConfig(n=8, mode=mode, seed=seed)
        if np.array_equal(solve(p, cfg).endpoints, modified_euler(p, cfg)):
            identical += 1
    elapsed = time.perf_counter() - t0
    ok = identical == len(combos) and elapsed < budget
    report(7, ok, f"bit-identical trajectories {identical}/10 (exact float equality)",
           elapsed, budget)
    assert ok


def test_criterion_8_csv_reproducibility():
    """Identical sweep configuration twice -> byte-identical CSV."""
    budget = 60.0
    t0 = time.perf_counter()
    cfg = ExperimentConfig(problems=("scalar-exponential", "logistic"),
                           modes=("det_values", "randomized", "quantum_sim"),
                           r_values=(0, 1), n_values=(8, 16), seeds=(0, 1))
    first = rows_to_csv(run_sweep(cfg)).encode()
    second = rows_to_csv(run_sweep(cfg)).encode()
    elapsed = time.perf_counter() - t0
    ok = first == second and elapsed < budget
    report(8, ok, f"two identical sweeps, {len(first)} bytes each, byte-equal: {first == second}",
           elapsed, budget)
    assert ok
