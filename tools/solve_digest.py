"""Print one SHA-256 digest over a fixed matrix of solves, to check that a
change keeps every trajectory bit for bit.

    python3 tools/solve_digest.py [--verbose]

Run it from any directory; it imports the package from the ``src/`` next to
this script.  The matrix is every catalog problem x mode x r in 0-3 x
n in {8, 16, 64, 256} x seed in {0, 1, 12345}, then the benchmark's
``boosted`` and ``deterministic`` requests at seed 0 (780 solves), then
``quantum_sim`` solves of every catalog problem x r in 0-3 x seed in {0, 1}
at the ``(n, c, delta)`` of ``QUANTUM_EXTRA``: k = 1, k = 2, an odd k ending
in a partial block of noise, and an even k over more than three blocks,
another 128 solves.  For each
solve the digest reads the endpoints, each piece's center and coefficients,
the ledger and ``sup_error`` against the problem's reference, or the type and
message of the error the solve raised.  Two trees print the same digest only
if all of these are identical; the digest itself depends on the platform's
libm and numpy, so compare digests made on one host.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ivporacle as iv  # noqa: E402

R = range(4)
N = (8, 16, 64, 256)
SEEDS = (0, 1, 12345)
# (mode, problem, r, n): the requests of perfbench/bench.py's BOOSTED and DETERMINISTIC
BENCH_REQUESTS = (
    ("randomized", "scalar-exponential", 0, 512),
    ("randomized", "integration-reduction:cos-pi", 3, 256),
    ("randomized", "logistic", 1, 256),
    ("quantum_sim", "scalar-exponential", 1, 1024),
    ("quantum_sim", "integration-reduction:cos-pi", 3, 256),
    ("quantum_sim", "logistic", 0, 256),
    ("det_values", "integration-reduction:cos-pi", 3, 1024),
    ("det_values", "logistic", 1, 1024),
    ("det_values", "scalar-exponential", 0, 1024),
    ("det_exact", "integration-reduction:cos-pi", 1, 1024),
    ("det_exact", "logistic", 3, 256),
    ("det_exact", "scalar-exponential", 3, 1024),
)

# (n, c, delta) of the further quantum_sim solves, and the k each gives
QUANTUM_EXTRA = (
    (8, 0.1, 0.1),  # k = 1
    (133, 0.1, 0.1),  # k = 2
    (133, 3.0, 0.1),  # k = 31
    (200, 1.0, 0.3),  # k = 10
)


def cases():
    """``(mode, problem, r, n, seed[, c, delta])`` of every solve, in digest order."""
    for name, mode, r, n, seed in itertools.product(iv.catalog_names(), iv.MODES, R, N, SEEDS):
        yield mode, name, r, n, seed
    for mode, name, r, n in BENCH_REQUESTS:
        yield mode, name, r, n, 0
    for name, r, (n, c, delta), seed in itertools.product(iv.catalog_names(), R, QUANTUM_EXTRA, (0, 1)):
        yield "quantum_sim", name, r, n, seed, c, delta


def solve_bytes(mode: str, name: str, r: int, n: int, seed: int, c: float = 3.0, delta: float = 0.1) -> bytes:
    """Everything one solve's output is judged by, as bytes."""
    problem = iv.catalog(name, r=r)
    try:
        traj = iv.solve(problem, iv.SolveConfig(n=n, mode=mode, seed=seed, c=c, delta=delta))
        error = iv.sup_error(traj, problem.reference)
    except (iv.ContractViolationError, iv.DomainError, iv.DivergenceError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    led = traj.ledger
    parts = [traj.endpoints.tobytes()]
    parts += [piece.center.hex().encode() + piece.coeffs.tobytes() for piece in traj.pieces]
    parts.append(f"{led.classical_evals},{led.oracle_queries},{led.repetitions},{error.hex()}".encode())
    return b"".join(parts)


def main(argv: list[str]) -> int:
    verbose = "--verbose" in argv
    total = hashlib.sha256()
    count = 0
    for case in cases():
        data = solve_bytes(*case)
        total.update(repr(case).encode() + hashlib.sha256(data).digest())
        count += 1
        if verbose:
            print(*case, hashlib.sha256(data).hexdigest()[:16], file=sys.stderr)
    print(f"{total.hexdigest()}  {count} solves")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
