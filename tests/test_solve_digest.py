"""``tools/solve_digest.py`` digests the benchmark's own solve requests.

Both files are parsed, not imported: the digest script puts ``src/`` on
``sys.path`` when it is imported, and nothing here should write bytecode next
to the benchmark.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def literal(path: pathlib.Path, name: str):
    """The literal value of the module-level assignment ``name = ...`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_digest_requests_are_the_benchmarks():
    bench = ROOT / "perfbench" / "bench.py"
    want = literal(bench, "BOOSTED") + literal(bench, "DETERMINISTIC")
    assert literal(ROOT / "tools" / "solve_digest.py", "BENCH_REQUESTS") == want
