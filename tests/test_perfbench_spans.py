"""The benchmark tracer's patch targets exist on the package.

``perfbench/spans.py`` times layers by replacing module attributes by name,
so a refactor that drops or renames one breaks the traced benchmark.  The
file is read and executed here without importing it as a module, so no
bytecode is written next to it.
"""

import pathlib
import types

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = load_spans()


@pytest.mark.parametrize("owner,attr,name", spans.FULL + spans.SOLVE_ONLY)
def test_patch_target_resolves(owner, attr, name):
    # the tracer saves ``owner.__dict__[attr]`` before patching it
    assert attr in vars(spans._owner(owner)), f"{name}: ivporacle.{owner}.{attr} is gone"
