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


# The layers each mode's step calls through the tracer's patch targets.  The
# step integral is computed inside the residual's evaluation, so the traced
# solver.integrate_w_of_l is called 0 times; a quantum_sim step adds its
# reference to noise the solve orders a block of steps at a time, so the
# traced solver.integrate_quantum_sim is called 0 times too.
_STEP_TARGETS = {("solver", "build_w"), ("solver", "local_derivatives"), ("solver", "build_l"),
                 ("taylor.ResidualIntegrand", "__call__"), ("taylor", "eval_rhs")}
_MODE_TARGETS = {
    "det_exact": {("solver", "integrate_reference")},
    "det_values": {("solver", "integrate_deterministic")},
    "randomized": {("solver", "integrate_randomized")},
    "quantum_sim": {("solver", "quantum_reference")},
}


@pytest.mark.parametrize("mode", sorted(_MODE_TARGETS))
def test_each_step_passes_through_every_traced_layer(monkeypatch, mode):
    """Each of ``solve``'s n steps calls each step layer and the mode's
    oracles once, through the attributes the tracer patches, and no other
    patched layer: a step that bypassed one would leave its metrics at 0."""
    from ivporacle import SolveConfig, catalog, solver

    calls = {(owner, attr): 0 for owner, attr, _ in spans.FULL}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner_path, attr, _ in spans.FULL:
        owner = spans._owner(owner_path)
        monkeypatch.setattr(owner, attr, counted((owner_path, attr), vars(owner)[attr]))
    solver.solve(catalog("logistic", r=1), SolveConfig(n=8, mode=mode))
    assert calls == {key: 8 if key in _STEP_TARGETS | _MODE_TARGETS[mode] else 0 for key in calls}
