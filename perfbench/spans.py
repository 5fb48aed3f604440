"""In-memory span recorder that times ivporacle's layers from outside.

A :class:`Tracer` replaces module attributes that the package resolves at
call time (``ivporacle.solver.build_w``, ``ivporacle.taylor.eval_rhs``,
``ResidualIntegrand.__call__``, ...) with wrappers that record one span per
call: name, parent span, start, end, and an optional work count.  Nothing
under ``src/`` changes.  Spans live in flat arrays until the pass ends;
:func:`layer_stats` then derives per-layer self time, which is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter

import numpy as np

#: (attribute owner, attribute, span name) for the traced run.  The owner is
#: a module below ``ivporacle`` or ``module.Class``.  Every span that can
#: open inside ``solve`` is listed here, so self times under ``solver.solve``
#: add up to the traced solve time.
FULL = (
    ("solver", "eval_rhs", "problem.eval_rhs"),
    ("solver", "local_derivatives", "taylor.local_derivatives"),
    ("solver", "build_l", "taylor.build_l"),
    ("solver", "build_w", "taylor.build_w"),
    ("solver", "integrate_w_of_l", "taylor.integrate_w_of_l"),
    ("solver", "integrate_reference", "quad.integrate_reference"),
    ("solver", "integrate_deterministic", "quad.integrate_deterministic"),
    ("solver", "integrate_randomized", "quad.integrate_randomized"),
    ("solver", "integrate_quantum_sim", "quad.integrate_quantum_sim"),
    ("solver", "quantum_reference", "quad.quantum_reference"),
    ("solver", "boost_median", "quad.boost_median"),
    ("solver", "derive_seed", "quad.derive_seed"),
    ("taylor", "eval_rhs", "problem.eval_rhs"),
    ("taylor", "eval_partial", "problem.eval_partial"),
    ("taylor.ResidualIntegrand", "__call__", "taylor.residual_eval"),
    ("cli", "solve", "solver.solve"),
    ("cli", "sup_error", "solver.sup_error"),
    ("cli", "catalog", "cli.catalog"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "rows_to_csv", "cli.rows_to_csv"),
    ("cli", "estimate_order", "cli.estimate_order"),
)

#: Untraced runs time only whole solves issued by the CLI, which
#: ``steps_per_s`` needs: one span per sweep cell.
SOLVE_ONLY = (("cli", "solve", "solver.solve"),)


def _rhs_points(args) -> int:
    """Points in one ``eval_rhs(problem, y, ledger)`` call: 1 or ``y.shape[1]``."""
    y = np.asarray(args[1])
    return 1 if y.ndim == 1 else int(y.shape[1])


#: Work counters recorded alongside a span, by span name.
WORK = {"problem.eval_rhs": _rhs_points}


class Tracer:
    """Records spans for one pass; patch with :meth:`installed`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        nid = self._id(name)
        count = WORK.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.work.append(count(args) if count else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; used for the benchmark's own calls."""
        return self.wrap(name, fn)(*args)

    @contextlib.contextmanager
    def installed(self, patches):
        """Patch ``patches`` with span-recording wrappers; restore them on exit."""
        saved = []
        try:
            for owner_path, attr, name in patches:
                owner = _owner(owner_path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, saved[-1][2]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        sel = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[sel]


def _owner(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"ivporacle.{module}")
    return getattr(obj, cls) if cls else obj


#: A ``quad.integrate_reference`` call that reached ``max_panels`` evaluated
#: its integrand at 8 panels and then at each of 16, 32, ..., 4096 panels.
REFERENCE_EVALS_WHEN_EXHAUSTED = 10


def layer_stats(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one pass.

    Returns ``{name: {"calls", "self_s", "work"}}`` under ``"layers"``, the
    exhausted count of ``quad.integrate_reference``, the summed duration of
    ``solver.solve`` spans (``solve_s``) and, under ``"solve_self_s"``, each
    name's self time within those spans.  Summed over all names the last
    equals ``solve_s`` whenever spans nest; summed over a subset of names it
    falls short by the self time of the names left out.
    """
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    work = np.frombuffer(tracer.work, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time

    layers = {}
    for nid, name in enumerate(tracer.names):
        sel = name_id == nid
        layers[name] = {"calls": int(sel.sum()), "self_s": float(self_time[sel].sum()),
                        "work": int(work[sel].sum())}

    exhausted = 0
    ref_id = tracer._ids.get("quad.integrate_reference")
    eval_id = tracer._ids.get("taylor.residual_eval")
    if ref_id is not None and eval_id is not None:
        evals = np.bincount(parent[has_parent & (name_id == eval_id)], minlength=len(dur))
        exhausted = int(np.sum(evals[name_id == ref_id] == REFERENCE_EVALS_WHEN_EXHAUSTED))

    # Walk all ancestor chains up together, one tree level per sweep.
    solve_id = tracer._ids.get("solver.solve", -1)
    inside = name_id == solve_id
    ancestor = parent.copy()
    while np.any(ancestor >= 0):
        up = ancestor >= 0
        inside[up] |= name_id[ancestor[up]] == solve_id
        ancestor[up] = parent[ancestor[up]]
    return {
        "layers": layers,
        "reference_exhausted": exhausted,
        "solve_s": float(dur[name_id == solve_id].sum()),
        "solve_self_s": {name: float(self_time[inside & (name_id == nid)].sum())
                         for nid, name in enumerate(tracer.names)},
    }
