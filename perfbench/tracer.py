"""Outside-in span tracer for bpalm.

The tracer replaces public functions at the place their caller looks them up
(a module global such as ``bpalm.outer.solve_subproblem``, or a class
attribute such as ``SubproblemContext.hess``) with a wrapper that records one
span per call: name, start, end, parent span and whether the call raised.
Spans stay in memory until `write` saves them.  Nothing under ``src/`` is
edited, and `installed` restores every original on exit.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (owner path, attribute, span name).  The owner is where the caller looks
# the name up, so a call made through another module's import is not seen.
MODULE_FUNCTIONS = [
    ("bpalm.outer", "outer_iteration", "outer.outer_iteration"),
    ("bpalm.outer", "select_sigma", "outer.select_sigma"),
    ("bpalm.outer", "make_context", "auglag.make_context"),
    ("bpalm.outer", "solve_subproblem", "newton.solve_subproblem"),
    ("bpalm.outer", "kkt_residuals", "problem.kkt_residuals"),
    ("bpalm.newton", "cho_factor", "newton.cho_factor"),
    ("bpalm.newton", "cho_solve", "newton.cho_solve"),
    ("bpalm.auglag", "bregman_distance", "legendre.bregman_distance"),
    ("bpalm.cli", "bregman_distance", "legendre.bregman_distance"),
    ("bpalm.diagnostics", "bregman_distance", "legendre.bregman_distance"),
    ("bpalm.cli", "parse_problem", "cli.parse_problem"),
    ("bpalm.cli", "run", "outer.run"),
    ("bpalm.diagnostics", "fejer_check", "diagnostics.fejer_check"),
    ("bpalm.diagnostics", "rate_fit", "diagnostics.rate_fit"),
    ("bpalm.diagnostics", "ergodic_gap_check", "diagnostics.ergodic_gap_check"),
    ("bpalm.diagnostics", "conic_feasibility_check", "diagnostics.conic_feasibility_check"),
]

METHODS = [
    ("bpalm.auglag", "SubproblemContext", "hess", "auglag.hess"),
    ("bpalm.auglag", "SubproblemContext", "grad", "auglag.grad"),
    ("bpalm.auglag", "SubproblemContext", "acceptance_check", "auglag.acceptance_check"),
    ("bpalm.penalty", "DualPenalty", "value", "penalty.value"),
    ("bpalm.penalty", "DualPenalty", "grad", "penalty.grad"),
    ("bpalm.penalty", "DualPenalty", "hess", "penalty.hess"),
    ("bpalm.problem", "SmoothObjective", "grad", "problem.f_grad"),
    ("bpalm.problem", "SmoothObjective", "quadratic", "problem.setup"),
    ("bpalm.problem", "AffineMap", "from_dense", "problem.setup"),
] + [
    ("bpalm.legendre", cls, meth, f"legendre.{meth}")
    for cls in ("Energy", "VonNeumann", "Spence", "BoxBarrier")
    for meth in ("grad", "conj_grad", "hess_diag")
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.raised: list[bool] = []
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.raised.append(False)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.raised[idx] = raised
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into the program."""
        idx = self._open(self._name(name))
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(idx, raised)

    def wrap(self, fn, name: str):
        nid = self._name(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx, False)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of MODULE_FUNCTIONS and METHODS; restore on exit."""
        saved = []
        try:
            for path, attr, name in MODULE_FUNCTIONS:
                owner = importlib.import_module(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            for path, cls_name, attr, name in METHODS:
                owner = getattr(importlib.import_module(path), cls_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(original.__func__, name)))
                else:
                    setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "raised": np.asarray(self.raised, dtype=bool),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Calls are strictly nested on one thread, so children never overlap and
    the subtraction covers exactly the part of the interval they occupy.
    """
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def root_of(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Index of the root span each span descends from."""
    parent = arrays["parent"]
    root = np.arange(parent.size)
    # parents precede children, so one forward sweep resolves every chain
    for i in range(parent.size):
        if parent[i] >= 0:
            root[i] = root[parent[i]]
    return root
