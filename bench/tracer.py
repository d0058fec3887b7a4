"""Span tracer that wraps module attributes from outside the program.

Inside a ``with Tracer(targets):`` block each target ``module.attr`` is
replaced by a wrapper that records a span (name, start, end, parent) and the
number of ``ode.rhs`` closure calls made while it was open.  Only calls
that look the function up through its module attribute at call time are
seen; NOTES.md lists which internal calls that covers.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time

from cohom1 import classify, cli, identities, ode, solver


class Span:
    __slots__ = ("name", "parent", "start", "end", "rhs_calls", "size")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.rhs_calls = 0
        self.size = None        # len() of a list result: sweep points, profiles

    @property
    def duration(self) -> float:
        return self.end - self.start


LIBRARY_TARGETS = (
    (solver, "solve"),
    (solver, "shoot"),
    (solver, "series_start"),
    (solver, "sweep"),
    (solver, "refine_brackets"),
    (ode, "residual_norm"),
    (ode, "closed_tension"),
    (ode, "raw_tension_sphere"),
    (ode, "raw_tension_so"),
    (identities, "identity_suite"),
    (classify, "linear_residual_oracle"),
)
CLI_TARGETS = ((cli, "main"),)


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans of the target functions and counts ``ode.rhs`` calls.

    The call stack that gives each span its parent is kept per thread.
    The rhs counter is not locked, so counts are exact only for calls made
    on one thread at a time.
    """

    def __init__(self, targets, count_rhs: bool):
        self.targets = targets
        self.count_rhs = count_rhs
        self.spans: list[Span] = []
        self.rhs_calls = 0
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        for module, attr in self.targets:
            self._replace(module, attr, self._wrap(getattr(module, attr), span_name(module, attr)))
        if self.count_rhs:
            self._replace(ode, "rhs", self._wrap_rhs(ode.rhs))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _replace(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, 0.0)
            tracer.spans.append(span)
            stack.append(span)
            rhs0 = tracer.rhs_calls
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rhs_calls = tracer.rhs_calls - rhs0
                stack.pop()
            if isinstance(result, list):
                span.size = len(result)
            return result

        return wrapper

    def _wrap_rhs(self, factory):
        tracer = self

        @functools.wraps(factory)
        def rhs(*args, **kwargs):
            accel = factory(*args, **kwargs)

            def counted(t, r, rdot):
                tracer.rhs_calls += 1
                return accel(t, r, rdot)

            return counted

        return rhs


def _mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no spans recorded for a per-layer metric")
    return statistics.fmean(values)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of the library spans.

    Solve metrics use top-level solves (the workload's own calls), so the
    solves nested in a refinement do not mix in; tension metrics likewise
    use top-level calls, not the consistency check inside series starts.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def kids(span, name):
        return [c for c in children.get(id(span), ()) if c.name == name]

    def named(name, top=False):
        return [s for s in spans if s.name == name and (not top or s.parent is None)]

    solves = named("solver.solve", top=True)
    shoots = [c for s in solves for c in kids(s, "solver.shoot")]
    sweeps = named("solver.sweep", top=True)
    refines = named("solver.refine_brackets")
    sweep_points = sum(s.size for s in sweeps)
    raw = [
        s for s in spans
        if s.name.startswith("ode.raw_tension") and s.parent is None
    ]
    return {
        "ode.rhs_calls_per_solve": (_mean(s.rhs_calls for s in solves), "count"),
        "ode.rhs_calls_per_sweep_point": (
            sum(s.rhs_calls for s in sweeps) / sweep_points, "count"
        ),
        "solver.solve_ms": (_mean(s.duration for s in solves) * 1e3, "ms"),
        "solver.shoot_ms": (_mean(s.duration for s in shoots) * 1e3, "ms"),
        "solver.shoot_calls_per_solve": (len(shoots) / len(solves), "count"),
        "solver.solve_self_ms": (
            _mean(
                s.duration - sum(c.duration for c in kids(s, "solver.shoot"))
                for s in solves
            ) * 1e3,
            "ms",
        ),
        "solver.series_start_us": (
            _mean(s.duration for s in named("solver.series_start")) * 1e6, "us"
        ),
        "ode.residual_norm_ms": (
            _mean(s.duration for s in named("ode.residual_norm")) * 1e3, "ms"
        ),
        "solver.sweep_point_ms": (
            sum(s.duration for s in sweeps) / sweep_points * 1e3, "ms"
        ),
        "solver.refine_self_ms": (
            _mean(
                s.duration - sum(c.duration for c in kids(s, "solver.solve"))
                for s in refines
            ) * 1e3,
            "ms",
        ),
        "solver.refine_solve_calls": (
            _mean(len(kids(s, "solver.solve")) for s in refines), "count"
        ),
        "solver.refine_profiles": (_mean(s.size for s in refines), "count"),
        "identities.identity_suite_ms": (
            _mean(s.duration for s in named("identities.identity_suite")) * 1e3, "ms"
        ),
        "ode.closed_tension_us": (
            _mean(s.duration for s in named("ode.closed_tension", top=True)) * 1e6, "us"
        ),
        "ode.raw_tension_us": (_mean(s.duration for s in raw) * 1e6, "us"),
        "classify.linear_residual_oracle_us": (
            _mean(s.duration for s in named("classify.linear_residual_oracle")) * 1e6,
            "us",
        ),
    }
