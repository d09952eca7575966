"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around calls into the
program. While an op is traced, every public function of ``sg.exact``,
``sg.hard``, ``sg.checks`` and ``sg.qvi`` is replaced at each module binding
site (including names one module imported by value from another) by a timing
wrapper, as are the sampling methods of ``GenerativeModel`` and the methods of
``PolicyLinearSystem``, including the first access of its lazy ``lu``
factorization. The originals are put back when the op ends, so untraced ops
run the unmodified program.

A span is named ``<layer>.<function>``, where the layer is the module that
defines the function, not the one that called it. Spans stay in memory and
are written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import sg.checks
import sg.exact
import sg.hard
import sg.qvi
from sg.exact import PolicyLinearSystem
from sg.sampler import GenerativeModel

TRACED_MODULES = (sg.exact, sg.hard, sg.checks, sg.qvi)
SAMPLER_METHODS = ("estimate_mean_and_var", "estimate_diff_mean")
SPANNED_METHODS = ("__init__", "solve", "solve_transpose")
# Called once or more per chain step or refinement pass; a span each would
# cost about as much as the call, so these are only counted.
COUNTED_METHODS = ("step_distribution", "matvec", "rmatvec")

perf_counter = time.perf_counter


@dataclass
class Span:
    id: int
    parent: int   # id of the enclosing span, -1 at op level
    op: int
    name: str     # "<layer>.<function>"
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans[k].id`` must equal ``k``, as the tracer records them.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of ``layer`` with no ancestor in the same layer."""
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p >= 0 and spans[p].layer != layer:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class Tracer:
    """Records spans and counts for the ops run inside :meth:`recording`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._factored: weakref.WeakSet = weakref.WeakSet()
        self._patches = self._plan()

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1,
                    self._op, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return wrapper

    def _sampled(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            span = self._enter(name)
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._exit(span)
                m = kwargs["m"] if "m" in kwargs else args[-1]
                counts["sampler.pair_batches"] += model.n_pairs
                counts["sampler.draws"] += int(m) * model.n_pairs
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _first_factor(self, prop: property) -> property:
        factored = self._factored

        def lu(system):
            if system in factored:
                return prop.fget(system)
            span = self._enter("exact.PolicyLinearSystem.lu")
            try:
                return prop.fget(system)
            finally:
                self._exit(span)
                factored.add(system)
        return property(lu)

    def _plan(self) -> list[tuple[object, str, object]]:
        traced = {m.__name__ for m in TRACED_MODULES}
        patches: list[tuple[object, str, object]] = []
        for module in TRACED_MODULES:
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or inspect.isgeneratorfunction(value)
                        or value.__module__ not in traced):
                    continue
                layer = value.__module__.rsplit(".", 1)[1]
                patches.append((module, attr,
                                self._spanned(value, f"{layer}.{value.__name__}")))
        for attr in SAMPLER_METHODS:
            patches.append((GenerativeModel, attr,
                            self._sampled(vars(GenerativeModel)[attr], f"sampler.{attr}")))
        pls = vars(PolicyLinearSystem)
        for attr in SPANNED_METHODS:
            patches.append((PolicyLinearSystem, attr,
                            self._spanned(pls[attr], f"exact.PolicyLinearSystem.{attr}")))
        for attr in COUNTED_METHODS:
            patches.append((PolicyLinearSystem, attr,
                            self._counted(pls[attr], f"exact.PolicyLinearSystem.{attr}")))
        patches.append((PolicyLinearSystem, "lu", self._first_factor(pls["lu"])))
        return patches

    # -- recording ---------------------------------------------------------

    @contextmanager
    def recording(self, op: int):
        """Trace every call into the program made inside the block."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in self._patches]
        self._op = op
        try:
            for owner, attr, new in self._patches:
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)
            self._stack.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
