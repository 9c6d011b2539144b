"""Outside-in tracing of layer boundaries for the traced run.

The tracer replaces public functions and methods of the library with timing
wrappers from the benchmark's side and puts the originals back afterwards;
nothing in `valveplan` is edited. A decide-heavy solve makes about 10^5
boundary calls a second, so each boundary keeps in-memory aggregates
(calls, total time, time in nested boundaries, truthy results) instead of
one span object per call. Self time is total time minus nested time.
"""

import contextlib
import time

from valveplan import cli, isolation, network, oracle, pareto, solver, state

# (owner, attribute, boundary name, keep (args, return value) of each call)
TARGETS = (
    (solver.Search, "decide", "solver.decide", False),
    (solver.Search, "choose_branch", "solver.choose_branch", False),
    (solver.Search, "try_incumbent", "solver.try_incumbent", False),
    (state.TrailedState, "undo_frame", "state.undo_frame", False),
    (solver, "worst_case_fast", "solver.leaf", False),
    (oracle, "worst_case_fast", "oracle.worst_case", False),
    (pareto, "_best_extension", "pareto.best_extension", False),
    (pareto, "solve", "pareto.solve", True),
    (isolation, "ud_by_component_deletion", "isolation.component_deletion", False),
    (network, "parse_network", "network.parse", False),
    (cli, "main", "cli.main", False),
)

CALLS, TOTAL, NESTED, TRUTHY = range(4)


class NullTracer:
    """Stands in for the tracer in untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()

    def results(self, name):
        return []

    def forget_results(self):
        pass


class Tracer:
    def __init__(self):
        self._acc = {}
        self._kept = {}
        self._stack = [0.0]         # nested time of the open boundaries
        self._saved = []

    def _slot(self, name):
        return self._acc.setdefault(name, [0, 0.0, 0.0, 0])

    def _wrap(self, name, fn, keep):
        acc = self._slot(name)
        stack = self._stack
        clock = time.perf_counter
        kept = self._kept.setdefault(name, []) if keep else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[NESTED] += stack.pop()
                stack[-1] += dt
                acc[CALLS] += 1
                acc[TOTAL] += dt
            if result:
                acc[TRUTHY] += 1
            if kept is not None:
                kept.append((args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A boundary around a call made by the benchmark itself."""
        acc = self._slot(name)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            acc[NESTED] += self._stack.pop()
            self._stack[-1] += dt
            acc[CALLS] += 1
            acc[TOTAL] += dt

    def install(self):
        for owner, attr, name, keep in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def forget_results(self):
        for kept in self._kept.values():
            kept.clear()

    def results(self, name):
        """(args, return value) pairs kept since the last `forget_results`."""
        return list(self._kept.get(name, ()))

    def calls(self, *names):
        return sum(self._acc.get(n, (0,))[CALLS] for n in names)

    def total(self, *names):
        return sum(self._acc[n][TOTAL] for n in names if n in self._acc)

    def self_time(self, *names):
        return sum(self._acc[n][TOTAL] - self._acc[n][NESTED] for n in names if n in self._acc)

    def truthy(self, name):
        return self._acc[name][TRUTHY] if name in self._acc else 0

    def mean(self, scale, *names):
        """Mean time per call over `names`, times `scale`; 0 without calls."""
        n = self.calls(*names)
        return self.total(*names) / n * scale if n else 0.0

    def snapshot(self):
        return {name: {"calls": a[CALLS], "total_s": a[TOTAL], "self_s": a[TOTAL] - a[NESTED]}
                for name, a in sorted(self._acc.items())}
