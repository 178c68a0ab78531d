"""Span tracer that times the package's public functions from outside it.

``Tracer.install()`` replaces every public function of the ``timebarrier``
package wherever a package module binds it (``timebarrier.sweep.simulate`` as
well as ``timebarrier.integrate.simulate`` and ``timebarrier.simulate``), and
wraps the ``rhs``, ``v`` and ``vdot`` callables of every ``DynamicsSpec`` a
wrapped function returns. No package file changes; ``uninstall()`` restores
every binding.

Each call is a span: name, start, end, parent span and op id. Calls of the
per-sample callbacks in ``AGGREGATED`` (10^5-10^6 per run) are folded into one
``[calls, total_s, self_s]`` entry per (op, parent span, name) instead of one
span each. A span's self time is its duration minus the durations of its
direct children; children of one span run one after another on one thread, so
the self times of an op's spans partition the op's duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time

from timebarrier.core import DynamicsSpec

PACKAGE = "timebarrier"
LAYERS = ("core", "analytic", "systems", "integrate", "certify", "sweep", "cli")
OP = "bench.op"

AGGREGATED = frozenset(
    {
        "systems.rhs",
        "systems.v",
        "systems.vdot",
        "core.w_transform",
        "analytic.exact_solution_scalar",
        "integrate.resample",
    }
)
_SPEC_CALLABLES = ("rhs", "v", "vdot")


class Tracer:
    def __init__(self):
        self.spans = []  # (span_id, parent_id, op_id, name, start, end, self_s)
        self.aggregates = {}  # (op_id, parent_id, name) -> [calls, total_s, self_s]
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self._stack = []  # frames: [span_id, name, start, child_s]
        self._next_id = 1
        self._op_id = None
        self._patched = []  # (module, attribute, original)
        self._hooks = {
            "integrate.simulate": self._count_trajectory,
            "certify.check_dissipation": self._count_certificate,
            "sweep.run_sweep": self._count_sweep,
            "cli.render_trajectory_csv": self._count_csv,
            "cli.render_sweep_csv": self._count_csv,
        }

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every public package function at each module that binds it."""
        import timebarrier.cli  # noqa: F401  (not imported by the package itself)

        wrappers = {}
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                span_name = _public_name(value)
                if span_name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, span_name)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, DynamicsSpec):
                    result = tracer._wrap_spec(result)
                if hook is not None:
                    hook(result, args)
                return result
            finally:
                tracer._exit(frame)

        traced.__traced__ = True
        return traced

    def _wrap_spec(self, spec: DynamicsSpec) -> DynamicsSpec:
        changes = {}
        for field in _SPEC_CALLABLES:
            fn = getattr(spec, field)
            if fn is not None and not getattr(fn, "__traced__", False):
                changes[field] = self._wrap(fn, f"systems.{field}")
        return dataclasses.replace(spec, **changes) if changes else spec

    # --------------------------------------------------------------- spans

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one op; op spans do not nest."""
        if self._stack:
            raise RuntimeError("op spans do not nest")
        self._op_id = op_id
        frame = self._enter(OP)
        try:
            yield
        finally:
            self._exit(frame)
            self._op_id = None

    def _enter(self, name):
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        span_id, name, start, child_s = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack corrupted at {name}")
        duration = end - start
        self_s = duration - child_s
        parent_id = parent_name = None
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id, parent_name = parent[0], parent[1]
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if name in AGGREGATED:
            entry = self.aggregates.setdefault((self._op_id, parent_id, name), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
            if name == "integrate.resample" and parent_name == "certify.check_dissipation":
                self._add("certify.fd_resample_calls", 1)
        else:
            self.spans.append((span_id, parent_id, self._op_id, name, start, end, self_s))

    # ------------------------------------------------------------ counters

    def _add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _count_trajectory(self, traj, args):
        self._add("integrate.steps_accepted", traj.step_count)
        self._add("integrate.steps_rejected", traj.rejected_steps)
        self._add("integrate.samples", len(traj.samples))

    def _count_certificate(self, report, args):
        self._add("certify.checked_samples", report.checked_samples)
        if args[0].spec.vdot is None:  # finite-difference route
            self._add("certify.fd_default_tol_violations", len(report.violations))

    def _count_sweep(self, result, args):
        self._add("sweep.rows", len(result.rows))

    def _count_csv(self, text, args):
        self._add("cli.csv_bytes", len(text.encode()))

    # ----------------------------------------------------------- summaries

    def self_time_by_op(self):
        """op_id -> [op span duration, sum of the self times of its spans]."""
        out = {}
        for _, _, op_id, name, start, end, self_s in self.spans:
            entry = out.setdefault(op_id, [0.0, 0.0])
            if name == OP:
                entry[0] = end - start
            entry[1] += self_s
        for (op_id, _, _), (_, _, self_s) in self.aggregates.items():
            out.setdefault(op_id, [0.0, 0.0])[1] += self_s
        return out

    def layer_self_s(self):
        """Self time per package module, plus ``bench`` for the op spans."""
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self):
        return {
            "span_fields": ["span_id", "parent_id", "op_id", "name", "start_s", "end_s", "self_s"],
            "spans": self.spans,
            "aggregate_fields": ["op_id", "parent_id", "name", "calls", "total_s", "self_s"],
            "aggregates": [list(key) + value for key, value in self.aggregates.items()],
            "totals": self.totals,
            "counters": self.counters,
        }


def _public_name(value):
    """``module.function`` for a public package function, else None."""
    if not inspect.isfunction(value) or getattr(value, "__traced__", False):
        return None
    module_name = getattr(value, "__module__", "") or ""
    if not module_name.startswith(PACKAGE + "."):
        return None
    module = sys.modules.get(module_name)
    if value.__name__ not in getattr(module, "__all__", ()):
        return None
    return f"{module_name[len(PACKAGE) + 1:]}.{value.__name__}"
