"""Outside-in layer trace for the benchmark.

The tracer wraps public functions of the program's modules by replacing
the module attributes, so every call made through a module attribute
(``pm.close_group(...)``, or ``verify_tables(...)`` inside its own
module) opens a span. Spans are aggregated as they close: per span name
the call count, the total time and the self time (duration minus the
time covered by child spans). Storing each span would take hundreds of
megabytes on the enumerate workload, which opens ~660,000 of them.

Leaf primitives (``perm.compose``, ``perm.inverse``, ``perm.is_perm``,
``TupleCodec`` methods) are deliberately not wrapped: they run in the
innermost loops, wrapping them would multiply the trace overhead, and
their time belongs to the layer that loops over them.
"""

from __future__ import annotations

import contextlib
import time

# (module, attribute, span name). An attribute "Class.method" wraps a
# method on the class. Span names follow "<layer>.<function>".
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("files", "parse_sigma_table", "files.parse"),
    ("files", "parse_solution", "files.parse"),
    ("files", "parse_brace", "files.parse"),
    ("files", "emit_solution", "files.emit"),
    ("files", "emit_brace", "files.emit"),
    ("solution", "verify_tables", "solution.verify_tables"),
    ("solution", "derive_gamma", "solution.derive_gamma"),
    ("solution", "from_sigma", "solution.from_sigma"),
    ("solution", "enumerate_solutions", "solution.enumerate_solutions"),
    ("solution", "solutions_isomorphic", "solution.solutions_isomorphic"),
    ("solution", "permutation_group", "solution.permutation_group"),
    ("power", "f_map", "power.f_map"),
    ("power", "power_solution", "power.power_solution"),
    ("power", "power_perm_group", "power.power_perm_group"),
    ("power", "iso_condition", "power.iso_condition"),
    ("perm", "close_group", "perm.close_group"),
    ("perm", "groups_isomorphic", "perm.groups_isomorphic"),
    ("perm", "GeneratedGroup.element_order_multiset", "perm.element_order_multiset"),
    ("brace", "find_braces", "brace.find_braces"),
    ("brace", "brace_from_tables", "brace.brace_from_tables"),
    ("brace", "lambda_table", "brace.lambda_table"),
    ("brace", "check_eq_3_1", "brace.check_eq_3_1"),
    ("brace", "check_lambda_properties", "brace.check_lambda_properties"),
    ("brace", "associated_solution", "brace.associated_solution"),
)

LAYERS = ("cli", "files", "solution", "power", "perm", "brace")
SPANS = tuple(dict.fromkeys(span for _, _, span in WRAPPED))


def _observe_verify(tracer, args, result):
    tracer.count("solution.verify_tables.accepted", int(result.all_ok))
    tracer.count("solution.verify_tables.m_cubed", len(args[0]) ** 3)


def _observe_power_solution(tracer, args, result):
    rows = result.result.sigma
    tracer.count("power.f_map.distinct_rows", len(set(rows)))
    tracer.count("power.f_map.rows", len(rows))


def _observe_close_group(tracer, args, result):
    tracer.count("perm.close_group.elements", result.order)


def _observe_brace(tracer, args, result):
    tracer.count("brace.brace_from_tables.accepted", 1)


# Counters recorded from a call's arguments and result, at the same
# boundary as the span. A call that raises records none.
OBSERVERS = {
    "solution.verify_tables": _observe_verify,
    "power.power_solution": _observe_power_solution,
    "perm.close_group": _observe_close_group,
    "brace.brace_from_tables": _observe_brace,
}


def _metric_units():
    units = {}
    for span in SPANS:
        units[f"{span}_s"] = "s"
        units[f"{span}.calls"] = "count"
    units.update({
        "solution.verify_tables.accept_ratio": "ratio",
        "solution.verify_tables.m_cubed": "count",
        "power.f_map.distinct_row_ratio": "ratio",
        "perm.close_group.elements": "count",
        "brace.brace_from_tables.accept_ratio": "ratio",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.spans_s": "s", "trace.overhead_ratio": "ratio"})
    return units


#: per-layer metric name -> unit, in report order
METRICS = _metric_units()


class Tracer:
    """Aggregates nested spans and counters; ``clock`` is injectable so
    tests can drive it with synthetic times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.root_s = 0.0  # summed duration of spans with no parent
        self.counts = {}
        self._stack = []  # [start, time covered by children]

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def enter(self):
        self._stack.append([self.clock(), 0.0])

    def exit(self, name):
        start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def installed(self, ybe):
        """Wrap every WRAPPED attribute of the ``ybe`` package for the
        duration of the block, then restore the originals."""
        saved = []
        try:
            for module_name, attr, span in WRAPPED:
                owner = getattr(ybe, module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(span, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)
            # a job stopped by its time limit leaves its spans open
            self._stack.clear()

    def metrics(self, wall_s, untraced_wall_s):
        """The per-layer metric values of everything recorded since the
        last reset, for a traced interval of ``wall_s`` seconds whose
        untraced twin took ``untraced_wall_s``."""
        out = {}
        for span in SPANS:
            out[f"{span}_s"] = self.self_s[span]
            out[f"{span}.calls"] = self.calls[span]
        c = self.counts.get
        out["solution.verify_tables.accept_ratio"] = _ratio(
            c("solution.verify_tables.accepted", 0), self.calls["solution.verify_tables"])
        out["solution.verify_tables.m_cubed"] = c("solution.verify_tables.m_cubed", 0)
        out["power.f_map.distinct_row_ratio"] = _ratio(
            c("power.f_map.distinct_rows", 0), c("power.f_map.rows", 0))
        out["perm.close_group.elements"] = c("perm.close_group.elements", 0)
        out["brace.brace_from_tables.accept_ratio"] = _ratio(
            c("brace.brace_from_tables.accepted", 0), self.calls["brace.brace_from_tables"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for span, v in self.self_s.items() if span.startswith(layer + "."))
        out["trace.wall_s"] = wall_s
        out["trace.spans_s"] = self.root_s
        out["trace.overhead_ratio"] = _ratio(wall_s, untraced_wall_s)
        return out


def _ratio(num, den):
    """num/den, or 0.0 where the layer did no work (den == 0)."""
    return num / den if den else 0.0
