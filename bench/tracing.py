"""Span tracing of christol from outside the package.

Tracer.install() wraps every public function of every christol module,
plus the few methods listed in METHODS, and rebinds each wrapper in
every christol namespace that holds the original: the modules import
each other with ``from .x import y``, so patching only the defining
module would miss calls such as kernel's use of ``section``.

Each call records one span (name, start, end, parent span, operation
id).  Spans stay in memory; per-name calls, total time and self time
(duration minus the time covered by direct child spans) are aggregated
as spans close.  A few counters record work done at the same
boundaries; see COUNTERS.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

MODULES = (
    "algebraic_series",
    "algebraize",
    "automaton",
    "cli",
    "errors",
    "examples",
    "finite_field",
    "kernel",
    "linalg",
    "power_series",
    "weeding",
)

# (module, class, method, span name); both SpanTracker methods share one
# name so the layer reads as a single line.
METHODS = (
    ("power_series", "TruncatedSeries", "__init__", "power_series.TruncatedSeries.init"),
    ("power_series", "TruncatedSeries", "__mul__", "power_series.TruncatedSeries.mul"),
    ("kernel", "PathExpander", "series", "kernel.PathExpander.series"),
    ("linalg", "SpanTracker", "coordinates", "linalg.SpanTracker"),
    ("linalg", "SpanTracker", "append", "linalg.SpanTracker"),
    ("algebraic_series", "BivariatePolynomial", "evaluate", "algebraic_series.BivariatePolynomial.evaluate"),
    ("algebraic_series", "BivariatePolynomial", "evaluate_dy", "algebraic_series.BivariatePolynomial.evaluate_dy"),
)


def _count_mults(tr, args, kwargs, result):
    a, b, _p, n = args
    if n > 0:
        tr.add("power_series.cauchy_product.mults", min(n, len(a)) * min(n, len(b)))


def _count_init(tr, args, kwargs, result):
    tr.add("power_series.TruncatedSeries.init.coeffs", len(args[0].coeffs))


def _count_expand(tr, args, kwargs, result):
    n = result.precision
    tr.add("algebraic_series.expand_branch.coeffs", n)
    tr.op_expanded += n
    tr.peak("kernel.root_precision_max", n)


def _count_path(tr, args, kwargs, result):
    expander, path, precision = args
    tr.op_needed = max(tr.op_needed, precision * expander.spec.p ** len(path))
    tr.peak("kernel.path_depth_max", len(path))


def _count_states(stat):
    def count(tr, args, kwargs, result):
        tr.add(stat, result.n_states)

    return count


def _count_digits(tr, args, kwargs, result):
    tr.add("automaton.to_digits_lsd.decimal_digits", len(args[0]))


def _count_cells(tr, args, kwargs, result):
    rows, _p, ncols = args
    tr.add("linalg.nullspace_basis.cells", len(rows) * ncols)


COUNTERS = {
    "power_series.cauchy_product": _count_mults,
    "power_series.TruncatedSeries.init": _count_init,
    "algebraic_series.expand_branch": _count_expand,
    "kernel.PathExpander.series": _count_path,
    "automaton.build_dfao": _count_states("automaton.build_dfao.states"),
    "automaton.minimize": _count_states("automaton.minimize.states_out"),
    "automaton.to_digits_lsd": _count_digits,
    "linalg.nullspace_basis": _count_cells,
}


# The spans and counters reported as per-layer metrics, in the order of
# BENCHMARK.json's per_layer list.
LAYER_SPANS = (
    "power_series.cauchy_product",
    "power_series.TruncatedSeries.init",
    "algebraic_series.expand_branch",
    "kernel.PathExpander.series",
    "weeding.section",
    "kernel.orbit_closure",
    "kernel.recheck",
    "linalg.SpanTracker",
    "automaton.dfao_from_linear",
    "automaton.build_dfao",
    "automaton.minimize",
    "automaton.dfao_to_json",
    "automaton.to_digits_lsd",
    "automaton.dfao_from_json",
    "cli.cli_main",
    "linalg.nullspace_basis",
    "algebraize.guess_polynomial",
    "algebraize.automatic_to_series",
    "automaton.query",
)
LAYER_COUNTS = (
    "power_series.cauchy_product.mults",
    "power_series.TruncatedSeries.init.coeffs",
    "algebraic_series.expand_branch.coeffs",
    "algebraic_series.expand_useful_ratio",
    "kernel.root_precision_max",
    "kernel.path_depth_max",
    "automaton.build_dfao.states",
    "automaton.minimize.states_out",
    "automaton.to_digits_lsd.decimal_digits",
    "linalg.nullspace_basis.cells",
)


class Tracer:
    """Spans and counters for one traced phase.  install() before the
    phase, uninstall() after it (also on error)."""

    def __init__(self):
        self.names = []  # span name by index
        self._name_index = {}
        # one span per index across these arrays
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.op_id = -1
        self.op_needed = 0
        self.op_expanded = 0
        self.useful = 0
        self.expanded = 0
        self._stack = []  # open span ids
        self._child_time = []  # time covered by children of each open span
        self._patches = []  # (owner, attribute, original)

    # -- counters -------------------------------------------------------

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def begin_op(self, op_id):
        self.end_op()
        self.op_id = op_id

    def end_op(self):
        """Close the running operation's root-expansion account: the
        largest root precision a path asked for against what was
        expanded to serve it."""
        if self.op_expanded:
            self.useful += self.op_needed
            self.expanded += self.op_expanded
        self.op_needed = 0
        self.op_expanded = 0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        counter = COUNTERS.get(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, child_time = self._stack, self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_start)
            parent = stack[-1] if stack else -1
            # reserve the span's slot now so children get later ids
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
            stack.append(sid)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                inner = child_time.pop()
                duration = end - start
                if child_time:
                    child_time[-1] += duration
                self.span_start[sid] = start
                self.span_end[sid] = end
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - inner
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [m for k, m in sys.modules.items() if k == "christol" or k.startswith("christol.")]
        wrappers = {}  # id(original) -> wrapper
        originals = {}
        for short in MODULES:
            module = sys.modules[f"christol.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                originals[id(obj)] = obj
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        for short, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"christol.{short}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self):
        self.end_op()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every metric of LAYER_SPANS and LAYER_COUNTS by its benchmark
        name, with its unit.  A span or counter never reached reads 0."""
        metrics = {}
        for span in LAYER_SPANS:
            calls, total, own = self.totals[span]
            metrics[f"{span}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{span}.s"] = {"value": total, "unit": "s"}
            metrics[f"{span}.self_s"] = {"value": own, "unit": "s"}
        for name in LAYER_COUNTS:
            if name == "algebraic_series.expand_useful_ratio":
                ratio = self.useful / self.expanded if self.expanded else 0.0
                metrics[name] = {"value": ratio, "unit": "ratio"}
            else:
                metrics[name] = {"value": self.counts.get(name, 0), "unit": "count"}
        return metrics

    def write_spans(self, path: str):
        """Tab-separated spans: span id, parent id, operation id, name,
        start and end in seconds of perf_counter."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart\tend\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )

