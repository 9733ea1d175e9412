"""In-process tracing of meshecon's layers, from outside the package.

install() replaces public functions of meshecon.cli, .model, .regimes,
.equilibrium and .simulator with wrappers, under every name a caller looks
them up by (for example meshecon.equilibrium.regime_utilities and
meshecon.regimes.intermediate_count). src/ is not edited.

Boundary calls become spans (name, start, end, parent span, request id),
kept in memory and written out when the run ends. Hot leaf calls (model
elementary functions, quadrature integrand evaluations) are only counted:
compare_regimes makes millions of them, and a span each would swamp the
run. A function named here that the package no longer has is reported as
absent; the metrics that depend on it read 0 and are listed as absent.
"""

import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SPAN = "span"
COUNT = "count"

ELEMENTARY = ("intermediate_count", "hop_distance", "nodes_within")
SOLVERS = (
    "default_bracket", "free_entry_density", "club_optimal_density",
    "congestion_scaling_exponent",
)
EU_FUNCTIONS = ("eu_no_peering", "eu_peering_no_transfers", "eu_peering_perfcomp")
FINDINGS = ("NoCrossing", "BoundaryOptimum")


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


# Hooks read results after the call returns; a field a later version drops
# makes the hook fail, and its counter is reported absent.
def _hook_iterations(key):
    def hook(rec, args, kwargs, result):
        rec.counts[key] += result.diagnostics.iterations
    return hook


def _hook_scan(rec, args, kwargs, result):
    rec.counts["equilibrium.scan.evals"] += len(result[0])


def _hook_run_instant(rec, args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[0]
    rec.counts["simulator.node_draws"] += config.side * config.side * config.trials
    rec.counts["simulator.connections"] += result.connections_attempted
    rec.counts["simulator.pollution_events"] += result.pollution_events


def _hook_route(rec, args, kwargs, result):
    rec.counts["simulator.route_hops"] += len(result) - 1


def _hook_table_bytes(rec, args, kwargs, result):
    rec.counts["simulator.table_bytes"] += _array_bytes(result)


_HOOK_KEYS = {
    "equilibrium.free_entry_density": ("equilibrium.bisection.iters",),
    "equilibrium.club_optimal_density": ("equilibrium.golden.iters",),
    "equilibrium._scan": ("equilibrium.scan_share",),
    "simulator.run_instant": (
        "simulator.node_draws", "simulator.connections",
        "simulator.connect_ratio", "simulator.pollution_events",
    ),
    "simulator.route_greedy": ("simulator.route_hops",),
    "simulator.build_lattice": ("simulator.table_bytes",),
    "simulator._RegimeTables": ("simulator.table_bytes",),
}

# (module, function, span or count, hook). Everything public in the five
# modules, plus equilibrium._scan (its grid size gives scan_share) and
# simulator._RegimeTables (its arrays count towards table_bytes).
PLAN = (
    ("cli", "main", SPAN, None),
    *(("cli", f"cmd_{c}", COUNT, None)
      for c in ("eval", "sweep", "equilibrium", "simulate", "radio", "validate")),
    *(("model", f, COUNT, None) for f in (
        *ELEMENTARY, "validate", "max_peers", "connect_probability",
        "distance_pdf", "distance_cdf", "params_from_dict", "params_to_dict",
        "read_params_file",
    )),
    ("regimes", "integrate", COUNT, None),
    ("regimes", "regime_utilities", SPAN, None),
    *(("regimes", f, SPAN, None) for f in EU_FUNCTIONS),
    *(("regimes", f, COUNT, None) for f in (
        "intermediate_best_response", "originator_choice", "social_cost",
        "value_added", "originator_savings", "price_bounds",
        "competitive_price", "leapfrog_threshold", "leapfrog_profitable",
    )),
    ("equilibrium", "total_eu", COUNT, None),
    ("equilibrium", "_scan", COUNT, _hook_scan),
    ("equilibrium", "default_bracket", SPAN, None),
    ("equilibrium", "free_entry_density", SPAN,
     _hook_iterations("equilibrium.bisection.iters")),
    ("equilibrium", "club_optimal_density", SPAN,
     _hook_iterations("equilibrium.golden.iters")),
    ("equilibrium", "congestion_scaling_exponent", SPAN, None),
    ("equilibrium", "compare_regimes", SPAN, None),
    ("simulator", "build_lattice", SPAN, _hook_table_bytes),
    ("simulator", "_RegimeTables", COUNT, _hook_table_bytes),
    ("simulator", "sample_demand", COUNT, None),
    ("simulator", "route_greedy", SPAN, _hook_route),
    ("simulator", "run_instant", SPAN, _hook_run_instant),
    ("simulator", "lattice_exact_means", SPAN, None),
    ("simulator", "estimate_vs_analytic", SPAN, None),
    ("simulator", "write_event_trace", SPAN, None),
)


class Recorder:
    """Spans, counters and errors of one traced run."""

    def __init__(self):
        self.spans = []          # (span id, parent id, name, t0 ns, t1 ns, request)
        self.counts = Counter()
        self.absent = []         # functions or fields this version lacks
        self.request = -1
        self._current = 0
        self._next_id = 1
        self._seen = defaultdict(list)
        self._findings = ()

    # -- wrappers ---------------------------------------------------------

    def raised(self, layer, exc):
        """Count an exception once per layer it leaves (findings apart)."""
        kind = "findings" if isinstance(exc, self._findings) else "errors"
        seen = self._seen[layer, kind]
        if any(e is exc for e in seen):
            return
        seen.append(exc)
        self.counts[f"{layer}.{kind}"] += 1

    def _run_hook(self, name, hook, args, kwargs, result):
        try:
            hook(self, args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            for key in _HOOK_KEYS.get(name, (name,)):
                if key not in self.absent:
                    self.absent.append(key)

    def span_wrapper(self, name, layer, fn, hook):
        clock = time.perf_counter_ns
        spans = self.spans

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            parent = self._current
            sid = self._next_id
            self._next_id = sid + 1
            self._current = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised(layer, exc)
                raise
            finally:
                self._current = parent
                spans.append((sid, parent, name, t0, clock(), self.request))
            if hook is not None:
                self._run_hook(name, hook, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, layer, fn, hook):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised(layer, exc)
                raise
            if hook is not None:
                self._run_hook(name, hook, args, kwargs, result)
            return result

        return wrapper

    def integrate_wrapper(self, name, layer, fn, hook):
        """Counts calls, and integrand evaluations through a counting f."""
        counts = self.counts

        @functools.wraps(fn, updated=())
        def wrapper(f, *args, **kwargs):
            counts["regimes.integrate.calls"] += 1

            def counted(x):
                counts["regimes.integrand.evals"] += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            except BaseException as exc:
                self.raised(layer, exc)
                raise

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every function in PLAN wherever meshecon refers to it."""
        errors = importlib.import_module("meshecon.errors")
        self._findings = tuple(getattr(errors, n) for n in FINDINGS if hasattr(errors, n))
        replacements = {}
        for module, attr, kind, hook in PLAN:
            try:
                mod = importlib.import_module(f"meshecon.{module}")
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, attr, None)
            name = f"{module}.{attr}"
            if fn is None:
                self.absent.append(name)
                continue
            if name == "regimes.integrate":
                make = self.integrate_wrapper
            elif kind == SPAN:
                make = self.span_wrapper
            else:
                make = self.count_wrapper
            replacements[id(fn)] = (fn, make(name, module, fn, hook))
        for modname, mod in list(sys.modules.items()):
            if modname != "meshecon" and not modname.startswith("meshecon."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns,request\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    # -- derived metrics --------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by metric name (ms, counts, ratios)."""
        c = self.counts
        calls = Counter()
        total_ns = Counter()
        child_ns = Counter()
        parent_of = {}
        name_of = {}
        for sid, parent, name, t0, t1, _ in self.spans:
            calls[name] += 1
            total_ns[name] += t1 - t0
            child_ns[parent] += t1 - t0
            parent_of[sid] = parent
            name_of[sid] = name
        self_ns = Counter()
        for sid, parent, name, t0, t1, _ in self.spans:
            self_ns[name] += (t1 - t0) - child_ns[sid]

        # Utility evaluations under each solver: nearest solver ancestor.
        solver_names = {f"equilibrium.{s}" for s in SOLVERS}
        under = Counter()
        for sid, name in name_of.items():
            if name != "regimes.regime_utilities":
                continue
            up = parent_of[sid]
            while up and name_of[up] not in solver_names:
                up = parent_of[up]
            if up:
                under[name_of[up]] += 1

        def ms(ns):
            return ns / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        eu_calls = sum(calls[f"regimes.{f}"] for f in EU_FUNCTIONS)
        solver_evals = sum(under.values())
        m = {
            "cli.main.self_ms": ms(self_ns["cli.main"]),
            "cli.bytes_out": c["cli.bytes_out"],
            "model.elementary.calls": sum(c[f"model.{f}.calls"] for f in ELEMENTARY),
            "model.validate.calls": c["model.validate.calls"],
            "regimes.regime_utilities.calls": calls["regimes.regime_utilities"],
            "regimes.regime_utilities.self_ms": ms(self_ns["regimes.regime_utilities"]),
            **{f"regimes.{f}.ms": ms(total_ns[f"regimes.{f}"]) for f in EU_FUNCTIONS},
            "regimes.integrate.calls": c["regimes.integrate.calls"],
            "regimes.integrand.evals": c["regimes.integrand.evals"],
            "regimes.evals_per_utility": ratio(c["regimes.integrand.evals"], eu_calls),
            **{f"equilibrium.evals.{s}": under[f"equilibrium.{s}"] for s in SOLVERS},
            **{f"equilibrium.{s}.self_ms": ms(self_ns[f"equilibrium.{s}"]) for s in SOLVERS},
            "equilibrium.compare_regimes.ms": ms(total_ns["equilibrium.compare_regimes"]),
            "equilibrium.bisection.iters": c["equilibrium.bisection.iters"],
            "equilibrium.golden.iters": c["equilibrium.golden.iters"],
            "equilibrium.scan_share": ratio(c["equilibrium.scan.evals"], solver_evals),
            "equilibrium.findings": c["equilibrium.findings"],
            "simulator.build_lattice.calls": calls["simulator.build_lattice"],
            "simulator.build_lattice.ms": ms(total_ns["simulator.build_lattice"]),
            "simulator.run_instant.calls": calls["simulator.run_instant"],
            "simulator.run_instant.self_ms": ms(self_ns["simulator.run_instant"]),
            "simulator.lattice_exact_means.ms": ms(total_ns["simulator.lattice_exact_means"]),
            "simulator.estimate_vs_analytic.self_ms":
                ms(self_ns["simulator.estimate_vs_analytic"]),
            "simulator.node_draws": c["simulator.node_draws"],
            "simulator.connections": c["simulator.connections"],
            "simulator.connect_ratio":
                ratio(c["simulator.connections"], c["simulator.node_draws"]),
            "simulator.pollution_events": c["simulator.pollution_events"],
            # Computed from ndarray sizes, not measured: bytes of the arrays
            # held by each Lattice and per-regime table built, per lattice.
            "simulator.table_bytes":
                ratio(c["simulator.table_bytes"], calls["simulator.build_lattice"]),
            "simulator.route_greedy.calls": calls["simulator.route_greedy"],
            "simulator.route_greedy.ms": ms(total_ns["simulator.route_greedy"]),
            "simulator.route_hops": c["simulator.route_hops"],
            "simulator.write_event_trace.ms": ms(total_ns["simulator.write_event_trace"]),
            **{f"{layer}.errors": c[f"{layer}.errors"]
               for layer in ("cli", "model", "regimes", "equilibrium", "simulator")},
            "trace.spans": len(self.spans),
            "trace.absent_functions": len(self.absent),
        }
        return {k: float(v) for k, v in m.items()}
