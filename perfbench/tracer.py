"""Span recorder that times uacg's public functions from outside the package.

A wrapped function is installed by rebinding its name in every uacg module
namespace that holds it (the defining module, each module that imported it,
and the package root), so calls between modules and within a module both go
through the wrapper.  `instrument` restores every binding on exit.

Spans are kept in memory, one tuple (id, name, start, end, parent id, op),
and written out when the run ends.  Per-function totals (calls, time, self
time) are exact; span tuples beyond `span_cap` are counted but not stored.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

FUNCTIONS = (
    "numtheory.factorize",
    "numtheory.ramanujan_sum",
    "graphs.build_graph",
    "graphs.complement",
    "linalg.symmetric_eigenvalues",
    "linalg.group_spectrum",
    "linalg.left_circulant_eigenvalues",
    "closedform.energy_report",
    "closedform.spectrum_for",
    "closedform.build_alpha_matrix",
    "closedform.alpha_energy_from_values",
    "analysis.find_borderenergetic_alphas",
    "analysis.classify",
    "analysis.eigenvalue_intervals",
    "analysis.bound_report",
    "cli.main",
)

CHECKS = (
    "check_prime_power_spectra",
    "check_even_spectra",
    "check_spectral_identities",
    "check_complement_identity",
    "check_energy_consistency",
    "check_regular_shortcut",
    "check_complement_even_energy",
    "check_interval_containment",
    "check_energy_sandwich",
    "check_roots",
)

ROUTES = ("closed-form", "numeric", "regular-shortcut")
ROOT_FINDER = "analysis.find_borderenergetic_alphas"


class Recorder:
    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, float, float, int, int | None]] = []
        self.dropped = 0
        self.op: int | None = None
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.active: Counter[str] = Counter()
        self.specs: set = set()
        self.max_n = 0
        # Open spans: [name, start, time covered by children, span id].
        self._stack: list[list] = []
        self._next_id = 0

    def call(self, name: str, fn, hook, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        self.active[name] += 1
        frame[1] = start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.active[name] -= 1
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
            if len(self.spans) < self.span_cap:
                parent_id = parent[3] if parent is not None else -1
                self.spans.append((span_id, name, start, end, parent_id, self.op))
            else:
                self.dropped += 1
        if hook is not None:
            hook(self, args, result)
        return result

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


# Counters recorded at the boundaries where the work happens.


def _build_graph(rec: Recorder, args, graph) -> None:
    rec.specs.add(args[0])
    rec.counters["graphs.build_graph.bytes_computed"] += graph.adjacency.nbytes


def _eigensolve(rec: Recorder, args, values) -> None:
    n = values.size
    # LAPACK syevd without vectors: ~4/3 n^3 for the tridiagonal reduction;
    # the matrix is read once as float64.
    rec.counters["linalg.symmetric_eigenvalues.flops_computed"] += 4 * n**3 // 3
    rec.counters["linalg.symmetric_eigenvalues.bytes_computed"] += 8 * n * n
    rec.max_n = max(rec.max_n, n)


def _energy_report(rec: Recorder, args, report) -> None:
    rec.counters[f"closedform.energy_report.route.{report.method}.calls"] += 1
    if rec.active[ROOT_FINDER]:
        rec.counters[f"{ROOT_FINDER}.gap_evals"] += 1


def _root_finder(rec: Recorder, args, roots) -> None:
    rec.counters[f"{ROOT_FINDER}.roots"] += len(roots)


HOOKS = {
    "graphs.build_graph": _build_graph,
    "linalg.symmetric_eigenvalues": _eigensolve,
    "closedform.energy_report": _energy_report,
    ROOT_FINDER: _root_finder,
}


def _wrap(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, hook, args, kwargs)

    return wrapper


def _check_hook(name: str):
    def hook(rec: Recorder, args, result) -> None:
        results = result if isinstance(result, list) else [result]
        rec.counters[f"{name}.cases"] += sum(r.cases for r in results)

    return hook


def targets() -> dict[str, tuple[object, object]]:
    """name -> (function object, hook) for every wrapped public function."""
    out = {}
    for name in FUNCTIONS:
        module, attr = name.split(".")
        out[name] = (getattr(sys.modules[f"uacg.{module}"], attr), HOOKS.get(name))
    for check in CHECKS:
        name = f"verification.{check}"
        out[name] = (getattr(sys.modules["uacg.verification"], check), _check_hook(name))
    return out


def uacg_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "uacg" or k.startswith("uacg.")]


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Rebind every wrapped function in every uacg namespace; restore on exit."""
    patched: list[tuple[object, str, object]] = []
    try:
        for name, (fn, hook) in targets().items():
            wrapper = _wrap(rec, name, fn, hook)
            for module in uacg_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, fn))
        yield patched
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures named <module>.<function>.<what>."""
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = rec.calls[name]
        out[f"{name}.s"] = rec.total[name]
        out[f"{name}.self_s"] = rec.self_time[name]
    builds = rec.calls["graphs.build_graph"]
    out["graphs.build_graph.reuse_ratio"] = len(rec.specs) / builds if builds else 0.0
    out["graphs.build_graph.bytes_computed"] = rec.counters["graphs.build_graph.bytes_computed"]
    for key in ("flops_computed", "bytes_computed"):
        out[f"linalg.symmetric_eigenvalues.{key}"] = rec.counters[
            f"linalg.symmetric_eigenvalues.{key}"
        ]
    out["linalg.symmetric_eigenvalues.max_n"] = rec.max_n
    for route in ROUTES:
        key = f"closedform.energy_report.route.{route}.calls"
        out[key] = rec.counters[key]
    finder_calls = rec.calls[ROOT_FINDER]
    gap_evals = rec.counters[f"{ROOT_FINDER}.gap_evals"]
    out[f"{ROOT_FINDER}.gap_evals"] = gap_evals
    out[f"{ROOT_FINDER}.gap_evals_per_call"] = gap_evals / finder_calls if finder_calls else 0.0
    out[f"{ROOT_FINDER}.roots"] = rec.counters[f"{ROOT_FINDER}.roots"]
    for check in CHECKS:
        name = f"verification.{check}"
        out[f"{name}.s"] = rec.total[name]
        out[f"{name}.cases"] = rec.counters[f"{name}.cases"]
    return out
