"""In-memory spans around calls into the package's layers.

The tracer replaces a function where its caller looks it up (for example
``mscca.solver.update_B``, which ``_run_start`` reads from the solver
module's globals) with a wrapper that records one span per call: name,
start, end and the index of the enclosing span.  Nothing under ``src/``
changes; ``restore`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

# (module, attribute, span name).  A function reached under two names gets
# the same span name at both, so its time is counted whichever caller runs.
TARGETS = (
    ("mscca.cli", "main", "cli.main"),
    ("mscca.solver", "fit_mscca", "solver.fit_mscca"),
    ("mscca.cli", "fit_mscca", "solver.fit_mscca"),
    ("mscca.solver", "_run_start", "solver.run_start"),
    ("mscca.solver", "init_random", "solver.init_random"),
    ("mscca.solver", "update_B", "solver.update_B"),
    ("mscca.solver", "object_scores", "solver.object_scores"),
    ("mscca.solver", "_centroids", "solver.centroids"),
    ("mscca.solver", "objective_phi", "solver.objective_phi"),
    ("mscca.solver", "update_U", "solver.update_U"),
    ("mscca.solver", "repair_empty_clusters", "solver.repair"),
    ("mscca.solver", "psi_value", "solver.psi_value"),
    ("mscca.solver", "sym_eig_top", "linalg.sym_eig_top"),
    ("mscca.cli", "fit_constrained_mca", "solver.fit_constrained_mca"),
    ("mscca.cli", "read_csv_dataset", "data.read_csv_dataset"),
    ("mscca.cli", "build_archive", "archive.build_archive"),
    ("mscca.cli", "write_json", "archive.write_json"),
    ("mscca.cli", "write_csv", "archive.write_csv"),
    ("mscca.cli", "contingency", "biplot.contingency"),
    ("mscca.biplot", "contingency", "biplot.contingency"),
    ("mscca.cli", "residual_comparison", "biplot.residual_comparison"),
)


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists; ``parent`` is the
    index of the enclosing span or -1.  Single-threaded by design: the
    benchmark runs one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.eig_orders: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Patch every target; ``sym_eig_top`` also records its matrix order."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            fn = original
            if attr == "sym_eig_top":
                fn = self._order_recorder(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, fn))

    def _order_recorder(self, fn):
        orders = self.eig_orders

        def recorded(matrix, p):
            orders.append(len(matrix))
            return fn(matrix, p)

        return recorded

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}),
            encoding="utf-8",
        )


def span_cost(n: int = 100_000) -> float:
    """Seconds one wrapper adds to a call, from ``n`` wrapped no-op calls
    minus ``n`` bare ones."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / n


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Calls are sequential, so children never overlap."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans: list[list]) -> list[int]:
    """Index of the outermost span above each span (parents come first)."""
    out: list[int] = []
    for i, (_name, _start, _end, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def worst_self_sum(spans: list[list], records: list[tuple]) -> float:
    """Largest relative gap, over timed operations, between the sum of the
    self times of the operation's spans and its wall time."""
    own, top = self_times(spans), roots(spans)
    total: dict[int, float] = {}
    for i, root in enumerate(top):
        total[root] = total.get(root, 0.0) + own[i]
    return max(abs(total.get(root, 0.0) - wall) / wall for _kind, root, wall in records)


def layer_metrics(tracer: Tracer, records: list[tuple], counts: dict, n_rows: int) -> dict:
    """Per-layer metrics per pair of operations (one fit plus one variants).

    A span's self time is divided by the number of timed operations of the
    kind it ran under, and the two kinds are added, so a layer both
    operations use reports its cost for one of each.
    """
    spans = tracer.spans
    own, top = self_times(spans), roots(spans)
    kind_of = {root: kind for kind, root, _wall in records}
    n_ops: dict[str, int] = {}
    for kind, _root, _wall in records:
        n_ops[kind] = n_ops.get(kind, 0) + 1
    seconds: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    n_calls: dict[tuple[str, str], int] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        kind = kind_of[top[i]]
        seconds[name] = seconds.get(name, 0.0) + own[i] / n_ops[kind]
        inclusive[name] = inclusive.get(name, 0.0) + (end - start) / n_ops[kind]
        n_calls[name, kind] = n_calls.get((name, kind), 0) + 1
    calls: dict[str, float] = {}
    spans_per_pair = 0.0
    for (name, kind), n in n_calls.items():
        spans_per_pair += n / n_ops[kind]
        calls[name] = calls.get(name, 0.0) + n / n_ops[kind]
    starts_ms = sorted(1000.0 * (end - start) for name, start, end, _p in spans if name == "solver.run_start")
    # quantiles() needs two points; one start per traced run is its own decile.
    deciles = statistics.quantiles(starts_ms, n=10) if len(starts_ms) > 1 else starts_ms * 9
    walls = sum(wall for _kind, _root, wall in records)

    def s(name: str) -> float:
        return seconds.get(name, 0.0)

    cycles = counts.get("solver.cycles", 0)  # absent only when every fit failed its check

    return {
        "solver.driver_self_s": s("solver.fit_mscca") + s("solver.run_start"),
        "solver.ms_per_cycle": 1000.0 * inclusive.get("solver.run_start", 0.0) / max(cycles, 1),
        "solver.init_random_s": s("solver.init_random"),
        "solver.update_U_s": s("solver.update_U"),
        "solver.repair_s": s("solver.repair"),
        "solver.repair_calls": calls.get("solver.repair", 0.0),
        "solver.start_ms_p50": statistics.median(starts_ms),
        "solver.start_ms_p90": deciles[8],
        "solver.object_scores_s": s("solver.object_scores"),
        "solver.objective_phi_s": s("solver.objective_phi"),
        "solver.objective_phi_calls": calls.get("solver.objective_phi", 0.0),
        "solver.centroids_s": s("solver.centroids"),
        "solver.update_B_self_s": s("solver.update_B"),
        "solver.psi_value_s": s("solver.psi_value"),
        "solver.fit_constrained_mca_s": s("solver.fit_constrained_mca"),
        "solver.cycles": cycles,
        "solver.best_hits": counts.get("solver.best_hits", 0),
        "solver.maxiter_starts": counts.get("solver.maxiter_starts", 0),
        "linalg.sym_eig_top_s": s("linalg.sym_eig_top"),
        "linalg.sym_eig_top_calls": calls.get("linalg.sym_eig_top", 0.0),
        "linalg.eig_order": max(tracer.eig_orders),
        "data.read_csv_dataset_s": s("data.read_csv_dataset"),
        "data.rows_per_s": n_rows * calls.get("data.read_csv_dataset", 0.0) / s("data.read_csv_dataset"),
        "archive.write_json_s": s("archive.write_json"),
        "archive.build_archive_s": s("archive.build_archive"),
        "archive.write_csv_s": s("archive.write_csv"),
        "archive.solution_json_bytes": counts.get("archive.solution_json_bytes", 0),
        "biplot.contingency_s": s("biplot.contingency"),
        "biplot.residual_comparison_s": s("biplot.residual_comparison"),
        "cli.self_s": s("cli.main"),
        "trace.self_sum_ratio": sum(own) / walls,
        "trace.spans": spans_per_pair,
        "trace.overhead_est_s": spans_per_pair * span_cost(),
    }
