"""Outside-in span recorder for the traced pass.

The recorder replaces a function at the name a calling module looks it up
(``engines.stream``, ``adaptive.collection_replicates``,
``DesignSet.full_offdiag``) with a wrapper that records one span per
call: its name, its layer, start and end, the enclosing span and the
benchmark call it belongs to.  Nothing inside ``src/`` changes; the
originals are put back when the pass ends.  Spans stay in memory until
``summarise`` reduces them.

A span's self time is its duration minus the time its direct child spans
cover.  Within one thread the children of a span run one after another,
so the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = (
    "harness.cli",
    "harness.io",
    "harness.experiments",
    "harness.generators",
    "harness.run",
    "testing",
    "adaptive",
    "constrained",
    "engines",
    "statistics",
    "kernels",
    "resampling",
)


def _rows_and_dim(a) -> tuple[int, int]:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a), 1
    if len(shape) == 1:
        return shape[0], 1
    return shape[0], shape[1]


def gram_diff_bytes(args, kwargs, result) -> int:
    """rows(A) * rows(B) * d * 8: the (m, n, d) float64 difference tensor."""
    rows_a, dim = _rows_and_dim(args[1])
    rows_b, _ = _rows_and_dim(args[2])
    return rows_a * rows_b * dim * 8


def design_index_bytes(args, kwargs, result) -> int:
    """16 bytes per design pair: the two int64 index arrays."""
    return 16 * result.size


# (module path, attribute, span name, layer, counter).  The module path is
# the calling module, or the class for class attributes; the attribute is
# the name that module looks up.  The span name is where the function is
# defined, so that one function looked up from several modules reports
# under one name.
TARGETS = (
    # entry points, looked up by the benchmark itself
    ("kerntest.harness.cli", "main", "harness.cli.main", "harness.cli", None),
    ("kerntest.harness.experiments", "run_experiment", "harness.experiments.run_experiment",
     "harness.experiments", None),
    ("kerntest.harness.run", "execute", "harness.run.execute", "harness.run", None),
    # harness.cli
    ("kerntest.harness.cli", "validate_setup", "harness.run.validate_setup", "harness.run", None),
    ("kerntest.harness.cli", "execute", "harness.run.execute", "harness.run", None),
    ("kerntest.harness.io", "load_dataset", "harness.io.load_dataset", "harness.io", None),
    # harness.io
    ("kerntest.harness.io", "standard_gaussian_score", "kernels.standard_gaussian_score", "kernels", None),
    ("kerntest.harness.io", "student_t_score", "kernels.student_t_score", "kernels", None),
    # harness.experiments
    ("kerntest.harness.experiments", "builtin_generator", "harness.generators.builtin_generator",
     "harness.generators", None),
    ("kerntest.harness.experiments", "execute", "harness.run.execute", "harness.run", None),
    ("kerntest.harness.experiments", "validate_setup", "harness.run.validate_setup", "harness.run", None),
    # harness.generators
    ("kerntest.harness.generators", "stream", "resampling.stream", "resampling", None),
    ("kerntest.harness.generators", "standard_gaussian_score", "kernels.standard_gaussian_score",
     "kernels", None),
    ("kerntest.harness.generators", "student_t_score", "kernels.student_t_score", "kernels", None),
    # harness.run
    ("kerntest.harness.run", "median_heuristic", "kernels.median_heuristic", "kernels", None),
    ("kerntest.harness.run", "bandwidth_grid", "kernels.bandwidth_grid", "kernels", None),
    ("kerntest.harness.run", "two_sample_test", "testing.two_sample_test", "testing", None),
    ("kerntest.harness.run", "independence_test", "testing.independence_test", "testing", None),
    ("kerntest.harness.run", "goodness_of_fit_test", "testing.goodness_of_fit_test", "testing", None),
    ("kerntest.harness.run", "aggregated_test", "adaptive.aggregated_test", "adaptive", None),
    ("kerntest.harness.run", "pooled_test", "adaptive.pooled_test", "adaptive", None),
    ("kerntest.harness.run", "dp_test", "constrained.dp_test", "constrained", None),
    ("kerntest.harness.run", "robust_test", "constrained.robust_test", "constrained", None),
    # testing
    ("kerntest.testing", "collection_replicates", "engines.collection_replicates", "engines", None),
    ("kerntest.testing", "test_decision", "resampling.test_decision", "resampling", None),
    # adaptive
    ("kerntest.adaptive", "collection_replicates", "engines.collection_replicates", "engines", None),
    ("kerntest.adaptive", "test_decision", "resampling.test_decision", "resampling", None),
    ("kerntest.adaptive", "resolve_design", "testing.resolve_design", "testing", None),
    # constrained
    ("kerntest.constrained", "collection_replicates", "engines.collection_replicates", "engines", None),
    ("kerntest.constrained", "test_decision", "resampling.test_decision", "resampling", None),
    ("kerntest.constrained", "stream", "resampling.stream", "resampling", None),
    ("kerntest.constrained", "_pool_columns", "adaptive._pool_columns", "adaptive", None),
    ("kerntest.constrained", "_with_runtime_defaults", "adaptive._with_runtime_defaults", "adaptive", None),
    ("kerntest.constrained", "_collection_descriptions", "adaptive._collection_descriptions",
     "adaptive", None),
    # engines; the three replicate engines are looked up inside engines by
    # collection_replicates and are wrapped there to split engines' time
    ("kerntest.engines", "stream", "resampling.stream", "resampling", None),
    ("kerntest.engines", "rademacher", "resampling.rademacher", "resampling", None),
    ("kerntest.engines", "sample_two_sample_permutation", "resampling.sample_two_sample_permutation",
     "resampling", None),
    ("kerntest.engines", "sample_paired_permutation", "resampling.sample_paired_permutation",
     "resampling", None),
    ("kerntest.engines", "core_matrix_mmd", "statistics.core_matrix_mmd", "statistics", None),
    ("kerntest.engines", "core_matrix_hsic", "statistics.core_matrix_hsic", "statistics", None),
    ("kerntest.engines", "core_matrix_hsic_wild", "statistics.core_matrix_hsic_wild", "statistics", None),
    ("kerntest.engines", "core_matrix_ksd", "statistics.core_matrix_ksd", "statistics", None),
    ("kerntest.engines", "mmd_permutation_replicates", "engines.mmd_permutation_replicates",
     "engines", None),
    ("kerntest.engines", "hsic_permutation_replicates", "engines.hsic_permutation_replicates",
     "engines", None),
    ("kerntest.engines", "wild_replicates", "engines.wild_replicates", "engines", None),
    # kernels, looked up as module attributes by engines and statistics
    # (and by kernels itself, e.g. stein_matrix -> gram_matrix)
    ("kerntest.kernels", "gram_matrix", "kernels.gram_matrix", "kernels", gram_diff_bytes),
    ("kerntest.kernels", "stein_matrix", "kernels.stein_matrix", "kernels", None),
    ("kerntest.kernels", "kernel_bound", "kernels.kernel_bound", "kernels", None),
    ("kerntest.kernels", "stein_kernel_bound", "kernels.stein_kernel_bound", "kernels", None),
    # statistics classmethods, looked up through the class by every caller
    ("kerntest.statistics:DesignSet", "full_offdiag", "statistics.design", "statistics",
     design_index_bytes),
    ("kerntest.statistics:DesignSet", "block", "statistics.design", "statistics", design_index_bytes),
    ("kerntest.statistics:DesignSet", "incomplete", "statistics.design", "statistics",
     design_index_bytes),
    ("kerntest.statistics:ModelSampleData", "from_score_field", "statistics.ModelSampleData.from_score_field",
     "statistics", None),
    ("kerntest.statistics:PairedData", "from_parts", "statistics.PairedData.from_parts", "statistics", None),
)


def _resolve_owner(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Recorder:
    """Holds the spans of one traced pass."""

    def __init__(self):
        # one tuple per span: (parent index, call id, name, layer, start, end, raised, amount)
        self.spans: list = []
        self.call_id = -1
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, fn, name: str, layer: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                amount = counter(args, kwargs, result) if counter is not None and not raised else 0
                spans[index] = (parent, self.call_id, name, layer, start, end, raised, amount)

        return traced

    def install(self) -> None:
        for path, attr, name, layer, counter in TARGETS:
            owner = _resolve_owner(path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, layer, counter))
            else:
                replacement = self._wrap(original, name, layer, counter)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def summarise(recorder: Recorder, call_seconds: list[float]) -> dict:
    """Reduce the spans to totals per span name and per layer.

    Returns seconds, counts and byte amounts summed over the pass, and the
    time of the calls that no span covers (benchmark glue around the
    entry point).  Time inside a span in functions that no wrapper covers
    is that span's self time, not unattributed time.
    """
    spans = recorder.spans
    covered = [0.0] * len(spans)
    root_time = defaultdict(float)
    for parent, call, _name, _layer, start, end, _raised, _amount in spans:
        if parent >= 0:
            covered[parent] += end - start
        else:
            root_time[call] += end - start
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "amount": 0, "errors": 0})
    by_layer = defaultdict(lambda: {"self_s": 0.0, "errors": 0})
    for index, (_parent, _call, name, layer, start, end, raised, amount) in enumerate(spans):
        own = (end - start) - covered[index]
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["amount"] += amount
        entry["errors"] += int(raised)
        by_layer[layer]["self_s"] += own
        by_layer[layer]["errors"] += int(raised)
    unattributed = sum(
        max(seconds - root_time.get(call, 0.0), 0.0) for call, seconds in enumerate(call_seconds)
    )
    return {
        "spans": len(spans),
        "by_name": dict(by_name),
        "by_layer": {layer: dict(by_layer[layer]) for layer in LAYERS},
        "unattributed_s": unattributed,
    }
