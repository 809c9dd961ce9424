"""Every metric the benchmark reports, with its unit, direction and meaning.

End-to-end metrics come from untraced runs; per-layer metrics from traced
runs.  A metric's `note` says what an end-to-end metric measures, or which
end-to-end metric and workloads a per-layer metric is expected to move,
written down before any optimisation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import WORKLOADS, cli_tasks

VERDICT_KINDS = ("wls", "alt_times_c2", "not_liftable", "undetermined")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    note: str = ""
    bound: float = 0.0   # end-to-end only: allowed worsening, as a share of the median


END_TO_END = (
    Metric("setup_s", "s", "lower",
           note="fresh interpreter, import sact, group tables and commutator "
                 "classes of every group the workload touches", bound=0.25),
    Metric("wall_s", "s", "lower",
           note="one pass over the workload's task list after set-up", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           note="peak resident memory of one pass", bound=0.1),
)

_ALL = "wall_s on all workloads"
_SEARCH = "wall_s on classify-ladder and lift-sweep"
_LIFT = "wall_s on lift-sweep"
_FACTOR = "wall_s on factor-queries"


def per_layer() -> tuple:
    metrics = [
        Metric("perm.mul.calls", "count", "lower", _ALL),
        Metric("perm.inverse.calls", "count", "lower", _ALL),
        Metric("perm.init.calls", "count", "lower", _ALL),
        Metric("perm.mul_ns", "ns", "lower", _ALL),
        Metric("perm.inverse_ns", "ns", "lower", _ALL),
        Metric("groups.table_build_s", "s", "lower", "setup_s on all workloads"),
        Metric("groups.commutator_classes_s", "s", "lower", "setup_s on all workloads"),
        Metric("groups.subgroup_order.calls", "count", "lower",
               _SEARCH + "; no change on factor-queries"),
        Metric("groups.subgroup_order.s", "s", "lower",
               _SEARCH + "; no change on factor-queries"),
        Metric("groups.subgroup_order.full_frac", "ratio", "higher",
               _SEARCH + "; no change on factor-queries"),
        Metric("groups.commutator_witnesses.yielded", "count", "lower", _LIFT),
        Metric("groups.commutator_witnesses.s", "s", "lower", _LIFT),
        Metric("groups.are_conjugate.calls", "count", "lower", _FACTOR),
        Metric("groups.centralizer_order.calls", "count", "lower", _FACTOR),
        Metric("orbifold.enumerate_signatures.s", "s", "lower",
               "wall_s on classify-ladder (expected negligible)"),
        Metric("orbifold.signatures", "count", "lower",
               "wall_s on classify-ladder (expected negligible)"),
        Metric("datasets.parse_dataset.s", "s", "lower",
               "wall_s on factor-queries and classify-ladder"),
        Metric("datasets.validate.calls", "count", "lower",
               "wall_s on factor-queries and classify-ladder"),
        Metric("datasets.validate.s", "s", "lower",
               "wall_s on factor-queries and classify-ladder"),
        Metric("datasets.canonical_form.calls", "count", "lower",
               "wall_s on factor-queries and classify-ladder"),
        Metric("datasets.canonical_form.s", "s", "lower",
               "wall_s on factor-queries and classify-ladder"),
        Metric("vectors.enumerate_weak_classes.calls", "count", "lower", _SEARCH),
        Metric("vectors.enumerate_weak_classes.s", "s", "lower", _SEARCH),
        Metric("vectors.enumerate_weak_classes.self_s", "s", "lower",
               _SEARCH + "; the DFS without generation tests and commutator scans"),
        Metric("vectors.enumerate_weak_classes.in_subgroup_order_s", "s", "lower",
               _SEARCH + "; the generation tests the weak-class search makes"),
        Metric("vectors.weak_classes", "count", "higher", _SEARCH),
        Metric("factors.cyclic_factor.calls", "count", "lower",
               _FACTOR + ", slightly on classify-ladder"),
        Metric("factors.cyclic_factor.s", "s", "lower",
               _FACTOR + ", slightly on classify-ladder"),
        Metric("factors.fixed_point_count.calls", "count", "lower",
               _FACTOR + ", slightly on classify-ladder"),
        Metric("factors.distinct_share", "ratio", "lower",
               _FACTOR + "; share of calls on a new (data set, class) pair"),
        Metric("lifting.decide_lift.calls", "count", "lower", _LIFT + " only"),
        Metric("lifting.decide_lift.s", "s", "lower", _LIFT + " only"),
        Metric("lifting.decide_lift.self_s", "s", "lower", _LIFT + " only"),
        Metric("lifting.psi_map.s", "s", "lower", _LIFT + " only"),
        Metric("lifting.index2_restrict.s", "s", "lower", _LIFT + " only"),
    ]
    metrics += [Metric(f"lifting.verdict.{kind}", "count", "higher", _LIFT + " only")
                for kind in VERDICT_KINDS]
    metrics += [Metric(f"cli.task.{task_id}.s", "s", "lower", f"wall_s on {name}")
                for name in WORKLOADS for task_id, _ in cli_tasks(name)]
    metrics += [
        Metric("cli.emit.s", "s", "lower", _SEARCH),
        Metric("trace.overhead_s", "s", "lower",
               "none: traced wall_s minus untraced wall_s of the same run"),
    ]
    return tuple(metrics)


def benchmark_spec(run_seconds: int) -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in per_layer()],
    }
