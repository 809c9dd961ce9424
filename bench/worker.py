"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --mode setup    --workload W
    python3 bench/worker.py --mode pass     --workload W --seed N [--trace 1]
    python3 bench/worker.py --mode record   --workload W
    python3 bench/worker.py --mode selftest

`bench/run.py` starts this script; it is not meant to be run by hand.  The
last line of standard output is one JSON object.  The library is imported
from the `src` directory next to `bench`, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

from metrics import per_layer  # noqa: E402
from tracer import Tracer, full_order_hook  # noqa: E402
from workloads import FACTOR_DATA_SETS, WORKLOADS, cli_tasks, shuffled  # noqa: E402

perf = time.perf_counter


def import_sact():
    sys.path.insert(0, SRC)
    import sact
    if not os.path.abspath(sact.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"sact was imported from {sact.__file__}, not from {SRC}")


def setup(workload: str) -> tuple:
    """Build the group table and commutator classes of every group touched."""
    from sact.groups import group_table, parse_group
    build = commutators = 0.0
    for name in WORKLOADS[workload].groups:
        t0 = perf()
        table = group_table(parse_group(name))
        t1 = perf()
        table.commutator_class_ids()
        build += t1 - t0
        commutators += perf() - t1
    return build, commutators


# ---------------------------------------------------------------------------
# tasks


def run_cli(tasks: list, tracer=None) -> dict:
    """{task id: (exit code, stdout)} for each (task id, argv), run in order."""
    from sact import cli
    out = {}
    for task_id, argv in tasks:
        buf = io.StringIO()
        span = tracer.span("cli.task." + task_id) if tracer else contextlib.nullcontext()
        with span:
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except SystemExit as exc:      # argparse rejecting the arguments
                code = exc.code
            except Exception:              # a crash is a failed task, not a dead run
                traceback.print_exc()
                code = None
        out[task_id] = (code, buf.getvalue())
    return out


def factor_inputs() -> tuple:
    """(data sets as (key, group, text), non-identity elements per group).

    Elements are listed in lexicographic order of their images, which is the
    order the goldens use.
    """
    from sact.groups import parse_group
    from sact.perm import Perm
    data_sets, elements = [], {}
    for key, texts in FACTOR_DATA_SETS.items():
        group = key.split("@")[0]
        for text in texts:
            data_sets.append((f"{group}:{text}", group, text))
        if group not in elements:
            spec = parse_group(group)
            perms = (Perm(p) for p in itertools.permutations(range(1, spec.degree + 1)))
            elements[group] = [p for p in perms if spec.contains(p) and not p.is_identity()]
    return data_sets, elements


def run_factors(data_sets: list, elements: dict, order: list) -> dict:
    """{(data set key, element index): factor text, or None on an exception}.

    Each data set is parsed and shape-checked once; `order` lists the
    (data set index, element index) queries to answer, in order.
    """
    from sact import datasets, factors
    parsed = []
    for _, group, text in data_sets:
        kind = datasets.SYMMETRIC if group.startswith("S") else datasets.ALTERNATING
        ds = datasets.parse_dataset(text, kind)
        datasets.validate(ds, structure_only=True)
        parsed.append(ds)
    out = {}
    for di, ei in order:
        key, group, _ = data_sets[di]
        try:
            out[(key, ei)] = str(factors.cyclic_factor(parsed[di], elements[group][ei]))
        except Exception:
            traceback.print_exc()
            out[(key, ei)] = None
    return out


def factor_queries(data_sets: list, elements: dict) -> list:
    return [(di, ei) for di, (_, group, _) in enumerate(data_sets)
            for ei in range(len(elements[group]))]


# ---------------------------------------------------------------------------
# golden checks


def failed_cli(outputs: dict, goldens: dict) -> list:
    """Task ids whose exit code or stdout differs from the golden."""
    bad = []
    for task_id, (code, stdout) in outputs.items():
        want = goldens["cli"].get(task_id)
        if want is None or code != want["exit"] or stdout != want["stdout"]:
            bad.append(task_id)
    return sorted(bad)


def failed_factors(outputs: dict, goldens: dict) -> list:
    """(data set key, element index) of every factor differing from the golden."""
    bad = []
    for (key, ei), text in outputs.items():
        want = goldens["factor"].get(key)
        if want is None or ei >= len(want["index"]) or text != want["values"][want["index"][ei]]:
            bad.append((key, ei))
    return sorted(bad)


def encode_factors(outputs: dict) -> dict:
    """Goldens for factor outputs: per data set, distinct values and an index."""
    table = {}
    for (key, ei), text in sorted(outputs.items()):
        entry = table.setdefault(key, {"values": [], "index": []})
        if text not in entry["values"]:
            entry["values"].append(text)
        assert ei == len(entry["index"])
        entry["index"].append(entry["values"].index(text))
    return table


# ---------------------------------------------------------------------------
# tracing


def perm_kernel(seed: int) -> dict:
    """ns per product and per inverse on seeded permutations of degree 4-8."""
    from sact.perm import Perm
    rng = random.Random(seed)
    pairs = []
    for n in range(4, 9):
        for _ in range(800):
            a, b = list(range(1, n + 1)), list(range(1, n + 1))
            rng.shuffle(a)
            rng.shuffle(b)
            pairs.append((Perm(a), Perm(b)))
    loops = 10

    def mul_batch():
        t0 = perf()
        for _ in range(loops):
            for a, b in pairs:
                a * b
        return (perf() - t0) / (loops * len(pairs)) * 1e9

    def inverse_batch():
        t0 = perf()
        for _ in range(loops):
            for a, _ in pairs:
                a.inverse()
        return (perf() - t0) / (loops * len(pairs)) * 1e9

    mul = statistics.median(mul_batch() for _ in range(5))
    inv = statistics.median(inverse_batch() for _ in range(5))
    return {"perm.mul_ns": mul, "perm.inverse_ns": inv}


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public functions behind every per-layer metric."""
    from sact import cli, datasets, factors, groups, lifting, orbifold, vectors
    from sact.perm import Perm

    def count(key, size):
        def hook(args, result, frame):
            tracer.counts[key] += size(result)
        return hook

    distinct = set()

    def factor_pair(args, result, frame):
        if len(args) >= 2:
            ds, x = args[0], args[1]
            distinct.add((ds, groups.group_table(ds.spec).class_id(x)))
            tracer.counts["factors.distinct_pairs"] = len(distinct)

    timed, counted = tracer.timed, tracer.counted
    with_hook = lambda hook: lambda name, fn: timed(name, fn, hook)  # noqa: E731

    for cls_attr, name in (("__mul__", "perm.mul"), ("inverse", "perm.inverse"),
                           ("__init__", "perm.init")):
        tracer.install_method(Perm, cls_attr, name, counted)
    targets = [
        (groups, "subgroup_order",
         with_hook(full_order_hook(tracer, "groups.subgroup_order"))),
        (groups, "commutator_witnesses", tracer.timed_generator),
        (groups, "are_conjugate", counted),
        (groups, "centralizer_order", counted),
        (orbifold, "enumerate_signatures", with_hook(count("orbifold.signatures", len))),
        (datasets, "parse_dataset", timed),
        (datasets, "validate", timed),
        (datasets, "canonical_form", timed),
        (vectors, "enumerate_weak_classes",
         with_hook(count("vectors.weak_classes", lambda r: len(r.items)))),
        (factors, "cyclic_factor", with_hook(factor_pair)),
        (factors, "fixed_point_count", counted),
        (lifting, "decide_lift", with_hook(
            lambda args, result, frame: tracer.counts.update(
                ["lifting.verdict." + result.kind]))),
        (lifting, "psi_map", timed),
        (lifting, "index2_restrict", timed),
        (cli, "_emit", timed),
    ]
    for module, attr, wrap in targets:
        name = module.__name__.split(".")[-1] + "." + attr.lstrip("_")
        tracer.install(module, attr, name, wrap)


def layer_values(tracer: Tracer, setup_times: tuple, kernel: dict) -> dict:
    """Every per-layer metric except trace.overhead_s, from one traced pass."""
    totals = tracer.totals()
    counts = tracer.counts
    spans = lambda name: totals.get(name, (0, 0.0, 0.0))  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    values = {
        "groups.table_build_s": setup_times[0],
        "groups.commutator_classes_s": setup_times[1],
        "groups.subgroup_order.full_frac": ratio(
            counts["groups.subgroup_order.full"], spans("groups.subgroup_order")[0]),
        "vectors.enumerate_weak_classes.in_subgroup_order_s": tracer.child_seconds(
            "vectors.enumerate_weak_classes", "groups.subgroup_order"),
        "factors.distinct_share": ratio(
            counts["factors.distinct_pairs"], spans("factors.cyclic_factor")[0]),
    }
    values.update(kernel)
    for metric in per_layer():
        name = metric.name
        if name in values or name == "trace.overhead_s":
            continue
        base, _, field = name.rpartition(".")
        if field == "s":
            values[name] = spans(base)[1]
        elif field == "self_s":
            values[name] = spans(base)[2]
        elif field == "calls" and base in totals:
            values[name] = spans(base)[0]
        else:
            values[name] = counts[name]
    return values


# ---------------------------------------------------------------------------
# modes


def do_pass(workload: str, seed: int, trace: bool) -> dict:
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    setup_times = setup(workload)
    tasks = shuffled(cli_tasks(workload), seed)
    if workload == "factor-queries":
        data_sets, elements = factor_inputs()
        order = shuffled(factor_queries(data_sets, elements), seed)
    kernel = perm_kernel(seed) if trace else {}
    tracer = Tracer() if trace else None
    if tracer:
        install_tracing(tracer)

    t0 = perf()
    if workload == "factor-queries":
        outputs = run_factors(data_sets, elements, order)
    else:
        outputs = run_cli(tasks, tracer)
    wall = perf() - t0

    if workload == "factor-queries":
        failed = failed_factors(outputs, goldens)
    else:
        failed = failed_cli(outputs, goldens)
    result = {
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(outputs),
        "failed": len(failed),
        "failed_ids": [str(f) for f in failed[:10]],
    }
    if tracer:
        result["layers"] = layer_values(tracer, setup_times, kernel)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}.json"),
                     {"workload": workload, "seed": seed, "wall_s": wall})
    return result


def do_record(workload: str) -> dict:
    setup(workload)
    if workload == "factor-queries":
        data_sets, elements = factor_inputs()
        outputs = run_factors(data_sets, elements, factor_queries(data_sets, elements))
        if any(text is None for text in outputs.values()):
            raise SystemExit("a factor query raised; no goldens recorded")
        return {"factor": encode_factors(outputs)}
    outputs = run_cli(cli_tasks(workload))
    return {"cli": {task_id: {"exit": code, "stdout": stdout}
                    for task_id, (code, stdout) in outputs.items()}}


def do_selftest() -> dict:
    """Show that each check fires on a tampered golden and that tracing
    reaches every namespace; returns {"ok": bool, "checks": [...]}."""
    checks = []

    def check(label, ok):
        checks.append({"check": label, "ok": bool(ok)})
        print(("PASS " if ok else "FAIL ") + label, file=sys.stderr)

    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    setup("lift-sweep")
    picked = {"classify-g10", "lift-icosa-34", "lift-oct-axc2", "lift-da2-axc2"}
    tasks = [t for name in ("classify-ladder", "lift-sweep")
             for t in cli_tasks(name) if t[0] in picked]
    outputs = run_cli(tasks)
    check("cli goldens match the library", failed_cli(outputs, goldens) == [])

    tampered = copy.deepcopy(goldens)
    stdout = tampered["cli"]["classify-g10"]["stdout"]
    tampered["cli"]["classify-g10"]["stdout"] = stdout[:-2] + "X" + stdout[-1:]
    check("a changed stdout byte fails exactly its task",
          failed_cli(outputs, tampered) == ["classify-g10"])
    tampered = copy.deepcopy(goldens)
    tampered["cli"]["lift-oct-axc2"]["exit"] = 3
    check("a changed exit code fails exactly its task",
          failed_cli(outputs, tampered) == ["lift-oct-axc2"])

    data_sets, elements = factor_inputs()
    data_sets = data_sets[:3]
    queries = factor_queries(data_sets, elements)
    f_out = run_factors(data_sets, elements, queries)
    check("factor goldens match the library", failed_factors(f_out, goldens) == [])
    key = data_sets[0][0]
    tampered = copy.deepcopy(goldens)
    entry = tampered["factor"][key]
    entry["values"].append("(0,0;-)")
    entry["index"][5] = len(entry["values"]) - 1
    check("a changed factor fails exactly its query",
          failed_factors(f_out, tampered) == [(key, 5)])

    tracer = Tracer()
    install_tracing(tracer)
    originals = list(tracer.originals.values())
    leftovers = [(mod, key) for mod, module in list(sys.modules.items())
                 if module is not None and (mod == "sact" or mod.startswith("sact."))
                 for key, value in vars(module).items()
                 if any(value is fn for fn in originals)]
    for name in ("groups.subgroup_order", "vectors.enumerate_weak_classes",
                 "datasets.validate"):
        print(f"  {name} bound in {', '.join(tracer.bindings[name])}", file=sys.stderr)
    run_cli([t for t in tasks if t[0] == "classify-g10"], tracer)
    check("traced classify-g10 attributes subgroup_order to the weak-class search",
          tracer.child_seconds("vectors.enumerate_weak_classes",
                               "groups.subgroup_order") > 0)
    check("every traced name is wrapped in each namespace that bound it",
          not leftovers and all(tracer.bindings.values()))
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=["setup", "pass", "record", "selftest"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_sact()
    if args.mode == "setup":
        setup(args.workload)
        result = {"ok": True}
    elif args.mode == "pass":
        result = do_pass(args.workload, args.seed, bool(args.trace))
    elif args.mode == "record":
        result = do_record(args.workload)
    else:
        result = do_selftest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
