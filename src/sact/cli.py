"""Command-line surface: classify, weakgen, factor, lift, free, obstructions, cache.

Seven options take their default from an environment variable: --format,
--cache-dir, --budget-nodes, --budget-seconds and --jobs (every command)
from SACT_FORMAT, SACT_CACHE_DIR, SACT_BUDGET_NODES, SACT_BUDGET_SECONDS and
SACT_JOBS, and classify's --genus and --group from SACT_GENUS and
SACT_GROUP.  `main` builds one parser per process and reads these variables
on every call.  Exit codes: 0 success, 1 stdout closed by its reader
before the output was written (no traceback), 2 bad input, 3 budget
exhausted (partial output is still printed, flagged incomplete), 4 internal
inconsistency in the exact arithmetic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import __version__
from . import cache as result_cache
from .datasets import (ALTERNATING, GroupDataSet, canonical_entries, class_slots,
                       format_dataset, parse_dataset, validate)
from .errors import BudgetExhausted, InconsistencyError, ParseError, SactError
from .factors import (class_entries, class_factor, cyclic_factor,
                      obstruction_report, standard_factors, weakly_generates)
from .groups import ALT, ALT_C2, SYM, GroupSpec, group_table, parse_group
from .lifting import (InvolutionDescent, decide_lift, free_action_analysis,
                      self_normalizing)
from .orbifold import parse_cyclic
from .perm import parse_perm
from .vectors import SearchBudget, checked_vector, enumerate_weak_classes

EXIT_OK, EXIT_PIPE, EXIT_INPUT, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3, 4

# Part of every classify cache key: raise it whenever a change to the
# search or to the factors could alter a stored row, so that entries
# written before the change are misses.
CACHE_SCHEMA = 1


FORMATS = ("text", "json", "csv")


def _format(value: str) -> str:
    """The --format type.  argparse checks `choices` on the command line
    only, not on a SACT_FORMAT default, so the type checks them too."""
    if value not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(map(repr, FORMATS))})")
    return value


def _env_option(p, env_options: list, flag: str, name: str, default=None,
                required: bool = False, **kwargs) -> None:
    """Add an option that SACT_<name> overrides, and record it in
    env_options for `_read_env`."""
    action = p.add_argument(flag, default=default, required=required, **kwargs)
    env_options.append((action, "SACT_" + name, default, required))


def _read_env(env_options: list) -> None:
    """Set each env-backed option's default from the environment as it is
    now.  A set value stays a string: argparse converts it with `type` and
    reports a bad value as a usage error (exit 2).  A set value also stands
    in for a required option."""
    for action, variable, default, required in env_options:
        value = os.environ.get(variable)
        action.default = default if value is None else value
        action.required = required and value is None


def _at_least(convert, low):
    """An argparse type: convert, then reject a value below low, or NaN.
    argparse reports the ValueError as `invalid <int|float> value`."""
    def check(value: str):
        x = convert(value)
        if not x >= low:
            raise ValueError(value)
        return x
    check.__name__ = convert.__name__
    return check


def _add_common(p, env_options: list) -> None:
    _env_option(p, env_options, "--format", "FORMAT", "text",
                type=_format, choices=FORMATS)
    _env_option(p, env_options, "--cache-dir", "CACHE_DIR")
    _env_option(p, env_options, "--budget-nodes", "BUDGET_NODES", 5_000_000,
                type=_at_least(int, 0))
    _env_option(p, env_options, "--budget-seconds", "BUDGET_SECONDS", 600,
                type=_at_least(float, 0))
    _env_option(p, env_options, "--jobs", "JOBS", 1, type=_at_least(int, 1))


def _budget(args) -> SearchBudget:
    return SearchBudget(args.budget_nodes, args.budget_seconds)


def build_parser():
    """The `sact` parser with its built-in defaults; it reads no environment.

    The env-backed options are listed in the parser's `env_options`, as
    (action, variable, default, required); `main` applies the environment
    to them before each parse.
    """
    parser = argparse.ArgumentParser(prog="sact",
                                     description="alternating and symmetric actions "
                                                 "on closed orientable surfaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    env = parser.env_options = []

    p = sub.add_parser("classify", help="weak conjugacy classes at a genus")
    _env_option(p, env, "--genus", "GENUS", type=int, required=True)
    _env_option(p, env, "--group", "GROUP")
    p.add_argument("--all", action="store_true",
                   help="sweep A_n and S_n for every n >= 4 under the Hurwitz bound")
    _add_common(p, env)

    p = sub.add_parser("weakgen", help="decide weak generation from two cyclic data sets")
    p.add_argument("--group", required=True)
    p.add_argument("--df", required=True)
    p.add_argument("--dg", required=True)
    _add_common(p, env)

    p = sub.add_parser("factor", help="cyclic factor of an element inside a data set")
    p.add_argument("--group", required=True)
    p.add_argument("--ds", required=True)
    p.add_argument("--element")
    p.add_argument("--standard", action="store_true",
                   help="factors of the standard generating pair")
    _add_common(p, env)

    p = sub.add_parser("lift", help="decide extension of an alternating action")
    p.add_argument("--group", required=True)
    p.add_argument("--ds", required=True)
    p.add_argument("--d", help="degree-2 cyclic data set of the involution")
    p.add_argument("--pi", help="cone permutation, e.g. '(3 4)' or '()'")
    p.add_argument("--self-normalizing", action="store_true",
                   help="run the self-normalizing test instead; reads no --d, --pi")
    _add_common(p, env)

    p = sub.add_parser("free", help="free alternating actions and their extensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    _add_common(p, env)

    p = sub.add_parser("obstructions",
                       help="sweep for irreducible and hyperelliptic factors")
    p.add_argument("--group", required=True)
    p.add_argument("--genus", type=int, required=True)
    _add_common(p, env)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=["info", "clear"])
    _add_common(p, env)
    return parser


@functools.cache
def _parser():
    """The process's one parser: building it is most of a small call's cost."""
    return build_parser()


# ---------------------------------------------------------------------------
# classify


def _dataset_group(args) -> GroupSpec:
    """The --group of a command that works on data sets, i.e. not AxC2n."""
    spec = parse_group(args.group)
    if spec.family not in (ALT, SYM):
        raise ParseError(f"{args.command} needs A<n> or S<n>: {spec.name} classes "
                         "have no data-set form")
    return spec


def classify_group_rows(family: str, n: int, genus: int,
                        budget_nodes, budget_seconds) -> dict:
    """Rows for one group; module-level so worker processes can run it.

    A Sym/Alt row depends only on the weak-class key, the class ids of its
    witness up to order and the split-class flip: the canonical form comes
    from the classes' slot facts, and both standard factors from the
    canonical entry classes at the classify genus.
    """
    spec = GroupSpec(family, n)
    budget = SearchBudget(budget_nodes, budget_seconds)
    result = enumerate_weak_classes(spec, genus, budget)
    table = group_table(spec)
    standard = [table.class_id(x) for x in spec.standard_generators()]
    rows = []
    for item in result.items:
        elliptic = checked_vector(item.vector).elliptic
        if family != ALT_C2:
            slots = class_slots(table, item.key)
            canon = GroupDataSet(family, n, item.sig.g0, canonical_entries(family, n, slots))
            entries = class_entries(table, canon.entries)
            f_sigma, f_tau = (class_factor(table, genus, entries, ci) for ci in standard)
            rows.append({
                "group": spec.name,
                "signature": str(item.sig),
                "data_set": format_dataset(canon),
                "factor_sigma": str(f_sigma),
                "factor_tau": str(f_tau),
            })
        else:
            rows.append({
                "group": spec.name,
                "signature": str(item.sig),
                "data_set": "vector:" + ",".join(str(s) for s in elliptic),
                "factor_sigma": "-",
                "factor_tau": "-",
            })
    rows.sort(key=lambda r: (r["signature"], r["data_set"]))
    out = {"rows": rows, "complete": result.complete}
    if not result.complete:
        left = len(result.unfinished)
        out["stopped"] = (f"{spec.name} stopped in {result.unfinished[0]}, "
                          f"{left} signature{'s' * (left != 1)} unfinished")
    return out


def _classify_targets(args):
    if args.genus < 2:
        raise ParseError("genus must be >= 2")
    if args.all:
        bound = 84 * (args.genus - 1)
        targets = []
        for family in (ALT, SYM):
            n = 4
            while GroupSpec(family, n).order <= bound:
                targets.append((family, n))
                n += 1
        return targets
    if not args.group:
        raise ParseError("classify needs --group or --all")
    spec = parse_group(args.group)
    return [(spec.family, spec.n)]


def cmd_classify(args) -> int:
    targets = _classify_targets(args)
    all_rows, complete = [], True
    packed = [(f, n, args.genus, args.budget_nodes, args.budget_seconds, args.cache_dir)
              for f, n in targets]
    if args.jobs > 1 and len(targets) > 1:
        import concurrent.futures  # pulls in threading and logging: only here
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outs = list(pool.map(_classify_worker, packed))
    else:
        outs = [_classify_worker(p) for p in packed]
    for out in outs:
        all_rows.extend(out["rows"])
        complete = complete and out["complete"]
        if not out["complete"]:
            print(f"incomplete: {out['stopped']}", file=sys.stderr)

    all_rows.sort(key=lambda r: (r["group"][0], int(r["group"].lstrip("AxCS2") or 0),
                                 r["signature"], r["data_set"]))
    payload = {"command": "classify", "genus": args.genus,
               "rows": all_rows, "complete": complete}
    _emit(args, payload, columns=["group", "signature", "data_set",
                                  "factor_sigma", "factor_tau"])
    return EXIT_OK if complete else EXIT_BUDGET


def _classify_worker(packed):
    family, n, genus, nodes, seconds, cache_dir = packed
    # no budget in the key: only complete results are stored, and a
    # complete result does not depend on the budget
    key = {"command": "classify", "family": family, "n": n, "genus": genus,
           "version": __version__, "schema": CACHE_SCHEMA}
    hit = result_cache.load(cache_dir, key)
    if hit is not None:
        return {"rows": hit["rows"], "complete": True}
    out = classify_group_rows(family, n, genus, nodes, seconds)
    result_cache.store(cache_dir, key, out)
    return out


# ---------------------------------------------------------------------------
# other commands


def cmd_weakgen(args) -> int:
    spec = _dataset_group(args)
    d_f, d_g = parse_cyclic(args.df), parse_cyclic(args.dg)
    witness = weakly_generates(d_f, d_g, spec, budget=_budget(args))
    if witness is None:
        payload = {"command": "weakgen", "group": spec.name, "verdict": "no"}
    else:
        payload = {
            "command": "weakgen", "group": spec.name, "verdict": "yes",
            "data_set": format_dataset(witness.ds),
            "sigma": str(witness.sigma), "tau": str(witness.tau),
            # weakly_generates picks sigma and tau with exactly these factors
            "factor_sigma": str(d_f), "factor_tau": str(d_g),
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_factor(args) -> int:
    spec = _dataset_group(args)
    ds = parse_dataset(args.ds, spec.family)
    # shape only: a display form (classify's canonical rows) need not close
    # the long relation, and the factor depends only on the entry classes
    validate(ds, structure_only=True)
    payload = {"command": "factor", "group": spec.name, "data_set": format_dataset(ds)}
    try:
        if args.standard:
            f_sigma, f_tau = standard_factors(ds)
            payload["factor_sigma"] = str(f_sigma)
            payload["factor_tau"] = str(f_tau)
        elif args.element:
            element = parse_perm(args.element, spec.degree)
            payload["element"] = str(element)
            payload["factor"] = str(cyclic_factor(ds, element))
        else:
            raise ParseError("factor needs --element or --standard")
    except InconsistencyError:
        # the counts are exact for any class pattern some vector realizes, so
        # this one is realized by none: report validate's reason (bad input)
        validate(ds)
        raise
    _emit(args, payload)
    return EXIT_OK


def cmd_lift(args) -> int:
    spec = parse_group(args.group)
    if spec.family != ALT:
        raise ParseError("lift decides extensions of alternating actions; use A<n>")
    ds = parse_dataset(args.ds, ALTERNATING)
    if args.self_normalizing:
        report = self_normalizing(ds, budget=_budget(args))
        payload = {"command": "lift", "mode": "self-normalizing",
                   "data_set": format_dataset(ds),
                   "by_condition": report.by_condition,
                   "by_exhaustion": report.by_exhaustion,
                   "overall": report.overall,
                   "extensions": [v.to_json() for v in report.extensions]}
        _emit(args, payload)
        return EXIT_OK
    for flag in ("d", "pi"):
        if getattr(args, flag) is None:
            raise ParseError(f"lift needs --{flag} unless --self-normalizing is given")
    d = parse_cyclic(args.d)
    r = sum(e.mult for e in ds.entries)
    pi = parse_perm(args.pi, r)
    verdict = decide_lift(ds, InvolutionDescent(d, pi), budget=_budget(args))
    payload = dict(verdict.to_json())
    payload["command"] = "lift"
    _emit(args, payload)
    return EXIT_OK


def cmd_free(args) -> int:
    report = free_action_analysis(args.n, args.genus)
    payload = dict(report.to_json())
    payload["command"] = "free"
    _emit(args, payload)
    return EXIT_OK


def cmd_obstructions(args) -> int:
    spec = _dataset_group(args)
    report = obstruction_report(spec, args.genus, budget=_budget(args))
    payload = dict(report.to_json())
    payload["command"] = "obstructions"
    _emit(args, payload)
    return EXIT_OK


def cmd_cache(args) -> int:
    if args.action == "info":
        payload = {"command": "cache", "entries": result_cache.info(args.cache_dir)}
    else:
        payload = {"command": "cache", "removed": result_cache.clear(args.cache_dir)}
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rendering


def _field(value) -> str:
    """A text or csv field: a list or dict as JSON with sorted keys, any
    other value as str()."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _print_csv(columns, records) -> None:
    """An unquoted header, then one row per record with every field quoted
    (embedded quotes doubled) and written by _field."""
    print(",".join(columns))
    writer = csv.writer(sys.stdout, quoting=csv.QUOTE_ALL, lineterminator="\n")
    for record in records:
        writer.writerow([_field(record[c]) for c in columns])


def _emit(args, payload: dict, columns=None) -> None:
    fmt = args.format
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=1))
        return
    rows = payload.get("rows")
    if rows is not None and columns:
        if fmt == "csv":
            _print_csv(columns, rows)
        else:
            widths = [max(len(c), *(len(r[c]) for r in rows)) if rows else len(c)
                      for c in columns]
            print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
            for row in rows:
                print("  ".join(row[c].ljust(w) for c, w in zip(columns, widths)))
            if not payload.get("complete", True):
                print("# incomplete: search budget exhausted")
        return
    if fmt == "csv":
        keys = sorted(payload)
        _print_csv(keys, [payload])
        return
    for key in sorted(payload):
        if key == "command":
            continue
        print(f"{key}: {_field(payload[key])}")


def main(argv=None) -> int:
    parser = _parser()
    _read_env(parser.env_options)
    args = parser.parse_args(argv)
    handlers = {
        "classify": cmd_classify, "weakgen": cmd_weakgen, "factor": cmd_factor,
        "lift": cmd_lift, "free": cmd_free, "obstructions": cmd_obstructions,
        "cache": cmd_cache,
    }
    try:
        code = handlers[args.command](args)
        # a reader that closed the pipe early shows here at the latest
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's recipe: point stdout at devnull, so that the flush at
        # interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetExhausted as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SactError as exc:  # every other package error is bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
