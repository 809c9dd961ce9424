"""Classify rows read off class ids, against the per-slot rendering they
replaced: a canonical form that names one class per cone slot, and standard
factors through the per-(data set, class) factor memo."""

import functools

import pytest

from test_vectors import COVERED_PAIRS

from sact import cli
from sact.datasets import (ALTERNATING, SYMMETRIC, canonical_form, class_representative,
                           dataset, validate)
from sact.errors import ValidationFailure
from sact.factors import _class_fixed_points, _unwind
from sact.groups import ALT, SYM, GroupSpec, group_table, split_label
from sact.orbifold import run_lengths
from sact.perm import CycleType, Perm, least_perm_of_type
from sact.vectors import enumerate_weak_classes

_LABEL_RANK = {"whole": 0, "plus": 1, "minus": 2}
_FLIP = {"plus": "minus", "minus": "plus", "whole": "whole"}


def _reference_class_representative(kind, n, ctype, label):
    base = least_perm_of_type(ctype)
    if kind == SYMMETRIC or label in ("whole", "plus"):
        return base
    table = group_table(GroupSpec(ALT, n))
    for cl in table.classes:
        if cl.key == (ctype.parts, "minus"):
            return cl.rep
    raise ValidationFailure("order-mismatch", f"no minus class for type {ctype}")


def _reference_canonical_form(ds):
    """(canonical form, whether the global flip was chosen), one class
    representative per cone slot."""
    validate(ds, structure_only=True)
    slots = []
    for e in ds.entries:
        label = split_label(e.rep) if ds.kind == ALTERNATING else "whole"
        slots.extend([(e.order, e.ctype.parts, label)] * e.mult)

    def tagged(flip):
        out = [(m, parts, _FLIP[label] if flip else label) for m, parts, label in slots]
        return sorted(out, key=lambda t: (t[0], t[1], _LABEL_RANK[t[2]]))

    def rank(seq):
        return tuple(_LABEL_RANK[label] for _, _, label in seq)

    plain, flipped = tagged(False), tagged(True)
    flip = rank(flipped) < rank(plain)
    reps = [_reference_class_representative(ds.kind, ds.n, CycleType(parts, ds.n), label)
            for _, parts, label in (flipped if flip else plain)]
    return dataset(ds.kind, ds.n, ds.g0, run_lengths(reps)), flip


def _reference_standard_factors(ds):
    g = validate(ds, structure_only=True)
    table = group_table(ds.spec)
    entries = tuple((table.class_id(e.rep), e.order, e.mult) for e in ds.entries)
    out = []
    for x in ds.spec.standard_generators():
        ci, d = table.class_id(x), x.order()
        out.append(_unwind(g, d, lambda t, u: _class_fixed_points(
            table, entries, table.power_class(ci, d // t), u, t)))
    return tuple(out)


def _reference_rows(spec, g, sigs):
    """(rows as classify_group_rows sorts them, flipped split data sets)."""
    result = enumerate_weak_classes(spec, g, signatures=sigs)
    assert result.complete
    rows, flips = [], 0
    for item in result.items:
        row = {"group": spec.name, "signature": str(item.sig)}
        if item.ds is None:
            row.update(data_set="vector:" + ",".join(map(str, item.vector.elliptic)),
                       factor_sigma="-", factor_tau="-")
        else:
            canon, flip = _reference_canonical_form(item.ds)
            f_sigma, f_tau = _reference_standard_factors(canon)
            row.update(data_set=str(canon), factor_sigma=str(f_sigma),
                       factor_tau=str(f_tau))
            flips += flip
        rows.append(row)
    rows.sort(key=lambda r: (r["signature"], r["data_set"]))
    return rows, flips


def _ladder_cases():
    """Every group `classify --all` sweeps at the ladder genera 10, 19, 25."""
    for g in (10, 19, 25):
        for family in (ALT, SYM):
            n = 4
            while GroupSpec(family, n).order <= 84 * (g - 1):
                yield GroupSpec(family, n), g, None
                n += 1


ROW_CASES = list(dict.fromkeys(
    (spec, g, None if sigs is None else tuple(sigs))
    for spec, g, sigs in COVERED_PAIRS + list(_ladder_cases())))


@pytest.mark.parametrize("spec,g,sigs", ROW_CASES,
                         ids=[f"{s.name}@{g}" + ("" if sigs is None else "-sig")
                              for s, g, sigs in ROW_CASES])
def test_rows_match_the_per_slot_rendering(spec, g, sigs, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_weak_classes",
                        functools.partial(enumerate_weak_classes, signatures=sigs))
    got = cli.classify_group_rows(spec.family, spec.n, g, None, None)
    assert got == {"rows": _reference_rows(spec, g, sigs)[0], "complete": True}


def test_row_cases_flip_split_tags():
    """The differential cases reach canonical forms whose split tags the
    global flip changes, in each alternating group with split classes."""
    flipped = {}
    for spec, g, sigs in ROW_CASES:
        if spec.family == ALT:
            flipped[spec.name] = flipped.get(spec.name, 0) + _reference_rows(spec, g, sigs)[1]
    assert flipped["A4"] and flipped["A5"] and flipped["A6"]


def test_canonical_form_matches_the_per_slot_rendering():
    for spec, g, sigs in ROW_CASES:
        if spec.family == "AxC2":
            continue
        for item in enumerate_weak_classes(spec, g, signatures=sigs).items:
            assert canonical_form(item.ds) == _reference_canonical_form(item.ds)[0]


CLASS_TABLES = [GroupSpec(ALT, n) for n in range(4, 9)] + \
               [GroupSpec(SYM, n) for n in range(4, 8)]


def test_class_representative_is_the_table_class_rep():
    """The row path names each class by its key; the representative it
    gets is the table's, the least element of the class."""
    checked = 0
    for spec in CLASS_TABLES:
        table = group_table(spec)
        kind = ALTERNATING if spec.family == ALT else SYMMETRIC
        for ci, cl in enumerate(table.classes):
            if ci == table.identity_class_id():
                continue
            parts, label = cl.key if spec.family == ALT else (cl.key[0], "whole")
            assert class_representative(kind, spec.n, CycleType(parts, spec.n),
                                        label) == cl.rep, (spec.name, cl.key)
            checked += 1
    assert checked == 68


@pytest.mark.parametrize("n,long_type,pair_type,want", [
    (10, (9,), (3, 7),
     "(10,0;[(2 3 4 5 6 7 8 9 10),9;9],[(1 2 3)(4 5 6 7 8 10 9),21;3,7]^[2])"),
    (9, (9,), (3, 5),
     "(9,0;[(1 2 3 4 5 6 7 8 9),9;9],[(2 3 4)(5 6 7 9 8),15;3,5]^[2])"),
], ids=["A10", "A9"])
def test_canonical_form_of_a_minus_class_builds_no_table(n, long_type, pair_type, want):
    """A "minus" slot's representative is the least permutation of its type
    conjugated by (n-1 n), so a canonical form builds no group table: Alt(10)
    is above the table cap, and Alt(9)'s table has 181,440 elements."""
    swap = Perm.from_cycles([(1, 2)], n)
    least = least_perm_of_type(CycleType(pair_type, n))
    ds = dataset(ALTERNATING, n, 0, [least_perm_of_type(CycleType(long_type, n)),
                                     (swap * least * swap, 2)])
    tables = group_table.cache_info().currsize
    assert str(canonical_form(ds)) == want
    assert group_table.cache_info().currsize == tables
