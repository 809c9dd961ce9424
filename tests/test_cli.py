import argparse
import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from sact import cache as result_cache
from sact import cli
from sact.cli import CACHE_SCHEMA, _emit, main
from sact.groups import GroupTable
from sact.perm import Perm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_genus10_all(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "10", "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"]
    rows = payload["rows"]
    assert len(rows) == 6
    assert [r["group"] for r in rows] == ["A4", "A4", "A5", "A6", "S4", "S4"]


def test_classify_deterministic(capsys):
    a = run(capsys, "classify", "--genus", "11", "--all")
    b = run(capsys, "classify", "--genus", "11", "--all")
    assert a == b
    assert a[0] == 0


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "10", "--group", "A5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,signature,data_set,factor_sigma,factor_tau"
    assert len(lines) == 2


def test_classify_cache_roundtrip(tmp_path, capsys):
    args = ["classify", "--genus", "10", "--group", "S4",
            "--cache-dir", str(tmp_path), "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "cache", "info", "--cache-dir", str(tmp_path),
                         "--format", "json")
    assert code3 == 0
    assert len(json.loads(out3)["entries"]) == 1
    code4, out4, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path),
                         "--format", "json")
    assert json.loads(out4)["removed"] == 1


def test_cache_entry_of_another_schema_is_a_miss(tmp_path, capsys):
    args = ["classify", "--genus", "10", "--group", "S4",
            "--cache-dir", str(tmp_path), "--format", "json"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    _, info, _ = run(capsys, "cache", "info", "--cache-dir", str(tmp_path),
                     "--format", "json")
    key = json.loads(info)["entries"][0]["key"]
    assert key["schema"] == CACHE_SCHEMA
    rows = json.loads(out)["rows"]
    forged = [dict(row, factor_sigma="forged") for row in rows]
    result_cache.clear(str(tmp_path))
    # a forged entry under the current key is served, which shows the key
    # matches; the same entry under another schema is not
    result_cache.store(str(tmp_path), key, {"rows": forged, "complete": True})
    assert json.loads(run(capsys, *args)[1])["rows"] == forged
    result_cache.clear(str(tmp_path))
    result_cache.store(str(tmp_path), dict(key, schema=CACHE_SCHEMA - 1),
                       {"rows": forged, "complete": True})
    assert run(capsys, *args)[1] == out


def test_cached_classify_result_serves_any_budget(tmp_path, capsys):
    args = ["classify", "--genus", "10", "--group", "S4", "--format", "json"]
    cached = args + ["--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, *cached)
    assert code == 0
    # one node is too few to finish S4@10, but a complete result is stored
    assert run(capsys, *args, "--budget-nodes", "1")[0] == 3
    assert run(capsys, *cached, "--budget-nodes", "1")[:2] == (0, out)


def test_csv_fields_round_trip(capsys):
    text = 'a "quoted", comma'
    _emit(argparse.Namespace(format="csv"),
          {"rows": [{"x": text, "y": "(1 2)"}]}, columns=["x", "y"])
    _emit(argparse.Namespace(format="csv"), {"command": "t", "note": text, "v": None})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y" and lines[2] == "command,note,v"
    assert next(csv.reader([lines[1]])) == [text, "(1 2)"]
    assert next(csv.reader([lines[3]])) == ["t", text, "None"]
    assert lines[3] == '"t","a ""quoted"", comma","None"'


def test_corrupt_cache_file_is_a_miss(tmp_path, capsys):
    args = ["classify", "--genus", "10", "--group", "S4",
            "--cache-dir", str(tmp_path), "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    (entry,) = tmp_path.glob("*.json")
    for garbage in (entry.read_bytes()[:40], b"\xff\xfe not json"):
        entry.write_bytes(garbage)
        code, out, _ = run(capsys, "cache", "info", "--cache-dir", str(tmp_path),
                           "--format", "json")
        assert code == 0 and json.loads(out)["entries"] == []
        assert run(capsys, *args)[:2] == (code1, out1)
        # the recomputed result replaced the corrupt file
        assert json.loads(entry.read_text())["complete"]


def test_classify_budget_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "10", "--group", "A5",
                       "--budget-nodes", "3")
    assert code == 3
    assert "incomplete" in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_classify_budget_stop_names_where_it_stopped(capsys, jobs):
    """One stderr line per group the budget stopped; stdout is what it was
    without the line."""
    args = ["classify", "--genus", "49", "--budget-nodes", "100", "--jobs", jobs]
    code, out, err = run(capsys, *args, "--group", "S4")
    assert code == 3 and out.endswith("# incomplete: search budget exhausted\n")
    assert err == ("incomplete: S4 stopped in (0;2,2,2,2,2,2,2,2,2,2,2,2), "
                   "21 signatures unfinished\n")
    code, _, err = run(capsys, *args, "--all")
    assert code == 3
    assert err.splitlines() == [
        "incomplete: A4 stopped in (0;2,2,2,2,3,3,3,3,3,3,3,3,3,3,3,3), "
        "17 signatures unfinished",
        "incomplete: S4 stopped in (0;2,2,2,2,2,2,2,2,2,2,2,2), "
        "21 signatures unfinished"]


@pytest.mark.parametrize("genus,digest", [
    (49, "f5814bb8521c20a5"), (55, "c8faa770318571e3"), (61, "3e9f030301d6ee41"),
])
def test_classify_frontier_goldens(capsys, monkeypatch, genus, digest):
    """First 16 hex digits of the stdout sha256, recorded from the search
    that expanded every DFS state (13 s to 129 s per genus)."""
    monkeypatch.delenv("SACT_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, "classify", "--all", "--format", "json",
                       "--genus", str(genus))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_classify_g121_golden(capsys, monkeypatch):
    """First 16 hex digits of the stdout sha256 at g = 121 (652 rows, about
    1 s).  A regression guard recorded from the memoized search, not an
    independent proof: no second oracle has checked it (ROADMAP item 1)."""
    monkeypatch.delenv("SACT_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, "classify", "--all", "--format", "json", "--genus", "121")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "cfb32c9d845f16e0"


def test_closed_stdout_exits_without_a_traceback():
    """A reader that stops after one line, as `| head -1` does.  The 130 kB
    of output outgrow the pipe's buffer, so writing meets the closed pipe."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("SACT_CACHE_DIR", None)
    proc = subprocess.Popen([sys.executable, "-m", "sact.cli", "classify", "--all",
                             "--genus", "121", "--format", "json"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    # the little stderr a failure writes fits in its pipe, so waiting first
    # cannot block the child
    code = proc.wait(timeout=120)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert "Traceback" not in err
    assert (code, err) == (cli.EXIT_PIPE, "")


@pytest.mark.parametrize("target,attr,replacement,message", [
    # the genus check of every cyclic factor (factors._unwind)
    ("sact.factors", "validate_cyclic", lambda d: -1, "factor (3,"),
    # the long-relation check of each witness vector
    ("sact.vectors.GeneratingVector", "long_relation_value",
     lambda self: Perm.from_cycles([(1, 2, 3)], self.spec.degree), "vector "),
])
def test_internal_checks_exit_4(capsys, monkeypatch, target, attr, replacement, message):
    monkeypatch.delenv("SACT_CACHE_DIR", raising=False)
    monkeypatch.setattr(f"{target}.{attr}", replacement)
    code, out, err = run(capsys, "classify", "--genus", "10", "--group", "A5")
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err.startswith("internal inconsistency: " + message)


def test_weakgen_yes_and_genus_mismatch(capsys):
    code, out, _ = run(capsys, "weakgen", "--group", "A5",
                       "--df", "(3,7;-)", "--dg", "(5,3;(1,5)^[2],(4,5)^[2])",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "yes"
    assert payload["factor_sigma"] == "(3,7;-)"

    code, _, err = run(capsys, "weakgen", "--group", "A5",
                       "--df", "(3,7;-)", "--dg", "(5,3;-)")
    assert code == 2
    assert "genus" in err


def test_weakgen_no(capsys):
    code, out, _ = run(capsys, "weakgen", "--group", "S4",
                       "--df", "(2,0;(1,2)^[22])",
                       "--dg", "(4,1;(1,4)^[3],(3,4)^[3])", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "no"


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", "--group", "A5",
                       "--ds", "(5,0;[(1 2)(3 4),2;2,2]^[2],[(1 5 4 3 2),5;5],"
                               "[(1 2 3 4 5),5;5])",
                       "--element", "(1 2 3 4 5)", "--format", "json")
    assert code == 0
    assert json.loads(out)["factor"] == "(5,3;(1,5)^[2],(4,5)^[2])"


def test_factor_standard(capsys):
    code, out, _ = run(capsys, "factor", "--group", "A5",
                       "--ds", "(5,0;[(1 2)(3 4),2;2,2]^[2],[(1 5 4 3 2),5;5],"
                               "[(1 2 3 4 5),5;5])", "--standard", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factor_sigma"] == "(3,7;-)"


@pytest.mark.parametrize("group,ds,element", [
    ("S4", "(4,0;[(1 2),2;2]^[3],[(1 2 3 4),4;4]^[2])", "(1 2 3 4)"),
    ("S4", "(4,0;[(1 2)(3 4),2;2,2]^[5])", "(1 2)(3 4)"),
])
def test_factor_of_an_unrealizable_class_pattern_is_bad_input(capsys, group, ds, element):
    """No vector has these classes, so the data set is bad input with
    validate's message, not an inconsistency in the factor arithmetic."""
    assert run(capsys, "factor", "--group", group, "--ds", ds, "--element", element) == \
        (2, "", "error: product: entry product is not the identity\n")


@pytest.mark.parametrize("ds,message", [
    ("(5,0;[(1 2)(3 4),2;2,2]^[0],[(1 5 4 3 2),5;5],[(1 2 3 4 5),5;5])",
     "order-mismatch: multiplicity must be >= 1"),
    ("(5,0;[(),1;],[(1 5 4 3 2),5;5],[(1 2 3 4 5),5;5])",
     "order-mismatch: trivial entry"),
    ("(5,0;[(1 2 3),3;3]^[3])", "genus-integrality: signature (0;3,3,3)"),
])
def test_factor_of_a_malformed_data_set_is_bad_input(capsys, ds, message):
    """validate's entry and genus checks, reached from the command line."""
    assert run(capsys, "factor", "--group", "A5", "--standard", "--ds", ds) == \
        (2, "", f"error: {message}\n")


def test_factor_answers_on_classify_rows(capsys):
    """A classify row's data set is a display form whose entries need not
    multiply to the identity; factor reads it, prints it back unchanged
    and agrees with the row's standard factors."""
    code, out, _ = run(capsys, "classify", "--genus", "10", "--group", "S4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows
    for row in rows:
        code, out, _ = run(capsys, "factor", "--group", "S4", "--ds", row["data_set"],
                           "--standard", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["data_set"] == row["data_set"]
        assert (payload["factor_sigma"], payload["factor_tau"]) == \
            (row["factor_sigma"], row["factor_tau"])


@pytest.mark.parametrize("group,ask,want", [
    ("S9", ["--element", "(1 2 3)"], {"factor": "(3,39841;(1,3)^[720],(2,3)^[720])"}),
    ("S9", ["--standard"], {"factor_sigma": "(2,60481;-)", "factor_tau": "(9,13441;-)"}),
    ("A8", ["--element", "(1 2 3)"], {"factor": "(3,2201;(1,3)^[60],(2,3)^[60])"}),
])
def test_factor_above_the_closure_cap_builds_no_table(capsys, monkeypatch, group, ask, want):
    """A valid quotient-genus-1 data set of a group above CLOSURE_ORDER_CAP
    is answered by the direct formula: its witness clause and a search for
    a realizing vector would need an element table, which is not built
    (S9 is above the table cap)."""
    def no_table(self, spec):
        raise AssertionError(f"element table of {spec.name} built")

    monkeypatch.setattr(GroupTable, "__init__", no_table)
    ds = f"({group[1:]},1;[(1 2 3),3;3])"
    code, out, _ = run(capsys, "factor", "--group", group, "--ds", ds, *ask,
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["data_set"] == ds
    assert {key: payload[key] for key in want} == want


def test_nested_values_print_as_json(capsys):
    """text and csv print a list or dict value as JSON with sorted keys."""
    argv = ["obstructions", "--group", "S3", "--genus", "2"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    want = json.loads(out)["factor_tables"]
    assert want
    code, out, _ = run(capsys, *argv)
    assert code == 0
    line, = [x for x in out.splitlines() if x.startswith("factor_tables: ")]
    assert json.loads(line[len("factor_tables: "):]) == want
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    record, = csv.DictReader(out.splitlines())
    assert json.loads(record["factor_tables"]) == want
    assert json.loads(record["hyperelliptic"]) == []


def test_lift_command(capsys):
    code, out, _ = run(capsys, "lift", "--group", "A4",
                       "--ds", "(4,1;[(1 2)(3 4),2;2,2]^[2])",
                       "--d", "(2,1;-)", "--pi", "()", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "alt_times_c2"
    assert payload["normalized_perm"] == "(1 2)"


def test_lift_self_normalizing_payload(capsys):
    """The self-normalizing report of an Alt(4) action on a torus quotient:
    two symmetric extensions and one Alt(4) x C_2 extension, so it is not
    self-normalizing.  The JSON stdout sha256 prefix pins the whole payload."""
    code, out, _ = run(capsys, "lift", "--group", "A4",
                       "--ds", "(4,1;[(1 2)(3 4),2;2,2]^[2])",
                       "--d", "(2,1;-)", "--pi", "()", "--self-normalizing",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["by_condition"], payload["by_exhaustion"], payload["overall"]) == \
        (False, False, False)
    assert [(v["descent"]["d"], v["descent"]["perm"], v["verdict"])
            for v in payload["extensions"]] == [
        ("(2,0;(1,2)^[4])", "()", "wls"), ("(2,0;(1,2)^[4])", "(1 2)", "wls"),
        ("(2,1;-)", "(1 2)", "alt_times_c2")]
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "94fdc84d1e198edd"


def test_lift_self_normalizing_reads_neither_d_nor_pi(capsys):
    code, out, _ = run(capsys, "lift", "--group", "A4",
                       "--ds", "(4,1;[(1 2)(3 4),2;2,2]^[2])", "--self-normalizing",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "94fdc84d1e198edd"


@pytest.mark.parametrize("flags,missing", [
    (["--d", "(2,1;-)"], "--pi"), (["--pi", "()"], "--d"), ([], "--d")])
def test_lift_question_needs_d_and_pi(capsys, flags, missing):
    assert run(capsys, "lift", "--group", "A4",
               "--ds", "(4,1;[(1 2)(3 4),2;2,2]^[2])", *flags) == \
        (2, "", f"error: lift needs {missing} unless --self-normalizing is given\n")


def test_lift_needs_an_alternating_group(capsys):
    assert run(capsys, "lift", "--group", "S5", "--ds", "(5,0;[(1 2),2;2])",
               "--d", "(2,0;(1,2)^[2])", "--pi", "()") == \
        (2, "", "error: lift decides extensions of alternating actions; use A<n>\n")


def test_lift_without_a_realizable_cone_pairing(capsys):
    """Three cones of distinct orders all fixed by an involution with two
    branch points: no pairing of the surplus fixed cones exists."""
    code, out, _ = run(capsys, "lift", "--group", "A6",
                       "--ds", "(6,0;[(4 5 6),3;3],[(1 2)(3 4 5 6),4;2,4],"
                               "[(2 3 4 5 6),5;5])",
                       "--d", "(2,0;(1,2)^[2])", "--pi", "()", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "lift",
        "data_set": "(6,0;[(4 5 6),3;3],[(1 2 3 4)(5 6),4;2,4],[(1 4 5 3 2),5;5])",
        "descent": {"d": "(2,0;(1,2)^[2])", "perm": "()"},
        "notes": ["no realizable cone pairing for this involution class"],
        "verdict": "not_liftable"}


@pytest.mark.parametrize("nodes,code,verdict", [("0", 3, None), ("20", 0, "wls")])
def test_lift_budget_bounds_resolving_the_data_set(capsys, nodes, code, verdict):
    """The entries do not close the long relation, so the data set is
    re-solved in its classes first; that search runs under the budget."""
    got, out, err = run(capsys, "lift", "--group", "A4", "--ds",
                        "(4,0;[(1 2)(3 4),2;2,2],[(1 2)(3 4),2;2,2],[(2 3 4),3;3],"
                        "[(1 3 4),3;3],[(1 3)(2 4),2;2,2])",
                        "--d", "(2,0;(1,2)^[2])", "--pi", "(1 2)(3 4)",
                        "--budget-nodes", nodes, "--format", "json")
    assert got == code
    if verdict is None:
        assert (out, err) == ("", "incomplete: node ceiling 0 hit\n")
    else:
        payload = json.loads(out)
        assert payload["verdict"] == verdict and payload["notes"] == []
        assert payload["data_set"] == ("(4,0;[(1 2)(3 4),2;2,2]^[2],[(2 3 4),3;3],"
                                       "[(1 2 3),3;3],[(1 3)(2 4),2;2,2])")


def test_factor_needs_element_or_standard(capsys):
    assert run(capsys, "factor", "--group", "A5",
               "--ds", "(5,0;[(1 2)(3 4),2;2,2]^[2],[(1 5 4 3 2),5;5],"
                       "[(1 2 3 4 5),5;5])") == \
        (2, "", "error: factor needs --element or --standard\n")


def test_lift_of_an_unrealizable_class_pattern_is_bad_input(capsys):
    """No vector realizes these classes, so resolving the data set re-raises
    validate's product failure: exit 2."""
    assert run(capsys, "lift", "--group", "A4",
               "--ds", "(4,0;[(1 2)(3 4),2;2,2]^[3],[(2 3 4),3;3])",
               "--d", "(2,0;(1,2)^[2])", "--pi", "()") == \
        (2, "", "error: product: entry product is not the identity\n")


def test_free_command(capsys):
    code, out, _ = run(capsys, "free", "--n", "5", "--genus", "121",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2 and payload["extension"] == "free_sym"


def test_obstructions_command(capsys):
    code, out, _ = run(capsys, "obstructions", "--group", "A5", "--genus", "10",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["clean"] and payload["classes_swept"] == 1


@pytest.mark.parametrize("argv", [
    ["obstructions", "--group", "A5", "--genus", "61"],
    ["weakgen", "--group", "A5", "--df", "(3,7;-)", "--dg", "(5,3;(1,5)^[2],(4,5)^[2])"],
])
def test_sweep_budget_stop_exits_3(capsys, argv):
    """Sweeps that need every weak class raise on a budget stop instead of
    answering from a partial list: exit 3."""
    assert run(capsys, *argv, "--budget-nodes", "1") == \
        (3, "", "incomplete: node ceiling 1 hit\n")


def test_sweep_wall_clock_stop_exits_3(capsys):
    """A zero-second budget stops at the first clock reading, node 1024."""
    assert run(capsys, "obstructions", "--group", "S4", "--genus", "121",
               "--budget-seconds", "0") == \
        (3, "", "incomplete: wall-clock ceiling 0.0s hit\n")


@pytest.mark.parametrize("argv,digest", [
    (["obstructions", "--group", "A5", "--genus", "61"], "a889bc11e05e1863"),
    (["obstructions", "--group", "S5", "--genus", "16"], "24b13e66bf7ad0eb"),
    (["obstructions", "--group", "A6", "--genus", "46"], "6ba4551941499a59"),
    (["weakgen", "--group", "A5", "--df", "(3,7;-)",
      "--dg", "(5,3;(1,5)^[2],(4,5)^[2])"], "6a2ccb7f75acc7c0"),
    (["weakgen", "--group", "S4", "--df", "(2,0;(1,2)^[22])",
      "--dg", "(4,1;(1,4)^[3],(3,4)^[3])"], "239afc8b0e934083"),
])
def test_factor_sweep_goldens(capsys, argv, digest):
    """First 16 hex digits of the JSON stdout sha256 of the commands that
    read every class's cyclic factor, recorded when each factor was still
    computed per (data set, class) rather than read from a factor table."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("argv", [
    ["classify", "--genus", "1", "--all"],
    ["classify", "--genus", "-5", "--all"],
    ["free", "--n", "5", "--genus", "-1"],
    ["free", "--n", "5", "--genus", "0"],
])
def test_genus_below_2_is_bad_input(capsys, argv):
    """No surface of genus below 2 carries these actions: exit 2, as
    `classify --group A5 --genus 1` and `obstructions --genus 1` do."""
    assert run(capsys, *argv) == (2, "", "error: genus must be >= 2\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "factor", "--group", "A5", "--ds", "garbage",
                       "--standard")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "--genus", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    # an element outside the group
    ["factor", "--group", "A5", "--element", "(1 2)",
     "--ds", "(5,0;[(1 2)(3 4),2;2,2]^[2],[(1 5 4 3 2),5;5],[(1 2 3 4 5),5;5])"],
    # a group above the element-table cap
    ["classify", "--group", "A12", "--genus", "10"],
    # AxC2n classes have no data-set form to read, sweep or search
    ["factor", "--group", "AxC24", "--standard",
     "--ds", "(4,0;[(1 2)(3 4),2;2,2]^[2],[(1 2 3),3;3],[(1 3 2),3;3])"],
    ["obstructions", "--group", "AxC24", "--genus", "7"],
    ["weakgen", "--group", "AxC24", "--df", "(2,0;(1,2)^[16])",
     "--dg", "(2,0;(1,2)^[16])"],
    # an entry whose declared order or cycle type is not a number
    ["factor", "--group", "A5", "--standard", "--ds", "(5,0;[(1 2)(3 4),x;2,2])"],
    ["factor", "--group", "A5", "--standard", "--ds", "(5,0;[(1 2)(3 4),2;2,y])"],
    # Alt(n) needs n >= 4, also where no data set is read
    ["free", "--n", "0", "--genus", "10"],
    ["free", "--n", "1", "--genus", "10"],
    ["free", "--n", "-2", "--genus", "10"],
    # the descended class of an involution has degree 2
    ["lift", "--group", "A5",
     "--ds", "(5,0;[(1 2)(3 4),2;2,2]^[2],[(1 5 4 3 2),5;5],[(1 2 3 4 5),5;5])",
     "--d", "(3,0;(1,3),(2,3))", "--pi", "(3 4)"],
])
def test_input_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def readme_commands():
    """The `sact ...` lines of the README's "Command line" block, as argv
    lists without the program name."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("sact ")]


def test_readme_examples_exit_0(capsys, tmp_path):
    """Every command the README shows runs and exits 0; `cache info` reads a
    fresh cache directory, not the one the README names."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "classify", "weakgen", "factor", "lift", "free", "obstructions", "cache"}
    for argv in commands:
        if "--cache-dir" in argv:
            argv[argv.index("--cache-dir") + 1] = str(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SACT_FORMAT", "json")
    code, out, _ = run(capsys, "free", "--n", "5", "--genus", "100")
    assert code == 0
    assert json.loads(out)["status"] == "no_free_action"


@pytest.mark.parametrize("name,value,argv", [
    ("SACT_BUDGET_NODES", "abc", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_BUDGET_SECONDS", "soon", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_JOBS", "two", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_FORMAT", "xml", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_GENUS", "x", ["classify", "--group", "A5"]),
    ("SACT_BUDGET_NODES", "-1", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_BUDGET_SECONDS", "-3", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_BUDGET_SECONDS", "nan", ["free", "--n", "5", "--genus", "100"]),
    ("SACT_JOBS", "0", ["free", "--n", "5", "--genus", "100"]),
])
def test_bad_env_value_is_a_usage_error(capsys, monkeypatch, name, value, argv):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and "Traceback" not in err
    assert "invalid" in err and repr(value) in err


def test_negative_budget_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--genus", "10", "--all", "--budget-seconds", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid float value: '-1'" in err and "Traceback" not in err


def test_jobs_flag_is_deterministic(capsys):
    a = run(capsys, "classify", "--genus", "10", "--all", "--jobs", "2")
    b = run(capsys, "classify", "--genus", "10", "--all", "--jobs", "1")
    assert a == b


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built, build = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in (["free", "--n", "5", "--genus", "100"],
                     ["classify", "--genus", "10", "--group", "A5"],
                     ["free", "--n", "5", "--genus", "121"]):
            assert run(capsys, *argv)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_env_is_read_on_each_call(capsys, monkeypatch):
    argv = ["free", "--n", "5", "--genus", "100"]
    monkeypatch.setenv("SACT_FORMAT", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["status"] == "no_free_action"
    monkeypatch.delenv("SACT_FORMAT")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("genus: 100\n")

    monkeypatch.setenv("SACT_GENUS", "10")
    assert run(capsys, "classify", "--group", "A5")[0] == 0
    monkeypatch.delenv("SACT_GENUS")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "A5"])
    assert exc.value.code == 2
    assert "the following arguments are required: --genus" in capsys.readouterr().err


def test_import_defers_the_pool_and_hash_modules():
    probe = ("import sys, sact.cli; "
             "print(sorted({'concurrent.futures', 'hashlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
