"""Command-line front end: workspace loading, the cover expression
language, per-command output shapes, the JSON document schema, and exit
codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covercalc import BuildLimits, FiniteGroup, GroupHom, fiber_product, same_group
from covercalc.cli import (
    Workspace,
    main,
    parse_cover,
    parse_group,
    parse_module,
    parse_workspace,
    run_command,
)
from covercalc.errors import UnknownReference, UsageError

REPO = Path(__file__).resolve().parents[1]
INTRO = str(REPO / "examples" / "intro.grp")


@pytest.fixture(scope="module")
def ws():
    return parse_workspace([INTRO])


# ---------------------------------------------------------------------------
# workspace loading and built-in groups


def test_workspace_object_count(ws):
    assert len(ws.groups) + len(ws.homs) == 5
    assert set(ws.groups) == {"C2", "V4", "C4"}
    assert set(ws.homs) == {"eta0", "eta1"}


def test_intro_file_matches_readme():
    # the README's "Command line" listing is the committed file, verbatim
    readme = (REPO / "README.md").read_text()
    listing = Path(INTRO).read_text()
    assert f"```text\n{listing}```\n" in readme


def test_file_groups_shadow_builtins(ws):
    # the file defines C4 itself; the workspace returns that object
    assert ws.group("C4") is ws.groups["C4"]


@pytest.mark.parametrize(
    "name,order",
    [
        ("1", 1),
        ("C6", 6),
        ("C11", 11),
        ("V4", 4),
        ("S3", 6),
        ("S4", 24),
        ("A4", 12),
        ("A5", 60),
        ("D4", 8),
        ("Q8", 8),
    ],
)
def test_builtin_groups(name, order):
    ws = Workspace()
    g = ws.group(name)
    assert g.order == order
    assert ws.group(name) is g  # cached


def test_unknown_group_name():
    ws = Workspace()
    with pytest.raises(UnknownReference):
        ws.group("H31")
    with pytest.raises(UsageError):
        ws.group("C0")


def test_unknown_hom_name(ws):
    with pytest.raises(UnknownReference):
        ws.hom("zeta")


def test_duplicate_hom_across_files(tmp_path):
    clash = tmp_path / "clash.grp"
    clash.write_text("hom eta0 : C4 -> C2\na -> t\n")
    with pytest.raises(UsageError):
        parse_workspace([INTRO, str(clash)])


def test_group_named_like_a_hom_clashes_in_either_file_order(tmp_path):
    # INTRO declares the hom eta0; a group of that name clashes whichever
    # file is loaded first
    clash = tmp_path / "clash.grp"
    clash.write_text("group eta0\ngen a = (1 2)\n")
    for files in ([INTRO, str(clash)], [str(clash), INTRO]):
        with pytest.raises(UsageError, match="duplicate name 'eta0' across input files"):
            parse_workspace(files)


# ---------------------------------------------------------------------------
# expression language


def test_parse_cover_named_hom(ws):
    cov = parse_cover(ws, "eta1")
    assert cov.source.order == 4 and cov.target.order == 2


def test_parse_cover_fprod(ws):
    cov = parse_cover(ws, "fprod(eta0,eta1)")
    assert cov.source.order == 8 and cov.target.order == 2


def test_parse_cover_nested_fprod(ws):
    cov = parse_cover(ws, "fprod(fprod(eta0,eta0),eta1)")
    assert cov.source.order == 16


def test_parse_cover_identity_and_terminal(ws):
    assert parse_cover(ws, "id(C2)").kernel().is_trivial()
    cov = parse_cover(ws, "S3->1")
    assert cov.source.order == 6 and cov.target.order == 1


def test_parse_cover_errors(ws):
    with pytest.raises(UsageError):
        parse_cover(ws, "eta1 junk")
    with pytest.raises(UsageError):
        parse_cover(ws, "fprod(")
    with pytest.raises(UnknownReference):
        parse_cover(ws, "zeta")
    with pytest.raises(UnknownReference):
        parse_cover(ws, "eta0->1")  # eta0 is a hom, not a group
    with pytest.raises(UsageError):
        parse_cover(ws, "fprod(eta0 eta1)")


def test_parse_group_and_module(ws):
    g = parse_group(ws, "C2")
    mod = parse_module(ws, g, "F2triv")
    assert mod.p == 2 and mod.dim == 1
    mod3 = parse_module(ws, g, "F3triv")
    assert mod3.p == 3
    ker = parse_module(ws, g, "ker(eta1)")
    assert ker.p == 2 and ker.dim == 1
    with pytest.raises(UsageError):
        parse_module(ws, parse_group(ws, "V4"), "ker(eta1)")
    with pytest.raises(UsageError):
        parse_module(ws, g, "F2")


# ---------------------------------------------------------------------------
# command output shapes


def test_cmd_fprod_lines(ws):
    lines, doc = run_command(ws, "fprod", ["eta1", "eta1"])
    assert lines[0] == "fiber product of 2 covers over C2"
    assert lines[1] == "carrier order: 8"
    assert "element orders: [1, 2, 2, 2, 4, 4, 4, 4]" in lines
    assert lines[-1] == "compact: false"
    assert doc["schema"] == 1 and doc["compact"] is False


def test_cmd_fprod_compactness_distinguishes(ws):
    _, doc01 = run_command(ws, "fprod", ["eta0", "eta1"])
    _, doc00 = run_command(ws, "fprod", ["eta0", "eta0"])
    assert doc01["compact"] is True
    assert doc00["compact"] is False


A5_PRODUCTS = """
group A5C2
gen x = (1 2 3)
gen y = (3 4 5)
gen z = (6 7)

group A5C3
gen x = (1 2 3)
gen y = (3 4 5)
gen w = (6 7 8)

group A5
gen x = (1 2 3)
gen y = (3 4 5)

hom pr : A5C2 -> A5
x -> x
y -> y
z -> 1

hom pt : A5C3 -> A5
x -> x
y -> y
w -> 1
"""


@pytest.mark.parametrize(
    "factors,compact",
    [(["pr", "pr"], "false"), (["pr", "pt"], "true"), (["pt", "pr", "pr"], "false")],
)
def test_cmd_fprod_over_a5(tmp_path, capsys, factors, compact):
    # H^2 of A5 with a 1-dim module is past the cochain cap: a class the
    # factors share is decided without it, and one they do not share
    # needs none
    defs = tmp_path / "a5.grp"
    defs.write_text(A5_PRODUCTS)
    assert main(["-f", str(defs), "fprod", *factors]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"compact: {compact}"


def test_cmd_check_square_cartesian(tmp_path):
    # the two coordinate projections of V4 form a cartesian square over
    # the trivial group, with the diagonal as a proper full subgroup
    other = tmp_path / "other.grp"
    other.write_text("hom eta0b : V4 -> C2\na -> 1\nb -> t\n")
    ws2 = parse_workspace([INTRO, str(other)])
    lines, doc = run_command(
        ws2, "check-square", ["eta0", "eta0b", "C2->1", "C2->1"]
    )
    assert lines[0] == "commutes: true"
    assert doc["cartesian"] is True
    assert doc["semi_cartesian"] is True
    assert doc["compact"] is False


def test_cmd_check_square_not_semi(ws):
    # the diagonal square of one projection: the universal map hits only
    # the diagonal of the order-8 fiber product
    lines, doc = run_command(
        ws, "check-square", ["id(V4)", "id(V4)", "eta0", "eta0"]
    )
    assert lines[0] == "commutes: true"
    assert doc["cartesian"] is False
    assert doc["semi_cartesian"] is False
    assert doc["compact"] is None
    assert "compact: n/a" in lines


def test_cmd_check_square_noncommuting(tmp_path):
    other = tmp_path / "other.grp"
    other.write_text("hom eta0b : V4 -> C2\na -> 1\nb -> t\n")
    ws2 = parse_workspace([INTRO, str(other)])
    lines, doc = run_command(
        ws2, "check-square", ["id(V4)", "id(V4)", "eta0", "eta0b"]
    )
    assert lines == ["commutes: false"]
    assert doc["commutes"] is False


@pytest.mark.parametrize(
    "group,dim_f",
    [("C2", 1), ("V4", 3), ("C3", 0)],
)
def test_cmd_h2(ws, group, dim_f):
    lines, doc = run_command(ws, "h2", [group, "F2triv"])
    assert f"dim_F = {dim_f}" in lines
    assert doc["dim_F"] == dim_f


def test_cmd_cocycle(ws):
    lines1, doc1 = run_command(ws, "cocycle", ["eta1"])
    assert "split: false" in lines1
    assert doc1["coordinates"] == [1]
    lines0, doc0 = run_command(ws, "cocycle", ["eta0"])
    assert "split: true" in lines0
    assert doc0["coordinates"] == [0]


def test_cmd_fundament(ws):
    lines, doc = run_command(ws, "fundament", ["C4->1"])
    assert "kernel size: 4" in lines
    assert "fundament kernel size: 2" in lines
    assert "already fundamental: false" in lines
    assert doc["fundament_kernel"] == [0, 2]


def test_cmd_series(ws):
    lines, doc = run_command(ws, "series", ["C4->1"])
    assert lines == ["[4, 2, 1]"]
    assert doc["sizes"] == [4, 2, 1]
    lines_s3, _ = run_command(ws, "series", ["S3->1"])
    assert lines_s3 == ["[6, 3, 1]"]


def test_cmd_invariants(ws):
    lines, doc = run_command(ws, "invariants", ["fprod(eta1,eta1)"])
    assert lines[0] == "base: C2"
    assert "non-abelian classes: 0" in lines
    assert "abelian classes: 1" in lines
    (ab,) = doc["ab_classes"]
    assert ab["mult"] == 1
    assert ab["supp"] == [[1]]
    assert doc["empty"] is False
    _, doc_id = run_command(ws, "invariants", ["id(C2)"])
    assert doc_id["empty"] is True


def test_cmd_dominates(ws):
    lines, _ = run_command(ws, "dominates", ["eta1", "fprod(eta0,eta1)"])
    assert lines[-1] == "true"
    lines2, _ = run_command(ws, "dominates", ["fprod(eta0,eta1)", "eta1"])
    assert lines2[-1] == "false"


def test_cmd_isomorphic(ws):
    lines, _ = run_command(
        ws, "isomorphic", ["fprod(eta1,eta1)", "fprod(eta0,eta1)"]
    )
    assert lines[-1] == "true"
    lines2, _ = run_command(ws, "isomorphic", ["eta0", "eta1"])
    assert lines2[-1] == "false"


def test_cmd_lift(ws):
    lines, _ = run_command(ws, "lift", ["C2->1", "eta1", "id(1)"])
    assert lines[-1] == "true"
    lines2, _ = run_command(ws, "lift", ["eta1", "id(C4)", "eta1"])
    assert lines2[-1] == "false"


def test_cmd_decompose(ws):
    lines, doc = run_command(ws, "decompose", ["fprod(eta0,eta1)"])
    assert lines[0] == "indecomposable factors: 2"
    assert lines[-1] == "isomorphism onto fiber product: true"
    assert len(doc["factors"]) == 2
    lines_id, _ = run_command(ws, "decompose", ["id(C2)"])
    assert lines_id[0] == "indecomposable factors: 0"
    lines_one, _ = run_command(ws, "decompose", ["eta1"])
    assert lines_one[0] == "indecomposable factors: 1"


def test_unknown_command(ws):
    with pytest.raises(UsageError):
        run_command(ws, "frobnicate", [])


def test_command_arity_errors(ws):
    for cmd, args in [
        ("fprod", []),
        ("check-square", ["eta0"]),
        ("h2", ["C2"]),
        ("cocycle", []),
        ("fundament", []),
        ("series", []),
        ("invariants", []),
        ("dominates", ["eta0"]),
        ("isomorphic", ["eta0"]),
        ("lift", ["eta0", "eta1"]),
        ("decompose", []),
    ]:
        with pytest.raises(UsageError):
            run_command(ws, cmd, args)


# ---------------------------------------------------------------------------
# JSON schema and round trips


def test_json_fprod_round_trip(ws, capsys):
    rc = main(["-f", INTRO, "--json", "fprod", "eta1", "eta1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    carrier = FiniteGroup(np.array(doc["carrier"]["mul"]))
    assert carrier.order == doc["carrier"]["order"] == 8
    sm = doc["structure_map"]
    target = FiniteGroup(np.array(sm["target"]["mul"]))
    hom = GroupHom(carrier, target, np.array(sm["image"]))
    assert hom.is_surjective()
    # the rebuilt map matches a fresh construction up to nothing at all:
    # the document pins element numbering, so tables agree exactly
    direct = fiber_product(
        ws.hom("eta1").target, [ws.hom("eta1"), ws.hom("eta1")]
    )
    assert same_group(carrier, direct.carrier)
    assert np.array_equal(np.array(sm["image"]), direct.structure_map.image)
    assert sorted(doc["kernel"]) == [
        int(x) for x in direct.structure_map.kernel().elements
    ]


def test_json_series(capsys):
    rc = main(["--json", "series", "C4->1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["sizes"] == [4, 2, 1]
    assert len(doc["stage_covers"]) == 2
    stage = doc["stage_covers"][0]
    g = FiniteGroup(np.array(stage["source"]["mul"]))
    assert g.order == 2


def test_json_decision_result(capsys):
    rc = main(
        ["-f", INTRO, "--json", "isomorphic", "fprod(eta1,eta1)", "fprod(eta0,eta1)"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema": 1, "command": "isomorphic", "result": True}


# ---------------------------------------------------------------------------
# main(): exit codes and the error channel


def test_main_success_plain(capsys):
    rc = main(["series", "C4->1"])
    assert rc == 0
    out = capsys.readouterr()
    assert out.out.strip() == "[4, 2, 1]"
    assert out.err == ""


def test_main_unknown_command(capsys):
    rc = main(["frobnicate"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_unknown_reference(capsys):
    rc = main(["series", "zeta"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_missing_file(capsys):
    rc = main(["-f", "no/such/file.grp", "series", "C4->1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group X\ngen a = (1 2\n")
    rc = main(["-f", str(bad), "series", "X->1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_duplicate_group(tmp_path, capsys):
    dup = tmp_path / "dup.grp"
    dup.write_text("group C2\ngen t = (1 2)\n")
    rc = main(["-f", INTRO, "-f", str(dup), "series", "C2->1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "duplicate group name 'C2'" in err


def test_main_noncommuting_square_still_succeeds(tmp_path, capsys):
    other = tmp_path / "other.grp"
    other.write_text("hom eta0b : V4 -> C2\na -> 1\nb -> t\n")
    rc = main(
        ["-f", INTRO, "-f", str(other), "check-square",
         "id(V4)", "id(V4)", "eta0", "eta0b"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "commutes: false"


def test_main_max_order_cap(capsys):
    rc = main(["--max-order", "3", "series", "C4->1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc2 = main(["-f", INTRO, "--max-order", "7", "fprod", "eta1", "eta1"])
    assert rc2 == 1  # carrier would have order 8
    assert "exceeds cap 7" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the command-line grammar

CANONICAL = ["-f", INTRO, "--json", "--max-order", "100", "fprod", "eta1", "eta1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--file", INTRO, "--json", "--max-order", "100", "fprod", "eta1", "eta1"],
        [f"--file={INTRO}", "--json", "--max-order=100", "fprod", "eta1", "eta1"],
        ["fprod", "eta1", "eta1", "-f", INTRO, "--max-order", "100", "--json"],
        ["fprod", "--json", "eta1", "--max-order=100", "eta1", "-f", INTRO],
        ["-f", INTRO, "--json", "--max-order", "100", "--", "fprod", "eta1", "eta1"],
        ["--max-order", "5", "-f", INTRO, "--json", "--max-order", "100", "fprod",
         "eta1", "eta1"],
    ],
    ids=["long", "equals", "flags-last", "interleaved", "double-dash", "last-cap-wins"],
)
def test_accepted_forms_match_the_canonical_form(argv, capsys):
    assert main(CANONICAL) == 0
    want = capsys.readouterr().out
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == want
    assert out.err == ""


def test_files_load_in_command_line_order(tmp_path, capsys):
    extra = tmp_path / "extra.grp"
    extra.write_text("hom eta2 : V4 -> C2\na -> 1\nb -> t\n")
    assert main(["-f", INTRO, "--file", str(extra), "isomorphic", "eta0", "eta2"]) == 0
    assert capsys.readouterr().out == "true\n"
    # eta2 names V4, which only intro.grp defines
    assert main(["-f", str(extra), "--file", INTRO, "isomorphic", "eta0", "eta2"]) == 1
    assert "unknown group 'V4'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage(flag, capsys):
    assert main(["series", flag]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: covercalc")
    assert "--max-order N" in out.out
    assert out.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--json", "-f", INTRO],
        ["--js", "series", "C4->1"],
        ["series", "C4->1", "-f"],
        ["--max-order", "abc", "series", "C4->1"],
        ["--max-order", "0", "series", "C4->1"],
        ["--max-order=-3", "series", "C4->1"],
        ["-f=" + INTRO, "series", "C4->1"],
        ["--json=1", "series", "C4->1"],
        ["-x", "series", "C4->1"],
    ],
    ids=["empty", "no-command", "abbrev", "bare-f", "cap-abc", "cap-zero",
         "cap-negative", "short-equals", "json-value", "unknown-short"],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")
    assert out.err.count("\n") == 1


def test_after_double_dash_flags_are_arguments(capsys):
    assert main(["series", "--", "--json"]) == 1
    assert "bad expression syntax near '--json'" in capsys.readouterr().err


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["covercalc", "series", "--json", "C4->1"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["sizes"] == [4, 2, 1]


def test_h2_rejects_composite_fields():
    # a fresh interpreter, so a numpy warning or a traceback shows on stderr
    proc = run_python(
        "-c",
        "from covercalc.cli import main\n"
        "print([main(['h2', g, m]) for g, m in\n"
        "       (('C2', 'F4triv'), ('C3', 'F9triv'), ('C2', 'F1triv'), ('C2', 'F0triv'))])\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1, 1, 1, 1]\n"
    errors = proc.stderr.splitlines()
    assert len(errors) == 4, proc.stderr
    assert all(line.startswith("error:") and "prime" in line for line in errors)


def test_h2_rejects_primes_past_int64_products():
    # H^2(G, F_p) = 0 for p not dividing |G|, yet int64 products of
    # residues overflow above about 2^31 and gave nonzero dimensions, and
    # trial division of a prime near 2^63 did not finish: a fresh
    # interpreter, so such a hang fails at its timeout
    proc = run_python(
        "-c",
        "import time\n"
        "from covercalc.cli import main\n"
        "for argv in (['h2', 'S4', 'F2147483659triv'],\n"
        "             ['--json', 'h2', 'D4', 'F3037000507triv'],\n"
        "             ['h2', 'C2', 'F9223372036854775783triv']):\n"
        "    start = time.perf_counter()\n"
        "    print(main(argv), time.perf_counter() - start < 1)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 True\n" * 3
    errors = proc.stderr.splitlines()
    assert len(errors) == 3, proc.stderr
    assert all(line.startswith("error:") and "2^24" in line for line in errors)


def test_h2_takes_primes_below_2_to_24(capsys):
    assert main(["h2", "S4", "F16777213triv"]) == 0
    assert "dim_p = 0" in capsys.readouterr().out.splitlines()


def test_max_order_reaches_cyclic_builtins():
    # above the default cap of 5000, so only the workspace's own limits admit it
    ws = Workspace(BuildLimits(order_cap=5001))
    assert ws.group("C5001").order == 5001


@pytest.mark.parametrize(
    "cover,factors",
    [("C5003->1", ["5003"]), ("C5001->1", ["1667", "3"])],
    ids=["indecomposable", "two-factors"],
)
def test_decompose_honours_max_order(capsys, cover, factors):
    # the factors' fiber product is the cover's own source, so it is built
    # under that order, not under the default cap of 5000
    assert main(["--max-order", "6000", "decompose", cover]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert lines[0] == f"indecomposable factors: {len(factors)}"
    assert [line.split()[4].rstrip(",") for line in lines[1:-1]] == factors
    assert lines[-1] == "isomorphism onto fiber product: true"


def run_python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports covercalc from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env=env,
    )


def test_console_script_runs():
    proc = run_python(
        "-m",
        "covercalc",
        "-f",
        INTRO,
        "isomorphic",
        "fprod(eta1,eta1)",
        "fprod(eta0,eta1)",
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_1_without_traceback(flags):
    # a reader that stops early, such as head, leaves the pipe closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python("-m", "covercalc", *flags, "series", "C4->1", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_cold_commands_do_not_import_numpy_ma():
    # numpy imports numpy.ma on the first np.unique, which costs more than a
    # small cold command; neither the import nor these commands may need it
    proc = run_python(
        "-c",
        "import sys\n"
        "import covercalc\n"
        "print('numpy.ma' in sys.modules)\n"
        "from covercalc.cli import main\n"
        "for argv in (['series', 'C4->1'], ['h2', 'D4', 'F2triv'], ['fundament', 'S4->1']):\n"
        "    assert main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False", "import covercalc imports numpy.ma"
    assert lines[-1] == "False", "a cold command imports numpy.ma"


def test_cold_commands_do_not_import_argparse_gettext_or_locale():
    # argparse's translated help strings import locale through gettext, which
    # costs more than parsing the command line needs
    proc = run_python(
        "-c",
        "import sys\n"
        "import covercalc\n"
        "from covercalc.cli import main\n"
        "for argv in (['series', 'C4->1'], ['--json', 'h2', 'D4', 'F2triv'],\n"
        "             ['-f', sys.argv[1], 'isomorphic', 'fprod(eta1,eta1)', 'fprod(eta0,eta1)']):\n"
        "    assert main(argv) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n",
        INTRO,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
