"""Smoke runs of the scripts in ``scripts/``, each in a child process:
it must exit 0 and print its header line first. Also the public names
that tooling (the benchmark's tracer) reads from every module, the
names that README's "Modules of note" lists, and three static guards:
every definition in ``src/covercalc``, and every member of its classes,
is reached from the command line, the scripts or the benchmark; every
import in ``src/covercalc``, ``tests`` and ``scripts`` is used; and the
library calls none of the numpy helpers that have an array-method,
operator or indexing spelling."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "covercalc"

SCRIPTS = [
    (
        ["h2_table.py", "--primes", "2"],
        f"{'group':>6} {'p':>2} {'dim_p':>5} {'dim_F':>5} {'classes':>8}",
    ),
    (
        ["survey_series.py", "--max-order", "8"],
        f"{'group':>6} {'order':>5}  series sizes        stages",
    ),
    (
        ["pool_agreement.py", "--max-factors", "1"],
        "pool: 3 covers, carriers up to order 4",
    ),
]


@pytest.mark.parametrize("args,header", SCRIPTS, ids=[a[0] for a, _ in SCRIPTS])
def test_script_runs(args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header


# the nine layers whose public functions the benchmark's tracer wraps
LAYERS = [
    "textio", "cli", "groups", "fiber", "squares", "gmodules", "cohomology", "linalg", "fundament",
]


@pytest.mark.parametrize("name", ["covercalc"] + [f"covercalc.{m}" for m in LAYERS])
def test_public_names_resolve(name):
    # a stale __all__ entry would stop every traced benchmark run
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def readme_modules_of_note() -> list[tuple[str, list[str]]]:
    """``(module, backticked names)`` per entry of README's "Modules of
    note" list, each entry a bullet that opens with its module."""
    text = (REPO / "README.md").read_text()
    section = text.split("Modules of note", 1)[1].split("\n\n")[1]
    entries = re.findall(r"^- `(covercalc\.\w+)`(.*?)(?=^- |\Z)", section, re.M | re.S)
    return [(module, re.findall(r"`(\w+)`", rest)) for module, rest in entries]


def test_readme_modules_of_note_resolve():
    # a README entry must not outlive its function
    entries = readme_modules_of_note()
    assert len(entries) == 8 and sum(len(names) for _, names in entries) > 30
    missing = [
        f"{module}.{name}"
        for module, names in entries
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


# ---------------------------------------------------------------------------
# static guards over the library's and the tests' sources


def read_names(node) -> set[str]:
    """Every name read under ``node``: bare names and attribute names, so
    that ``gm.endo_field`` reads ``endo_field``."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def covercalc_names(path: Path) -> set[str]:
    """The names a file outside the package takes from covercalc: those
    it imports from a covercalc module and the attributes it reads off a
    covercalc module (``cc.quotient``, ``cli.main``)."""
    tree = ast.parse(path.read_text())
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("covercalc"):
            names.update(a.name for a in node.names)
            modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.startswith("covercalc")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                names.add(node.attr)
    return names


# tests build their inputs with these two at 19 and 32 call sites, so
# moving them to tests/oracles.py would move lines without removing any
UNREACHED_BUILDERS = {"compose", "direct_sum_module"}

# members kept although no command reads them
KEPT_MEMBERS = {
    # where in the source a parse error sits, next to its line
    "ParseError.column",
}


def attribute_loads(node) -> set[str]:
    """Every attribute name loaded under ``node``: ``x.f`` and ``x.f()``
    load ``f``, ``x.f = v`` does not."""
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def class_members(cls: ast.ClassDef) -> dict[str, list]:
    """The members of a class, each with the code that runs when it is
    read: a method or property has its body, a dataclass field and a
    ``self.`` attribute none."""
    members: dict[str, list] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            members.setdefault(stmt.name, []).append(stmt)
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    members.setdefault(sub.attr, [])
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.setdefault(stmt.target.id, [])
    return members


def test_library_is_what_the_cli_reaches():
    # the closure over the top-level definitions and assignments of
    # src/covercalc and over the members of their classes, rooted at
    # every name of cli.py, every covercalc name that the scripts and the
    # benchmark use and every attribute they load. A top-level name is
    # reached when reached code reads it; a member of a reached class,
    # when reached code, a script or the benchmark loads an attribute of
    # its name, and a dunder with its class. Members match by name alone,
    # so a member that shares its name with a read one passes unseen:
    # DualSpace.f_dim (CohomSpace.f_dim is read),
    # ExtensionRealization.module, FundamentSeries.cover and
    # CohomSpace.structural_key were removed by hand.
    top: dict[str, list] = {}  # name -> the code read with it
    members: dict[str, list] = {}  # "Class.member" -> the code read with it
    defs, roots, raised = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                names = [stmt.name]
                defs.add(stmt.name)
                own = class_members(stmt)
                members.update({f"{stmt.name}.{m}": code for m, code in own.items()})
                # the class line, its decorators and its field annotations
                code = stmt.decorator_list + stmt.bases + [
                    s for s in stmt.body if not isinstance(s, ast.FunctionDef)
                ]
            elif isinstance(stmt, ast.FunctionDef):
                names, code = [stmt.name], [stmt]
                defs.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]
                code = [stmt]
            else:
                continue
            for name in names:
                assert name not in top, f"{name} is defined in two modules"
                top[name] = code
            if path.name == "cli.py":
                roots.update(names)
        raised |= {
            name
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            for name in read_names(node.exc)
        }
    outside = sorted((REPO / "perfbench").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    loaded = set()
    for path in outside:
        roots |= covercalc_names(path) & top.keys()
        loaded |= attribute_loads(ast.parse(path.read_text()))
    seen, seen_members = set(roots), set()
    todo = [code for name in roots for code in top[name]]
    while todo:
        code = todo.pop()
        for name in read_names(code) & top.keys() - seen:
            seen.add(name)
            todo += top[name]
        loaded |= attribute_loads(code)
        for member, body in members.items():
            cls, attr = member.split(".")
            if member not in seen_members and cls in seen and (
                attr in loaded or attr.startswith("__") and attr.endswith("__")
            ):
                seen_members.add(member)
                todo += body
    assert defs - seen == UNREACHED_BUILDERS
    assert sorted(members.keys() - seen_members - KEPT_MEMBERS) == []
    assert KEPT_MEMBERS <= members.keys() - seen_members
    # every error class has a raise in the library
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {stmt.name for stmt in errors.body if isinstance(stmt, ast.ClassDef)}
    assert sorted(classes - {"CovercalcError"} - raised) == []


def test_every_import_is_used():
    # an import at module level must be read somewhere in the module or
    # be listed in its __all__; one inside a function, in that function
    stale = []
    # perfbench/ stays out: its files change only with the benchmark
    dirs = [SRC, REPO / "tests", REPO / "scripts"]
    for path in [path for folder in dirs for path in sorted(folder.glob("*.py"))]:
        tree = ast.parse(path.read_text())
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__all__":
                exported = set(ast.literal_eval(stmt.value))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for scope, nodes, used in [(tree, tree.body, exported)] + [
            (f, ast.walk(f), set()) for f in functions
        ]:
            used = used | read_names(scope)
            stale += [
                f"{path.name}: {bound}"
                for node in nodes
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for bound in (a.asname or a.name.split(".")[0] for a in node.names)
                if bound not in used
            ]
    assert stale == []


# numpy functions written in Python, each with a C-level spelling: the
# first call of each costs a fresh process tens of microseconds more than
# its replacement, and every command is a fresh process
PYTHON_LEVEL_HELPERS = {
    "array_equal": "(a == b).all() on arrays of equal shape",
    "flatnonzero": "x.nonzero()[0]",
    "nonzero": "x.nonzero()",
    "ix_": "a[r[:, None], c]",
    "outer": "a[:, None] * b",
    "vstack": "np.concatenate of 2-D arrays",
    "delete": "a boolean mask",
    "einsum": "matmul or broadcasting",
    "argmax": "x.argmax(axis=...)",
    "argsort": 'x.argsort(kind="stable")',
    "lexsort": 'x.argsort(kind="stable")',
    "unique": "a boolean scatter (groups._distinct)",
    "atleast_2d": "nothing: every caller already has 2-D arrays",
}


def test_library_calls_no_python_level_numpy_helpers():
    found = [
        f"{path.name}:{node.lineno}: np.{node.func.attr}, use"
        f" {PYTHON_LEVEL_HELPERS[node.func.attr]}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in PYTHON_LEVEL_HELPERS
    ]
    assert not found, "\n".join(found)
