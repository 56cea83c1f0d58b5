"""Smoke runs of the scripts in ``scripts/``, each in a child process:
it must exit 0 and print its header line first. Also the public names
that tooling (the benchmark's tracer) reads from every module, and the
names that README's "Modules of note" lists."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

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
