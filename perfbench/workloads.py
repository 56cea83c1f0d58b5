"""Inputs, operations and answer checks of the three benchmark workloads.

Every input is generated from the seed, which relabels each input carrier
and fixes the order in which the operations run. Answers must not depend on
the seed, so each answer is compared with ``golden/<workload>.json``,
recorded from the program by ``record_golden.py``.

Carriers given to the library (``decide``, ``h2``) have their non-identity
elements permuted. Carriers given to the command line (``cli``) are
written as permutation generators whose points are permuted: the command
builds the same table from them, so its output must match the golden
output byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import covercalc as cc
from covercalc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# Permutation generators (0-based, one-line) and their labels: the intro
# groups as the README defines them.
PERM_GROUPS = {
    "C2": (("t",), [(1, 0)]),
    "V4": (("a", "b"), [(1, 0, 2, 3), (0, 1, 3, 2)]),
    "C4": (("a",), [(1, 2, 3, 0)]),
}

# The definitions of the README's examples/intro.grp, kept here because
# examples/ is not part of a checkout.
INTRO_GROUPS = ("C2", "V4", "C4")
INTRO_HOMS = "hom eta0 : V4 -> C2\na -> t\nb -> 1\n\nhom eta1 : C4 -> C2\na -> t\n"

# test_accept_command_performance's invocations.
CLI_INVOCATIONS = [
    ("fprod", ["eta1", "eta1", "eta1"]),
    ("check-square", ["id(V4)", "id(V4)", "eta0", "eta0"]),
    ("h2", ["D4", "F2triv"]),
    ("cocycle", ["eta1"]),
    ("fundament", ["S4->1"]),
    ("series", ["C64->1"]),
    ("invariants", ["fprod(eta0,eta1,eta1)"]),
    ("dominates", ["fprod(eta0,eta1)", "fprod(eta1,eta1,eta1)"]),
    ("isomorphic", ["fprod(eta1,eta1)", "fprod(eta0,eta1)"]),
    ("lift", ["C2->1", "eta1", "id(1)"]),
    ("decompose", ["fprod(eta0,eta1,eta1)"]),
]

# scripts/h2_table.py's groups except S4: each H^2(S4, F_p) takes 7-15 s and
# its cost varies 2x with the labeling, too much to hold a bound (NOTES.md).
H2_GROUPS = ["C2", "C3", "C4", "V4", "C6", "S3", "C8", "C9", "D4", "Q8", "A4"]
H2_PRIMES = (2, 3)


def load_golden(name: str) -> dict:
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded relabeling


def element_relabeling(n: int, rng: random.Random) -> np.ndarray:
    """A permutation of 0..n-1 that fixes the identity 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return np.array([0] + rest, dtype=np.int64)


def relabel_group(group: cc.FiniteGroup, sigma: np.ndarray) -> cc.FiniteGroup:
    """The same group with element x renamed sigma[x]."""
    mul = np.empty_like(group.mul)
    mul[np.ix_(sigma, sigma)] = sigma[group.mul]
    return cc.FiniteGroup(
        mul,
        name=group.name,
        generators=tuple(int(sigma[g]) for g in group.generators),
        generator_labels=group.generator_labels,
    )


def relabel_cover(cover: cc.Cover, base: cc.FiniteGroup, tau: np.ndarray, rng) -> cc.Cover:
    """``cover`` with a relabeled carrier, onto ``base`` relabeled by ``tau``."""
    sigma = element_relabeling(cover.source.order, rng)
    image = np.empty(cover.source.order, dtype=np.int32)
    image[sigma] = tau[cover.image]
    return cc.Cover(relabel_group(cover.source, sigma), base, image)


def cycle_text(perm, points: list[int]) -> str:
    """1-based cycle notation of ``perm`` after renaming point i to points[i]."""
    q = [0] * len(points)
    for i, j in enumerate(perm):
        q[points[i]] = points[j]
    seen = [False] * len(q)
    cycles = []
    for start in range(len(q)):
        if seen[start] or q[start] == start:
            continue
        cyc, j = [], start
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = q[j]
        cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles)


def group_block(name: str, rng: random.Random) -> str:
    labels, perms = PERM_GROUPS[name]
    degree = max(len(p) for p in perms)
    points = list(range(degree))
    rng.shuffle(points)
    lines = [f"group {name}"]
    for label, perm in zip(labels, perms):
        perm = tuple(perm) + tuple(range(len(perm), degree))
        lines.append(f"gen {label} = {cycle_text(perm, points)}")
    return "\n".join(lines) + "\n"


def run_main(argv: list[str]) -> tuple[int, str]:
    """``covercalc.cli.main`` with its standard output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads
#
# ``ops`` is the op list of one pass, in seed order. ``run_op`` returns
# (answer ok, detail, extras). ``session`` is True when a pass runs every op
# in one process; otherwise every op starts in a fresh process.
# ``tail_pct`` is the op latency percentile reported as the tail: the highest
# of p75/p90/p95 with ten samples beyond it in a 10 s run at this commit,
# fixed so that it does not change with the number of passes a run makes.


class Cli:
    name = "cli"
    session = False
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"cli-{seed}")
        text = "\n".join(group_block(g, rng) for g in INTRO_GROUPS) + "\n" + INTRO_HOMS
        self.path = workdir / f"cli-seed{seed}.grp"
        self.path.write_text(text, encoding="utf-8")
        self.ops = [
            (json_flag, command, args)
            for command, args in CLI_INVOCATIONS
            for json_flag in (False, True)
        ]
        rng.shuffle(self.ops)
        self.golden = None

    @staticmethod
    def key(op) -> str:
        json_flag, command, args = op
        return " ".join((["--json"] if json_flag else []) + [command] + args)

    def argv(self, op) -> list[str]:
        json_flag, command, args = op
        return ["-f", str(self.path)] + (["--json"] if json_flag else []) + [command] + args

    def run_op(self, op):
        code, out = run_main(self.argv(op))
        want = self.golden[self.key(op)]
        ok = code == 0 and digest(out) == want["sha256"]
        return ok, "" if ok else f"exit {code}, output differs from golden", {}


def _pool(split: cc.Cover, nonsplit: cc.Cover) -> list[cc.Cover]:
    """Identity plus every fiber product of at most three of the covers."""
    base = split.target
    pool = [cc.identity_cover(base)]
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement((split, nonsplit), size):
            pool.append(cc.fiber_product(base, list(combo)).structure_map)
    return pool


def _quotient_by(group: cc.FiniteGroup, gen: int) -> cc.Cover:
    return cc.quotient(group, cc.Subgroup(group, cc.groups.closure_of(group, [gen])))[1]


class Decide:
    name = "decide"
    session = True
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"decide-{seed}")
        v4 = cc.build_group([(1, 0, 3, 2), (2, 3, 0, 1)], name="V4")
        c3c3 = cc.build_group(
            [(1, 2, 0, 4, 5, 3, 7, 8, 6), (3, 4, 5, 6, 7, 8, 0, 1, 2)], name="C3xC3"
        )
        pools = {
            "C2": _pool(_quotient_by(v4, 1), _quotient_by(cc.cyclic_group(4), 2)),
            "C3": _pool(_quotient_by(c3c3, 1), _quotient_by(cc.cyclic_group(9), 3)),
        }
        self.pools = {}
        for name, pool in pools.items():
            base = pool[0].target
            tau = element_relabeling(base.order, rng)
            new_base = relabel_group(base, tau)
            self.pools[name] = [relabel_cover(c, new_base, tau, rng) for c in pool]
        self.ops = [
            (name, i, j)
            for name, pool in self.pools.items()
            for i, j in itertools.product(range(len(pool)), repeat=2)
        ]
        rng.shuffle(self.ops)
        self.golden = None

    @staticmethod
    def key(op) -> str:
        return "%s %d %d" % op

    def run_op(self, op):
        name, i, j = op
        tau, tau_p = self.pools[name][i], self.pools[name][j]
        t0 = time.perf_counter()
        dom = cc.dominates(tau_p, tau)
        iso = cc.isomorphic_fundamental(tau, tau_p)
        t1 = time.perf_counter()
        epi = cc.find_epimorphism_over(tau, tau_p)
        isom = cc.find_isomorphism_over(tau, tau_p)
        t2 = time.perf_counter()
        want = self.golden[name]
        problems = []
        if [dom, iso] != [want["dominates"][i][j], want["isomorphic"][i][j]]:
            problems.append("decision differs from golden")
        if dom != (epi is not None) or iso != (isom is not None):
            problems.append("decision differs from search")
        for hom in (epi, isom):
            if hom is not None and not _is_hom_over(hom, tau, tau_p):
                problems.append("search returned a map that is not a hom over the base")
        extras = {"decision_s": t1 - t0, "search_s": t2 - t1}
        return not problems, "; ".join(problems), extras


def _is_hom_over(hom, tau: cc.Cover, tau_p: cc.Cover) -> bool:
    """``hom`` maps tau's carrier onto tau_p's, multiplicatively, over the base."""
    img = np.asarray(hom.image)
    src, dst = tau.source, tau_p.source
    if img.shape != (src.order,) or hom.source is not src or hom.target is not dst:
        return False
    if np.unique(img).size != dst.order:
        return False
    if not np.array_equal(img[src.mul], dst.mul[np.ix_(img, img)]):
        return False
    return bool(np.array_equal(tau_p.image[img], tau.image))


class H2:
    name = "h2"
    session = False
    tail_pct = 75.0

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"h2-{seed}")
        ws = cli.Workspace()
        self.groups = {}
        for name in H2_GROUPS:
            group = ws.group(name)
            self.groups[name] = relabel_group(group, element_relabeling(group.order, rng))
        self.ops = [(name, p) for name in H2_GROUPS for p in H2_PRIMES]
        rng.shuffle(self.ops)
        self.golden = None

    @staticmethod
    def key(op) -> str:
        return "%s F%dtriv" % op

    def run_op(self, op):
        name, p = op
        group = self.groups[name]
        module = cc.trivial_module(group, p)
        space = cc.cohom_space(group, module)
        want = self.golden[self.key(op)]
        got = {"dim_p": space.dim_p, "dim_F": space.f_dim, "field_order": space.endo_field.order}
        if got != want:
            return False, f"dimensions {got} differ from golden {want}", {}
        for coords in itertools.product(range(p), repeat=space.dim_p):
            coords = np.array(coords, dtype=np.int64)
            rep = space.representative(coords)
            if not np.array_equal(space.class_of(rep).coords, coords):
                return False, f"class_of(representative({coords})) differs", {}
            real = cc.extension_from_cocycle(rep)
            kmod = cc.module_from_cover(real.cover, real.cover.kernel())
            back = cc.cocycle_from_extension(real.cover, cc.first_module_iso(kmod, module))
            if not np.array_equal(back.coords, coords):
                return False, f"extension round trip of {coords} gives {back.coords}", {}
        return True, "", {}


WORKLOADS = {w.name: w for w in (Cli, Decide, H2)}
