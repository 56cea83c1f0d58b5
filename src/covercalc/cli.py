"""Command-line front end.

Reads group/hom definition files (see :mod:`covercalc.textio`), resolves a
small expression language for covers, and runs one computation per
invocation::

    covercalc -f examples/intro.grp isomorphic "fprod(eta1,eta1)" "fprod(eta0,eta1)"
    covercalc h2 C2 F2triv
    covercalc series "C4->1"

Cover expressions: a hom name from a loaded file, ``fprod(e1,...,en)``,
``id(G)``, or ``G->1`` (the cover of the trivial group). Group names
resolve to file-defined groups first, then to built-ins ``1``, ``C<n>``,
``V4``, ``S3``, ``S4``, ``A4``, ``A5``, ``D4``, ``Q8``. Module
expressions (for ``h2``): ``F<p>triv`` or ``ker(<cover>)``.

Decision commands (``dominates``, ``isomorphic``, ``lift``) print exactly
``true`` or ``false`` on the last line. With ``--json`` every command
emits one JSON document with a top-level ``"schema": 1`` field. Exit
status is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .cohomology import cohom_space, cover_cochain
from .errors import (
    CovercalcError,
    NotCommutative,
    UnknownReference,
    UsageError,
)
from .fiber import FiberProduct, fiber_product, is_compact_fiber_product
from .fundament import (
    decompose_fundamental,
    dominates,
    exists_semicartesian_lift,
    fundament,
    fundament_series,
    invariants,
    isomorphic_fundamental,
)
from .gmodules import module_from_cover, trivial_module
from .groups import (
    BuildLimits,
    Cover,
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupHom,
    build_group,
    cyclic_group,
    identity_cover,
    same_group,
    terminal_cover,
    trivial_group,
)
from .squares import is_cartesian, is_compact_cartesian, is_semi_cartesian, make_square
from .textio import parse_source, realize_declarations

__all__ = ["Workspace", "parse_workspace", "run_command", "main"]

_BUILTIN_PERMS: dict[str, list[tuple[int, ...]]] = {
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S3": [(1, 2, 0), (1, 0, 2)],
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "D4": [(1, 2, 3, 0), (1, 0, 3, 2)],
    "Q8": [(2, 3, 1, 0, 7, 6, 4, 5), (4, 5, 6, 7, 1, 0, 3, 2)],
    "A5": [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)],
}


class Workspace:
    """Named groups and homomorphisms resolved from input files."""

    def __init__(self, limits: BuildLimits = DEFAULT_LIMITS) -> None:
        self.groups: dict[str, FiniteGroup] = {}
        self.homs: dict[str, GroupHom] = {}
        self.limits = limits
        self._fprods: dict[str, FiberProduct] = {}

    def object_count(self) -> int:
        return len(self.groups) + len(self.homs)

    def group(self, name: str) -> FiniteGroup:
        """A group by name: file-defined first, then built-ins."""
        if name in self.groups:
            return self.groups[name]
        if name == "1":
            g = trivial_group()
        elif re.fullmatch(r"C(\d+)", name):
            n = int(name[1:])
            if n < 1:
                raise UsageError(f"bad cyclic group order in {name!r}")
            if n > self.limits.order_cap:
                raise UsageError(f"{name} exceeds --max-order {self.limits.order_cap}")
            g = cyclic_group(n, name=name)
        elif name in _BUILTIN_PERMS:
            g = build_group(_BUILTIN_PERMS[name], name=name, limits=self.limits)
        else:
            raise UnknownReference(f"unknown group {name!r}")
        self.groups[name] = g
        return g

    def hom(self, name: str) -> GroupHom:
        if name not in self.homs:
            raise UnknownReference(f"unknown hom {name!r}")
        return self.homs[name]


def parse_workspace(
    files: list[str], limits: BuildLimits = DEFAULT_LIMITS
) -> Workspace:
    """Parse and resolve every file into one shared namespace."""
    ws = Workspace(limits)
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        groups, homs = parse_source(text)
        new_groups, new_homs = realize_declarations(
            groups, homs, known_groups=ws.groups, limits=limits
        )
        for name, hom in new_homs.items():
            if name in ws.homs or name in ws.groups or name in new_groups:
                raise UsageError(f"duplicate name {name!r} across input files")
        ws.groups.update(new_groups)
        ws.homs.update(new_homs)
    return ws


# ----------------------------------------------------------------------
# expression language


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|->|[(),])")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise UsageError(f"bad expression syntax near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, ws: Workspace, text: str) -> None:
        self.ws = ws
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UsageError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.next()
        if tok != want:
            raise UsageError(f"expected {want!r}, got {tok!r} in {self.text!r}")

    def done(self) -> None:
        if self.peek() is not None:
            raise UsageError(f"trailing input {self.tokens[self.pos:]!r} in {self.text!r}")

    def cover(self) -> Cover:
        tok = self.next()
        if tok == "fprod":
            self.expect("(")
            factors = [self.cover()]
            while self.peek() == ",":
                self.next()
                factors.append(self.cover())
            self.expect(")")
            base = factors[0].target
            return fiber_product(base, factors, limits=self.ws.limits).structure_map
        if tok == "id":
            self.expect("(")
            name = self.next()
            self.expect(")")
            return identity_cover(self.ws.group(name))
        # NAME alone: hom lookup, else group with mandatory ->1
        if self.peek() == "->":
            self.next()
            self.expect("1")
            return terminal_cover(self.ws.group(tok))
        if tok in self.ws.homs:
            return _as_cover(self.ws.hom(tok))
        raise UnknownReference(f"unknown cover {tok!r} in {self.text!r}")

    def module(self, group: FiniteGroup):
        tok = self.next()
        m = re.fullmatch(r"F(\d+)triv", tok)
        if m:
            p = int(m.group(1))
            return trivial_module(group, p)
        if tok == "ker":
            self.expect("(")
            pi = self.cover()
            self.expect(")")
            if not same_group(pi.target, group):
                raise UsageError(
                    "ker(...) module must come from a cover of the named group"
                )
            return module_from_cover(pi, pi.kernel())
        raise UsageError(f"bad module expression {tok!r} (try F2triv or ker(...))")


def _as_cover(hom: GroupHom) -> Cover:
    if isinstance(hom, Cover):
        return hom
    if not hom.is_surjective():
        raise UsageError("this command needs a surjective hom")
    return Cover(hom.source, hom.target, hom.image, check=False)


def parse_cover(ws: Workspace, text: str) -> Cover:
    p = _ExprParser(ws, text)
    cov = p.cover()
    p.done()
    return cov


def parse_group(ws: Workspace, text: str) -> FiniteGroup:
    p = _ExprParser(ws, text)
    name = p.next()
    p.done()
    return ws.group(name)


def parse_module(ws: Workspace, group: FiniteGroup, text: str):
    p = _ExprParser(ws, text)
    mod = p.module(group)
    p.done()
    return mod


# ----------------------------------------------------------------------
# JSON helpers (documented schema, version 1)


def _group_doc(g: FiniteGroup) -> dict:
    return {
        "name": g.name,
        "order": g.order,
        "mul": [[int(x) for x in row] for row in g.mul],
    }


def _hom_doc(h: GroupHom) -> dict:
    return {
        "source": _group_doc(h.source),
        "target": _group_doc(h.target),
        "image": [int(x) for x in h.image],
    }


def _subgroup_doc(sub) -> list[int]:
    return [int(x) for x in sub.elements]


# ----------------------------------------------------------------------
# commands


def _cmd_fprod(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if not args:
        raise UsageError("fprod needs at least one cover expression")
    factors = [parse_cover(ws, a) for a in args]
    fp = fiber_product(factors[0].target, factors, limits=ws.limits)
    orders = sorted(int(fp.carrier.element_orders()[x]) for x in range(fp.carrier.order))
    compact = is_compact_fiber_product(fp)
    lines = [
        f"fiber product of {fp.arity} covers over {fp.base.name}",
        f"carrier order: {fp.carrier.order}",
        f"kernel size: {len(fp.structure_map.kernel().elements)}",
        f"element orders: {orders}",
        f"compact: {'true' if compact else 'false'}",
    ]
    doc = {
        "command": "fprod",
        "base": _group_doc(fp.base),
        "carrier": _group_doc(fp.carrier),
        "structure_map": _hom_doc(fp.structure_map),
        "kernel": _subgroup_doc(fp.structure_map.kernel()),
        "element_orders": orders,
        "compact": compact,
    }
    return lines, doc


def _cmd_check_square(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 4:
        raise UsageError("check-square needs: top left bottom right")
    top, left, bottom, right = (parse_cover(ws, a) for a in args)
    try:
        sq = make_square(top, left, bottom, right)
    except NotCommutative:
        lines = ["commutes: false"]
        return lines, {"command": "check-square", "commutes": False}
    cart = is_cartesian(sq)
    semi = is_semi_cartesian(sq)
    compact = is_compact_cartesian(sq) if cart else None
    lines = [
        "commutes: true",
        f"cartesian: {'true' if cart else 'false'}",
        f"semi-cartesian: {'true' if semi else 'false'}",
        f"compact: {'true' if compact else 'false' if compact is not None else 'n/a'}",
    ]
    doc = {
        "command": "check-square",
        "commutes": True,
        "cartesian": cart,
        "semi_cartesian": semi,
        "compact": compact,
    }
    return lines, doc


def _cmd_h2(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 2:
        raise UsageError("h2 needs: group module (e.g. h2 C2 F2triv)")
    group = parse_group(ws, args[0])
    module = parse_module(ws, group, args[1])
    space = cohom_space(group, module)
    lines = [
        f"H^2({group.name}, dim-{module.dim} module over F{module.p})",
        f"endomorphism field order: {space.endo_field.order}",
        f"dim_p = {space.dim_p}",
        f"dim_F = {space.f_dim}",
    ]
    doc = {
        "command": "h2",
        "group": _group_doc(group),
        "module_dim": module.dim,
        "p": module.p,
        "field_order": space.endo_field.order,
        "dim_p": space.dim_p,
        "dim_F": space.f_dim,
    }
    return lines, doc


def _cmd_cocycle(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 1:
        raise UsageError("cocycle needs: cover")
    pi = parse_cover(ws, args[0])
    cochain = cover_cochain(pi)
    space = cohom_space(pi.target, cochain.module)
    cls = space.class_of(cochain)
    coords = [int(x) for x in cls.coords]
    lines = [
        f"kernel module: dim {cochain.module.dim} over F{cochain.module.p}",
        f"H^2 dim_p = {space.dim_p}, endo field order {space.endo_field.order}",
        f"class coordinates: {coords}",
        f"split: {'true' if cls.is_zero() else 'false'}",
    ]
    doc = {
        "command": "cocycle",
        "module_dim": cochain.module.dim,
        "p": cochain.module.p,
        "dim_p": space.dim_p,
        "field_order": space.endo_field.order,
        "coordinates": coords,
        "split": cls.is_zero(),
    }
    return lines, doc


def _cmd_fundament(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 1:
        raise UsageError("fundament needs: cover")
    pi = parse_cover(ws, args[0])
    pi_bar, rho = fundament(pi)
    m = rho.kernel()
    lines = [
        f"kernel size: {len(pi.kernel().elements)}",
        f"fundament kernel size: {len(m.elements)}",
        f"fundamental quotient order: {pi_bar.source.order}",
        f"already fundamental: {'true' if len(m.elements) == 1 else 'false'}",
    ]
    doc = {
        "command": "fundament",
        "kernel": _subgroup_doc(pi.kernel()),
        "fundament_kernel": _subgroup_doc(m),
        "quotient_cover": _hom_doc(pi_bar),
        "projection": _hom_doc(rho),
    }
    return lines, doc


def _cmd_series(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 1:
        raise UsageError("series needs: cover")
    pi = parse_cover(ws, args[0])
    ser = fundament_series(pi)
    sizes = [len(k.elements) for k in ser.kernels]
    lines = [f"{sizes}"]
    doc = {
        "command": "series",
        "sizes": sizes,
        "kernels": [_subgroup_doc(k) for k in ser.kernels],
        "stage_covers": [_hom_doc(c) for c in ser.stage_covers],
    }
    return lines, doc


def _cmd_invariants(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 1:
        raise UsageError("invariants needs: cover")
    pi = parse_cover(ws, args[0])
    inv = invariants(pi)
    lines = [f"base: {inv.base.name}"]
    na_docs = []
    lines.append(f"non-abelian classes: {len(inv.na_classes)}")
    for i, cls in enumerate(inv.na_classes, start=1):
        lines.append(
            f"  class {i}: quotient order {cls.cover.source.order}, mult {cls.mult}"
        )
        na_docs.append({"quotient": _hom_doc(cls.cover), "mult": cls.mult})
    ab_docs = []
    lines.append(f"abelian classes: {len(inv.ab_classes)}")
    for i, cls in enumerate(inv.ab_classes, start=1):
        supp_rows = [[int(x) for x in row] for row in np.atleast_2d(cls.supp)]
        supp_rank = len([r for r in supp_rows if any(r)])
        lines.append(
            f"  class {i}: module dim {cls.module.dim} over F{cls.module.p},"
            f" endo field order {cls.endo_field.order},"
            f" supp rank {supp_rank}, mult {cls.mult}"
        )
        ab_docs.append(
            {
                "module_dim": cls.module.dim,
                "p": cls.module.p,
                "field_order": cls.endo_field.order,
                "supp": supp_rows,
                "mult": cls.mult,
            }
        )
    lines.append(f"empty: {'true' if inv.is_empty() else 'false'}")
    doc = {
        "command": "invariants",
        "base": _group_doc(inv.base),
        "na_classes": na_docs,
        "ab_classes": ab_docs,
        "empty": inv.is_empty(),
    }
    return lines, doc


def _cmd_dominates(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 2:
        raise UsageError("dominates needs: tau_prime tau")
    tau_prime = parse_cover(ws, args[0])
    tau = parse_cover(ws, args[1])
    ans = dominates(tau_prime, tau)
    return [_bool(ans)], {"command": "dominates", "result": ans}


def _cmd_isomorphic(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 2:
        raise UsageError("isomorphic needs: tau tau_prime")
    tau = parse_cover(ws, args[0])
    tau_prime = parse_cover(ws, args[1])
    ans = isomorphic_fundamental(tau, tau_prime)
    return [_bool(ans)], {"command": "isomorphic", "result": ans}


def _cmd_lift(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 3:
        raise UsageError("lift needs: pi tau tau_prime")
    pi = parse_cover(ws, args[0])
    tau = parse_cover(ws, args[1])
    tau_prime = parse_cover(ws, args[2])
    ans = exists_semicartesian_lift(pi, tau, tau_prime)
    return [_bool(ans)], {"command": "lift", "result": ans}


def _cmd_decompose(ws: Workspace, args: list[str]) -> tuple[list[str], dict]:
    if len(args) != 1:
        raise UsageError("decompose needs: cover")
    pi = parse_cover(ws, args[0])
    factors, iso = decompose_fundamental(pi)
    lines = [f"indecomposable factors: {len(factors)}"]
    for i, f in enumerate(factors, start=1):
        lines.append(
            f"  factor {i}: carrier order {f.source.order},"
            f" kernel size {len(f.kernel().elements)}"
        )
    lines.append(f"isomorphism onto fiber product: {_bool(iso.is_isomorphism())}")
    doc = {
        "command": "decompose",
        "factors": [_hom_doc(f) for f in factors],
        "isomorphism": _hom_doc(iso),
    }
    return lines, doc


def _bool(x: bool) -> str:
    return "true" if x else "false"


_COMMANDS = {
    "fprod": _cmd_fprod,
    "check-square": _cmd_check_square,
    "h2": _cmd_h2,
    "cocycle": _cmd_cocycle,
    "fundament": _cmd_fundament,
    "series": _cmd_series,
    "invariants": _cmd_invariants,
    "dominates": _cmd_dominates,
    "isomorphic": _cmd_isomorphic,
    "lift": _cmd_lift,
    "decompose": _cmd_decompose,
}


def run_command(ws: Workspace, command: str, args: list[str]) -> tuple[list[str], dict]:
    """Run one command, returning (text lines, json document body)."""
    if command not in _COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; choose from {sorted(_COMMANDS)}"
        )
    lines, doc = _COMMANDS[command](ws, args)
    doc = {"schema": 1, **doc}
    return lines, doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="covercalc",
        description="Calculus of covers of finite groups.",
    )
    parser.add_argument(
        "-f",
        "--file",
        action="append",
        default=[],
        help="group/hom definition file (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON document")
    parser.add_argument(
        "--max-order", type=int, default=None, help="override the group order cap"
    )
    parser.add_argument("command", help=f"one of {', '.join(sorted(_COMMANDS))}")
    parser.add_argument("args", nargs="*", help="command arguments")
    ns = parser.parse_args(argv)
    limits = (
        BuildLimits(order_cap=ns.max_order) if ns.max_order is not None else DEFAULT_LIMITS
    )
    try:
        ws = parse_workspace(ns.file, limits=limits)
        lines, doc = run_command(ws, ns.command, ns.args)
    except (CovercalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if ns.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
