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

Flags: ``-f FILE``, ``--file FILE`` or ``--file=FILE`` loads a definition
file (repeatable, in order); ``--json``; ``--max-order N`` or
``--max-order=N`` with N a positive integer; ``-h`` / ``--help`` prints the
usage on stdout and exits 0. Flags may stand before or after the command
and its arguments; every token after ``--`` is positional. A missing
command, a flag without its value, a bad N and any other token starting
with ``-`` (abbreviations such as ``--js`` included) are usage errors.

A cover command is one row of the command table: its usage words, one
cover expression each, and a function of the parsed covers that returns
the text lines and the JSON body. ``run_command`` checks the number of
words, parses them and adds the ``"schema"`` and ``"command"`` keys;
only ``fprod`` (one or more covers) and ``h2`` (a group and a module)
read their own words.

Decision commands (``dominates``, ``isomorphic``, ``lift``) print exactly
``true`` or ``false`` on the last line. With ``--json`` every command
emits one JSON document with a top-level ``"schema": 1`` field. Exit
status is 0 exactly when no error occurred; every error, usage errors
included, prints ``error: ...`` on stderr and exits 1. A reader that closes
stdout early also gives exit 1, with nothing on stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import partial

import numpy as np

from .cohomology import cohom_space, cover_cochain
from .errors import (
    CovercalcError,
    NotCommutative,
    UnknownReference,
    UsageError,
)
from .fiber import fiber_product
from .fundament import (
    decompose_fundamental,
    dominates,
    exists_semicartesian_lift,
    fundament,
    fundament_series,
    invariants,
    is_compact_fiber_product,
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

    def group(self, name: str) -> FiniteGroup:
        """A group by name: file-defined first, then built-ins."""
        if name in self.groups:
            return self.groups[name]
        if name == "1":
            g = trivial_group()
        elif _CYCLIC.fullmatch(name):
            n = int(name[1:])
            if n < 1:
                raise UsageError(f"bad cyclic group order in {name!r}")
            if n > self.limits.order_cap:
                raise UsageError(f"{name} exceeds --max-order {self.limits.order_cap}")
            g = cyclic_group(n, name=name, limits=self.limits)
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
        seen = ws.groups.keys() | ws.homs.keys()
        for name in [*new_groups, *new_homs]:
            if name in seen:
                raise UsageError(f"duplicate name {name!r} across input files")
            seen.add(name)
        ws.groups.update(new_groups)
        ws.homs.update(new_homs)
    return ws


# ----------------------------------------------------------------------
# expression language


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|->|[(),])")
_CYCLIC = re.compile(r"C(\d+)")
_TRIVIAL_MODULE = re.compile(r"F(\d+)triv")


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
        m = _TRIVIAL_MODULE.fullmatch(tok)
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


def _parse(ws: Workspace, text: str, rule):
    """``rule`` of a parser over ``text``, which must use up all of it."""
    p = _ExprParser(ws, text)
    try:
        out = rule(p)
    except RecursionError:
        # the parser recurses once per level of nesting
        raise UsageError("expression nested too deeply") from None
    p.done()
    return out


def parse_cover(ws: Workspace, text: str) -> Cover:
    return _parse(ws, text, _ExprParser.cover)


def parse_group(ws: Workspace, text: str) -> FiniteGroup:
    return ws.group(_parse(ws, text, _ExprParser.next))


def parse_module(ws: Workspace, group: FiniteGroup, text: str):
    return _parse(ws, text, lambda p: p.module(group))


# ----------------------------------------------------------------------
# JSON helpers (documented schema, version 1)


def _group_doc(g: FiniteGroup) -> dict:
    # the table stays an array until the document is written as JSON, so
    # text mode never builds order² Python ints
    return {
        "name": g.name,
        "order": g.order,
        "mul": g.mul,
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
# commands: each returns the text lines and the JSON body


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
        f"compact: {_bool(compact)}",
    ]
    doc = {
        "base": _group_doc(fp.base),
        "carrier": _group_doc(fp.carrier),
        "structure_map": _hom_doc(fp.structure_map),
        "kernel": _subgroup_doc(fp.structure_map.kernel()),
        "element_orders": orders,
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
        "group": _group_doc(group),
        "module_dim": module.dim,
        "p": module.p,
        "field_order": space.endo_field.order,
        "dim_p": space.dim_p,
        "dim_F": space.f_dim,
    }
    return lines, doc


def _cmd_check_square(*square: Cover) -> tuple[list[str], dict]:
    try:
        sq = make_square(*square)
    except NotCommutative:
        return ["commutes: false"], {"commutes": False}
    cart = is_cartesian(sq)
    semi = is_semi_cartesian(sq)
    compact = is_compact_cartesian(sq) if cart else None
    lines = [
        "commutes: true",
        f"cartesian: {_bool(cart)}",
        f"semi-cartesian: {_bool(semi)}",
        f"compact: {'n/a' if compact is None else _bool(compact)}",
    ]
    doc = {"commutes": True, "cartesian": cart, "semi_cartesian": semi, "compact": compact}
    return lines, doc


def _cmd_cocycle(pi: Cover) -> tuple[list[str], dict]:
    cochain = cover_cochain(pi)
    space = cohom_space(pi.target, cochain.module)
    cls = space.class_of(cochain)
    coords = [int(x) for x in cls.coords]
    lines = [
        f"kernel module: dim {cochain.module.dim} over F{cochain.module.p}",
        f"H^2 dim_p = {space.dim_p}, endo field order {space.endo_field.order}",
        f"class coordinates: {coords}",
        f"split: {_bool(cls.is_zero())}",
    ]
    doc = {
        "module_dim": cochain.module.dim,
        "p": cochain.module.p,
        "dim_p": space.dim_p,
        "field_order": space.endo_field.order,
        "coordinates": coords,
        "split": cls.is_zero(),
    }
    return lines, doc


def _cmd_fundament(pi: Cover) -> tuple[list[str], dict]:
    pi_bar, rho = fundament(pi)
    m = rho.kernel()
    lines = [
        f"kernel size: {len(pi.kernel().elements)}",
        f"fundament kernel size: {len(m.elements)}",
        f"fundamental quotient order: {pi_bar.source.order}",
        f"already fundamental: {_bool(len(m.elements) == 1)}",
    ]
    doc = {
        "kernel": _subgroup_doc(pi.kernel()),
        "fundament_kernel": _subgroup_doc(m),
        "quotient_cover": _hom_doc(pi_bar),
        "projection": _hom_doc(rho),
    }
    return lines, doc


def _cmd_series(pi: Cover) -> tuple[list[str], dict]:
    ser = fundament_series(pi)
    sizes = [len(k.elements) for k in ser.kernels]
    doc = {
        "sizes": sizes,
        "kernels": [_subgroup_doc(k) for k in ser.kernels],
        "stage_covers": [_hom_doc(c) for c in ser.stage_covers],
    }
    return [f"{sizes}"], doc


def _cmd_invariants(pi: Cover) -> tuple[list[str], dict]:
    inv = invariants(pi)
    lines = [f"base: {inv.base.name}", f"non-abelian classes: {len(inv.na_classes)}"]
    na_docs = []
    for i, cls in enumerate(inv.na_classes, start=1):
        lines.append(
            f"  class {i}: quotient order {cls.cover.source.order}, mult {cls.mult}"
        )
        na_docs.append({"quotient": _hom_doc(cls.cover), "mult": cls.mult})
    ab_docs = []
    lines.append(f"abelian classes: {len(inv.ab_classes)}")
    for i, cls in enumerate(inv.ab_classes, start=1):
        supp_rows = [[int(x) for x in row] for row in cls.supp]
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
    lines.append(f"empty: {_bool(inv.is_empty())}")
    doc = {
        "base": _group_doc(inv.base),
        "na_classes": na_docs,
        "ab_classes": ab_docs,
        "empty": inv.is_empty(),
    }
    return lines, doc


def _cmd_decompose(pi: Cover) -> tuple[list[str], dict]:
    factors, iso = decompose_fundamental(pi)
    lines = [f"indecomposable factors: {len(factors)}"]
    for i, f in enumerate(factors, start=1):
        lines.append(
            f"  factor {i}: carrier order {f.source.order},"
            f" kernel size {len(f.kernel().elements)}"
        )
    lines.append(f"isomorphism onto fiber product: {_bool(iso.is_isomorphism())}")
    doc = {
        "factors": [_hom_doc(f) for f in factors],
        "isomorphism": _hom_doc(iso),
    }
    return lines, doc


def _answer(decide, *covers: Cover) -> tuple[list[str], dict]:
    """A yes/no command: ``decide`` of its covers, in the usage order."""
    ans = decide(*covers)
    return [_bool(ans)], {"result": ans}


def _bool(x: bool) -> str:
    return "true" if x else "false"


# name -> (usage words, function of one parsed cover per word); fprod and h2,
# whose words are not one cover each, have no usage and take the words
_COMMANDS = {
    "check-square": ("top left bottom right", _cmd_check_square),
    "cocycle": ("cover", _cmd_cocycle),
    "decompose": ("cover", _cmd_decompose),
    "dominates": ("tau_prime tau", partial(_answer, dominates)),
    "fprod": (None, _cmd_fprod),
    "fundament": ("cover", _cmd_fundament),
    "h2": (None, _cmd_h2),
    "invariants": ("cover", _cmd_invariants),
    "isomorphic": ("tau tau_prime", partial(_answer, isomorphic_fundamental)),
    "lift": ("pi tau tau_prime", partial(_answer, exists_semicartesian_lift)),
    "series": ("cover", _cmd_series),
}


def run_command(ws: Workspace, command: str, args: list[str]) -> tuple[list[str], dict]:
    """Run one command, returning (text lines, json document body)."""
    if command not in _COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; choose from {sorted(_COMMANDS)}"
        )
    usage, run = _COMMANDS[command]
    if usage is None:
        lines, body = run(ws, args)
    elif len(args) != len(usage.split()):
        raise UsageError(f"{command} needs: {usage}")
    else:
        lines, body = run(*[parse_cover(ws, a) for a in args])
    return lines, {"schema": 1, "command": command, **body}


_USAGE = f"""\
usage: covercalc [-h] [-f FILE] [--json] [--max-order N] command [args ...]

Calculus of covers of finite groups.

commands: {', '.join(sorted(_COMMANDS))}

options:
  -h, --help            show this help message and exit
  -f FILE, --file FILE  group/hom definition file (repeatable)
  --json                emit a JSON document
  --max-order N         override the group order cap (a positive integer)
  --                    every later token is positional"""


def _parse_argv(
    argv: list[str],
) -> tuple[list[str], bool, int | None, list[str]] | None:
    """(files, json flag, order cap, [command, *args]) from the command
    line, or None for ``-h``/``--help``. Flags may stand anywhere before a
    ``--``; every token after it is positional. Raises ``UsageError``."""
    files: list[str] = []
    as_json, max_order, positional = False, None, []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            positional.extend(tokens)
        elif not tok.startswith("-"):
            positional.append(tok)
        elif tok in ("-h", "--help"):
            return None
        elif tok == "--json":
            as_json = True
        else:
            name, eq, value = tok.partition("=")
            if name not in ("-f", "--file", "--max-order") or (eq and name == "-f"):
                raise UsageError(f"unrecognized argument {tok!r}")
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"{name} needs a value")
            if name != "--max-order":
                files.append(value)
            elif value.isdecimal() and int(value) > 0:
                max_order = int(value)
            else:
                raise UsageError(f"--max-order needs a positive integer, got {value!r}")
    if not positional:
        raise UsageError(f"missing command; choose from {sorted(_COMMANDS)}")
    return files, as_json, max_order, positional


def _write(lines: list[str]) -> int:
    """Print the lines on stdout: 0, or 1 if the reader has closed it."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's SIGPIPE recipe: what is left to flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``); returns the exit
    status."""
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return _write([_USAGE])
        files, as_json, max_order, (command, *args) = parsed
        limits = (
            DEFAULT_LIMITS if max_order is None else BuildLimits(order_cap=max_order)
        )
        ws = parse_workspace(files, limits=limits)
        lines, doc = run_command(ws, command, args)
    except (CovercalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        lines = [json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)]
    return _write(lines)


if __name__ == "__main__":
    sys.exit(main())
