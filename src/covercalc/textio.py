"""Text format for group and homomorphism definitions.

A source file is a sequence of blocks separated by blank lines::

    group C4
    gen a = (1 2 3 4)

    hom eta1 : C4 -> C2
    a -> t

Groups list labeled permutation generators in cycle notation with 1-based
points. Homomorphisms map each source generator label to a word in the
target's generator labels; a word is a whitespace-separated product of
factors ``label``, ``label^k`` (integer k, negatives allowed), or ``1``
for the identity. Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnknownReference
from .groups import (
    BuildLimits,
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupHom,
    _power,
    _walk,
    build_group,
)

__all__ = [
    "GroupDecl",
    "HomDecl",
    "parse_source",
    "realize_declarations",
    "evaluate_word",
    "hom_from_generator_images",
]

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_GROUP_HEADER = re.compile(rf"^group\s+({_NAME})\s*$")
_GEN_LINE = re.compile(rf"^gen\s+({_NAME})\s*=\s*(.+)$")
_HOM_HEADER = re.compile(rf"^hom\s+({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})\s*$")
_IMAGE_LINE = re.compile(rf"^({_NAME})\s*->\s*(.+)$")
_FACTOR = re.compile(rf"^(?:1|({_NAME})(?:\^(-?\d+))?)$")


@dataclass
class GroupDecl:
    """A raw parsed group block."""

    name: str
    line: int
    labels: list[str] = field(default_factory=list)
    perms: list[dict[int, int]] = field(default_factory=list)  # cycle maps


@dataclass
class HomDecl:
    """A raw parsed homomorphism block."""

    name: str
    source: str
    target: str
    line: int
    images: list[tuple[str, str, int]] = field(default_factory=list)  # label, word, line


def _parse_cycles(text: str, line: int, col0: int) -> dict[int, int]:
    """The cycle map of 1-based cycle notation: each point it names to
    its image, as written."""
    mapping: dict[int, int] = {}
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError("expected '(' in cycle notation", line, col0 + pos + 1)
        close = text.find(")", pos)
        if close < 0:
            raise ParseError("unclosed cycle", line, col0 + pos + 1)
        body = text[pos + 1 : close]
        points: list[int] = []
        for tok in body.replace(",", " ").split():
            if not tok.isdigit() or int(tok) < 1:
                raise ParseError(
                    f"cycle points must be positive integers, got {tok!r}",
                    line,
                    col0 + pos + 1,
                )
            points.append(int(tok))
        if len(set(points)) != len(points):
            raise ParseError("repeated point inside a cycle", line, col0 + pos + 1)
        for p in points:
            if p in mapping:
                raise ParseError(f"point {p} appears in two cycles", line, col0 + pos + 1)
        for i, p in enumerate(points):
            mapping[p] = points[(i + 1) % len(points)]
        pos = close + 1
    return mapping


def parse_source(text: str) -> tuple[list[GroupDecl], list[HomDecl]]:
    """Parse one source file into raw declarations (no group building)."""
    groups: list[GroupDecl] = []
    homs: list[HomDecl] = []
    current: GroupDecl | HomDecl | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            current = None
            continue
        m = _GROUP_HEADER.match(line)
        if m:
            current = GroupDecl(name=m.group(1), line=lineno)
            groups.append(current)
            continue
        m = _HOM_HEADER.match(line)
        if m:
            current = HomDecl(
                name=m.group(1), source=m.group(2), target=m.group(3), line=lineno
            )
            homs.append(current)
            continue
        if isinstance(current, GroupDecl):
            m = _GEN_LINE.match(line)
            if not m:
                raise ParseError(
                    "expected 'gen <label> = <cycles>'", lineno, raw.index(line[0]) + 1
                )
            label, cycles = m.group(1), m.group(2)
            if label in current.labels:
                raise ParseError(f"duplicate generator label {label!r}", lineno, 5)
            col0 = raw.index(cycles)
            current.perms.append(_parse_cycles(cycles, lineno, col0))
            current.labels.append(label)
            continue
        if isinstance(current, HomDecl):
            m = _IMAGE_LINE.match(line)
            if not m:
                raise ParseError(
                    "expected '<label> -> <word>'", lineno, raw.index(line[0]) + 1
                )
            current.images.append((m.group(1), m.group(2), lineno))
            continue
        raise ParseError(
            "expected a 'group' or 'hom' header", lineno, raw.index(line[0]) + 1
        )
    return groups, homs


def evaluate_word(group: FiniteGroup, word: str, line: int) -> int:
    """Element of ``group`` named by a word in its generator labels."""
    by_label = dict(zip(group.generator_labels, group.generators))
    acc = 0
    for tok in word.split():
        m = _FACTOR.match(tok)
        if not m:
            raise ParseError(f"bad word factor {tok!r}", line, 1)
        if m.group(1) is None:  # literal identity
            continue
        label = m.group(1)
        if label not in by_label:
            raise ParseError(
                f"unknown generator label {label!r} in word", line, 1
            )
        power = int(m.group(2)) if m.group(2) is not None else 1
        elem = by_label[label]
        if power < 0:
            elem, power = int(group.inv[elem]), -power
        acc = int(group.mul[acc, _power(group, elem, power)])
    return acc


def hom_from_generator_images(
    source: FiniteGroup,
    target: FiniteGroup,
    gen_images: dict[int, int],
    line: int = 0,
) -> GroupHom:
    """The homomorphism determined by images of the source generators.

    f is set along the tree edges of ``groups._walk`` over the generators
    and checked on its other edges, f(x·g) = f(x)·f(g), so with every
    element reached it is a homomorphism and is built unchecked. A failing
    edge, and after the walk an unreached element, raise ParseError
    pointing to the defining block.
    """
    cols = [target.mul[:, k].tolist() for k in gen_images.values()]
    image = [0] * source.order
    steps = _walk(source, list(gen_images))
    for tree, other in steps:
        for y, x, j in tree:
            image[y] = cols[j][image[x]]
        if any(image[y] != cols[j][image[x]] for x, j, y in other):
            raise ParseError("images do not define a homomorphism", line, 1)
    if 1 + sum(len(tree) for tree, _ in steps) < source.order:
        raise ParseError("generator images given for a non-generating set", line, 1)
    return GroupHom(source, target, np.array(image, dtype=np.int32), check=False)


def realize_declarations(
    groups: list[GroupDecl],
    homs: list[HomDecl],
    known_groups: dict[str, FiniteGroup] | None = None,
    limits: BuildLimits = DEFAULT_LIMITS,
) -> tuple[dict[str, FiniteGroup], dict[str, GroupHom]]:
    """Build all declared groups and homomorphisms.

    ``known_groups`` seeds the namespace (later declarations may reference
    them but not shadow them). Returns (groups, homs) by name.
    """
    built: dict[str, FiniteGroup] = dict(known_groups or {})
    out_groups: dict[str, FiniteGroup] = {}
    for decl in groups:
        if decl.name in built or decl.name in out_groups:
            raise ParseError(f"duplicate group name {decl.name!r}", decl.line, 7)
        # the points the block names, numbered 0..k-1 in ascending order,
        # so that the labels do not set the degree
        points = sorted(set().union(*decl.perms)) or [1]
        number = {p: i for i, p in enumerate(points)}
        perms = [tuple(number[cyc.get(p, p)] for p in points) for cyc in decl.perms]
        group = build_group(perms, labels=tuple(decl.labels), name=decl.name, limits=limits)
        out_groups[decl.name] = group
        built[decl.name] = group
    out_homs: dict[str, GroupHom] = {}
    for decl in homs:
        if decl.name in out_homs:
            raise ParseError(f"duplicate hom name {decl.name!r}", decl.line, 5)
        if decl.source not in built:
            raise UnknownReference(f"hom {decl.name!r}: unknown group {decl.source!r}")
        if decl.target not in built:
            raise UnknownReference(f"hom {decl.name!r}: unknown group {decl.target!r}")
        src, dst = built[decl.source], built[decl.target]
        by_label = dict(zip(src.generator_labels, src.generators))
        gen_images: dict[int, int] = {}
        for label, word, lineno in decl.images:
            if label not in by_label:
                raise ParseError(
                    f"{label!r} is not a generator of {decl.source!r}", lineno, 1
                )
            img = evaluate_word(dst, word, lineno)
            if gen_images.setdefault(by_label[label], img) != img:  # one element, two images
                raise ParseError("images do not define a homomorphism", lineno, 1)
        missing = [
            lab for lab in src.generator_labels if by_label[lab] not in gen_images
        ]
        if missing:
            raise ParseError(
                f"hom {decl.name!r} misses images for {', '.join(missing)}",
                decl.line,
                1,
            )
        out_homs[decl.name] = hom_from_generator_images(
            src, dst, gen_images, line=decl.line
        )
    return out_groups, out_homs
