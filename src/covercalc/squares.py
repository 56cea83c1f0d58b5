"""Commutative squares of covers and their diagnostic predicates.

A square has four covers::

        top
     H ----->> G
     |         |
 left|         | right
     v         v
     B ----->> A
       bottom

The (semi-)cartesian predicates work on kernels, which is both the
cheapest route and the one stable under recomposition; compactness is the
supplement search of ``groups``. The remaining textbook criteria are kept
as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCartesian, NotCommutative, SourceTargetMismatch
from .groups import Cover, _has_proper_supplement, same_group

__all__ = [
    "CommSquare",
    "make_square",
    "is_cartesian",
    "is_semi_cartesian",
    "is_compact_cartesian",
]


@dataclass(frozen=True)
class CommSquare:
    """A validated commutative square of surjections."""

    top: Cover
    left: Cover
    bottom: Cover
    right: Cover

    @property
    def corner_source(self):
        return self.top.source


def make_square(top: Cover, left: Cover, bottom: Cover, right: Cover) -> CommSquare:
    """Assemble and validate a commutative square.

    Raises SourceTargetMismatch if the four maps do not form a square and
    NotCommutative if the two composites H -> A differ.
    """
    if not same_group(top.source, left.source):
        raise SourceTargetMismatch("top and left must share their source")
    if not same_group(left.target, bottom.source):
        raise SourceTargetMismatch("left target must be the bottom source")
    if not same_group(top.target, right.source):
        raise SourceTargetMismatch("top target must be the right source")
    if not same_group(bottom.target, right.target):
        raise SourceTargetMismatch("bottom and right must share their target")
    via_bottom = bottom.image[left.image]
    via_right = right.image[top.image]
    if not (via_bottom == via_right).all():
        raise NotCommutative("the two composites to the base disagree")
    return CommSquare(top=top, left=left, bottom=bottom, right=right)


def is_cartesian(sq: CommSquare) -> bool:
    """True iff the left map restricts to a bijection Ker(top) -> Ker(bottom).

    That is: semi-cartesian, with kernels of equal order, since a
    surjection between finite sets of the same size is a bijection.
    """
    return is_semi_cartesian(sq) and sq.top.kernel().order == sq.bottom.kernel().order


def is_semi_cartesian(sq: CommSquare) -> bool:
    """True iff the left map carries Ker(top) onto Ker(bottom)."""
    top_ker = sq.top.kernel().elements
    images = {int(sq.left.image[x]) for x in top_ker}
    return images == set(sq.bottom.kernel().elements)


def is_compact_cartesian(sq: CommSquare) -> bool:
    """For a cartesian square: no proper subgroup of the corner source
    surjects onto both edges out of it.

    Raises NotCartesian when the square is not cartesian. Otherwise one
    search, ``_has_proper_supplement`` over the top and left covers. (When
    the bottom cover is indecomposable this is equivalent to the absence
    of a surjection g: G ->> B with bottom o g = right; the tests compare
    the two.)
    """
    if not is_cartesian(sq):
        raise NotCartesian("compactness is defined for cartesian squares only")
    return not _has_proper_supplement(sq.corner_source, (sq.top, sq.left))
