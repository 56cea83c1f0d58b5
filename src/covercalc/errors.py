"""Exception taxonomy for covercalc.

Every raisable condition has its own class so callers (and the CLI) can
dispatch on type. All inherit from :class:`CovercalcError`.
"""

from __future__ import annotations


class CovercalcError(Exception):
    """Base class for all covercalc errors."""


# -- group construction ------------------------------------------------------

class OrderCapExceeded(CovercalcError):
    """A closure/carrier grew past the configured order cap."""


class MalformedPermutation(CovercalcError):
    """A generator is not a valid permutation (bad points, not a bijection)."""


class NotNormal(CovercalcError):
    """A subgroup required to be normal is not."""


# -- commutative squares ------------------------------------------------------

class NotCommutative(CovercalcError):
    """The four covers of a square do not commute."""


class SourceTargetMismatch(CovercalcError):
    """Sources/targets of the four covers do not line up into a square."""


class NotCartesian(CovercalcError):
    """A square required to be cartesian is not."""


# -- fiber products -----------------------------------------------------------

class TargetMismatch(CovercalcError):
    """Factors of a fiber product do not all map onto the same base."""


class EmptyFactorList(CovercalcError):
    """The operation needs at least one factor."""


class Incompatible(CovercalcError):
    """Inputs violate a structural precondition (see message)."""


# -- modules -------------------------------------------------------------------

class NotCentralInKernel(CovercalcError):
    """The kernel is not central enough to carry the requested action."""


class NotElementaryAbelian(CovercalcError):
    """A group required to be elementary abelian (p-torsion abelian) is not."""


class NotSimple(CovercalcError):
    """A module required to be simple is not."""


class CharacteristicMismatch(CovercalcError):
    """Two modules/spaces live over different characteristics."""


class NotAGenerated(CovercalcError):
    """A module is not generated by copies of the given simple module."""


# -- cohomology -----------------------------------------------------------------

class NotCocycle(CovercalcError):
    """A 2-cochain fails the cocycle identity."""


class KernelNotAbelian(CovercalcError):
    """The kernel of a cover must be abelian to read off a cocycle."""


class NotIsomorphism(CovercalcError):
    """A map required to be an isomorphism is not."""


class SpaceMismatch(CovercalcError):
    """Linear-algebra operands live in different spaces."""


# -- fundaments ------------------------------------------------------------------

class NotFundamental(CovercalcError):
    """A cover required to be fundamental is not."""


class BaseMismatch(CovercalcError):
    """Two covers that must share a base group do not."""


# -- CLI / parsing ----------------------------------------------------------------

class ParseError(CovercalcError):
    """Syntax error in the workspace text format, with position info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownReference(CovercalcError):
    """An expression references a name not defined in the workspace."""


class UsageError(CovercalcError):
    """Bad command-line usage (unknown command, wrong arity, bad flag)."""
