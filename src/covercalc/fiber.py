"""Fiber products of finitely many covers over a common base.

The carrier is the subgroup of the direct product of the factor sources
whose coordinates (h0, h1, ..., hm) agree in the base. The row of
(h0, h1, ..., hm) is h0·Π|K_i| plus the mixed radix of the places of
h1, ..., hm in their fibers, the last factor fastest (K_i the kernel of
factor i, each fiber in ascending order), so the numbering depends only
on the factors and all downstream searches are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderCapExceeded, TargetMismatch
from .groups import (
    BuildLimits,
    Cover,
    DEFAULT_LIMITS,
    FiniteGroup,
    identity_cover,
    same_group,
)

__all__ = ["FiberProduct", "fiber_product"]


@dataclass(frozen=True)
class FiberProduct:
    """A fiber product presentation over a common base.

    Row x of the carrier has coordinates ``projections[i].image[x]``; the
    row of (h0, ..., hm) is h0·Π|K_i| plus the mixed radix of the fiber
    places of h1, ..., hm, the last factor fastest (``_row_weights``).
    """

    base: FiniteGroup
    factors: tuple[Cover, ...]
    carrier: FiniteGroup
    projections: tuple[Cover, ...]
    structure_map: Cover

    @property
    def arity(self) -> int:
        return len(self.factors)


def _row_weights(factors) -> list[np.ndarray]:
    """The carrier numbering of the fiber product of ``factors``: one array
    w_i over the source of each factor, with (h0, ..., hm) at row
    w_0[h0] + ... + w_m[hm]. w_0[h] = h·Π|K_i|, and for i >= 1 w_i[h] is
    the place of h in its row of ``fibers`` (column 0 the section
    ``fibers[:, 0]``) times Π_(j>i)|K_j|; the identity weighs 0."""
    weights = []
    stride = 1
    for cov in factors[:0:-1]:
        fibers = cov.fibers
        weight = np.empty(cov.source.order, dtype=np.int32)
        weight[fibers] = np.arange(fibers.shape[1], dtype=np.int32) * stride
        weights.append(weight)
        stride *= fibers.shape[1]
    weights.append(np.arange(factors[0].source.order, dtype=np.int32) * stride)
    return weights[::-1]


def fiber_product(
    base: FiniteGroup,
    factors,
    limits: BuildLimits = DEFAULT_LIMITS,
) -> FiberProduct:
    """Build the explicit fiber product of ``factors`` over ``base``.

    Raises TargetMismatch if some factor does not map onto ``base`` and
    OrderCapExceeded when the carrier would outgrow the cap. An empty
    factor list yields the base itself with its identity map.
    """
    factors = tuple(factors)
    for cov in factors:
        if not same_group(cov.target, base):
            raise TargetMismatch("factor does not target the common base")
    if not factors:
        return FiberProduct(
            base=base,
            factors=(),
            carrier=base,
            projections=(),
            structure_map=identity_cover(base),
        )
    first = factors[0]
    shape = (first.source.order, *(c.source.order // base.order for c in factors[1:]))
    n = math.prod(shape)
    if n > limits.order_cap:
        raise OrderCapExceeded(f"carrier order {n} exceeds cap {limits.order_cap}")

    # row x is h0 = x // Π|K_i| and, for i >= 1, the element of factor i's
    # fiber over h0's base image at the i-th mixed-radix digit of x
    h0, *places = np.unravel_index(np.arange(n), shape)
    over = first.image[h0]
    coords = [h0] + [c.fibers[over, p] for c, p in zip(factors[1:], places)]

    # each factor table maps straight to a partial row number, and products
    # are sums of those (row blocks bound the transient memory)
    weights = _row_weights(factors)
    ranked = [w[c.source.mul] for w, c in zip(weights, factors)]
    mul = np.zeros((n, n), dtype=np.int32)
    for start in range(0, n, 1024):
        block = slice(start, start + 1024)
        for table, col in zip(ranked, coords):
            mul[block] += table[col[block, None], col]
    name = "fprod(" + ",".join(c.source.name for c in factors) + ")"
    carrier = FiniteGroup(mul, name=name)

    projections = tuple(
        Cover(carrier, c.source, col, check=False) for c, col in zip(factors, coords)
    )
    structure = Cover(carrier, base, over, check=False)
    return FiberProduct(
        base=base,
        factors=factors,
        carrier=carrier,
        projections=projections,
        structure_map=structure,
    )

