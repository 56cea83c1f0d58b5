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

from .errors import (
    BadIndex,
    EmptyFactorList,
    Incompatible,
    NotInsideKernel,
    NotNormal,
    OrderCapExceeded,
    TargetMismatch,
)
from .groups import (
    BuildLimits,
    Cover,
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _commute,
    _has_proper_supplement,
    _product_set,
    identity_cover,
    is_indecomposable,
    same_group,
)

__all__ = [
    "FiberProduct",
    "KernelDecomposition",
    "AbelianBlock",
    "fiber_product",
    "restrict",
    "is_compact_fiber_product",
    "kernel_normal_decomposition",
    "align_normal_to_axes",
]

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
    axis_kernels: tuple[Subgroup, ...]

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
            axis_kernels=(),
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
            mul[block] += table[np.ix_(col[block], col)]
    name = "fprod(" + ",".join(c.source.name for c in factors) + ")"
    carrier = FiniteGroup(mul, name=name)

    projections = tuple(
        Cover(carrier, c.source, col, check=False) for c, col in zip(factors, coords)
    )
    structure = Cover(carrier, base, over, check=False)
    # axis j: K_j at coordinate j, every other coordinate the identity
    axis_kernels = tuple(
        Subgroup(carrier, tuple(w[list(c.kernel().elements)].tolist()))
        for w, c in zip(weights, factors)
    )
    return FiberProduct(
        base=base,
        factors=factors,
        carrier=carrier,
        projections=projections,
        structure_map=structure,
        axis_kernels=axis_kernels,
    )


def _check_subset(fp: FiberProduct, subset) -> tuple[int, ...]:
    idx = tuple(int(i) for i in subset)
    if len(set(idx)) != len(idx):
        raise BadIndex("repeated factor index")
    for i in idx:
        if not 0 <= i < fp.arity:
            raise BadIndex(f"factor index {i} out of range")
    return tuple(sorted(idx))


def restrict(fp: FiberProduct, subset) -> tuple[FiberProduct, Cover]:
    """Project onto a subset of coordinates.

    Returns the sub-fiber-product together with the coordinate projection
    from the original carrier. The empty subset yields the base with the
    structure map.
    """
    idx = _check_subset(fp, subset)
    sub = fiber_product(fp.base, [fp.factors[i] for i in idx])
    if not idx:
        return sub, fp.structure_map
    weights = _row_weights(sub.factors)
    image = sum(w[fp.projections[i].image] for w, i in zip(weights, idx))
    proj = Cover(fp.carrier, sub.carrier, image, check=False)
    return sub, proj


def is_compact_fiber_product(fp: FiberProduct) -> bool:
    """True iff no proper subgroup of the carrier surjects onto every factor.

    One search at every order: ``_has_proper_supplement`` over the
    projections, which backtracks over one preimage per generator of each
    factor. Raises EmptyFactorList for the empty product.
    """
    if fp.arity == 0:
        raise EmptyFactorList("compactness needs at least one factor")
    return not _has_proper_supplement(fp.carrier, fp.projections)


def _kernel_is_abelian(cov: Cover) -> bool:
    ker = cov.kernel().elements
    return _commute(cov.source, ker, ker)


def _group_by_module_class(fp: FiberProduct, abelian_indices):
    """Group abelian-kernel factor indices by iso class of kernel module."""
    from .fundament import _module_class
    from .gmodules import module_from_cover

    blocks: dict[int, tuple[list[int], object]] = {}  # by registry index
    for i in abelian_indices:
        cov = fp.factors[i]
        module = module_from_cover(cov, cov.kernel())
        blocks.setdefault(_module_class(fp.base, module)[0], ([], module))[0].append(i)
    return [(tuple(indices), rep) for indices, rep in blocks.values()]


@dataclass(frozen=True)
class AbelianBlock:
    """All factor positions whose kernels realize one simple module class."""

    indices: tuple[int, ...]
    module: object  # GModule of the representative kernel
    component: Subgroup  # L ∩ (product of this block's axis kernels)


@dataclass(frozen=True)
class KernelDecomposition:
    """How a normal subgroup inside the kernel splits along the axes."""

    nonabelian_indices: tuple[int, ...]
    abelian_blocks: tuple[AbelianBlock, ...]
    swallowed_nonabelian: tuple[int, ...]  # axes with K_i <= L


def _require_normal_inside_kernel(fp: FiberProduct, sub: Subgroup) -> None:
    if not same_group(sub.parent, fp.carrier):
        raise Incompatible("subgroup does not live in the carrier")
    if not sub.is_normal():
        raise NotNormal("subgroup is not normal in the carrier")
    ker = fp.structure_map.kernel()
    if sub.mask & ~ker.mask:
        raise NotInsideKernel("subgroup is not inside the structure kernel")


def kernel_normal_decomposition(fp: FiberProduct, sub: Subgroup) -> KernelDecomposition:
    """Split a normal subgroup of the carrier inside Ker(structure_map)
    along the fiber-product axes.

    Requires all factors indecomposable. Returns the axis partition into
    non-abelian positions and abelian blocks (grouped by kernel module
    class), the non-abelian axes entirely inside ``sub``, and per-block
    components; verifies that ``sub`` is the internal direct product of
    the recovered pieces.
    """
    if not all(is_indecomposable(c) for c in fp.factors):
        raise Incompatible("all factors must be indecomposable")
    _require_normal_inside_kernel(fp, sub)
    idx = list(range(fp.arity))
    abelian = [i for i in idx if _kernel_is_abelian(fp.factors[i])]
    nonabelian = tuple(i for i in idx if i not in set(abelian))
    swallowed = tuple(
        i for i in nonabelian if fp.axis_kernels[i].mask & ~sub.mask == 0
    )
    blocks = []
    for indices, module in _group_by_module_class(fp, abelian):
        block_elems = set(
            _product_set(fp.carrier, [fp.axis_kernels[i].elements for i in indices]).tolist()
        )
        component = Subgroup(
            fp.carrier, tuple(x for x in sub.elements if x in block_elems)
        )
        blocks.append(AbelianBlock(indices=indices, module=module, component=component))

    pieces = [fp.axis_kernels[i].elements for i in swallowed]
    pieces += [b.component.elements for b in blocks]
    size = 1
    for piece in pieces:
        size *= len(piece)
    rebuilt = tuple(_product_set(fp.carrier, pieces).tolist())
    if size != sub.order or rebuilt != sub.elements:
        raise Incompatible(
            "normal subgroup does not decompose along the axes; "
            "is some factor decomposable?"
        )
    return KernelDecomposition(
        nonabelian_indices=nonabelian,
        abelian_blocks=tuple(blocks),
        swallowed_nonabelian=swallowed,
    )


def align_normal_to_axes(
    fp: FiberProduct, sub: Subgroup
) -> tuple[FiberProduct, GroupHom, tuple[int, ...]]:
    """Re-present the fiber product so that ``sub`` becomes a product of
    axis kernels.

    Returns ``(new_fp, omega, axes)`` with ``omega`` an isomorphism of
    carriers satisfying ``new_fp.structure_map o omega = fp.structure_map``
    and ``omega(sub)`` equal to the product of the new axis kernels at
    positions ``axes``. Factors at non-abelian positions are untouched;
    abelian blocks are re-coordinatized by a dual-basis change adapted to
    ``sub`` (new factors are pushout extensions along the new dual basis).
    """
    from . import cohomology as ch
    from . import gmodules as gm

    decomp = kernel_normal_decomposition(fp, sub)
    new_factors: list[Cover] = list(fp.factors)
    axes: list[int] = list(decomp.swallowed_nonabelian)
    # mapping data for abelian blocks that need re-coordinatization
    block_maps: dict[int, np.ndarray] = {}  # position -> image array over carrier

    for block in decomp.abelian_blocks:
        indices = block.indices
        aligned = _try_aligned_axes(fp, block)
        if aligned is not None:
            axes.extend(aligned)
            continue
        sub_fp, proj = restrict(fp, indices)
        ext = sub_fp.structure_map  # cover with elementary abelian kernel
        module, coords = gm._module_and_coords(ext, ext.kernel())
        hom_all = gm.hom_space(module, block.module)
        l_vectors = coords.vectors[proj.image[list(block.component.elements)]]
        vanish_on_l = gm.homs_vanishing_on(hom_all, l_vectors)
        m_basis = gm.complement_in(module, block.module, l_vectors)
        vanish_on_m = gm.homs_vanishing_on(hom_all, m_basis)
        endo = gm.endo_field(block.module)
        scalar = lambda m: endo.generator_matrix @ m % module.p
        l_part, _ = gm.f_independent_subset(vanish_on_m, scalar, module.p, endo.k)
        m_part, _ = gm.f_independent_subset(vanish_on_l, scalar, module.p, endo.k)
        assert len(l_part) + len(m_part) == len(indices)
        psis = list(l_part) + list(m_part)
        axes.extend(indices[: len(l_part)])

        f_big = ch.cover_cochain(ext)
        for pos, psi in zip(indices, psis):
            pushed = ch.push_cochain(f_big, psi, block.module)
            new_cov = ch.extension_from_cocycle(pushed).cover
            new_factors[pos] = new_cov
            block_maps[pos] = _pushout_image(
                fp, proj, ext, coords, psi, block.module
            )

    new_fp = fiber_product(fp.base, new_factors)
    if not block_maps:
        omega = GroupHom(
            fp.carrier, new_fp.carrier, np.arange(fp.carrier.order), check=False
        )
        return new_fp, omega, tuple(sorted(axes))

    columns = [block_maps.get(i, p.image) for i, p in enumerate(fp.projections)]
    image = sum(w[c] for w, c in zip(_row_weights(new_fp.factors), columns))
    omega = GroupHom(fp.carrier, new_fp.carrier, image, check=True)
    return new_fp, omega, tuple(sorted(axes))


def _try_aligned_axes(fp: FiberProduct, block: AbelianBlock):
    """If the block component already is a product of axis kernels, return
    those positions; else None."""
    inside = [
        i
        for i in block.indices
        if fp.axis_kernels[i].mask & ~block.component.mask == 0
    ]
    prod = _product_set(fp.carrier, [fp.axis_kernels[i].elements for i in inside])
    if tuple(prod.tolist()) == block.component.elements:
        return tuple(inside)
    return None


def _pushout_image(fp, proj, ext, coords, psi, module_a) -> np.ndarray:
    """Image array of carrier -> pushout extension source: push the block
    coordinate along the dual vector ``psi``. The block coordinate is the
    kernel part of h against the one section of ext, ``fibers[:, 0]``,
    as in ``cohomology.cover_cochain``."""
    h = proj.image
    g = ext.image[h]
    k = ext.source.mul[h, ext.source.inv[ext.fibers[g, 0]]]
    img = coords.vectors[k] @ np.asarray(psi, dtype=np.int64).T % module_a.p
    a_idx = img @ module_a.p ** np.arange(module_a.dim, dtype=np.int64)
    return (a_idx * fp.base.order + g).astype(np.int32)
