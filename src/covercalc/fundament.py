"""Fundament kernels, fundament series, and cover classification.

The fundament kernel of a cover pi: H ->> G is the intersection of all
normal subgroups N of H inside Ker(pi) whose quotient cover H/N ->> G is
indecomposable (equivalently, the maximal H-normal subgroups of Ker(pi));
for a trivial kernel the family is empty and the kernel itself (= 1) is
returned. Iterating yields the fundament series. A cover is fundamental
when its fundament kernel is trivial; such covers are classified up to
isomorphism over G by multiplicities of non-abelian kernel classes and,
per simple-module class A, a multiplicity and a support subspace of
H^2(G, A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseMismatch,
    Incompatible,
    NotFundamental,
    NotFundamentalStage,
)
from .groups import (
    Cover,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _commute,
    _product_set,
    compose,
    find_isomorphism_over,
    identity_cover,
    is_indecomposable,
    maximal_normal_in,
    quotient,
    same_group,
)
from .gmodules import _module_iso
from .linalg import row_space_le

__all__ = [
    "CoverInvariants",
    "NaClassInvariant",
    "AbClassInvariant",
    "FundamentSeries",
    "fundament_kernel",
    "fundament",
    "is_fundamental",
    "fundament_series",
    "invariants",
    "dominates",
    "isomorphic_fundamental",
    "decompose_fundamental",
    "exists_semicartesian_lift",
    "is_fundament_of",
    "is_fundament_series",
]


# ---------------------------------------------------------------------------
# fundament kernels and series


def fundament_kernel(pi: Cover) -> Subgroup:
    """Intersection of the maximal H-normal subgroups of Ker(pi).

    These are exactly the normal subgroups N <= Ker(pi) with H/N ->> G
    indecomposable. For Ker(pi) = 1 the family is empty and the result is
    Ker(pi) itself. Memoized on the cover (``pi._fundament``).
    """
    if pi._fundament is None:
        ker = pi.kernel()
        common = ker.mask
        for sub in maximal_normal_in(pi.source, ker):
            common &= sub.mask
        pi._fundament = Subgroup(
            pi.source, tuple(x for x in ker.elements if common >> x & 1)
        )
    return pi._fundament


def is_fundamental(pi: Cover) -> bool:
    """True iff the fundament kernel of ``pi`` is trivial."""
    return fundament_kernel(pi).is_trivial()


def _cover_through(pi: Cover, q: Cover) -> Cover:
    """The cover induced on the quotient: Ker(q) <= Ker(pi) required."""
    image = np.empty(q.target.order, dtype=np.int32)
    image[np.asarray(q.image)] = np.asarray(pi.image)
    return Cover(q.target, pi.target, image, check=False)


def fundament(pi: Cover) -> tuple[Cover, Cover]:
    """Split off the fundament: ``(pi_bar, rho)`` with ``pi_bar o rho = pi``.

    ``rho`` is the quotient of the source by the fundament kernel and
    ``pi_bar`` is the induced cover, which is fundamental. A fundamental
    ``pi`` returns ``(pi, identity)`` up to carrier relabeling.
    """
    kernel = fundament_kernel(pi)
    _, rho = quotient(pi.source, kernel)
    pi_bar = _cover_through(pi, rho)
    return pi_bar, rho


@dataclass(frozen=True)
class FundamentSeries:
    """The descending kernel chain of a cover with its stage covers.

    ``kernels[0]`` is Ker(pi) and each following entry is the fundament
    kernel of the quotient cover by its predecessor, ending at the trivial
    subgroup. ``stage_covers[k-1]`` maps the k-th quotient onto the
    previous one (the 0-th stage target is the base of ``pi``); every
    stage is fundamental.
    """

    cover: Cover
    kernels: tuple[Subgroup, ...]
    stage_covers: tuple[Cover, ...]


def fundament_series(pi: Cover) -> FundamentSeries:
    """Iterate fundament kernels down to 1 and assemble the stage covers."""
    src = pi.source
    kernels: list[Subgroup] = [pi.kernel()]
    quotients: list[Cover] = [quotient(src, kernels[0])[1]]
    while kernels[-1].order > 1:
        kernels.append(fundament_kernel(quotients[-1]))
        quotients.append(quotient(src, kernels[-1])[1])
    stages: list[Cover] = []
    for k in range(1, len(kernels)):
        over = pi if k == 1 else quotients[k - 1]
        stages.append(_cover_through(over, quotients[k]))
    return FundamentSeries(cover=pi, kernels=tuple(kernels), stage_covers=tuple(stages))


# ---------------------------------------------------------------------------
# classification invariants of fundamental covers


@dataclass(frozen=True)
class NaClassInvariant:
    """One isomorphism class of indecomposable quotients with non-abelian
    kernel, with how often it occurs."""

    cover: Cover
    mult: int


@dataclass(frozen=True)
class AbClassInvariant:
    """One simple-module class: support subspace of H^2 and multiplicity.

    ``supp`` holds an F_p reduced-echelon row basis in the coordinates of
    the memoized H^2(G, module); it spans an F-subspace for the
    endomorphism field F of the module.
    """

    module: object  # GModule
    endo_field: object  # EndoField
    supp: np.ndarray
    mult: int


@dataclass(frozen=True)
class CoverInvariants:
    """The complete classification data of a fundamental cover."""

    base: FiniteGroup
    na_classes: tuple[NaClassInvariant, ...]
    ab_classes: tuple[AbClassInvariant, ...]

    def is_empty(self) -> bool:
        return not self.na_classes and not self.ab_classes


def invariants(pi: Cover) -> CoverInvariants:
    """Classification invariants of a fundamental cover.

    Enumerates the indecomposable quotient covers H/N ->> G for N ranging
    over the maximal H-normal subgroups of Ker(pi), groups them by kernel
    type, and per simple-module class computes (support, multiplicity)
    through the dual pair of the joint quotient.

    Memoized on the cover (``pi._invariants``) once ``pi`` is known to be
    fundamental; the ``supp`` arrays are read-only, as is ``pi.image``.
    """
    from . import cohomology as ch
    from . import gmodules as gm

    if pi._invariants is not None:
        return pi._invariants
    if not is_fundamental(pi):
        raise NotFundamental("invariants need a fundamental cover")
    src = pi.source
    ker = pi.kernel()
    na: list[list] = []  # [representative cover, count]
    ab: list[list] = []  # [representative module, [N list]]
    for sub in maximal_normal_in(src, ker):
        _, q = quotient(src, sub)
        cov = _cover_through(pi, q)
        kq = cov.kernel()
        if _commute(cov.source, kq.elements, kq.elements):
            module = gm.module_from_cover(cov, kq)
            for entry in ab:
                if gm.modules_isomorphic(entry[0], module):
                    entry[1].append(sub)
                    break
            else:
                ab.append([module, [sub]])
        else:
            for entry in na:
                if find_isomorphism_over(cov, entry[0]) is not None:
                    entry[1] += 1
                    break
            else:
                na.append([cov, 1])
    ab_classes = []
    for module, subs in ab:
        common = set(range(src.order))
        for sub in subs:
            common &= set(sub.elements)
        _, q = quotient(src, Subgroup(src, tuple(sorted(common))))
        joint = _cover_through(pi, q)
        pair = ch.x2(joint, module)
        supp = pair.image_rows()
        supp.flags.writeable = False
        ab_classes.append(
            AbClassInvariant(
                module=module,
                endo_field=pair.dual.endo_field,
                supp=supp,
                mult=pair.f_nullity,
            )
        )
    pi._invariants = CoverInvariants(
        base=pi.target,
        na_classes=tuple(NaClassInvariant(cover=c, mult=m) for c, m in na),
        ab_classes=tuple(ab_classes),
    )
    return pi._invariants


def _transport_rows(rows: np.ndarray, space_src, iso, space_dst) -> np.ndarray:
    """Carry H^2 coordinate rows along a coefficient-module isomorphism."""
    from . import cohomology as ch

    out = []
    for row in np.asarray(rows, dtype=np.int64):
        rep = space_src.representative(row)
        pushed = ch.push_cochain(rep, iso.matrix, space_dst.module)
        out.append(space_dst.class_of(pushed).coords)
    if not out:
        return np.zeros((0, space_dst.dim_p), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def _matching_class(module, classes):
    """The first class whose module is isomorphic to the simple ``module``,
    with the isomorphism onto it, from one Hom_G solve per class tried;
    ``(None, None)`` when no class matches."""
    for c in classes:
        iso = _module_iso(module, c.module)
        if iso is not None:
            return c, iso
    return None, None


def _check_comparable(tau_prime: Cover, tau: Cover) -> None:
    if not same_group(tau_prime.target, tau.target):
        raise BaseMismatch("covers are over different base groups")
    if not is_fundamental(tau_prime) or not is_fundamental(tau):
        raise NotFundamental("comparison needs fundamental covers")


def dominates(tau_prime: Cover, tau: Cover) -> bool:
    """Whether ``tau_prime`` is dominated by ``tau`` (both fundamental,
    same base): every class multiplicity of ``tau_prime`` is bounded by
    the matching one of ``tau`` and every support is contained in the
    matching support.
    """
    from . import cohomology as ch

    _check_comparable(tau_prime, tau)
    inv_p = invariants(tau_prime)
    inv = invariants(tau)
    for cls in inv_p.na_classes:
        match = next(
            (
                c
                for c in inv.na_classes
                if find_isomorphism_over(cls.cover, c.cover) is not None
            ),
            None,
        )
        if match is None or cls.mult > match.mult:
            return False
    base = tau.target
    for cls in inv_p.ab_classes:
        match, iso = _matching_class(cls.module, inv.ab_classes)
        if match is None:
            if cls.mult > 0 or len(cls.supp):
                return False
            continue
        if cls.mult > match.mult:
            return False
        space_src = ch.cohom_space(base, cls.module)
        space_dst = ch.cohom_space(base, match.module)
        moved = _transport_rows(cls.supp, space_src, iso, space_dst)
        if not row_space_le(moved, match.supp, space_dst.p):
            return False
    return True


def isomorphic_fundamental(tau: Cover, tau_prime: Cover) -> bool:
    """Whether two fundamental covers over the same base are isomorphic
    over it: all multiplicities and supports coincide."""
    return dominates(tau, tau_prime) and dominates(tau_prime, tau)


def decompose_fundamental(pi: Cover) -> tuple[list[Cover], GroupHom]:
    """Split a fundamental cover into indecomposable fiber-product factors.

    Non-abelian classes contribute their representative with multiplicity;
    each simple-module class contributes extensions realizing the echelon
    basis of its support plus ``mult`` split extensions. Returns the factor
    list and an explicit isomorphism over the base onto the assembled
    fiber product of the factors.
    """
    from . import cohomology as ch
    from .fiber import fiber_product

    if not is_fundamental(pi):
        raise NotFundamental("decomposition needs a fundamental cover")
    base = pi.target
    if pi.kernel().is_trivial():
        return [], GroupHom(pi.source, base, pi.image, check=False)
    if is_indecomposable(pi):
        fp = fiber_product(base, [pi])
        ident = GroupHom(
            pi.source, fp.carrier, np.arange(pi.source.order), check=False
        )
        return [pi], ident
    inv = invariants(pi)
    factors: list[Cover] = []
    for cls in inv.na_classes:
        factors.extend([cls.cover] * cls.mult)
    for cls in inv.ab_classes:
        space = ch.cohom_space(base, cls.module)
        for row in cls.supp:
            rep = ch.CohomClass(space, row).representative()
            factors.append(ch.extension_from_cocycle(rep).cover)
        zero = ch.CohomClass(space, np.zeros(space.dim_p, dtype=np.int64))
        for _ in range(cls.mult):
            factors.append(ch.extension_from_cocycle(zero.representative()).cover)
    fp = fiber_product(base, factors)
    iso = find_isomorphism_over(pi, fp.structure_map)
    if iso is None:
        raise Incompatible("no isomorphism onto the assembled fiber product")
    return factors, iso


# ---------------------------------------------------------------------------
# lifting along a base epimorphism


def exists_semicartesian_lift(pi: Cover, tau: Cover, tau_prime: Cover) -> bool:
    """Decide whether some theta: tau.source ->> tau_prime.source closes a
    semi-cartesian square over the base map ``pi``.

    ``pi`` maps the base of ``tau`` onto the base of ``tau_prime``; both
    covers must be fundamental. The decision compares, per class of
    ``tau_prime``, the pulled-back multiplicities, the image of the
    support under coefficient inflation, and the nullity correction of
    the inflation restricted to the support.
    """
    from . import cohomology as ch
    from .fiber import fiber_product

    if not same_group(tau.target, pi.source):
        raise BaseMismatch("tau must cover the source of the base map")
    if not same_group(tau_prime.target, pi.target):
        raise BaseMismatch("tau_prime must cover the target of the base map")
    if not is_fundamental(tau) or not is_fundamental(tau_prime):
        raise NotFundamental("lifting criterion needs fundamental covers")
    inv = invariants(tau)
    inv_p = invariants(tau_prime)
    big = pi.source

    for cls in inv_p.na_classes:
        pulled = fiber_product(pi.target, [pi, cls.cover]).projections[0]
        match = next(
            (
                c
                for c in inv.na_classes
                if find_isomorphism_over(pulled, c.cover) is not None
            ),
            None,
        )
        if match is None or cls.mult > match.mult:
            return False

    for cls in inv_p.ab_classes:
        space_small = ch.cohom_space(pi.target, cls.module)
        module_up = ch.inflate_module(pi, cls.module)
        space_up = ch.cohom_space(big, module_up)
        lifted = [
            ch.inflate(pi, ch.CohomClass(space_small, row)).coords
            for row in cls.supp
        ]
        lifted_rows = (
            np.array(lifted, dtype=np.int64)
            if lifted
            else np.zeros((0, space_up.dim_p), dtype=np.int64)
        )
        k = cls.endo_field.k
        supp_f_dim = len(cls.supp) // k
        nullity = supp_f_dim - space_up.f_rank(lifted_rows)
        match, iso = _matching_class(module_up, inv.ab_classes)
        if match is None:
            if lifted_rows.size and lifted_rows.any():
                return False
            if nullity + cls.mult > 0:
                return False
            continue
        space_dst = ch.cohom_space(big, match.module)
        moved = _transport_rows(lifted_rows, space_up, iso, space_dst)
        if not row_space_le(moved, match.supp, space_dst.p):
            return False
        if nullity + cls.mult > match.mult:
            return False
    return True


# ---------------------------------------------------------------------------
# recognizing fundaments and fundament series


def _has_diagonal_square(rho: Cover, pi_bar: Cover) -> bool:
    """Whether some quotient of rho.source by a maximal normal subgroup of
    the composite kernel yields a semi-cartesian square under ``rho``
    (the obstruction to ``pi_bar`` being the fundament of the composite)."""
    comp = compose(pi_bar, rho)
    ker_comp = comp.kernel()
    ker_rho = rho.kernel().elements
    for sub in maximal_normal_in(rho.source, ker_comp):
        product = _product_set(rho.source, (sub.elements, ker_rho))
        if tuple(product.tolist()) == ker_comp.elements:
            return True
    return False


def is_fundament_of(rho: Cover, pi_bar: Cover) -> bool:
    """Whether ``pi_bar`` is the fundament of ``pi_bar o rho`` by ``rho``.

    Decided by comparing Ker(rho) with the fundament kernel of the
    composite; the equivalent semi-cartesian-square obstruction search is
    run as well and the two answers are required to agree.
    """
    if not is_fundamental(pi_bar):
        raise NotFundamental("the quotient cover must be fundamental")
    comp = compose(pi_bar, rho)
    by_kernel = fundament_kernel(comp) == rho.kernel()
    by_square = not _has_diagonal_square(rho, pi_bar)
    assert by_kernel == by_square, "fundament routes disagree"
    return by_kernel


def is_fundament_series(chain) -> bool:
    """Whether a chain of fundamental covers is the fundament series of
    its composite.

    ``chain[k]`` maps the (k+1)-st group onto the k-th one, the base
    being ``chain[0].target``. Decided by the stagewise semi-cartesian
    obstruction search; the kernel chain of the composite is compared as
    an independent route and both must agree. Trailing isomorphism stages
    (next to the full source) are accepted; padding at the base end is
    not, since it shifts every kernel out of place.
    """
    chain = list(chain)
    if not chain:
        raise Incompatible("empty chain")
    for first, second in zip(chain, chain[1:]):
        if not same_group(second.target, first.source):
            raise Incompatible("chain covers do not compose")
    for cov in chain:
        if not is_fundamental(cov):
            raise NotFundamentalStage(f"stage {cov!r} is not fundamental")

    by_square = all(
        not _has_diagonal_square(chain[k], chain[k - 1])
        for k in range(1, len(chain))
    )

    # independent route: the cumulative kernels from the full source must
    # reproduce the fundament kernels of the composite covers
    src = chain[-1].source
    rhos = [identity_cover(src)]
    for cov in reversed(chain):
        rhos.append(compose(cov, rhos[-1]))
    rhos.reverse()  # rhos[k]: full source ->> k-th group
    by_kernels = all(
        rhos[k].kernel() == fundament_kernel(rhos[k - 1])
        for k in range(1, len(rhos))
    )
    assert by_square == by_kernels, "fundament series routes disagree"
    return by_square
