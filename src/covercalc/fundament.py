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

The maximal H-normal subgroups N of a kernel K with K/N abelian are read
off the F_p-modules M_p = K/[K,K]K^p, one per prime p dividing |K/[K,K]|,
each in the coordinates that Hom(K, F_p) gives it on the Schreier walk
of K, with no quotient built: they are the preimages of the maximal
submodules (``maximal_normal_in``), and each comes with the small action
matrices of its top K/N, by which ``_class_tops`` matches it against the
base's module classes before building any quotient. A module class's
multiplicity and support are read off the same M_p (``_class_support``):
no joint quotient and no kernel module is built. Those with K/N
non-abelian are centralizers of chief factors inside the perfect
residual of K; no kernel lists its normal-subgroup lattice.

Classes belong to the base, not to a pair of covers: each base group
keeps a registry of them (``base._classes``), one representative per
class. A simple top is matched by intertwining it with the module
representatives (``_top_class``); a non-abelian class is keyed and
searched once per base (``_cover_class``). Every support is read in its
representative's H^2 coordinates, so no support is carried between
modules. Each cover keeps one table of its classes per base object
(``_indexed``): class index -> multiplicity and canonical support.
``invariants`` reads it, and comparing two covers compares the class
indices, multiplicities and supports of their tables. Compactness of a
fiber product reads the class indices first (``_class_tops``) and a
support only for a module class that two factors share
(``is_compact_fiber_product``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cohomology as ch, fiber
from . import gmodules as gm
from .errors import (
    BaseMismatch,
    EmptyFactorList,
    Incompatible,
    NotFundamental,
    OrderCapExceeded,
)
from .groups import (
    BuildLimits,
    Cover,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _maximal_tops,
    find_isomorphism_over,
    generating_set,
    is_indecomposable,
    maximal_normal_in,
    quotient,
    same_group,
)
from .linalg import rank_mod_p, row_echelon_mod_p, row_space_le

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
    "is_compact_fiber_product",
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
        maximals = maximal_normal_in(pi.source, ker)
        common = set(ker.elements).intersection(*(n.elements for n in maximals))
        pi._fundament = Subgroup(pi.source, common)
    return pi._fundament


def is_fundamental(pi: Cover) -> bool:
    """True iff the fundament kernel of ``pi`` is trivial."""
    return fundament_kernel(pi).is_trivial()


def _quotient_over(pi: Cover, sub: Subgroup) -> tuple[Cover, Cover]:
    """``(pi_bar, rho)``: the quotient ``rho`` of the source by ``sub``,
    a normal subgroup inside Ker(pi), and the cover ``pi_bar`` it
    induces, with ``pi_bar o rho = pi``."""
    _, rho = quotient(pi.source, sub)
    image = np.empty(rho.target.order, dtype=np.int32)
    image[rho.image] = pi.image
    return Cover(rho.target, pi.target, image, check=False), rho


def fundament(pi: Cover) -> tuple[Cover, Cover]:
    """Split off the fundament: ``(pi_bar, rho)`` with ``pi_bar o rho = pi``.

    ``rho`` is the quotient of the source by the fundament kernel and
    ``pi_bar`` is the induced cover, which is fundamental. A fundamental
    ``pi`` returns ``(pi, identity)`` up to carrier relabeling.
    """
    return _quotient_over(pi, fundament_kernel(pi))


@dataclass(frozen=True)
class FundamentSeries:
    """The descending kernel chain of a cover with its stage covers.

    ``kernels[0]`` is Ker(pi) and each following entry is the fundament
    kernel of the quotient cover by its predecessor, ending at the trivial
    subgroup. ``stage_covers[k-1]`` maps the k-th quotient onto the
    previous one (the 0-th stage target is the base of ``pi``); every
    stage is fundamental.
    """

    kernels: tuple[Subgroup, ...]
    stage_covers: tuple[Cover, ...]


def fundament_series(pi: Cover) -> FundamentSeries:
    """Iterate fundament kernels down to 1 and assemble the stage covers:
    each stage is induced by the quotient of the source by the next
    kernel, over the quotient by the one before (over ``pi`` first)."""
    kernels: list[Subgroup] = [pi.kernel()]
    stages: list[Cover] = []
    over = pi
    while kernels[-1].order > 1:
        kernels.append(fundament_kernel(over))
        stage, over = _quotient_over(over, kernels[-1])
        stages.append(stage)
    return FundamentSeries(kernels=tuple(kernels), stage_covers=tuple(stages))


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
    """Classification invariants of a fundamental cover: its table of
    classes in the registry of its base (``_indexed``), each index read as
    the class's representative. A non-abelian class reports its
    representative cover, a simple-module class its representative
    module R with End_G(R), the support in the coordinates of H^2(G, R)
    and the multiplicity, in table order, the non-abelian ones first.

    No memo of its own: a later ``invariants``, decision or
    ``decompose_fundamental`` of the cover over the same base object
    reads the table already built. The ``supp`` arrays are read-only, as
    is ``pi.image``.
    """
    base = pi.target
    na, ab = [], []
    for index, (mult, supp) in _indexed(base, pi).items():
        rep = base._classes[index]
        if supp is None:
            na.append(NaClassInvariant(rep, mult))
        else:
            ab.append(AbClassInvariant(rep, gm.endo_field(rep), supp, mult))
    return CoverInvariants(base, tuple(na), tuple(ab))


def _indexed(base: FiniteGroup, pi: Cover) -> dict:
    """The classes of ``pi`` by their index in the registry of ``base`` (a
    group with the table of ``pi.target``), in one table: ``(mult, None)``
    for a non-abelian class and ``(mult, supp)`` for a simple-module class,
    the non-abelian ones first. Memoized on the cover, one table per base
    object (``pi._indexed``): the registry only grows, so the indices hold.
    Built from ``_class_tops`` and ``_class_support``.
    """
    table = pi._indexed.get(base)
    if table is None:
        if not is_fundamental(pi):
            raise NotFundamental("invariants need a fundamental cover")
        na, ab, _ = _class_tops(base, pi)
        table = {index: (mult, None) for index, mult in na.items()}
        table.update((index, _class_support(base, pi, index)) for index in ab)
        pi._indexed[base] = table
    return table


def _class_tops(base: FiniteGroup, pi: Cover) -> tuple[dict, dict, dict]:
    """``(na, ab, supports)``: the classes of the indecomposable quotients
    of ``pi``, any cover, by registry index in ``base``, with no H^2. ``na``
    counts each non-abelian class; ``ab`` maps each module class to the
    reading ``(values, mats)`` of M_p, for its prime p, from
    ``_maximal_tops``; ``supports`` is filled by ``_class_support``.
    Memoized on the cover per base object (``pi._class_tops``). A cover's
    indecomposable quotients are its fundament's, so a cover that is not
    fundamental is read as it is.

    The indecomposable quotient covers H/N ->> G, for N ranging over the
    maximal H-normal subgroups of Ker(pi), are grouped by kernel type.
    Every abelian K/N comes with its action matrices from
    ``maximal_normal_in``'s module route, and each distinct action (p and
    the bytes of the matrices) is matched against the base's module
    representatives once (``_top_class``): only a top of a class the
    base has not met builds H/N, whose kernel module becomes the class's
    representative. A non-abelian K/N has no module: H/N is built and
    matched against the base's non-abelian classes (``_cover_class``).
    """
    found = pi._class_tops.get(base)
    if found is None:
        na: dict[int, int] = {}  # class index -> count
        ab: dict[int, tuple] = {}  # class index -> reading of M_p
        seen: dict[tuple, int] = {}  # (p, bytes of the action) -> class index
        for sub, top in _maximal_tops(pi.source, pi.kernel()):
            if top is None:
                index = _cover_class(base, _quotient_over(pi, sub)[0])
                na[index] = na.get(index, 0) + 1
            else:
                p, action, reading = top
                key = (p, action.tobytes())  # the generator count fixes the shape
                index = seen.get(key)
                if index is None:
                    index = seen[key] = _top_class(base, pi, sub, top)
                ab[index] = reading
        found = pi._class_tops[base] = (na, ab, {})
    return found


def _class_support(base: FiniteGroup, pi: Cover, index: int) -> tuple:
    """``(mult, supp)`` of the module class ``index`` of ``pi``, memoized in
    ``_class_tops``, read off M_p = K/[K,K]K^p with no quotient built.

    A nonzero G-map K -> R, for the class's representative R, is onto
    the simple R, so its kernel is one of the class's N: every such map
    kills the intersection M of the class's N and factors through M_p.
    So Hom_G(K/M, R) = Hom_G(M_p, R), the X with X·A_h = R(h)·X on the
    source's generators h, for M_p's matrices A_h and coordinates v.
    The cover's cocycle c(x, y) = s_x·s_y·s_xy^-1, through its least
    section s, is pushed through each basis map X as X·v(c), which is
    the cocycle of H/M pushed through the map up to a coboundary. The
    RREF of the pushed classes in H^2(G, R) is ``supp`` and the
    F-dimension of the maps sent to 0 is ``mult``: the dual pair of
    H/M, read against R. Raises OrderCapExceeded when H^2(G, R) is past
    the cochain cap.
    """
    _, ab, supports = _class_tops(base, pi)
    found = supports.get(index)
    if found is None:
        rep = base._classes[index]
        space = ch.cohom_space(base, rep)
        values, mats = ab[index]
        src, p = pi.source, rep.p
        images = pi.image[list(generating_set(src))]
        maps = gm._intertwiners(mats, rep.action[images], p).reshape(-1, rep.dim, mats.shape[-1])
        section = pi.fibers[1:, 0]
        h = src.mul[section[:, None], section]
        cocycle = values[src.mul[h, src.inv[pi.fibers[pi.image[h], 0]]]]
        # pushed[m, x, y] = X_m·v(c(x, y)), over the non-identity pairs
        pushed = cocycle @ maps[:, None].swapaxes(-1, -2)
        classes = space.coordinates_of_flat(pushed.reshape(len(maps), -1))
        supp, _ = row_echelon_mod_p(classes, p)
        supp.flags.writeable = False
        mult = (len(maps) - len(supp)) // space.endo_field.k
        found = supports[index] = (mult, supp)
    return found


def _same_top(a: tuple, b: tuple) -> bool:
    """Whether two simple tops (p, matrices of the same generators, and
    anything after) are isomorphic modules: equal matrices, or by Schur
    any nonzero intertwiner."""
    (p, ma, *_), (q, mb, *_) = a, b
    if p != q or ma.shape != mb.shape:
        return False
    return bool((ma == mb).all()) or len(gm._intertwiners(ma, mb, p)) > 0


def _top_class(base: FiniteGroup, pi: Cover, sub: Subgroup, top: tuple) -> int:
    """Registry index in ``base`` of the simple module K/N, for N = ``sub``
    with its abelian top ``(p, mats, reading)`` from ``_maximal_tops``. K
    acts trivially on K/N, so the top is a G-module already: it is
    compared with each module representative on the images of the
    source's generators. On a miss H/N ->> G is built and its kernel
    module becomes the new representative; the tops come sorted, so N is
    the least of its class in ``pi``."""
    images = pi.image[list(generating_set(pi.source))]
    reps = base._classes
    for index, rep in enumerate(reps):
        if isinstance(rep, gm.GModule) and _same_top(top, (rep.p, rep.action[images])):
            return index
    cov = _quotient_over(pi, sub)[0]
    reps.append(gm.module_from_cover(cov, cov.kernel()))
    return len(reps) - 1


def _cover_class(base: FiniteGroup, cov: Cover) -> int:
    """Registry index in ``base`` of the class of a cover with non-abelian
    kernel. A cover not seen before is searched against the earlier
    non-abelian representatives (``find_isomorphism_over``) and, unmatched,
    becomes a new one. Memoized on the base (``base._class_of``) by an
    exact key, the source order, table and image, since a miss costs an
    isomorphism search: equal tables take one path, whichever base object
    they came with."""
    src = cov.source
    key = np.int64(src.order).tobytes() + src.mul.tobytes() + cov.image.astype(np.int64).tobytes()
    index = base._class_of.get(key)
    if index is None:
        reps = base._classes
        for index, rep in enumerate(reps):
            if isinstance(rep, Cover) and find_isomorphism_over(cov, rep) is not None:
                break
        else:
            index = len(reps)
            reps.append(cov)
        base._class_of[key] = index
    return index


def is_compact_fiber_product(fp: fiber.FiberProduct) -> bool:
    """True iff no proper subgroup of the carrier surjects onto every factor.

    Read off the factors' class tables, with no search over the carrier:
    for k >= 2 the product of the first k - 1 factors and the k-th share
    no indecomposable quotient cover (``_compact_over``). Raises
    EmptyFactorList for the empty product.
    """
    if fp.arity == 0:
        raise EmptyFactorList("compactness needs at least one factor")
    return _compact_over(fp.base, fp.factors)


def _compact_over(base: FiniteGroup, factors) -> bool:
    """Whether the fiber product over ``base`` of ``factors`` is compact.

    A subgroup of A x_G B onto both is the graph of an isomorphism over G
    of quotient covers of A and B (Goursat), so P_k = P_(k-1) x_G H_k is
    compact iff P_(k-1) is and the two share no indecomposable quotient
    cover. The classes of those quotients are read off each factor's
    ``_class_tops``, and while no class is shared, those of P_(k-1) are
    the union of its factors'. A common non-abelian class is a shared
    quotient; a common module class is decided by
    ``_shares_module_class``, so H^2 is built only for a class that two
    factors have.
    """
    if len(factors) < 2:
        return True
    having: dict = {}  # class index -> the factors so far with that class
    for cov in factors:
        na, ab, _ = _class_tops(base, cov)
        if any(index in having for index in na):
            return False
        for index in ab:
            if index in having and _shares_module_class(base, index, having[index], cov):
                return False
        for index in (*na, *ab):
            having.setdefault(index, []).append(cov)
    return True


def _shares_module_class(base: FiniteGroup, index: int, earlier: list, cov: Cover) -> bool:
    """Whether ``cov`` shares a quotient cover of the module class ``index``
    with the fiber product of ``earlier``, the factors before it with the
    class (those without it have no quotient of the class), which share
    no class among them. The split quotient is shared when ``cov`` and
    one of ``earlier`` have mult > 0, a non-split one when the supports
    meet: the product's support is the direct sum of theirs, so the
    stacked supports drop rank. Past the cochain cap for H^2 the quotient
    covers of the class are matched instead, one search per pair.
    """
    try:
        entries = [_class_support(base, c, index) for c in (*earlier, cov)]
    except OrderCapExceeded:
        run = earlier[0] if len(earlier) == 1 else fiber.fiber_product(base, earlier).structure_map
        mine, theirs = (
            [_quotient_over(c, sub)[0] for sub, top in _maximal_tops(c.source, c.kernel())
             if top is not None and _top_class(base, c, sub, top) == index]
            for c in (cov, run)
        )
        return any(find_isomorphism_over(a, b) is not None for a in mine for b in theirs)
    if entries[-1][0] and any(mult for mult, _ in entries[:-1]):
        return True
    stacked = np.concatenate([supp for _, supp in entries])
    return rank_mod_p(stacked, base._classes[index].p) < len(stacked)


def _check_comparable(tau_prime: Cover, tau: Cover) -> None:
    if not same_group(tau_prime.target, tau.target):
        raise BaseMismatch("covers are over different base groups")
    if not is_fundamental(tau_prime) or not is_fundamental(tau):
        raise NotFundamental("comparison needs fundamental covers")


def _bounded(base: FiniteGroup, index: int, mult: int, supp, table: dict) -> bool:
    """Whether class ``index`` of ``table`` has multiplicity at least
    ``mult`` and, for a simple-module class, a support containing
    ``supp``. A class of ``invariants`` has mult + dim_F supp >= 1 (its
    own projection is a nonzero G-map), so an absent class bounds none.
    Containment is memoized on the base (``base._contained``), keyed by
    the class index and the bytes of both canonical supports: the index
    fixes p and the column count dim_p, so the key is injective."""
    if index not in table:
        return False
    have, span = table[index]
    if mult > have:
        return False
    if supp is None:
        return True
    key = (index, supp.tobytes(), span.tobytes())
    hit = base._contained.get(key)
    if hit is None:
        hit = base._contained[key] = row_space_le(supp, span, base._classes[index].p)
    return hit


def dominates(tau_prime: Cover, tau: Cover) -> bool:
    """Whether ``tau_prime`` is dominated by ``tau`` (both fundamental,
    same base): every class multiplicity of ``tau_prime`` is bounded by
    the matching one of ``tau`` and every support is contained in the
    matching support.

    Classes are matched once per base: both sides are looked up in the
    class registry of ``tau.target``, with no Hom_G solve for a class seen
    before. A pair then runs one pass over the table of ``tau_prime``
    (``_indexed``), non-abelian classes first, comparing class indices,
    multiplicities and supports in the representative's coordinates.
    """
    _check_comparable(tau_prime, tau)
    base = tau.target
    table = _indexed(base, tau)
    return all(
        _bounded(base, i, m, supp, table)
        for i, (m, supp) in _indexed(base, tau_prime).items()
    )


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
    fiber product of the factors, which is built under the cap
    ``pi.source.order``, its own order.
    """
    if not is_fundamental(pi):
        raise NotFundamental("decomposition needs a fundamental cover")
    base = pi.target
    if pi.kernel().is_trivial():
        return [], GroupHom(pi.source, base, pi.image, check=False)
    limits = BuildLimits(pi.source.order)
    if is_indecomposable(pi):
        fp = fiber.fiber_product(base, [pi], limits)
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
        zeros = np.zeros((cls.mult, space.dim_p), dtype=np.int64)
        for row in np.concatenate([cls.supp, zeros]):
            factors.append(ch.extension_from_cocycle(space.representative(row)).cover)
    fp = fiber.fiber_product(base, factors, limits)
    onto = find_isomorphism_over(pi, fp.structure_map)
    if onto is None:
        raise Incompatible("no isomorphism onto the assembled fiber product")
    return factors, onto


# ---------------------------------------------------------------------------
# lifting along a base epimorphism


def exists_semicartesian_lift(pi: Cover, tau: Cover, tau_prime: Cover) -> bool:
    """Decide whether some theta: tau.source ->> tau_prime.source closes a
    semi-cartesian square over the base map ``pi``.

    ``pi`` maps the base of ``tau`` onto the base of ``tau_prime``; both
    covers must be fundamental. Such a theta is exactly an epimorphism
    h -> (tau(h), theta(h)) over ``pi.source`` onto the pullback
    P = pi.source x_(pi.target) tau_prime.source (an embedding problem in
    the sense of Fried–Jarden, *Field Arithmetic*), so the answer is
    ``dominates`` of P's first projection by ``tau``. That projection is
    fundamental with ``tau_prime``: its kernel is Ker(tau_prime), with the
    same normal subgroups inside it. A P larger than tau.source is no
    quotient of it, and is never built.
    """
    if not same_group(tau.target, pi.source):
        raise BaseMismatch("tau must cover the source of the base map")
    if not same_group(tau_prime.target, pi.target):
        raise BaseMismatch("tau_prime must cover the target of the base map")
    if not is_fundamental(tau) or not is_fundamental(tau_prime):
        raise NotFundamental("lifting criterion needs fundamental covers")
    if pi.source.order * tau_prime.kernel().order > tau.source.order:
        return False
    limits = BuildLimits(tau.source.order)
    pullback = fiber.fiber_product(pi.target, [pi, tau_prime], limits).projections[0]
    return dominates(pullback, tau)
