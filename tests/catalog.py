"""Shared small-group and cover constructions for the test suite."""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

import oracles
from covercalc import (
    Cover,
    FiniteGroup,
    GModule,
    Subgroup,
    build_group,
    cyclic_group,
    fiber_product,
    identity_cover,
    quotient,
    trivial_module,
)
from covercalc.groups import closure_of


# permutation generators of the non-cyclic catalog groups
GROUP_PERMS: dict[str, list[tuple[int, ...]]] = {
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S3": [(1, 2, 0), (1, 0, 2)],
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "A5": [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)],
    "S5": [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
    "D4": [(1, 2, 3, 0), (1, 0, 3, 2)],
    "Q8": [(2, 3, 1, 0, 7, 6, 4, 5), (4, 5, 6, 7, 1, 0, 3, 2)],
    "C3xC3": [(1, 2, 0, 4, 5, 3, 7, 8, 6), (3, 4, 5, 6, 7, 8, 0, 1, 2)],
}


def klein_four():
    return build_group(GROUP_PERMS["V4"], name="V4")


def sym3():
    return build_group(GROUP_PERMS["S3"], name="S3")


def sym4():
    return build_group(GROUP_PERMS["S4"], name="S4")


def alt4():
    return build_group(GROUP_PERMS["A4"], name="A4")


def alt5():
    return build_group(GROUP_PERMS["A5"], name="A5")


def sym5():
    return build_group(GROUP_PERMS["S5"], name="S5")


def sl2_5():
    """SL(2,5) on the 24 nonzero vectors of F5^2: perfect, with centre
    C2 and SL(2,5)/C2 = A5."""
    vectors = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def perm(m):
        return tuple(
            index[((m[0][0] * a + m[0][1] * b) % 5, (m[1][0] * a + m[1][1] * b) % 5)]
            for a, b in vectors
        )

    return build_group([perm(((1, 1), (0, 1))), perm(((0, 4), (1, 0)))], name="SL(2,5)")


def dihedral4():
    return build_group(GROUP_PERMS["D4"], name="D4")


def quaternion8():
    return build_group(GROUP_PERMS["Q8"], name="Q8")


def c3_squared():
    return build_group(GROUP_PERMS["C3xC3"], name="C3xC3")


SMALL_GROUPS = {
    "C1": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C6": lambda: cyclic_group(6),
    "C9": lambda: cyclic_group(9),
    "V4": klein_four,
    "S3": sym3,
    "S4": sym4,
    "A4": alt4,
    "D4": dihedral4,
    "Q8": quaternion8,
    "C3xC3": c3_squared,
}


def relabel(group, rng, keep_generators: bool = True, sigma=None):
    """``group`` with its non-identity elements renamed by a random
    permutation from ``rng`` (or by ``sigma``, element x becoming
    sigma[x]); the stored generators follow the renaming, or are dropped
    when ``keep_generators`` is false."""
    if sigma is None:
        sigma = np.array([0] + rng.sample(range(1, group.order), group.order - 1))
    mul = np.empty_like(group.mul)
    mul[np.ix_(sigma, sigma)] = sigma[group.mul]
    gens = tuple(int(sigma[g]) for g in group.generators) if keep_generators else ()
    return FiniteGroup(mul, name=group.name, generators=gens)


def relabel_cover(cover, rng) -> Cover:
    """``cover`` with its source relabeled by ``relabel``; the map follows
    the renaming."""
    n = cover.source.order
    sigma = np.array([0] + rng.sample(range(1, n), n - 1))
    image = np.empty_like(cover.image)
    image[sigma] = cover.image
    return Cover(relabel(cover.source, rng, sigma=sigma), cover.target, image)


def generated_subgroup(group, seeds) -> Subgroup:
    return Subgroup(group, closure_of(group, list(seeds)))


def normal_subgroups(group, bound=None) -> tuple[Subgroup, ...]:
    """The normal subgroups of ``group`` inside ``bound`` (all of them by
    default), from the brute-force oracle, sorted by (order, elements)."""
    table = tuple(tuple(row) for row in group.mul.tolist())
    inside = frozenset(range(group.order) if bound is None else bound.elements)
    subs = (tuple(sorted(s)) for s in oracles.normal_subgroups_inside(table, inside))
    return tuple(Subgroup(group, s) for s in sorted(subs, key=lambda e: (len(e), e)))


# ---------------------------------------------------------------------------
# covers of C2 and C3 used throughout


def split_cover_c2() -> Cover:
    """V4 onto C2: kernel has a complement, so the extension splits."""
    v4 = klein_four()
    return quotient(v4, generated_subgroup(v4, [1]))[1]


def nonsplit_cover_c2() -> Cover:
    """C4 onto C2: the kernel has no complement."""
    c4 = cyclic_group(4)
    return quotient(c4, generated_subgroup(c4, [2]))[1]


def split_cover_c3() -> Cover:
    """C3xC3 onto C3."""
    g = c3_squared()
    return quotient(g, generated_subgroup(g, [1]))[1]


def nonsplit_cover_c3() -> Cover:
    """C9 onto C3."""
    c9 = cyclic_group(9)
    return quotient(c9, generated_subgroup(c9, [3]))[1]


def sign_cover() -> Cover:
    """S3 onto C2 with kernel the 3-cycles."""
    s3 = sym3()
    return quotient(s3, generated_subgroup(s3, [1]))[1]


def cover_pool(split: Cover, nonsplit: Cover, max_factors: int = 3) -> list[Cover]:
    """Identity plus every fiber product of <= max_factors of the two covers."""
    base = split.target
    pool = [identity_cover(base)]
    for size in range(1, max_factors + 1):
        for combo in combinations_with_replacement((0, 1), size):
            factors = [split if b == 0 else nonsplit for b in combo]
            pool.append(fiber_product(base, factors).structure_map)
    return pool


# ---------------------------------------------------------------------------
# coefficient modules


def f2_trivial(group=None) -> GModule:
    return trivial_module(group if group is not None else cyclic_group(2), 2)


def f3_sign() -> GModule:
    """F3 over C2 with the generator acting by -1."""
    c2 = cyclic_group(2)
    return GModule(c2, 3, (np.array([[1]]), np.array([[2]])))


def f4_over_c3() -> GModule:
    """F2^2 over C3 with the generator acting by an order-3 matrix;
    the endomorphism ring is the field with four elements."""
    c3 = cyclic_group(3)
    m = np.array([[0, 1], [1, 1]])
    return GModule(c3, 2, (np.eye(2, dtype=int), m, m @ m % 2))
