"""Square predicates and composition laws, checked against lattice data.

A quotient square of a group H is built from normal subgroups N, L <= M:
top H ->> H/N, left H ->> H/L, bottom H/L ->> H/M, right H/N ->> H/M.
For these squares the predicates have closed forms — semi-cartesian iff
NL = M, cartesian iff additionally N ∩ L = 1 — which makes every quotient
square an independently-predicted test instance. The suite sweeps the
full (N, L, M) lattice of eight groups (~300 squares) plus composed and
cube-shaped diagrams.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from oracles import Mismatch, compose_horizontal
from catalog import SMALL_GROUPS, normal_subgroups
from covercalc import (
    Cover,
    GroupHom,
    Subgroup,
    fiber_product,
    find_epimorphism_over,
    identity_cover,
    is_cartesian,
    is_compact_cartesian,
    is_indecomposable,
    is_semi_cartesian,
    make_square,
    quotient,
)
from covercalc.errors import NotCartesian, NotCommutative, SourceTargetMismatch
from covercalc.groups import closure_of

SQUARE_GROUPS = ["V4", "C4", "C6", "S3", "D4", "Q8", "A4", "C3xC3"]
GROUPS = {name: SMALL_GROUPS[name]() for name in SQUARE_GROUPS}

_qcache: dict = {}


def cached_quotient(h, sub: Subgroup):
    key = (id(h), sub.mask)
    if key not in _qcache:
        _qcache[key] = quotient(h, sub)
    return _qcache[key]


def qcover(h, small: Subgroup, big: Subgroup) -> Cover:
    """Induced cover H/small ->> H/big for nested normal subgroups."""
    qa, pa = cached_quotient(h, small)
    qb, pb = cached_quotient(h, big)
    image = np.zeros(qa.order, dtype=np.int32)
    image[pa.image] = pb.image
    return Cover(qa, qb, image, check=False)


def join(h, a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(h, closure_of(h, a.elements + b.elements))


def meet(h, a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(h, tuple(sorted(set(a.elements) & set(b.elements))))


def tower_square(h, n: Subgroup, l: Subgroup, m: Subgroup):
    top = cached_quotient(h, n)[1]
    left = cached_quotient(h, l)[1]
    return make_square(top, left, qcover(h, l, m), qcover(h, n, m))


def tower_triples(h):
    """All (N, L, M) with N, L <= M among the normal subgroups of h."""
    normals = normal_subgroups(h)
    for m in normals:
        inside = [s for s in normals if oracles.is_subgroup_of(s, m)]
        for n in inside:
            for l in inside:
                yield n, l, m


def swept_compact(sq) -> bool:
    """Compactness of a cartesian square by the oracle's sweep of the
    corner's whole subgroup lattice."""
    table = tuple(map(tuple, sq.corner_source.mul.tolist()))
    return not oracles.has_proper_supplement(
        table, [sq.top.image.tolist(), sq.left.image.tolist()]
    )


def universal_map(sq):
    """The canonical map from the corner into the fiber product of the
    bottom and right edges; (left, top) in coordinates."""
    fp = fiber_product(sq.bottom.target, [sq.bottom, sq.right])
    coords = zip(*(p.image.tolist() for p in fp.projections))
    index = {t: i for i, t in enumerate(coords)}
    h = sq.corner_source
    img = np.array(
        [
            index[(int(sq.left.image[x]), int(sq.top.image[x]))]
            for x in range(h.order)
        ],
        dtype=np.int32,
    )
    return GroupHom(h, fp.carrier, img, check=True)


# ---------------------------------------------------------------------------
# predicate values across the full tower-square sweep


def test_sweep_is_large_enough():
    total = sum(len(list(tower_triples(h))) for h in GROUPS.values())
    assert total >= 200


@pytest.mark.parametrize("name", SQUARE_GROUPS)
def test_predicates_match_lattice_prediction(name):
    h = GROUPS[name]
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        want_semi = join(h, n, l) == m
        want_cart = want_semi and meet(h, n, l).order == 1
        assert is_semi_cartesian(sq) == want_semi, (name, n, l, m)
        assert is_cartesian(sq) == want_cart, (name, n, l, m)


@pytest.mark.parametrize("name", SQUARE_GROUPS)
def test_universal_map_criteria(name):
    # semi-cartesian forces the corner onto the fiber product; cartesian
    # makes it bijective
    h = GROUPS[name]
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        psi = universal_map(sq)
        if is_semi_cartesian(sq):
            assert psi.is_surjective(), (name, n, l, m)
        assert is_cartesian(sq) == psi.is_isomorphism(), (name, n, l, m)


@pytest.mark.parametrize("name", ["V4", "D4", "Q8", "A4", "S3"])
def test_cartesian_squares_kernel_product(name):
    # in a cartesian square the composite kernel is the product of the
    # top and left kernels, meeting trivially
    h = GROUPS[name]
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        if not is_cartesian(sq):
            continue
        k1 = set(sq.left.kernel().elements)
        k2 = set(sq.top.kernel().elements)
        prod = {int(h.mul[a, b]) for a in k1 for b in k2}
        assert prod == set(m.elements)
        assert k1 & k2 == {0}


@pytest.mark.parametrize("name", ["V4", "D4", "Q8", "A4", "S3", "C6"])
def test_indecomposable_corollaries(name):
    h = GROUPS[name]
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        cart = is_cartesian(sq)
        if cart:
            # bottom indecomposable iff top indecomposable
            assert is_indecomposable(sq.bottom) == is_indecomposable(sq.top)
        if is_indecomposable(sq.bottom):
            # semi iff the top kernel is not swallowed by the left kernel
            swallowed = oracles.is_subgroup_of(sq.top.kernel(), sq.left.kernel())
            assert is_semi_cartesian(sq) == (not swallowed)
            if cart:
                # no lift of the right edge over the bottom iff compact
                fast = find_epimorphism_over(sq.right, sq.bottom) is None
                brute = swept_compact(sq)
                assert fast == brute
                assert is_compact_cartesian(sq) == brute


@pytest.mark.parametrize("name", SQUARE_GROUPS)
def test_compact_cartesian_matches_supplement_sweep(name):
    # every cartesian tower square, with decomposable bottoms too
    h = GROUPS[name]
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        if is_cartesian(sq):
            assert is_compact_cartesian(sq) == swept_compact(sq), (name, n, l, m)


@pytest.mark.parametrize("name", ["V4", "D4", "Q8", "A4", "S3"])
def test_lattice_transport_in_cartesian_squares(name):
    # the left edge carries normal subgroups inside the top kernel
    # bijectively onto normal subgroups inside the bottom kernel
    h = GROUPS[name]
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        if not is_cartesian(sq):
            continue
        upstairs = normal_subgroups(h, sq.top.kernel())
        downstairs = set(
            normal_subgroups(sq.left.target, sq.bottom.kernel())
        )
        carried = {
            Subgroup(sq.left.target, tuple(set(sq.left.image[list(s.elements)].tolist())))
            for s in upstairs
        }
        assert carried == downstairs
        assert len(carried) == len(upstairs)


@pytest.mark.parametrize("name", ["D4", "Q8", "A4", "C6", "V4"])
def test_twist_semi(name):
    # factoring the right edge of a semi-cartesian square keeps it semi
    h = GROUPS[name]
    normals = normal_subgroups(h)
    for n, l, m in tower_triples(h):
        sq = tower_square(h, n, l, m)
        if not is_semi_cartesian(sq):
            continue
        for mid in normals:
            if oracles.is_subgroup_of(n, mid) and oracles.is_subgroup_of(mid, m):
                twisted = make_square(
                    cached_quotient(h, mid)[1],
                    sq.left,
                    sq.bottom,
                    qcover(h, mid, m),
                )
                assert is_semi_cartesian(twisted), (name, n, l, mid, m)


# ---------------------------------------------------------------------------
# horizontal composition laws


def composable_pairs(h, rng, limit):
    """Random pairs (sq1, sq2) with sq1.right == sq2.left, as tower data."""
    normals = normal_subgroups(h)
    triples = list(tower_triples(h))
    rng.shuffle(triples)
    produced = 0
    for n, l, m in triples:
        # second square lives on H/N with left kernel M/N
        seconds = [
            (n2, m2)
            for n2 in normals
            if oracles.is_subgroup_of(n, n2)
            for m2 in normals
            if oracles.is_subgroup_of(join(h, n2, m), m2)
        ]
        rng.shuffle(seconds)
        for n2, m2 in seconds[:3]:
            sq1 = tower_square(h, n, l, m)
            sq2 = tower_square_between(h, n, n2, m, m2)
            yield sq1, sq2
            produced += 1
            if produced >= limit:
                return


def tower_square_between(h, n, n2, m, m2):
    """Square with corner H/N: top to H/N2, left to H/M, base H/M2."""
    return make_square(
        qcover(h, n, n2), qcover(h, n, m), qcover(h, m, m2), qcover(h, n2, m2)
    )


@pytest.mark.parametrize("name", ["V4", "C4", "C6", "S3", "D4", "Q8", "A4"])
def test_two_of_three_and_semi_composition(name):
    h = GROUPS[name]
    rng = random.Random(17)
    seen = 0
    for sq1, sq2 in composable_pairs(h, rng, limit=40):
        outer = compose_horizontal(sq1, sq2)
        c1, c2, co = is_cartesian(sq1), is_cartesian(sq2), is_cartesian(outer)
        if c1 and c2:
            assert co
        if c1 and co:
            assert c2
        if c2 and co:
            assert c1
        s1, s2, so = (
            is_semi_cartesian(sq1),
            is_semi_cartesian(sq2),
            is_semi_cartesian(outer),
        )
        if so:
            assert s2  # outer semi forces the right-hand square semi
        if s1 and s2:
            assert so
        if c1 and c2 and co:
            assert is_compact_cartesian(outer) == (
                is_compact_cartesian(sq1) and is_compact_cartesian(sq2)
            )
        seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# cubes


def cube_faces(h):
    """All cubes of quotient covers of h whose top, bottom, front and
    right faces are cartesian, yielded as (top_face, bottom_face).

    Pick the top-face kernels N, Z with N ∩ Z = 1 (so N2 = NZ makes the
    top cartesian), then the remaining vertices L2 and M together with
    the derived L = M ∩ L2 and M2 = N2·L2, keeping only choices where
    the front, right and bottom faces are cartesian as well.
    """
    normals = normal_subgroups(h)
    one = Subgroup(h, (0,))
    for nh in normals:
        for zh in normals:
            if meet(h, nh, zh).order != 1:
                continue
            n2 = join(h, nh, zh)
            for l2 in normals:
                if not oracles.is_subgroup_of(zh, l2) or meet(h, n2, l2) != zh:
                    continue
                m2 = join(h, n2, l2)
                for mh in normals:
                    if not oracles.is_subgroup_of(nh, mh):
                        continue
                    if meet(h, n2, mh) != nh or join(h, n2, mh) != m2:
                        continue
                    if join(h, mh, l2) != m2:
                        continue
                    lh = meet(h, mh, l2)
                    top_face = make_square(
                        qcover(h, one, nh),
                        qcover(h, one, zh),
                        qcover(h, zh, n2),
                        qcover(h, nh, n2),
                    )
                    bottom_face = make_square(
                        qcover(h, lh, mh),
                        qcover(h, lh, l2),
                        qcover(h, l2, m2),
                        qcover(h, mh, m2),
                    )
                    yield top_face, bottom_face


@pytest.mark.parametrize("name", ["V4", "D4", "Q8", "A4", "C3xC3", "C6"])
def test_cube_compactness_descends(name):
    # top, bottom, front and right faces cartesian: if the top face is
    # compact then so is the bottom face
    h = GROUPS[name]
    cubes = 0
    for top_face, bottom_face in cube_faces(h):
        assert is_cartesian(top_face) and is_cartesian(bottom_face)
        if is_compact_cartesian(top_face):
            assert is_compact_cartesian(bottom_face)
        cubes += 1
    assert cubes >= 5


# ---------------------------------------------------------------------------
# validation and errors


def test_make_square_validates_shapes():
    c2 = GROUPS["C4"]
    ident = identity_cover(c2)
    v4 = GROUPS["V4"]
    with pytest.raises(SourceTargetMismatch):
        make_square(ident, identity_cover(v4), ident, ident)


def test_make_square_rejects_non_commuting():
    # both quotients of V4 by distinct order-2 subgroups land in the same
    # order-2 table, but the two projections disagree as maps
    v4 = GROUPS["V4"]
    normals = [s for s in normal_subgroups(v4) if s.order == 2]
    a, b = normals[0], normals[1]
    qa = cached_quotient(v4, a)[1]
    qb = cached_quotient(v4, b)[1]
    with pytest.raises(NotCommutative):
        make_square(qa, qb, identity_cover(qb.target), identity_cover(qa.target))


def test_compact_requires_cartesian():
    c4 = GROUPS["C4"]
    n = Subgroup(c4, (0, 2))
    sq = tower_square(c4, n, n, n)  # semi but not cartesian (N ∩ L = N)
    assert is_semi_cartesian(sq) and not is_cartesian(sq)
    with pytest.raises(NotCartesian):
        is_compact_cartesian(sq)


def test_compose_horizontal_requires_matching_edge():
    c4 = GROUPS["C4"]
    n = Subgroup(c4, (0, 2))
    sq = tower_square(c4, n, n, n)
    other = tower_square(c4, Subgroup(c4, (0,)), n, n)
    with pytest.raises(Mismatch):
        compose_horizontal(sq, other)


def test_known_compactness_examples():
    # order-4 non-split cover paired with itself: never compact;
    # paired with the split cover: compact
    from catalog import nonsplit_cover_c2, split_cover_c2

    eta1 = nonsplit_cover_c2()
    eta0 = split_cover_c2()
    fp11 = fiber_product(eta1.target, [eta1, eta1])
    sq11 = make_square(
        fp11.projections[1], fp11.projections[0], eta1, eta1
    )
    assert is_cartesian(sq11)
    assert not is_compact_cartesian(sq11)

    fp01 = fiber_product(eta0.target, [eta0, eta1])
    sq01 = make_square(fp01.projections[1], fp01.projections[0], eta0, eta1)
    assert is_cartesian(sq01)
    assert is_compact_cartesian(sq01)
