"""Group core: tables, subgroup machinery, quotients, homs, searches."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import subgroup_from_elements
from catalog import (
    GROUP_PERMS,
    SMALL_GROUPS,
    alt5,
    cover_pool,
    generated_subgroup,
    nonsplit_cover_c2,
    nonsplit_cover_c3,
    normal_subgroups,
    quaternion8,
    relabel,
    relabel_cover,
    sl2_5,
    split_cover_c2,
    split_cover_c3,
    sym5,
)
from covercalc import (
    BuildLimits,
    Cover,
    FiniteGroup,
    GroupHom,
    Subgroup,
    build_group,
    compose,
    cyclic_group,
    fiber_product,
    find_epimorphism_over,
    find_isomorphism_over,
    identity_cover,
    is_indecomposable,
    maximal_normal_in,
    quotient,
    same_group,
    terminal_cover,
    trivial_group,
)
from covercalc.cli import _BUILTIN_PERMS
from covercalc.errors import Incompatible, NotNormal, OrderCapExceeded
from covercalc.groups import (
    _maximal_tops,
    _walk,
    closure_of,
    generating_set,
    is_minimal_normal,
)

GROUPS = {name: fn() for name, fn in SMALL_GROUPS.items()}


def raw_table(group):
    return tuple(tuple(int(x) for x in row) for row in group.mul)


# ---------------------------------------------------------------------------
# construction


def test_identity_is_index_zero():
    for g in GROUPS.values():
        assert (g.mul[0] == np.arange(g.order)).all()
        assert (g.mul[:, 0] == np.arange(g.order)).all()


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1, 2], [1, 2, 2], [2, 2, 2]],  # one identity in all
        [[0, 1, 2], [1, 0, 0], [2, 1, 1]],  # row 1 twice, row 2 never
        [[0, 1, 2], [1, 0, 2], [2, 0, 1]],  # column 1 twice, column 2 never
    ],
)
def test_table_holds_the_identity_once_per_row_and_column(table):
    # with a row or column that misses 0, inverses were read from empty
    # memory and element_orders did not return
    with pytest.raises(Incompatible, match="exactly once"):
        FiniteGroup(table)


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1, 2], [1, 2, 0], [2, 0, 2]],  # 2 twice in the last row and column
        [[0, 1, 2], [1, 7, 0], [2, 0, 1]],  # an entry past the last element
        np.zeros((0, 0), dtype=np.int32),  # no element at all
    ],
    ids=["repeat", "out-of-range", "empty"],
)
def test_table_must_be_a_latin_square(table):
    # accepted before, the first made element_orders loop forever and the
    # second failed later with an IndexError; the empty one raised one
    with pytest.raises(Incompatible):
        FiniteGroup(table)


def test_build_group_is_deterministic():
    a = build_group([(1, 2, 0), (1, 0, 2)])
    b = build_group([(1, 2, 0), (1, 0, 2)])
    assert np.array_equal(a.mul, b.mul)


def test_known_orders():
    expected = {
        "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6, "C9": 9,
        "V4": 4, "S3": 6, "S4": 24, "A4": 12, "D4": 8, "Q8": 8,
        "C3xC3": 9,
    }
    for name, n in expected.items():
        assert GROUPS[name].order == n, name
    assert alt5().order == 60


def test_order_cap_enforced():
    with pytest.raises(OrderCapExceeded):
        build_group([(1, 2, 3, 0), (1, 0, 2, 3)], limits=BuildLimits(order_cap=10))


def assert_table_matches_oracle(gens):
    """``build_group(gens)`` has the oracle's BFS table and generator indices."""
    group = build_group(gens)
    degree = max((len(p) for p in gens), default=1)
    padded = [tuple(p) + tuple(range(len(p), degree)) for p in gens]
    table, elems = oracles.table_from_perms(padded or [(0,)])
    assert raw_table(group) == table
    assert group.generators == tuple(elems.index(p) for p in padded)


def _cycle(n):
    return tuple(range(1, n)) + (0,)


@pytest.mark.parametrize("name", sorted(_BUILTIN_PERMS))
def test_builtin_tables_match_oracle(name):
    assert_table_matches_oracle(_BUILTIN_PERMS[name])


@pytest.mark.parametrize("name", sorted(GROUP_PERMS))
def test_catalog_tables_match_oracle(name):
    assert_table_matches_oracle(GROUP_PERMS[name])


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_tables_match_oracle(n):
    group = cyclic_group(n)
    table, _ = oracles.table_from_perms([_cycle(n)])
    assert raw_table(group) == table
    assert group.generators == (() if n == 1 else (1,))  # C1 is trivial_group()


@pytest.mark.parametrize("n", [257, 1000])
def test_large_cyclic_tables_are_addition_mod_n(n):
    # BFS from the identity numbers g^k as element k
    group = cyclic_group(n)
    k = np.arange(n)
    assert np.array_equal(group.mul, (k[:, None] + k[None, :]) % n)
    assert group.generators == (1,)


@pytest.mark.parametrize(
    "gens",
    [
        # intransitive, with fixed points 2 and 6: C2 x C3
        [(1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 4, 5, 3, 6)],
        # fixed point 0 and one orbit of length 3 moved by S3
        [(0, 2, 3, 1), (0, 2, 1, 3)],
        # short generators padded with fixed points to degree 5
        [(1, 0), (0, 1, 3, 4, 2)],
        [(1, 2, 0), (1, 0, 2, 3)],
        # repeated and identity generators
        [(1, 2, 0, 3), (1, 2, 0, 3), (0, 1, 2, 3), (1, 0, 2, 3)],
        [(0, 1, 2)],
        [],
        # S6, order 720: far past the orders above
        [_cycle(6), (1, 0, 2, 3, 4, 5)],
    ],
    ids=[
        "intransitive", "fixed-point-0", "pad-2-5", "pad-3-4", "repeated", "identity", "empty",
        "S6",
    ],
)
def test_edge_case_tables_match_oracle(gens):
    assert_table_matches_oracle(gens)


@pytest.mark.parametrize("seed", range(60))
def test_random_tables_match_oracle(seed):
    # degree <= 6: degree 7 can reach S7, above the default order cap
    rng = random.Random(seed)
    degree = rng.randint(2, 6)
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = list(range(rng.randint(2, degree)))
        rng.shuffle(perm)
        gens.append(tuple(perm))
    assert_table_matches_oracle(gens)


@pytest.mark.parametrize(
    "gens,n",
    [(GROUP_PERMS["S4"], 24), ([_cycle(64)], 64), ([_cycle(1000)], 1000)],
    ids=["S4", "C64", "C1000"],
)
def test_order_cap_boundary(gens, n):
    with pytest.raises(OrderCapExceeded):
        build_group(gens, limits=BuildLimits(order_cap=n - 1))
    assert build_group(gens, limits=BuildLimits(order_cap=n)).order == n


def test_cyclic_group_obeys_limits():
    with pytest.raises(OrderCapExceeded):
        cyclic_group(64, limits=BuildLimits(order_cap=63))
    assert cyclic_group(64, limits=BuildLimits(order_cap=64)).order == 64


def test_element_orders_match_oracle():
    for g in GROUPS.values():
        table = raw_table(g)
        assert g.element_orders().tolist() == [
            oracles.element_order(table, x) for x in range(g.order)
        ]


def test_element_orders_match_the_step_loop():
    # the prime-power parts by squaring give the step loop's arrays byte
    # for byte: catalog groups, relabeled copies and two large cyclic groups
    rng = random.Random(5)
    groups = list(GROUPS.values()) + [alt5(), sym5(), sl2_5()]
    groups += [relabel(g, rng) for g in list(groups) if g.order > 1]
    groups += [cyclic_group(n, limits=BuildLimits(order_cap=n)) for n in (4096, 5001)]
    for g in groups:
        want = oracles.element_orders_by_steps(g.mul)
        got = g.element_orders()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), g.name


def test_quaternion_matches_symbolic_table():
    table, _ = oracles.quaternion_table()
    q8 = quaternion8()
    assert sorted(oracles.element_orders(table)) == sorted(
        int(x) for x in q8.element_orders()
    )
    want = oracles.maximal_normal_inside(table, frozenset(range(len(table))))
    assert sorted(len(s) for s in want) == [
        s.order for s in maximal_normal_in(q8, Subgroup(q8, tuple(range(q8.order))))
    ]


# ---------------------------------------------------------------------------
# subgroup lattice vs subset-enumeration oracle


@pytest.mark.parametrize("name", ["C4", "V4", "S3", "D4", "Q8", "A4", "C3xC3"])
def test_subgroup_lattice_matches_oracle(name):
    # the join-closure oracle, which the compactness tests sweep, against
    # subset enumeration
    table = raw_table(GROUPS[name])
    assert set(oracles.subgroup_sets_by_joins(table)) == set(oracles.all_subgroup_sets(table))


def _by_order(subsets):
    return sorted((tuple(sorted(s)) for s in subsets), key=lambda e: (len(e), e))


@pytest.mark.parametrize("name", ["C4", "V4", "S3", "D4", "Q8", "A4", "C3xC3"])
def test_normal_subgroups_match_oracle(name):
    # the normal-subgroup fixture, which the square, fiber and acceptance
    # tests sweep, against subset enumeration, in (order, elements) order
    g = GROUPS[name]
    want = _by_order(oracles.normal_subgroup_sets(raw_table(g)))
    assert [s.elements for s in normal_subgroups(g)] == want


@pytest.mark.parametrize("name", ["V4", "S3", "D4", "Q8", "A4", "C3xC3"])
def test_normal_subgroups_inside_every_bound_matches_oracle(name):
    # the fixture under each bound is subset enumeration cut down to the
    # bound, also on a relabeled twin
    g = GROUPS[name]
    whole = _by_order(oracles.normal_subgroup_sets(raw_table(g)))
    sigma = np.array([0] + random.Random(len(name)).sample(range(1, g.order), g.order - 1))
    twin = relabel(g, None, sigma=sigma)
    for bound in normal_subgroups(g):
        got = [s.elements for s in normal_subgroups(g, bound)]
        assert got == [s for s in whole if set(s) <= set(bound.elements)]
        moved = Subgroup(twin, tuple(sorted(int(sigma[x]) for x in bound.elements)))
        assert [s.elements for s in normal_subgroups(twin, moved)] == _by_order(
            [int(sigma[x]) for x in s] for s in got
        )


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normal_subgroups_inside_is_the_filtered_whole_lattice(name):
    # the fixture under a bound closes only the bound's own classes, yet
    # it is the whole list cut down, in the same order, on every catalog
    # group (subset enumeration reaches only the small ones)
    g = GROUPS[name]
    whole = normal_subgroups(g)
    for bound in whole:
        got = normal_subgroups(g, bound)
        assert got == tuple(s for s in whole if set(s.elements) <= set(bound.elements))


@pytest.mark.parametrize("name", ["V4", "S3", "D4", "Q8", "A4"])
def test_maximal_normal_in_matches_oracle(name):
    g = GROUPS[name]
    full = Subgroup(g, tuple(range(g.order)))
    got = {sub.elements for sub in maximal_normal_in(g, full)}
    want = {
        tuple(sorted(s))
        for s in oracles.maximal_normal_inside(raw_table(g), frozenset(range(g.order)))
    }
    assert got == want


def test_maximal_normal_in_proper_bound():
    d4 = GROUPS["D4"]
    center = next(
        s for s in normal_subgroups(d4) if s.order == 2
    )
    # inside the order-2 center: only the trivial subgroup
    tops = maximal_normal_in(d4, center)
    assert [t.elements for t in tops] == [(0,)]
    assert maximal_normal_in(d4, Subgroup(d4, (0,))) == ()


def test_maximal_normal_in_is_memoized_per_bound():
    d4 = GROUPS["D4"]
    center = next(s for s in normal_subgroups(d4) if s.order == 2)
    tops = _maximal_tops(d4, center)
    assert _maximal_tops(d4, center) is tops
    # an equal bound built afresh hits the same entry
    assert _maximal_tops(d4, Subgroup(d4, center.elements)) is tops
    assert maximal_normal_in(d4, center) == tuple(sub for sub, _ in tops)


def test_subgroup_is_its_parent_and_sorted_elements():
    d4 = GROUPS["D4"]
    center = next(s for s in normal_subgroups(d4) if s.order == 2)
    assert Subgroup.__slots__ == ("parent", "elements")
    # unsorted input, or numpy ints, give an equal subgroup with an equal hash
    for elements in (center.elements[::-1], np.array(center.elements, dtype=np.int32)):
        sub = Subgroup(d4, elements)
        assert sub.elements == center.elements
        assert all(type(e) is int for e in sub.elements)
        assert sub == center and hash(sub) == hash(center)
    # groups with equal tables give equal subgroups
    twin = FiniteGroup(d4.mul.copy(), name="twin")
    assert Subgroup(twin, center.elements) == center
    assert hash(Subgroup(twin, center.elements)) == hash(center)
    assert Subgroup(d4, (0,)) != center
    # two objects for one bound share one memo entry
    tops = _maximal_tops(d4, Subgroup(d4, center.elements[::-1]))
    keys = set(d4._maximals)
    assert _maximal_tops(d4, Subgroup(d4, center.elements)) is tops
    assert set(d4._maximals) == keys and d4._maximals[center.elements] is tops
    # the kernel is memoized on the map, for a plain GroupHom too
    cov = terminal_cover(d4)
    hom = GroupHom(cov.source, cov.target, cov.image)
    for f in (cov, hom):
        assert f.kernel() is f.kernel()
        assert f.kernel().elements == tuple(range(d4.order))
    assert "kernel" not in vars(Cover)


def test_non_normal_bound_raises_on_every_call():
    s3 = GROUPS["S3"]
    transposition = next(
        generated_subgroup(s3, [x]) for x in range(s3.order) if s3.element_orders()[x] == 2
    )
    for _ in range(2):
        with pytest.raises(NotNormal):
            maximal_normal_in(s3, transposition)
    with pytest.raises(Incompatible):
        maximal_normal_in(GROUPS["C6"], transposition)


def _set_closure(rows, seed):
    elems = {0, *seed}
    frontier = set(elems)
    while frontier:
        reached = {rows[a][b] for a in frontier for b in elems}
        reached |= {rows[b][a] for a in frontier for b in elems}
        frontier = reached - elems
        elems |= frontier
    return tuple(sorted(elems))


def test_closure_on_large_group_matches_set_closure():
    big = fiber_product(
        trivial_group(), [terminal_cover(alt5()), terminal_cover(cyclic_group(13))]
    ).carrier
    assert big.order == 780
    rng = np.random.default_rng(5)
    sizes = set()
    for g in [*GROUPS.values(), alt5(), big]:
        rows = g.mul.tolist()
        inv = g.inv.tolist()
        picks = [int(x) for x in rng.choice(g.order, size=min(g.order, 3 if g is big else 12))]
        singles = [[x] for x in picks]
        pairs = [[x, int(rng.integers(g.order))] for x in picks]
        orbits = [sorted({rows[rows[h][x]][inv[h]] for h in range(g.order)}) for x in picks]
        joins = [
            list(closure_of(g, [x])) + list(closure_of(g, [int(rng.integers(g.order))]))
            for x in picks
        ]
        for seed in singles + pairs + orbits + joins:
            got = closure_of(g, seed)
            assert got == _set_closure(rows, seed)
            sizes.add(len(got))
    assert {1, 60, 780} <= sizes


def test_generating_set_matches_greedy_oracle():
    # stored generators, relabelings without them, and fiber-product
    # carriers (which carry none) all follow the oracle's greedy rule
    groups = [*(fn() for fn in SMALL_GROUPS.values()), alt5(), sym5(), sl2_5()]
    rng = random.Random(14)
    groups += [relabel(g, rng, keep_generators=False) for g in list(groups)]
    for split, nonsplit in [
        (split_cover_c2(), nonsplit_cover_c2()),
        (split_cover_c3(), nonsplit_cover_c3()),
    ]:
        groups += [pi.source for pi in cover_pool(split, nonsplit, max_factors=4)]
    assert sum(not g.generators for g in groups) >= 40
    for g in groups:
        want = oracles.greedy_generating_set(g.mul.tolist(), g.generators)
        assert generating_set(g) == want, g.name


def test_walk_lists_every_edge_once():
    groups = [*GROUPS.values(), alt5()]
    rng = random.Random(23)
    groups += [relabel(g, rng) for g in list(groups)]
    for g in groups:
        gens = generating_set(g)
        for seq in (gens, gens + gens[:1]):  # a repeated generator reaches nothing
            steps = _walk(g, seq)
            assert len(steps) == len(seq)
            reached, pairs = [0], []
            for i, (tree, other) in enumerate(steps):
                inside = set(closure_of(g, seq[: i + 1]))
                for y, x, j in tree:
                    assert j <= i and x in reached and y == g.mul[x, seq[j]]
                    reached.append(y)
                    pairs.append((x, j))
                for x, j, y in other:
                    assert j <= i and y in reached and y == g.mul[x, seq[j]]
                    pairs.append((x, j))
                assert set(reached) == inside
            assert sorted(reached) == list(range(g.order))
            assert sorted(pairs) == [(x, j) for x in range(g.order) for j in range(len(seq))]
            if seq != gens:
                assert steps[-1][0] == []


def test_quotient_labels_follow_their_generators():
    # C2^3 = <a, b, c> mod <ab>: a and b fall into one coset
    c2_cubed = build_group(
        [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
        labels=("a", "b", "c"),
        name="C2^3",
    )
    a, b, c = c2_cubed.generators
    q, cover = quotient(c2_cubed, generated_subgroup(c2_cubed, [c2_cubed.mul[a, b]]))
    assert q.generators == (int(cover.image[a]), int(cover.image[c]))
    assert q.generator_labels == ("a", "c")


def test_subgroup_from_elements_validates():
    s3 = GROUPS["S3"]
    with pytest.raises(Incompatible):
        subgroup_from_elements(s3, [0, 1])  # 3-cycle alone is not closed
    sub = subgroup_from_elements(s3, [0, 1, 3])
    assert sub.order == 3 and sub.is_normal()


def test_is_minimal_normal():
    a4 = GROUPS["A4"]
    v4_inside = next(s for s in normal_subgroups(a4) if s.order == 4)
    assert is_minimal_normal(a4, v4_inside)
    full = Subgroup(a4, tuple(range(12)))
    assert not is_minimal_normal(a4, full)
    with pytest.raises(NotNormal):
        is_minimal_normal(GROUPS["S3"], generated_subgroup(GROUPS["S3"], [2]))


def test_is_minimal_normal_matches_oracle():
    # minimal iff every non-identity element has the whole subgroup as
    # its normal closure
    for name, group in GROUPS.items():
        table = raw_table(group)
        for sub in normal_subgroups(group):
            want = not sub.is_trivial() and all(
                oracles.normal_closure(table, [x]) == set(sub.elements)
                for x in sub.elements
                if x
            )
            assert is_minimal_normal(group, sub) == want, (name, sub.elements)


# ---------------------------------------------------------------------------
# quotients


def test_quotient_of_s3_by_rotations():
    s3 = GROUPS["S3"]
    a3 = generated_subgroup(s3, [1])
    q, cover = quotient(s3, a3)
    assert q.order == 2
    assert cover.kernel().elements == a3.elements
    assert cover.is_surjective()


def test_quotient_by_trivial_is_identity():
    g = GROUPS["D4"]
    q, cover = quotient(g, Subgroup(g, (0,)))
    assert same_group(q, g)
    assert (cover.image == np.arange(g.order)).all()


def test_quotient_requires_normal():
    s3 = GROUPS["S3"]
    with pytest.raises(NotNormal):
        quotient(s3, generated_subgroup(s3, [2]))


def test_quotient_tower_composes():
    c4 = GROUPS["C4"]
    _, pi = quotient(c4, generated_subgroup(c4, [2]))
    comp = compose(terminal_cover(pi.target), pi)
    assert isinstance(comp, Cover)
    assert comp.target.order == 1


# ---------------------------------------------------------------------------
# homs and covers


def test_hom_rejects_non_homomorphism():
    c4 = GROUPS["C4"]
    c2 = GROUPS["C2"]
    with pytest.raises(Incompatible):
        GroupHom(c4, c2, np.array([0, 1, 1, 0]))


def test_hom_check_agrees_with_the_full_table_one_entry_off():
    # the check reads only the generator columns; it must still agree
    # with the full-table test on every map one entry away from a hom
    homs = []
    for g in GROUPS.values():
        homs.append(identity_cover(g))
        whole = Subgroup(g, tuple(range(g.order)))
        homs += [quotient(g, n)[1] for n in maximal_normal_in(g, whole)]
    rejected = 0
    for hom in homs:
        src, dst = hom.source, hom.target
        for x in range(src.order):
            for v in range(dst.order):
                if v == hom.image[x]:
                    continue
                image = hom.image.copy()
                image[x] = v
                full = image[0] == 0 and np.array_equal(
                    image[src.mul], dst.mul[np.ix_(image, image)]
                )
                if full:
                    assert oracles.same_map(GroupHom(src, dst, image), GroupHom(src, dst, image, False))
                else:
                    with pytest.raises(Incompatible):
                        GroupHom(src, dst, image)
                    rejected += 1
    assert rejected > 1000


def test_hom_check_allocates_no_order_squared_table():
    c = cyclic_group(4096)
    image = np.arange(c.order) % 2  # elements are numbered g^k
    tracemalloc.start()
    try:
        Cover(c, cyclic_group(2), image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # the full-table test took over 100 MB here


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("image", [[0, 5], [0, 2], [0, -1]])
def test_hom_rejects_image_values_outside_the_target(image, check):
    # these raised numpy's IndexError, or read -1 as the last element
    c2 = GROUPS["C2"]
    for make in (GroupHom, Cover):
        with pytest.raises(Incompatible, match="not an element"):
            make(c2, c2, image, check=check)


def test_cover_requires_surjectivity():
    c2 = GROUPS["C2"]
    v4 = GROUPS["V4"]
    with pytest.raises(Incompatible):
        Cover(c2, v4, np.array([0, 1]))


def test_compose_type_propagation():
    eta = nonsplit_cover_c2()
    ident = identity_cover(eta.source)
    both = compose(eta, ident)
    assert isinstance(both, Cover)
    injection = GroupHom(
        trivial_group(), eta.source, np.array([0])
    )
    mixed = compose(eta, injection)
    assert not isinstance(mixed, Cover)


def test_kernel_and_preimage():
    eta = split_cover_c2()
    ker = eta.kernel()
    assert ker.order == 2
    # the preimage of the identity is the fiber over it
    assert tuple(eta.fibers[0].tolist()) == ker.elements


def test_fiber_table_is_one_read_only_table_on_the_map():
    rng = random.Random(5)
    c3_pool = cover_pool(split_cover_c3(), nonsplit_cover_c3(), 3)
    covers = c3_pool + [relabel_cover(c, rng) for c in c3_pool]
    s4 = GROUPS["S4"]
    covers.append(quotient(s4, next(s for s in normal_subgroups(s4) if s.order == 4))[1])
    for cov in covers:
        table = cov.fibers
        assert table.shape == (cov.target.order, cov.source.order // cov.target.order)
        for g in range(cov.target.order):
            assert np.array_equal(table[g], np.flatnonzero(cov.image == g))
        assert not table.flags.writeable and cov.fibers is table
        assert cov.kernel() is cov.kernel()
        assert cov.kernel() == GroupHom(cov.source, cov.target, cov.image).kernel()
    # a surjective GroupHom has the same table; a map that is not onto has none
    eta = nonsplit_cover_c2()
    hom = GroupHom(eta.source, eta.target, eta.image)
    assert np.array_equal(hom.fibers, eta.fibers)
    with pytest.raises(Incompatible):
        GroupHom(trivial_group(), eta.source, np.array([0])).fibers


def test_found_maps_build_their_kernel_on_first_use():
    tau = cover_pool(split_cover_c2(), nonsplit_cover_c2(), 3)[-1]
    found = find_epimorphism_over(tau, nonsplit_cover_c2())
    assert found._kernel is None
    assert found.kernel() is found.kernel()
    assert found.kernel() == GroupHom(found.source, found.target, found.image).kernel()


# ---------------------------------------------------------------------------
# isomorphism / epimorphism search


def test_find_isomorphism_over_identity_case():
    eta = nonsplit_cover_c2()
    iso = find_isomorphism_over(eta, eta)
    assert iso is not None and iso.is_isomorphism()


def test_find_isomorphism_over_distinguishes_c4_v4():
    eta1 = nonsplit_cover_c2()
    eta0 = split_cover_c2()
    assert find_isomorphism_over(eta1, eta0) is None


def test_find_epimorphism_over_terminal():
    # C4 ->> C4/<2> factors through itself onto the smaller cover
    c4 = GROUPS["C4"]
    _, pi = quotient(c4, generated_subgroup(c4, [2]))
    found = find_epimorphism_over(pi, pi)
    assert found is not None
    assert (pi.image[:] == pi.image[found.image]).all() or found.is_isomorphism()


def test_find_epimorphism_over_impossible():
    # nothing maps the split order-4 cover onto the non-split one over C2
    assert find_epimorphism_over(split_cover_c2(), nonsplit_cover_c2()) is None


def _search_pairs():
    c2_pool = cover_pool(split_cover_c2(), nonsplit_cover_c2(), 4)
    c3_pool = [
        c for c in cover_pool(split_cover_c3(), nonsplit_cover_c3(), 3) if c.source.order <= 27
    ]
    for pool in (c2_pool, c3_pool):
        for tau in pool:
            for tau_p in pool:
                yield tau, tau_p


def test_a_whole_fiber_over_the_generators_generates_the_source():
    # _search_hom skips its closure of the candidates when one list is a
    # whole fiber of tau_prime: they meet the fiber over every tau(g)
    checked = 0
    for tau, tau_p in _search_pairs():
        gens = generating_set(tau.source)
        over = [tau_p.fibers[tau.image[g], -1] for g in gens]
        for g in gens:
            seeds = tau_p.fibers[tau.image[g]].tolist() + over
            assert len(closure_of(tau_p.source, seeds)) == tau_p.source.order
            checked += 1
    assert checked > 500


def test_searches_return_the_first_map_of_the_oracle():
    # the CLI reports the first map found, so the image itself must match
    checked = 0
    for tau, tau_p in _search_pairs():
        args = (
            tau.source.mul.tolist(),
            tau_p.source.mul.tolist(),
            tau.image.tolist(),
            tau_p.image.tolist(),
            generating_set(tau.source),
        )
        for found, bijective in (
            (find_epimorphism_over(tau, tau_p), False),
            (find_isomorphism_over(tau, tau_p), True),
        ):
            got = None if found is None else tuple(found.image.tolist())
            assert got == oracles.first_hom_over(*args, bijective=bijective)
            checked += got is not None
    assert checked > 80  # some maps exist, so the images are compared


def test_is_indecomposable():
    assert is_indecomposable(nonsplit_cover_c2())
    assert is_indecomposable(split_cover_c2())
    assert is_indecomposable(terminal_cover(alt5()))
    assert not is_indecomposable(identity_cover(GROUPS["C2"]))


# ---------------------------------------------------------------------------
# properties


group_names = st.sampled_from(sorted(GROUPS))


@given(group_names, st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_antihomomorphism(name, data):
    g = GROUPS[name]
    a = data.draw(st.integers(0, g.order - 1))
    b = data.draw(st.integers(0, g.order - 1))
    ab = int(g.mul[a, b])
    assert int(g.inv[ab]) == int(g.mul[g.inv[b], g.inv[a]])


@given(group_names, st.data())
@settings(max_examples=60, deadline=None)
def test_conjugation_is_automorphism(name, data):
    g = GROUPS[name]
    c = data.draw(st.integers(0, g.order - 1))
    a = data.draw(st.integers(0, g.order - 1))
    b = data.draw(st.integers(0, g.order - 1))
    table = g.mul.tolist()
    lhs = oracles.conjugate(table, c, table[a][b])
    rhs = table[oracles.conjugate(table, c, a)][oracles.conjugate(table, c, b)]
    assert lhs == rhs


@given(group_names, st.data())
@settings(max_examples=40, deadline=None)
def test_closure_is_a_subgroup(name, data):
    g = GROUPS[name]
    seeds = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    elems = closure_of(g, seeds)
    sub = subgroup_from_elements(g, elems)  # would raise if not closed
    assert g.order % sub.order == 0  # Lagrange


@given(group_names)
@settings(max_examples=20, deadline=None)
def test_quotient_sizes_multiply(name):
    g = GROUPS[name]
    for n in normal_subgroups(g):
        q, cover = quotient(g, n)
        assert q.order * n.order == g.order
        assert cover.kernel() == n
        table, coset_of = oracles.quotient_table(raw_table(g), n.elements)
        assert raw_table(q) == table
        assert cover.image.tolist() == coset_of
