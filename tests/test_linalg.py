"""The GF(p) elimination core and the H^2 queries built on it.

``CohomSpace.coordinates_of_flat`` is checked against references in
tests/oracles.py that grow a span one row at a time or solve one system
per query. So are the oracles' ``independent_rows``, ``f_rank`` and
``f_independent_subset``, which ``lift_by_matching`` and ``f_basis``
read.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

import covercalc.cohomology
import oracles
from catalog import f3_sign, f4_over_c3
from covercalc import (
    FiniteGroup,
    cohom_space,
    direct_sum_module,
    endo_field,
    trivial_module,
)
from covercalc.errors import NotCocycle
from covercalc.linalg import (
    minimal_stable_subspaces,
    nullspace_mod_p,
    projective_points,
    rank_mod_p,
    row_echelon_mod_p,
    row_space_le,
)
from test_cohomology import (
    H2_GROUP_NAMES,
    a4_f4,
    builtin,
    module_action_tuples,
    table_rows,
)
from test_modules import _f9_over_c8, conjugated_sum

PRIMES = (2, 3, 5, 509)


def random_matrices(p, seed):
    """Seeded matrices of every kind the scan has to get right: empty,
    zero-width, zero rows, repeated rows, low rank and full rank; a pivot
    found below its row (a swap), leading entries other than 1 (at p > 7),
    and a wide sparse 3 x 600 one with long runs of zero columns, the shape
    of H^2 coordinate systems."""
    rng = np.random.default_rng(seed)
    # the first pivot lies in row 2 at every p, so the scan swaps it up
    swaps = np.array([[0, 0, 3, 1], [0, 2, 5, 0], [4, 1, 0, 6]], dtype=np.int64) % p
    leads = np.array([[2, 4, 6, 1], [0, 3, 7, 5], [0, 0, p - 1, 2]], dtype=np.int64) % p
    sparse = np.zeros((3, 600), dtype=np.int64)
    sparse[[1, 0, 2, 1, 2], [40, 333, 333, 512, 599]] = rng.integers(1, p, size=5)
    mats = [
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
        np.zeros((4, 5), dtype=np.int64),
        np.eye(6, dtype=np.int64),
        rng.integers(0, p, size=(6, 6)),
        rng.integers(0, p, size=(9, 4)),
        rng.integers(0, p, size=(3, 11)),
        swaps,
        leads,
        sparse,
    ]
    for rank in (1, 2, 3):
        low = rng.integers(0, p, size=(10, rank)) @ rng.integers(0, p, size=(rank, 7)) % p
        mats.append(low)
        mixed = np.vstack([np.zeros((1, 7), dtype=np.int64), low[:3], low[:3], 2 * low[1:2] % p])
        mats.append(rng.permutation(mixed))
    return mats


def stable_subspaces_by_spanning(mats, p):
    """Every nonzero subspace of the row space F_p^d stable under right
    multiplication by each matrix: all subspaces, grown one spanning
    vector at a time from the lines, kept when stable (RREF bytes ->
    RREF)."""
    d = mats.shape[-1]
    vectors = [np.array(v) for v in product(range(p), repeat=d) if any(v)]
    level = {}
    for v in vectors:
        rows, _ = oracles.rref_mod_p(v[None], p)
        level[rows.tobytes()] = rows
    spaces = dict(level)
    while level:
        grown = {}
        for rows in level.values():
            for v in vectors:
                more, _ = oracles.rref_mod_p(np.vstack([rows, v]), p)
                if len(more) > len(rows):
                    grown[more.tobytes()] = more
        spaces.update(grown)
        level = grown
    return {
        key: rows
        for key, rows in spaces.items()
        if all(
            len(oracles.rref_mod_p(np.vstack([rows, rows @ m % p]), p)[0]) == len(rows)
            for m in mats
        )
    }


@pytest.mark.parametrize("p,d", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_projective_points_meet_every_line_once(p, d):
    points = [tuple(v) for v in projective_points(d, p)]
    assert len(points) == (p ** d - 1) // (p - 1)
    assert all(next(x for x in v if x) == 1 for v in points)
    lines = {
        tuple(c * x % p for x in v) for v in points for c in range(1, p)
    }
    assert lines == set(product(range(p), repeat=d)) - {(0,) * d}


def stable_subspace_cases(p, d):
    """Seeded actions on F_p^d: identity and zero, a cycle, random ones,
    and upper-unitriangular ones (a p-group, where some points span
    stable lines and others do not)."""
    rng = np.random.default_rng(p * 10 + d)
    cycle = np.roll(np.eye(d, dtype=np.int64), 1, axis=1)
    cases = [
        np.eye(d, dtype=np.int64)[None],  # every line is stable
        np.zeros((1, d, d), dtype=np.int64),
        cycle[None],
        np.stack([cycle, np.diag(rng.integers(1, p, size=d))]),
    ] + [rng.integers(0, p, size=(k, d, d)) for k in (1, 2, 2, 3)]

    def unitriangular():
        return np.triu(rng.integers(0, p, size=(d, d)), 1) + np.eye(d, dtype=np.int64)

    return cases + [unitriangular()[None], np.stack([unitriangular(), unitriangular()])]


@pytest.mark.parametrize("p,d", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_minimal_stable_subspaces_match_spanning(p, d):
    for mats in stable_subspace_cases(p, d):
        stable = stable_subspaces_by_spanning(mats, p)
        want = {
            key: rows
            for key, rows in stable.items()
            if not any(
                len(other) < len(rows)
                and len(oracles.rref_mod_p(np.vstack([rows, other]), p)[0]) == len(rows)
                for other in stable.values()
            )
        }
        got = minimal_stable_subspaces(mats, p)
        assert {w.tobytes() for w in got} == set(want)
        assert len(got) == len(want)
        assert [len(w) for w in got] == sorted(len(w) for w in got)


def trivial_plus_f4_plane():
    """C3 on F_2^3: trivial on the first coordinate, and on the other two
    the order-3 matrix of ``f4_over_c3``."""
    mats = np.zeros((1, 3, 3), dtype=np.int64)
    mats[0, 0, 0] = 1
    mats[0, 1:, 1:] = f4_over_c3().action[1]
    return mats


@pytest.mark.parametrize("p,d", list(product((2, 3, 5), (1, 2, 3, 4))))
def test_minimal_stable_subspaces_match_spins_exactly(p, d):
    # the same list as spinning every point: order, shapes and bytes
    cases = stable_subspace_cases(p, d)
    if (p, d) == (2, 3):
        cases.append(trivial_plus_f4_plane())
    for mats in cases:
        got = minimal_stable_subspaces(mats, p)
        want = oracles.minimal_stable_subspaces_by_spins(mats, p)
        assert [(w.shape, w.tobytes()) for w in got] == [(w.shape, w.tobytes()) for w in want]


def test_a_stable_plane_over_a_stable_line_is_dropped():
    # on F_2^3, (a, b, c) -> (a, a + b, c) fixes the three lines with
    # a = 0; the spins of (1, 0, 0) and (1, 0, 1) are stable planes that
    # contain the line of (0, 1, 0), so both are dropped
    mats = np.eye(3, dtype=np.int64)[None]
    mats[0, 0, 1] = 1
    got = minimal_stable_subspaces(mats, 2)
    assert [w.tolist() for w in got] == [[[0, 1, 0]], [[0, 1, 1]], [[0, 0, 1]]]
    want = oracles.minimal_stable_subspaces_by_spins(mats, 2)
    assert [w.tolist() for w in got] == [w.tolist() for w in want]


@pytest.mark.parametrize("p", PRIMES)
def test_independent_rows_matches_greedy_scan(p):
    for seed in range(5):
        for mat in random_matrices(p, seed):
            kept = oracles.independent_rows(mat, p)
            assert kept == oracles.greedy_independent_rows(mat, p)
            assert len(kept) == rank_mod_p(mat, p)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_nullspace_and_containment_match_oracle(p):
    for seed in range(3):
        for mat in random_matrices(p, 10 + seed):
            if not mat.size:
                continue
            reduced, pivots = row_echelon_mod_p(mat, p)
            want, want_pivots = oracles.rref_mod_p(mat, p)
            assert pivots == want_pivots and np.array_equal(reduced, want)
            null = nullspace_mod_p(mat, p)
            assert len(null) == mat.shape[1] - len(pivots)
            assert not (mat @ null.T % p).any()
            rows = mat[: len(mat) // 2]
            assert row_space_le(rows, mat, p)
            assert row_space_le(mat, rows, p) == (rank_mod_p(rows, p) == len(pivots))


# ---------------------------------------------------------------------------
# H^2 coordinates: one factorization at construction, two products a query


COORD_CASES = [(name, p) for name in H2_GROUP_NAMES for p in (2, 3)]


def space_for(name, p):
    group = builtin(name)
    return cohom_space(group, trivial_module(group, p))


def a4_f4_space():
    module = a4_f4()  # dim_p 2 over F4, so k = 2
    return cohom_space(module.group, module)


def assert_coordinates_match_oracle_solve(space, rng):
    p = space.p
    b = oracles.coboundary_rref(
        table_rows(space.group), p, module_action_tuples(space.module)
    )
    basis = np.vstack([space.h_reps, b])
    vecs, rows = [], []
    for _ in range(4):
        c = rng.integers(0, p, size=len(basis))
        vec = c @ basis % p
        coords = space.coordinates_of_flat(vec)
        assert coords.tolist() == c[: space.dim_p].tolist()
        if space.dim_p:
            assert coords.tolist() == oracles.solve_mod_p(basis.T, vec, p)[: space.dim_p].tolist()
        vecs.append(vec)
        rows.append(coords)
    # a 2-D array: the coordinates of each row
    assert space.coordinates_of_flat(np.array(vecs)).tolist() == np.array(rows).tolist()


@pytest.mark.parametrize("name,p", COORD_CASES, ids=[f"{n}-F{p}" for n, p in COORD_CASES])
def test_coordinates_of_flat_match_oracle_solve(name, p):
    assert_coordinates_match_oracle_solve(space_for(name, p), np.random.default_rng(p))


@pytest.mark.parametrize("make", [f3_sign, f4_over_c3, a4_f4], ids=["f3_sign", "f4_over_c3", "f4_over_a4"])
def test_coordinates_of_flat_match_oracle_solve_simple_modules(make):
    module = make()
    space = cohom_space(module.group, module)
    assert_coordinates_match_oracle_solve(space, np.random.default_rng(7))


@pytest.mark.parametrize(
    "make",
    [lambda n=n: space_for(n, 2) for n in ("C4", "V4", "D4", "Q8", "A4")]
    + [a4_f4_space],
    ids=["C4", "V4", "D4", "Q8", "A4", "A4-F4"],
)
def test_vector_outside_the_cocycles_is_not_a_cocycle(make):
    space = make()
    assert space.dim_p
    rng = np.random.default_rng(space._u)
    outside = [
        e
        for e in np.eye(space._u, dtype=np.int64)
        if oracles.solve_mod_p(space.z_basis.T, e, 2) is None
    ]
    assert outside
    inside = rng.integers(0, 2, size=len(space.z_basis)) @ space.z_basis % 2
    space.coordinates_of_flat(np.stack([inside, inside]))
    for e in outside[:5]:
        vec = (rng.integers(0, 2, size=len(space.z_basis)) @ space.z_basis + e) % 2
        with pytest.raises(NotCocycle):
            space.coordinates_of_flat(vec)
        # every row of a 2-D array is checked, not only the first
        with pytest.raises(NotCocycle):
            space.coordinates_of_flat(np.stack([inside, vec]))


# ---------------------------------------------------------------------------
# F-ranks and F-independent subsets against the one-row-at-a-time scan


def oracle_f_rank(space, rows, scalars):
    return len(
        oracles.greedy_f_independent(
            rows, lambda v: scalars @ v % space.p, space.p, space.endo_field.k
        )
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: space_for("V4", 2),
        lambda: space_for("D4", 2),
        lambda: space_for("S4", 2),
        a4_f4_space,
    ],
    ids=["V4-F2", "D4-F2", "S4-F2", "A4-F4"],
)
def test_f_rank_matches_greedy_scan(make):
    space = make()
    p, m = space.p, space.dim_p
    assert m
    rng = np.random.default_rng(m)
    scalars = oracles.scalar_matrix(space)
    assert oracles.f_rank(space, np.zeros((0, m), dtype=np.int64)) == 0
    for count in (1, 2, 3, 5):
        rows = rng.integers(0, p, size=(count, m))
        rows[rng.integers(count)] = 0
        if count > 1:
            rows[-1] = scalars @ rows[0] % p  # an F-multiple
        assert oracles.f_rank(space, rows) == oracle_f_rank(space, rows, scalars)
    one = np.eye(m, dtype=np.int64)[:1]
    assert oracles.f_rank(space, one) == 1


def f_item_cases():
    """(items, scalar_fn, p, k): Hom_G bases with repeats, scalar multiples
    and combinations, over fields F2, F3, F4 and F9."""
    rng = np.random.default_rng(5)
    cases = []
    for module, n in [
        (trivial_module(builtin("C2"), 2), 3),
        (f3_sign(), 2),
        (f4_over_c3(), 3),
        (_f9_over_c8(), 2),
        (_f9_over_c8(), 3),
    ]:
        field = endo_field(module)
        j, p = oracles.endo_generator(field), module.p
        basis = list(oracles.hom_space(direct_sum_module(module, n), module).fp_basis)
        combo = sum(int(c) * b for c, b in zip(rng.integers(0, p, size=len(basis)), basis)) % p
        items = [basis[0], j @ basis[0] % p, basis[0]] + basis[1:] + [combo, 0 * combo]
        order = rng.permutation(len(items))
        cases.append(([items[i] for i in order], lambda m, j=j, p=p: j @ m % p, p, field.k))
    f9 = _f9_over_c8()
    scrambled = conjugated_sum(f9, 1, 3)
    field = endo_field(f9)
    j = oracles.endo_generator(field)
    plane = [np.array(v) for v in ([1, 0], [0, 1], [1, 1], j @ [1, 2] % 3)]
    cases.append((plane, lambda v: j @ v % 3, 3, field.k))
    dual = oracles.hom_space(scrambled, f9)
    cases.append((list(dual.fp_basis), lambda m: j @ m % 3, 3, field.k))
    return cases


def test_f_independent_subset_matches_greedy_scan():
    for items, scalar_fn, p, k in f_item_cases():
        picked, indices = oracles.f_independent_subset(items, scalar_fn, p, k)
        assert indices == oracles.greedy_f_independent(items, scalar_fn, p, k)
        assert all(np.array_equal(a, items[i] % p) for a, i in zip(picked, indices))
    assert oracles.f_independent_subset([], None, 2, 1) == ([], [])


# ---------------------------------------------------------------------------
# the H^2 memo lives on the group


def test_space_is_memoized_on_its_group():
    group = builtin("D4")
    module = trivial_module(group, 2)
    space = cohom_space(group, module)
    assert group._spaces[module.structural_key()] is space
    assert cohom_space(group, trivial_module(group, 2)) is space
    twin = FiniteGroup(group.mul.copy(), name="D4'")
    twin_space = cohom_space(twin, trivial_module(twin, 2))
    assert twin_space is not space and twin._spaces and not set(twin._spaces.values()) & {space}
    assert twin_space.module.structural_key() == space.module.structural_key()
    assert not hasattr(covercalc.cohomology, "_space_cache")
