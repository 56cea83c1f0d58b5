"""Degree-two cohomology, extensions, and the pairing between a cover's
kernel dual space and H^2 of the base.

Dimensions are frozen from an independent brute-force enumeration of
normalized cochains (tests/oracles.py) and re-checked live for the small
cases. The extension constructor and the class-of-a-cover map are tested
as mutually inverse, and the cover-to-pair map x2 against the
realization map y2 both ways.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from catalog import (
    SMALL_GROUPS,
    f2_trivial,
    f3_sign,
    f4_over_c3,
    generated_subgroup,
    nonsplit_cover_c2,
    nonsplit_cover_c3,
    normal_subgroups,
    relabel,
    sign_cover,
    split_cover_c2,
    split_cover_c3,
)
from covercalc import (
    CohomClass,
    CohomSpace,
    Cover,
    FiniteGroup,
    GModule,
    TwoCochain,
    cocycle_from_extension,
    cohom_space,
    cover_cochain,
    endo_field,
    extension_from_cocycle,
    fiber_product,
    find_isomorphism_over,
    first_module_iso,
    identity_cover,
    module_from_cover,
    push_cochain,
    quotient,
    terminal_cover,
    trivial_module,
)
from covercalc.cli import Workspace
from covercalc.groups import generating_set
from covercalc.errors import (
    Incompatible,
    KernelNotAbelian,
    NotCocycle,
    NotIsomorphism,
    NotSimple,
    SpaceMismatch,
)
import oracles
from oracles import (
    NotAGenerated,
    are_congruent,
    are_isomorphic_extensions,
    h2_dim_by_enumeration,
    hom_space,
    inflate,
    inflate_module,
    x2,
    y2,
)

C2 = SMALL_GROUPS["C2"]()
C3 = SMALL_GROUPS["C3"]()
C4 = SMALL_GROUPS["C4"]()
V4 = SMALL_GROUPS["V4"]()

F2TRIV_C2 = f2_trivial(C2)
F3SIGN = f3_sign()
F4MOD = f4_over_c3()


def module_action_tuples(module):
    return [tuple(map(tuple, module.action[g])) for g in range(module.group.order)]


def table_rows(group):
    return [[int(group.mul[a, b]) for b in range(group.order)] for a in range(group.order)]


# ---------------------------------------------------------------------------
# dimensions against the enumeration oracle


H2_CASES = [
    ("C2-F2", lambda: (C2, F2TRIV_C2), 1),
    ("V4-F2", lambda: (V4, f2_trivial(V4)), 3),
    ("C3-F2", lambda: (C3, f2_trivial(C3)), 0),
    ("C3-F3", lambda: (C3, trivial_module(C3, 3)), 1),
    ("C4-F2", lambda: (C4, f2_trivial(C4)), 1),
    ("C2-F3sign", lambda: (C2, F3SIGN), 0),
    ("C3-F4", lambda: (C3, F4MOD), 0),
]


@pytest.mark.parametrize(
    "make,frozen", [(m, f) for _, m, f in H2_CASES], ids=[i for i, _, _ in H2_CASES]
)
def test_h2_dimension_matches_enumeration(make, frozen):
    group, module = make()
    space = cohom_space(group, module)
    assert space.dim_p == frozen
    live = h2_dim_by_enumeration(
        table_rows(group), module.p, module_action_tuples(module)
    )
    assert live == frozen
    assert space.f_dim == space.dim_p // space.endo_field.k


# ---------------------------------------------------------------------------
# the generator-indexed cocycle system against the full one (every x in G)


H2_GROUP_NAMES = ["C2", "C3", "C4", "V4", "C6", "S3", "C8", "C9", "D4", "Q8", "A4", "S4"]


def builtin(name):
    return Workspace().group(name)


def a4_f4():
    """F4 inflated to A4 along A4 -> A4/V4, a group with C3's table."""
    a4 = builtin("A4")
    v4 = next(s for s in normal_subgroups(a4) if s.order == 4)
    return inflate_module(quotient(a4, v4)[1], F4MOD)


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_space_matches_full_system(group, module):
    table, action, p = table_rows(group), module_action_tuples(module), module.p
    space = cohom_space(group, module)
    z = oracles.cocycle_nullspace(table, p, action)
    b = oracles.coboundary_rref(table, p, action)
    h = oracles.h2_representatives(z, b, p)
    assert_bytes_equal(space.z_basis, z)
    assert_bytes_equal(space.h_reps, h)
    # J maps each representative into Z^2 = <h> + B^2: h2_scalar_matrix
    # asserts that the combination exists
    oracles.h2_scalar_matrix(h, b, oracles.endo_generator(space.endo_field), p)


@pytest.mark.parametrize("name", H2_GROUP_NAMES)
def test_h2_bases_equal_full_system(name):
    group = builtin(name)
    for p in (2, 3, 5):
        assert_space_matches_full_system(group, trivial_module(group, p))


@pytest.mark.parametrize("keep_generators", [True, False], ids=["stored", "greedy"])
@pytest.mark.parametrize("name", H2_GROUP_NAMES)
def test_h2_bases_equal_full_system_relabeled(name, keep_generators):
    group = relabel(builtin(name), random.Random(f"{name}-{keep_generators}"), keep_generators)
    assert bool(group.generators) == keep_generators
    for p in (2, 3, 5):
        assert_space_matches_full_system(group, trivial_module(group, p))


@pytest.mark.parametrize(
    "make", [f3_sign, f4_over_c3, a4_f4], ids=["f3_sign", "f4_over_c3", "f4_over_a4"]
)
def test_h2_bases_equal_full_system_simple_modules(make):
    module = make()
    assert_space_matches_full_system(module.group, module)


def _oracle_is_cocycle(cochain):
    t = cochain.table
    return oracles.cocycle_identity_holds(
        table_rows(cochain.group),
        cochain.module.p,
        module_action_tuples(cochain.module),
        lambda a, b: tuple(int(v) for v in t[a, b]),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: trivial_module(builtin("S3"), 3),
        lambda: trivial_module(builtin("D4"), 2),
        lambda: trivial_module(builtin("Q8"), 2),
        lambda: trivial_module(relabel(builtin("A4"), random.Random(3), False), 2),
        lambda: trivial_module(builtin("S4"), 2),
        f4_over_c3,
        a4_f4,
    ],
    ids=["S3-F3", "D4-F2", "Q8-F2", "A4-F2-greedy", "S4-F2", "C3-F4", "A4-F4"],
)
def test_is_cocycle_matches_every_x_oracle(make):
    module = make()
    group, p, d = module.group, module.p, module.dim
    n = group.order
    rng = np.random.default_rng(n * p + d)
    space = cohom_space(group, module)
    for _ in range(5):
        table = rng.integers(0, p, size=(n, n, d))
        table[0] = table[:, 0] = 0
        cochain = TwoCochain(group, module, table)
        assert cochain.is_cocycle() == _oracle_is_cocycle(cochain)
    # cochains that satisfy the identity at one x, and so on <x>, but
    # usually not on the rest of the group
    rows, action = table_rows(group), module_action_tuples(module)
    for x in range(1, n):
        partial = oracles.cocycle_nullspace(rows, p, action, xs=[x])
        table = np.zeros((n, n, d), dtype=np.int64)
        table[1:, 1:] = (rng.integers(0, p, size=len(partial)) @ partial % p).reshape(
            n - 1, n - 1, d
        )
        cochain = TwoCochain(group, module, table)
        assert cochain.is_cocycle() == _oracle_is_cocycle(cochain)
    for _ in range(3):
        vec = rng.integers(0, p, size=len(space.z_basis)) @ space.z_basis % p
        table = np.zeros((n, n, d), dtype=np.int64)
        table[1:, 1:] = vec.reshape(n - 1, n - 1, d)
        cocycle = TwoCochain(group, module, table)
        assert cocycle.is_cocycle() and _oracle_is_cocycle(cocycle)
        # n >= 3: a single changed entry always breaks the identity
        s, t = rng.integers(1, n, size=2)
        table[s, t, rng.integers(d)] += rng.integers(1, p)
        broken = TwoCochain(group, module, table)
        assert not broken.is_cocycle()
        assert not _oracle_is_cocycle(broken)


def _with_generators(group, gens):
    return FiniteGroup(group.mul, name=group.name, generators=gens)


def test_h2_bases_with_identity_and_repeated_generators():
    d4 = builtin("D4")
    a, b = d4.generators
    group = _with_generators(d4, (0, a, a, b))
    assert generating_set(group) == (0, a, a, b)
    for p in (2, 3, 5):
        assert_space_matches_full_system(group, trivial_module(group, p))
    c3 = F4MOD.group
    g = generating_set(c3)[0]
    group = _with_generators(c3, (g, 0, g, int(c3.mul[g, g])))
    assert_space_matches_full_system(group, GModule(group, 2, F4MOD.action))


@pytest.mark.parametrize(
    "make,columns",
    [
        (lambda: trivial_module(builtin("A4"), 2), 22),
        (lambda: trivial_module(builtin("A4"), 3), 22),
        (lambda: trivial_module(builtin("S4"), 2), 46),
        (lambda: trivial_module(builtin("S4"), 3), 46),
        (a4_f4, 44),
    ],
    ids=["A4-F2", "A4-F3", "S4-F2", "S4-F3", "A4-F4"],
)
def test_cocycle_system_has_one_column_per_generator_value(make, columns, monkeypatch):
    import covercalc.cohomology as ch

    module = make()
    group, d = module.group, module.dim
    n, s = group.order, len(set(generating_set(group)) - {0})
    assert (n - 1) * s * d == columns
    shapes = []
    real = ch.nullspace_mod_p
    monkeypatch.setattr(ch, "nullspace_mod_p", lambda mat, p: shapes.append(mat.shape) or real(mat, p))
    CohomSpace(group, module, endo_field(module))
    # n·d rows for each of the n·|S| - (n - 1) edges off the spanning tree
    assert shapes == [((n * s - (n - 1)) * n * d, columns)]


def test_space_requires_simple_module():
    from covercalc import direct_sum_module

    with pytest.raises(NotSimple):
        cohom_space(C2, direct_sum_module(F2TRIV_C2, 2))
    with pytest.raises(Incompatible):
        cohom_space(C3, F2TRIV_C2)


def test_space_is_memoized():
    assert cohom_space(C2, F2TRIV_C2) is cohom_space(C2, F2TRIV_C2)


def test_space_cache_key_is_exact():
    # 509 = 7 (mod 251): a key that keeps p modulo a byte confuses them
    small = cohom_space(C2, trivial_module(C2, 7))
    big = cohom_space(C2, trivial_module(C2, 509))
    assert big.p == 509
    assert big is not small


# ---------------------------------------------------------------------------
# cochain mechanics


def test_cochain_shape_and_normalization():
    with pytest.raises(Incompatible):
        TwoCochain(C2, F2TRIV_C2, np.zeros((2, 2)))
    bad = np.zeros((2, 2, 1))
    bad[0, 1, 0] = 1
    with pytest.raises(Incompatible):
        TwoCochain(C2, F2TRIV_C2, bad)


def test_cocycle_identity_detection():
    space = cohom_space(C2, F2TRIV_C2)
    rep = space.representative(np.array([1]))
    assert rep.is_cocycle()
    # flipping one interior value of a 3x3 table breaks the identity
    c3space = cohom_space(C3, trivial_module(C3, 3))
    rep3 = c3space.representative(np.array([1]))
    broken = rep3.table.copy()
    broken[1, 2] = (broken[1, 2] + 1) % 3
    assert not TwoCochain(C3, rep3.module, broken).is_cocycle()
    with pytest.raises(NotCocycle):
        c3space.class_of(TwoCochain(C3, rep3.module, broken))


@pytest.mark.parametrize(
    "make",
    [f4_over_c3, a4_f4, lambda: trivial_module(SMALL_GROUPS["S3"](), 3)],
    ids=["C3-F4", "A4-F4", "S3-F3"],
)
def test_class_of_rejects_exactly_the_non_cocycles(make):
    # class_of's one cocycle test is the Z^2 span check of
    # coordinates_of_flat: every normalized cochain one value away from a
    # cocycle is rejected exactly when the degree-2 identity fails
    module = make()
    group, p = module.group, module.p
    space = cohom_space(group, module)
    table = space.representative(np.ones(space.dim_p, dtype=np.int64)).table
    rejected = 0
    for x, y, c in itertools.product(range(1, group.order), range(1, group.order), range(module.dim)):
        moved = table.copy()
        moved[x, y, c] = (moved[x, y, c] + 1) % p
        cochain = TwoCochain(group, module, moved)
        if cochain.is_cocycle():
            space.class_of(cochain)
        else:
            rejected += 1
            with pytest.raises(NotCocycle):
                space.class_of(cochain)
    assert rejected


def test_class_round_trip_through_representative():
    space = cohom_space(V4, f2_trivial(V4))
    assert space.dim_p == 3
    for idx in range(8):
        coords = np.array([(idx >> j) & 1 for j in range(3)])
        cls = CohomClass(space, coords)
        back = space.class_of(cls.representative())
        assert are_congruent(cls, back)
    assert CohomClass(space, np.zeros(3, dtype=np.int64)).is_zero()


# ---------------------------------------------------------------------------
# extensions from cocycles and back


def test_zero_class_gives_split_extension():
    space = cohom_space(C2, F2TRIV_C2)
    real = extension_from_cocycle(space.representative(np.zeros(1, dtype=np.int64)))
    # split extension of C2 by trivial F2 is the Klein four group
    orders = sorted(
        element_order(real.cover.source, x) for x in range(real.cover.source.order)
    )
    assert orders == [1, 2, 2, 2]
    assert real.cover.kernel().order == 2


def test_nonzero_class_gives_cyclic_extension():
    space = cohom_space(C2, F2TRIV_C2)
    real = extension_from_cocycle(space.representative(np.array([1])))
    orders = sorted(
        element_order(real.cover.source, x) for x in range(real.cover.source.order)
    )
    assert orders == [1, 2, 4, 4]


def test_sign_extension_is_symmetric_group():
    # the split extension of C2 acting by inversion on F3 is S3
    real = extension_from_cocycle(
        TwoCochain(C2, F3SIGN, np.zeros((2, 2, 1)))
    )
    s3 = SMALL_GROUPS["S3"]()
    assert find_isomorphism_over(
        terminal_cover(real.cover.source), terminal_cover(s3)
    ) is not None


def element_order(group, x):
    k, acc = 1, x
    while acc != 0:
        acc = int(group.mul[acc, x])
        k += 1
    return k


def test_embed_realizes_the_module():
    space = cohom_space(C2, F2TRIV_C2)
    real = extension_from_cocycle(space.representative(np.array([1])))
    ker = real.cover.kernel()
    # module element a is the pair (a, 1), numbered a·|G|
    assert ker.elements == tuple(a * C2.order for a in range(F2TRIV_C2.size))
    kmod = module_from_cover(real.cover, ker)
    assert kmod.p == 2 and kmod.dim == 1


@pytest.mark.parametrize(
    "make",
    [
        lambda name=name, p=p: trivial_module(builtin(name), p)
        for name in H2_GROUP_NAMES
        for p in (2, 3)
    ]
    + [f4_over_c3, a4_f4],
    ids=[f"{name}-F{p}" for name in H2_GROUP_NAMES for p in (2, 3)] + ["C3-F4", "A4-F4"],
)
def test_extension_stores_the_kernel_module_read_from_scratch(make):
    import covercalc.gmodules as gm

    module = make()
    space = cohom_space(module.group, module)
    for coords in itertools.product(range(space.p), repeat=space.dim_p):
        cov = extension_from_cocycle(space.representative(np.array(coords, dtype=np.int64))).cover
        kmod, kc = cov._kernel_module
        assert kmod is space.module
        fresh = Cover(cov.source, cov.target, cov.image, check=False)
        want_mod, want = gm._module_and_coords(fresh, fresh.kernel())
        assert kmod.structural_key() == want_mod.structural_key()
        assert_bytes_equal(kc.vectors, want.vectors)
        assert kc.basis_elements == want.basis_elements
        assert (kc.p, kc.dim) == (want.p, want.dim)
        assert module_from_cover(cov, cov.kernel()) is kmod


def test_extension_rejects_non_cocycle():
    mod3 = trivial_module(C3, 3)
    table = np.zeros((3, 3, 1), dtype=np.int64)
    table[1, 2, 0] = 1  # not a cocycle on its own
    table[2, 1, 0] = 2
    cochain = TwoCochain(C3, mod3, table)
    if not cochain.is_cocycle():
        with pytest.raises(NotCocycle):
            extension_from_cocycle(cochain)


@pytest.mark.parametrize("coords", [[0], [1]])
def test_extension_class_round_trip_c2(coords):
    # realize a class, read the class back off the built extension
    space = cohom_space(C2, F2TRIV_C2)
    cls = CohomClass(space, np.array(coords))
    real = extension_from_cocycle(cls.representative())
    kmod = module_from_cover(real.cover, real.cover.kernel())
    ident = first_module_iso(kmod, F2TRIV_C2)
    back = cocycle_from_extension(real.cover, ident)
    assert are_congruent(cls, back)


def test_extension_class_round_trip_f4():
    # H^2(C3, F4-plane) is zero, so go through a group with content:
    # H^2(C3, F3) instead, plus the nonsplit order-9 cover directly
    n3 = nonsplit_cover_c3()
    kmod = module_from_cover(n3, n3.kernel())
    target = trivial_module(C3, 3)
    ident = first_module_iso(kmod, target)
    cls = cocycle_from_extension(n3, ident)
    assert not cls.is_zero()
    real = extension_from_cocycle(cls.representative())
    # the rebuilt extension is isomorphic over the base to the original
    assert find_isomorphism_over(real.cover, n3) is not None


def test_split_cover_has_zero_class():
    s3 = split_cover_c3()
    kmod = module_from_cover(s3, s3.kernel())
    target = trivial_module(C3, 3)
    ident = first_module_iso(kmod, target)
    assert cocycle_from_extension(s3, ident).is_zero()


def test_cover_cochain_is_a_cocycle_and_rejects_nonabelian():
    pi = sign_cover()
    raw = cover_cochain(pi)
    assert raw.is_cocycle()
    assert raw.group is pi.target
    s4 = SMALL_GROUPS["S4"]()
    a4_elems = generated_subgroup(
        s4, [g for g in range(1, 24) if element_order(s4, g) == 3][:2]
    )
    from covercalc import quotient

    _, to_c2 = quotient(s4, a4_elems)
    with pytest.raises(KernelNotAbelian):
        cover_cochain(to_c2)


def test_cocycle_from_extension_validates_identification():
    eta1 = nonsplit_cover_c2()
    kmod = module_from_cover(eta1, eta1.kernel())
    from covercalc import ModuleHom

    zero = ModuleHom(kmod, F2TRIV_C2, np.zeros((1, 1)))
    with pytest.raises(NotIsomorphism):
        cocycle_from_extension(eta1, zero)
    wrong_source = ModuleHom(F3SIGN, F3SIGN, np.eye(1))
    with pytest.raises(NotIsomorphism):
        cocycle_from_extension(eta1, wrong_source)


# ---------------------------------------------------------------------------
# congruence vs isomorphism of extensions


def test_congruent_iff_equal_coordinates():
    space = cohom_space(V4, f2_trivial(V4))
    a = CohomClass(space, np.array([1, 0, 0]))
    b = CohomClass(space, np.array([1, 0, 0]))
    c = CohomClass(space, np.array([0, 1, 0]))
    assert are_congruent(a, b)
    assert not are_congruent(a, c)
    other = cohom_space(C2, F2TRIV_C2)
    with pytest.raises(SpaceMismatch):
        are_congruent(a, CohomClass(other, np.array([0])))


def test_isomorphic_extensions_orbit_under_scalars():
    # over the order-4 endomorphism field scalar multiples stay isomorphic
    c9 = nonsplit_cover_c3().source
    space = cohom_space(C3, trivial_module(C3, 3))
    assert space.dim_p == 1
    one = CohomClass(space, np.array([1]))
    two = CohomClass(space, np.array([2]))
    zero = CohomClass(space, np.array([0]))
    assert are_isomorphic_extensions(one, two)  # 2 = scalar * 1 in F3
    assert are_congruent(one, two) is False
    assert not are_isomorphic_extensions(one, zero)
    assert are_isomorphic_extensions(zero, zero)
    # cross-check through explicit groups: both classes realize C9
    for cls in (one, two):
        real = extension_from_cocycle(cls.representative())
        assert find_isomorphism_over(real.cover, nonsplit_cover_c3()) is not None


def _scalar_orbits(space):
    """Coordinates of every class pushed through every nonzero element of
    F, the elements enumerated as combinations of the field's basis."""
    p, module = space.p, space.module
    field = space.endo_field
    scalars = [
        sum(int(c) * b for c, b in zip(coefs, field.basis_endos)) % p
        for coefs in itertools.product(range(p), repeat=field.k)
        if any(coefs)
    ]
    orbits = {}
    for coords in itertools.product(range(p), repeat=space.dim_p):
        rep = CohomClass(space, np.array(coords)).representative()
        orbits[coords] = {
            tuple(space.class_of(push_cochain(rep, s, module)).coords) for s in scalars
        }
    return orbits


@pytest.mark.parametrize(
    "make,dims",
    [(a4_f4, (2, 2)), (lambda: trivial_module(SMALL_GROUPS["C3xC3"](), 3), (3, 1))],
    ids=["A4-F4", "C3xC3-F3"],
)
def test_isomorphic_extensions_match_scalar_pushes(make, dims):
    """Two classes are isomorphic extensions iff pushing the first
    through some nonzero scalar of F gives the second."""
    module = make()
    space = cohom_space(module.group, module)
    assert (space.dim_p, space.endo_field.k) == dims
    orbits = _scalar_orbits(space)
    for a, b in itertools.product(orbits, repeat=2):
        got = are_isomorphic_extensions(
            CohomClass(space, np.array(a)), CohomClass(space, np.array(b))
        )
        assert got == (b in orbits[a]), (a, b)


# ---------------------------------------------------------------------------
# inflation


def test_inflate_module_pulls_back_action():
    pi = split_cover_c2()  # V4 ->> C2
    up = inflate_module(pi, F3SIGN)
    assert up.group is pi.source
    for g in range(pi.source.order):
        assert np.array_equal(up.action[g], F3SIGN.action[int(pi.image[g])])
    with pytest.raises(Incompatible):
        inflate_module(pi, trivial_module(C3, 3))


def test_inflate_along_identity_is_identity():
    space = cohom_space(C2, F2TRIV_C2)
    cls = CohomClass(space, np.array([1]))
    up = inflate(identity_cover(C2), cls)
    assert np.array_equal(up.coords, cls.coords)


def test_inflate_nonsplit_class_to_klein_four():
    # pulled back along V4 ->> C2 the order-4 extension stays nonsplit
    pi = split_cover_c2()
    space = cohom_space(C2, F2TRIV_C2)
    up = inflate(pi, CohomClass(space, np.array([1])))
    assert not up.is_zero()
    zero_up = inflate(pi, CohomClass(space, np.array([0])))
    assert zero_up.is_zero()


def test_inflate_reads_the_table_through_the_cover():
    # the inflated class is the class of (s, t) -> f(pi(s), pi(t)), built
    # entry by entry, along V4 ->> C2 and A4 ->> C3
    a4 = builtin("A4")
    v4 = next(s for s in normal_subgroups(a4) if s.order == 4)
    to_c3 = quotient(a4, v4)[1]
    for cover, module in [
        (split_cover_c2(), F2TRIV_C2),
        (to_c3, trivial_module(to_c3.target, 3)),
    ]:
        space = cohom_space(cover.target, module)
        n = cover.source.order
        for coords in np.eye(space.dim_p, dtype=np.int64):
            rep = space.representative(coords)
            up = inflate(cover, CohomClass(space, coords))
            table = np.zeros((n, n, module.dim), dtype=np.int64)
            for s in range(n):
                for t in range(n):
                    table[s, t] = rep.table[cover.image[s], cover.image[t]]
            want = up.space.class_of(TwoCochain(cover.source, up.space.module, table))
            assert np.array_equal(up.coords, want.coords)


def test_inflation_is_additive():
    space = cohom_space(V4, f2_trivial(V4))
    pi = identity_cover(V4)
    for a_idx in range(4):
        for b_idx in range(4):
            a = CohomClass(space, np.array([a_idx & 1, a_idx >> 1, 0]))
            b = CohomClass(space, np.array([b_idx & 1, b_idx >> 1, 0]))
            both = CohomClass(space, (a.coords + b.coords) % 2)
            assert np.array_equal(
                inflate(pi, both).coords,
                (inflate(pi, a).coords + inflate(pi, b).coords) % 2,
            )


# ---------------------------------------------------------------------------
# the dual pair of a cover


def test_pair_of_nonsplit_order_four():
    pi = nonsplit_cover_c2()
    pair = x2(pi, F2TRIV_C2)
    assert oracles.dual_f_dim(hom_space(module_from_cover(pi, pi.kernel()), F2TRIV_C2)) == 1
    assert oracles.pair_f_rank(pair) == 1
    assert pair.f_nullity == 0
    assert pair.s_matrix.shape == (1, 1)
    assert pair.s_matrix[0, 0] == 1


def test_pair_of_split_order_four():
    pi = split_cover_c2()
    pair = x2(pi, F2TRIV_C2)
    assert oracles.dual_f_dim(hom_space(module_from_cover(pi, pi.kernel()), F2TRIV_C2)) == 1
    assert oracles.pair_f_rank(pair) == 0
    assert pair.f_nullity == 1
    assert not pair.s_matrix.any()


def test_pair_of_mixed_fiber_product():
    eta0, eta1 = split_cover_c2(), nonsplit_cover_c2()
    fp = fiber_product(eta0.target, [eta0, eta1])
    pi = fp.structure_map
    pair = x2(pi, F2TRIV_C2)
    assert oracles.dual_f_dim(hom_space(module_from_cover(pi, pi.kernel()), F2TRIV_C2)) == 2
    assert oracles.pair_f_rank(pair) == 1
    assert pair.f_nullity == 1


def test_pair_requires_generated_kernel():
    with pytest.raises(NotAGenerated):
        x2(sign_cover(), trivial_module(C2, 3))


def test_pair_builds_the_kernel_module_once(monkeypatch):
    import covercalc.gmodules as gm

    def make():
        eta0, eta1 = split_cover_c2(), nonsplit_cover_c2()
        return fiber_product(eta0.target, [eta0, eta1, eta1]).structure_map

    want = x2(make(), F2TRIV_C2)  # an equal cover, with a memo of its own
    pi = make()
    calls = []
    for name in ("kernel_coordinates", "_hom_basis"):
        real = getattr(gm, name)
        monkeypatch.setattr(
            gm, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    pair = x2(pi, F2TRIV_C2)
    assert sorted(calls) == ["_hom_basis", "kernel_coordinates"]
    assert np.array_equal(pair.s_matrix, want.s_matrix)
    # a repeat call reads the kernel module off the cover's memo
    calls.clear()
    again = x2(pi, F2TRIV_C2)
    assert calls == ["_hom_basis"]
    assert np.array_equal(again.s_matrix, want.s_matrix)


def test_pair_image_rows_lie_in_h2():
    eta1 = nonsplit_cover_c2()
    pair = x2(eta1, F2TRIV_C2)
    rows = pair.image_rows()
    assert rows.shape == (1, 1)


# ---------------------------------------------------------------------------
# realizing prescribed values and the regeneration round trip


def test_realize_empty_family_is_identity():
    assert oracles.same_map(y2(C2, F2TRIV_C2, []), identity_cover(C2))


def test_realize_single_nonzero_class():
    space = cohom_space(C2, F2TRIV_C2)
    pi = y2(C2, F2TRIV_C2, [CohomClass(space, np.array([1]))])
    assert find_isomorphism_over(pi, nonsplit_cover_c2()) is not None


def test_realize_zero_and_nonzero_pair():
    space = cohom_space(C2, F2TRIV_C2)
    zero = CohomClass(space, np.array([0]))
    one = CohomClass(space, np.array([1]))
    pi = y2(C2, F2TRIV_C2, [zero, one])
    eta0, eta1 = split_cover_c2(), nonsplit_cover_c2()
    want = fiber_product(eta0.target, [eta0, eta1]).structure_map
    assert find_isomorphism_over(pi, want) is not None


def test_pair_of_realization_recovers_values():
    # x2(y2(values)) reproduces the prescribed classes: S sends the i-th
    # coordinate projection to values[i]
    space = cohom_space(C2, F2TRIV_C2)
    cases = [
        [np.array([1])],
        [np.array([0]), np.array([1])],
        [np.array([1]), np.array([1])],
    ]
    for coord_list in cases:
        values = [CohomClass(space, c) for c in coord_list]
        pi = y2(C2, F2TRIV_C2, values)
        pair = x2(pi, F2TRIV_C2)
        dual = hom_space(module_from_cover(pi, pi.kernel()), F2TRIV_C2)
        assert oracles.dual_f_dim(dual) == len(values)
        # the image of S is spanned by the prescribed classes
        want = np.array([v.coords for v in values]) % 2
        got = pair.image_rows()
        from covercalc.linalg import rank_mod_p

        stacked = np.vstack([got, want]) if got.size else want
        assert rank_mod_p(stacked, 2) == rank_mod_p(want, 2)
        assert oracles.pair_f_rank(pair) == rank_mod_p(want, 2)


# ---------------------------------------------------------------------------
# duality meets inflation


def test_inflation_commutes_with_the_pairing():
    # inflating a cover's pair along an extra cover of the base matches
    # first inflating each pushed cocycle
    eta1 = nonsplit_cover_c2()
    v4_to_c2 = split_cover_c2()
    target = F2TRIV_C2
    pair = x2(eta1, target)
    up_target = inflate_module(v4_to_c2, target)
    up_space = cohom_space(v4_to_c2.source, up_target)
    raw = cover_cochain(eta1)
    for phi in hom_space(module_from_cover(eta1, eta1.kernel()), target).fp_basis:
        pushed = push_cochain(raw, phi, target)
        cls = pair.space.class_of(pushed)
        inflated = inflate(v4_to_c2, cls)
        # inflate then classify == classify then inflate
        n = v4_to_c2.source.order
        table = np.zeros((n, n, target.dim), dtype=np.int64)
        for s in range(n):
            for t in range(n):
                table[s, t] = pushed.table[
                    int(v4_to_c2.image[s]), int(v4_to_c2.image[t])
                ]
        direct = up_space.class_of(TwoCochain(v4_to_c2.source, up_target, table))
        assert are_congruent(inflated, direct)
