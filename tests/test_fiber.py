"""Fiber products of covers: structure, numbering, presentation tests,
compactness, and splitting normal subgroups of the kernel along the axes."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

import oracles
from oracles import (
    NotInsideKernel,
    axis_kernels,
    is_fiber_presentation,
    kernel_normal_decomposition,
)
from catalog import (
    alt4,
    alt5,
    dihedral4,
    generated_subgroup,
    nonsplit_cover_c2,
    nonsplit_cover_c3,
    normal_subgroups,
    quaternion8,
    relabel_cover,
    sign_cover,
    sl2_5,
    split_cover_c2,
    split_cover_c3,
    sym3,
)
from covercalc import (
    BuildLimits,
    Cover,
    GModule,
    Subgroup,
    cohom_space,
    compose,
    cyclic_group,
    extension_from_cocycle,
    fiber_product,
    identity_cover,
    is_compact_cartesian,
    is_compact_fiber_product,
    is_indecomposable,
    make_square,
    quotient,
    terminal_cover,
    trivial_group,
    trivial_module,
)
from covercalc.errors import (
    EmptyFactorList,
    Incompatible,
    NotNormal,
    OrderCapExceeded,
    TargetMismatch,
)
from covercalc.groups import _product_set, same_group

ETA0 = split_cover_c2()
ETA1 = nonsplit_cover_c2()
C2 = ETA0.target


def product_set(group, subgroups):
    return set(_product_set(group, [s.elements for s in subgroups]).tolist())


def make_fprod(factors):
    return fiber_product(factors[0].target, factors)


def carrier_coords(fp):
    """The coordinate tuple of every carrier row, read off the projections."""
    return list(zip(*(p.image.tolist() for p in fp.projections)))


def lex_index(factors):
    """Row of each coordinate tuple agreeing over the base, numbering them
    lexicographically."""
    tuples = (
        t
        for t in itertools.product(*(range(c.source.order) for c in factors))
        if len({int(c.image[h]) for c, h in zip(factors, t)}) == 1
    )
    return {t: i for i, t in enumerate(tuples)}


ALL_COMBOS = [
    list(combo)
    for r in (1, 2, 3)
    for combo in itertools.combinations_with_replacement([ETA0, ETA1], r)
]


# ---------------------------------------------------------------------------
# structural invariants


@pytest.mark.parametrize("combo", ALL_COMBOS)
def test_carrier_and_projections(combo):
    fp = make_fprod(combo)
    expected = 1
    for c in combo:
        expected *= c.source.order
    expected //= C2.order ** (len(combo) - 1)
    assert fp.carrier.order == expected
    assert fp.arity == len(combo)
    coords = carrier_coords(fp)
    assert len(set(coords)) == fp.carrier.order
    for i, cov in enumerate(combo):
        proj = fp.projections[i]
        assert proj.is_surjective()
        assert same_group(proj.target, cov.source)
        # factor o projection recovers the structure map
        assert oracles.same_map(compose(cov, proj), fp.structure_map)
    # every row's coordinates are coherent over the base
    for t in coords:
        images = {int(combo[i].image[t[i]]) for i in range(len(combo))}
        assert len(images) == 1
    # the carrier table and numbering match the tuple-by-tuple pullback
    table, carrier = oracles.fiber_table(
        [c.source.mul.tolist() for c in combo], [c.image.tolist() for c in combo]
    )
    assert coords == carrier
    assert fp.carrier.mul.tolist() == [list(row) for row in table]


SIGN = sign_cover()
NAMED = {
    "eta0": ETA0,
    "eta1": ETA1,
    "sgn": SIGN,
    "split3": split_cover_c3(),
    "nonsplit3": nonsplit_cover_c3(),
}
NUMBERED = [
    list(names)
    for pool in (("eta0", "eta1", "sgn"), ("split3", "nonsplit3"))
    for r in (1, 2, 3)
    for names in itertools.combinations_with_replacement(pool, r)
]
RELABELED = [
    ["sgn", "eta1", "eta0"],
    ["eta1", "sgn"],
    ["sgn", "sgn"],
    ["nonsplit3", "split3", "nonsplit3"],
]


def relabeled(names, seed):
    rng = random.Random(seed)
    return [relabel_cover(NAMED[n], rng) for n in names]


@pytest.mark.parametrize(
    "combo",
    [[NAMED[n] for n in names] for names in NUMBERED]
    + [relabeled(names, seed) for seed, names in enumerate(RELABELED)],
    ids=[",".join(names) for names in NUMBERED]
    + ["relabeled:" + ",".join(names) for names in RELABELED],
)
def test_numbering_matches_oracle(combo):
    # kernels of different orders (S3 -> C2 beside the C4 and V4 covers),
    # the order-3 pool and relabeled sources, up to three factors
    fp = make_fprod(combo)
    expected = combo[0].source.order
    for c in combo[1:]:
        expected *= c.kernel().order
    assert fp.carrier.order == expected
    table, carrier = oracles.fiber_table(
        [c.source.mul.tolist() for c in combo], [c.image.tolist() for c in combo]
    )
    coords = carrier_coords(fp)
    assert coords == carrier
    assert fp.carrier.mul.tolist() == [list(row) for row in table]
    assert fp.structure_map.image.tolist() == [int(combo[0].image[t[0]]) for t in coords]
    # the numbering depends only on the factors: every sub-family's
    # product numbers its rows lexicographically too
    for r in range(1, len(combo)):
        for subset in itertools.combinations(range(len(combo)), r):
            index = lex_index([combo[i] for i in subset])
            sub_coords = carrier_coords(make_fprod([combo[i] for i in subset]))
            assert [index[t] for t in sub_coords] == list(range(len(sub_coords)))


@pytest.mark.parametrize("combo", ALL_COMBOS)
def test_axis_kernels(combo):
    fp = make_fprod(combo)
    axes = axis_kernels(fp)
    for i, ax in enumerate(axes):
        assert ax.is_normal()
        assert ax.order == combo[i].kernel().order
        # projection i is injective on the axis, the others kill it
        imgs = {int(fp.projections[i].image[x]) for x in ax.elements}
        assert imgs == set(combo[i].kernel().elements)
        for j in range(fp.arity):
            if j != i:
                assert all(
                    int(fp.projections[j].image[x]) == 0 for x in ax.elements
                )
    # the structure kernel is the internal direct product of the axes
    ker = fp.structure_map.kernel()
    assert product_set(fp.carrier, axes) == set(ker.elements)
    sizes = 1
    for ax in axes:
        sizes *= ax.order
    assert sizes == ker.order


def element_order(group, x):
    k, acc = 1, x
    while acc != 0:
        acc = int(group.mul[acc, x])
        k += 1
    return k


def test_double_nonsplit_element_orders():
    fp = make_fprod([ETA1, ETA1])
    orders = sorted(element_order(fp.carrier, x) for x in range(fp.carrier.order))
    assert orders == [1, 2, 2, 2, 4, 4, 4, 4]


def test_empty_factor_list_gives_base():
    fp = fiber_product(C2, [])
    assert fp.arity == 0
    assert same_group(fp.carrier, C2)
    assert oracles.same_map(fp.structure_map, identity_cover(C2))


def test_target_mismatch_rejected():
    with pytest.raises(TargetMismatch):
        fiber_product(trivial_group(), [ETA0])


def test_order_cap_respected():
    with pytest.raises(OrderCapExceeded):
        fiber_product(C2, [ETA1, ETA1, ETA1], limits=BuildLimits(order_cap=8))


# ---------------------------------------------------------------------------
# recognizing fiber presentations


@pytest.mark.parametrize("combo", [c for c in ALL_COMBOS if len(c) >= 2])
def test_projections_form_presentation(combo):
    fp = make_fprod(combo)
    assert is_fiber_presentation(fp.projections, fp.structure_map)


def test_repeated_projection_is_not_a_presentation():
    fp = make_fprod([ETA1, ETA1])
    p = fp.projections[0]
    assert not is_fiber_presentation([p, p], fp.structure_map)


def test_non_product_kernel_rejected():
    # the two quotient maps of the order-4 cyclic group share a kernel,
    # so they cannot present it as a fiber product over the point
    c4 = ETA1.source
    pi = terminal_cover(c4)
    assert not is_fiber_presentation([ETA1, ETA1], pi)


def test_presentation_requires_two_covers():
    fp = make_fprod([ETA0, ETA1])
    with pytest.raises(Incompatible):
        is_fiber_presentation([fp.projections[0]], fp.structure_map)


def test_presentation_requires_nested_kernels():
    # a projection whose kernel escapes the base kernel is incompatible
    fp = make_fprod([ETA0, ETA1])
    with pytest.raises(Incompatible):
        is_fiber_presentation(
            [identity_cover(fp.carrier), fp.projections[0]], fp.projections[1]
        )


# ---------------------------------------------------------------------------
# compactness


def test_compactness_of_order_two_pairs():
    assert not is_compact_fiber_product(make_fprod([ETA1, ETA1]))
    assert is_compact_fiber_product(make_fprod([ETA0, ETA1]))
    assert not is_compact_fiber_product(make_fprod([ETA0, ETA0]))


def test_single_factor_always_compact():
    assert is_compact_fiber_product(make_fprod([ETA1]))
    assert is_compact_fiber_product(make_fprod([ETA0]))


def test_compactness_needs_factors():
    with pytest.raises(EmptyFactorList):
        is_compact_fiber_product(fiber_product(C2, []))


def test_compactness_of_order_three_pairs():
    s3 = split_cover_c3()
    n3 = nonsplit_cover_c3()
    assert is_compact_fiber_product(fiber_product(s3.target, [s3, n3]))
    assert not is_compact_fiber_product(fiber_product(n3.target, [n3, n3]))
    assert not is_compact_fiber_product(fiber_product(s3.target, [s3, s3]))


def test_mixed_characteristic_pair_is_compact():
    sign = sign_cover()
    fp = fiber_product(sign.target, [sign, ETA1])
    assert fp.carrier.order == 12
    assert is_compact_fiber_product(fp)


def terminal_product(*groups):
    return fiber_product(trivial_group(), [terminal_cover(g) for g in groups])


def swept_compact(fp) -> bool:
    """Compactness by the oracle's sweep of the whole subgroup lattice,
    which the search over minimal supplements must match."""
    table = tuple(map(tuple, fp.carrier.mul.tolist()))
    want = not oracles.has_proper_supplement(table, [p.image.tolist() for p in fp.projections])
    assert searched_compact(fp) == want
    return want


def searched_compact(fp) -> bool:
    """Compactness by the oracle's search over minimal supplements."""
    return not oracles.has_proper_supplement_by_search(fp.carrier, fp.projections)


C3_PAIRS = [
    list(c)
    for c in itertools.combinations_with_replacement([split_cover_c3(), nonsplit_cover_c3()], 2)
]

# products of order <= 64 beyond the two pools, some with decomposable factors
OTHERS = [
    make_fprod([sign_cover(), ETA1]),
    make_fprod([identity_cover(C2), ETA1]),
    terminal_product(dihedral4(), dihedral4()),
    terminal_product(quaternion8(), dihedral4()),
    terminal_product(sym3(), sym3()),
]


@pytest.mark.parametrize("combo", ALL_COMBOS)
def test_independence_route_agrees_with_exhaustive(combo):
    # the paper's criterion (all factors indecomposable) and the lattice sweep
    fp = make_fprod(combo)
    want = swept_compact(fp)
    assert oracles.compact_by_independence(fp) == want
    assert is_compact_fiber_product(fp) == want


def test_independence_route_on_order_three_pool():
    for combo in C3_PAIRS:
        fp = make_fprod(combo)
        want = swept_compact(fp)
        assert oracles.compact_by_independence(fp) == want
        assert is_compact_fiber_product(fp) == want


@pytest.mark.parametrize("second", [cyclic_group(13), alt5()], ids=["C13", "A5"])
def test_independence_route_with_alternating_factor(second):
    # A5 x C13 (order 780) is compact; A5 x A5 (order 3600, above any
    # lattice sweep) is not, its two non-abelian factors being isomorphic
    fp = terminal_product(alt5(), second)
    want = oracles.compact_by_independence(fp)
    assert want == (second.order == 13) == searched_compact(fp)
    assert is_compact_fiber_product(fp) == want


@pytest.mark.parametrize("fp", OTHERS, ids=lambda fp: fp.carrier.name)
def test_compactness_matches_supplement_sweep(fp):
    want = swept_compact(fp)
    assert is_compact_fiber_product(fp) == want
    if all(is_indecomposable(c) for c in fp.factors):
        assert oracles.compact_by_independence(fp) == want


@pytest.mark.parametrize(
    "fp",
    [make_fprod(c) for c in ALL_COMBOS + C3_PAIRS] + OTHERS,
    ids=lambda fp: fp.carrier.name,
)
def test_compactness_survives_relabeling(fp):
    rng = random.Random(fp.carrier.order)
    for _ in range(2):
        factors = [relabel_cover(cov, rng) for cov in fp.factors]
        relabeled = fiber_product(fp.base, factors)
        assert is_compact_fiber_product(relabeled) == is_compact_fiber_product(fp)


# ---------------------------------------------------------------------------
# compactness from class tables: atoms, non-fundamental factors, squares


def module_on_generators(group, p, mats) -> GModule:
    """The module on which the stored generators of ``group`` act by
    ``mats``, its matrices read along a walk of the table."""
    act = {0: np.eye(len(mats[0]), dtype=np.int64)}
    walk = [0]
    for x in walk:  # the loop sees elements appended to it
        for g, m in zip(group.generators, mats):
            y = int(group.mul[x, g])
            if y not in act:
                act[y] = act[x] @ np.asarray(m) % p
                walk.append(y)
    return GModule(group, p, [act[x] for x in range(group.order)])


@lru_cache(maxsize=None)
def atom_pool(name):
    """Indecomposable covers of S3 or A4, each the extension by a simple
    module with a given class of H^2 in F_p coordinates, zero for the
    split one. S3 (a 3-cycle, then a transposition): F3 with the sign,
    split and not; the natural plane F2², whose H^2 is 0; F2, split and
    not. A4 (a 3-cycle, then a double transposition): the F4 plane
    through A4 -> C3, split and two non-split classes that are F4-scalar
    multiples of each other; F2 and F3, split and not."""
    base, specs = {
        "S3": (sym3(), [
            ([[[1]], [[2]]], 3, [[0], [1]]),
            ([[[0, 1], [1, 1]], [[0, 1], [1, 0]]], 2, [[]]),
            ([[[1]], [[1]]], 2, [[0], [1]]),
        ]),
        "A4": (alt4(), [
            ([[[0, 1], [1, 1]], [[1, 0], [0, 1]]], 2, [[0, 0], [1, 0], [1, 1]]),
            ([[[1]], [[1]]], 2, [[0], [1]]),
            ([[[1]], [[1]]], 3, [[0], [1]]),
        ]),
    }[name]
    atoms = []
    for mats, p, classes in specs:
        space = cohom_space(base, module_on_generators(base, p, mats))
        assert space.dim_p == len(classes[0])
        for v in classes:
            rep = space.representative(np.array(v, dtype=np.int64))
            atoms.append(extension_from_cocycle(rep).cover)
    return atoms


def oracle_compact(fp) -> bool:
    """Compactness by the search over minimal supplements, and by the
    lattice sweep too where that is affordable."""
    return swept_compact(fp) if fp.carrier.order <= 100 else searched_compact(fp)


def last_factor_square(fp):
    """The cartesian square of P_k = P_(k-1) x_G H_k: top the projection
    onto H_k, left the projection onto the first k - 1 coordinates,
    bottom the structure map of P_(k-1), right H_k ->> G."""
    head = fiber_product(fp.base, fp.factors[:-1])
    row = {t: i for i, t in enumerate(zip(*(p.image.tolist() for p in head.projections)))}
    coords = zip(*(p.image.tolist() for p in fp.projections[:-1]))
    left = Cover(fp.carrier, head.carrier, np.array([row[t] for t in coords], dtype=np.int32))
    return make_square(fp.projections[-1], left, head.structure_map, fp.factors[-1])


def check_compactness(factors, rng) -> bool:
    """The product of ``factors`` and its last-factor square against the
    oracles, and again with every factor source relabeled; the oracles'
    compactness of the product."""
    fp = fiber_product(factors[0].target, factors)
    want = oracle_compact(fp)
    relabeled = fiber_product(fp.base, [relabel_cover(c, rng) for c in factors])
    assert is_compact_fiber_product(fp) == is_compact_fiber_product(relabeled) == want
    if len(factors) > 1:
        sq = last_factor_square(fp)
        want_sq = not oracles.has_proper_supplement_by_search(sq.top.source, (sq.top, sq.left))
        assert is_compact_cartesian(sq) == is_compact_cartesian(last_factor_square(relabeled)) == want_sq
        # onto P_(k-1) means onto its factors, so a compact head decides both alike
        if oracle_compact(fiber_product(fp.base, factors[:-1])):
            assert want_sq == want
    return want


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("base", ["S3", "A4"])
def test_compactness_of_atom_products(base, arity):
    # shared split quotients, shared non-split classes (also through the
    # F4 scalars), modules of two characteristics and a zero H^2. The
    # third A4 atom's class is an F4 multiple of the second's: the pairs
    # cover it, and the triples leave it out
    pool = atom_pool(base)
    if base == "A4" and arity == 3:
        pool = pool[:2] + pool[3:]
    rng = random.Random(arity)
    for combo in itertools.combinations_with_replacement(range(len(pool)), arity):
        check_compactness([pool[i] for i in combo], rng)


@pytest.mark.parametrize("arity", [2, 3])
def test_compactness_with_non_fundamental_factors(arity):
    # C4, D4 and Q8 over the point are read through their fundaments
    # C2, V4 and V4, beside fundamental and decomposable factors
    groups = {"C2": cyclic_group(2), "C3": cyclic_group(3), "C4": cyclic_group(4),
              "D4": dihedral4(), "Q8": quaternion8(), "S3": sym3()}
    rng = random.Random(arity)
    for names in itertools.combinations_with_replacement(groups, arity):
        if {"C4", "D4", "Q8"} & set(names):
            check_compactness([terminal_cover(groups[n]) for n in names], rng)


@pytest.mark.parametrize("order", [2, 3])
def test_compactness_with_alternating_kernels(order):
    # A5 x G ->> G has a non-abelian class of its own; beside the atoms
    # over G (and S3 ->> C2) it shares no quotient, and two of those
    # atoms may. The search oracle is fast with the A5 factor first; the
    # product's other order must give the same answer
    a5g = terminal_product(alt5(), cyclic_group(order)).projections[1]
    rng = random.Random(5)
    others = {
        2: [ETA0, ETA1, sign_cover()],
        3: [split_cover_c3(), nonsplit_cover_c3()],
    }[order]
    for r in (1, 2):
        for combo in itertools.combinations_with_replacement(others, r):
            want = check_compactness([a5g, *combo], rng)
            assert is_compact_fiber_product(make_fprod([*combo, a5g])) == want


def test_compactness_past_the_cochain_cap():
    # over A5, H^2 with a 1-dim module is past the cochain cap, so a module
    # class two factors have is decided by matching quotient covers: the
    # split A5 x C2 and the non-split SL(2,5) both have the class of F2
    # (and share no quotient), and A5 x C3 has F3 alone
    sl = sl2_5()
    centre = Subgroup(sl, (0, int(np.flatnonzero(sl.element_orders() == 2)[0])))
    nonsplit = quotient(sl, centre)[1]
    base = nonsplit.target
    with pytest.raises(OrderCapExceeded):
        cohom_space(base, trivial_module(base, 2))
    split2, split3 = (terminal_product(base, cyclic_group(n)).projections[0] for n in (2, 3))
    rng = random.Random(7)
    answers = set()
    for r in (2, 3):
        for combo in itertools.combinations_with_replacement([split2, nonsplit, split3], r):
            answers.add(check_compactness(list(combo), rng))
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# splitting normal subgroups of the kernel along the axes


def decomposition_pieces(fp, decomp):
    pieces = [axis_kernels(fp)[i] for i in decomp.swallowed_nonabelian]
    pieces += [b.component for b in decomp.abelian_blocks]
    return pieces


@pytest.mark.parametrize("combo", ALL_COMBOS)
def test_every_normal_inside_kernel_decomposes(combo):
    fp = make_fprod(combo)
    ker = fp.structure_map.kernel()
    for sub in normal_subgroups(fp.carrier, ker):
        decomp = kernel_normal_decomposition(fp, sub)
        pieces = decomposition_pieces(fp, decomp)
        size = 1
        for p in pieces:
            size *= p.order
        assert size == sub.order
        assert product_set(fp.carrier, pieces) == set(sub.elements)


def test_nonabelian_axis_decomposition():
    one = trivial_group()
    t_a5 = terminal_cover(alt5())
    fp = fiber_product(one, [t_a5])
    ker = fp.structure_map.kernel()
    subs = normal_subgroups(fp.carrier, ker)
    assert sorted(s.order for s in subs) == [1, 60]
    for sub in subs:
        decomp = kernel_normal_decomposition(fp, sub)
        assert decomp.nonabelian_indices == (0,)
        assert decomp.abelian_blocks == ()
        want = (0,) if sub.order == 60 else ()
        assert decomp.swallowed_nonabelian == want


def test_mixed_block_decomposition():
    sign = sign_cover()
    fp = fiber_product(sign.target, [sign, ETA1])
    ker = fp.structure_map.kernel()
    assert ker.order == 6
    for sub in normal_subgroups(fp.carrier, ker):
        decomp = kernel_normal_decomposition(fp, sub)
        assert len(decomp.abelian_blocks) == 2  # one block per characteristic
        pieces = decomposition_pieces(fp, decomp)
        assert product_set(fp.carrier, pieces) == set(sub.elements)


def test_decomposition_validates_input():
    fp = make_fprod([ETA0, ETA1])
    whole = Subgroup(fp.carrier, tuple(range(fp.carrier.order)))
    with pytest.raises(NotInsideKernel):
        kernel_normal_decomposition(fp, whole)
    decomposable = fiber_product(C2, [identity_cover(C2), ETA1])
    with pytest.raises(Incompatible):
        kernel_normal_decomposition(
            decomposable, decomposable.structure_map.kernel()
        )


def test_decomposition_rejects_non_normal_subgroup():
    # carrier of the mixed product is dicyclic of order 12, whose cyclic
    # subgroups of order 4 are not normal; normality is checked before
    # kernel membership
    sign = sign_cover()
    fp = fiber_product(sign.target, [sign, ETA1])
    cyclics = (generated_subgroup(fp.carrier, [x]) for x in range(fp.carrier.order))
    bad = next(s for s in cyclics if not s.is_normal())
    with pytest.raises(NotNormal):
        kernel_normal_decomposition(fp, bad)
