"""Fundament kernels and series, classification invariants of fundamental
covers, and the decision procedures built on them.

The headline agreements: the domination and isomorphism decisions (which
compare classification invariants) must coincide with explicit
backtracking searches for an epimorphism / isomorphism over the base, on
every ordered pair from two pools of fiber-product covers — ten covers
over the order-2 base assembled from the split and non-split order-4
extensions, and ten over the order-3 base from the order-9 extensions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import types
from itertools import product

import numpy as np
import pytest

import oracles
from oracles import NotFundamentalStage, axis_kernels, is_fundament_of, is_fundament_series
from catalog import (
    SMALL_GROUPS,
    alt5,
    cover_pool,
    f2_trivial,
    f4_over_c3,
    generated_subgroup,
    nonsplit_cover_c2,
    nonsplit_cover_c3,
    normal_subgroups,
    relabel,
    relabel_cover,
    sign_cover,
    sl2_5,
    split_cover_c2,
    split_cover_c3,
    sym5,
)
from covercalc import (
    CohomClass,
    Cover,
    FiniteGroup,
    GModule,
    Subgroup,
    build_group,
    cohom_space,
    compose,
    cyclic_group,
    decompose_fundamental,
    dominates,
    exists_semicartesian_lift,
    extension_from_cocycle,
    fiber_product,
    find_epimorphism_over,
    find_isomorphism_over,
    fundament_kernel,
    fundament_series,
    identity_cover,
    invariants,
    is_fundamental,
    is_indecomposable,
    quotient,
    isomorphic_fundamental,
    terminal_cover,
    trivial_group,
    trivial_module,
)
from covercalc.errors import (
    BaseMismatch,
    Incompatible,
    NotFundamental,
)
from covercalc import gmodules as gm
from covercalc import groups as groups_module
from covercalc.cli import Workspace, run_command
import covercalc.fundament as fu
from covercalc.fundament import _cover_class, _quotient_over, fundament
from covercalc.cohomology import cover_cochain, x2
from covercalc.gmodules import is_simple_module
from covercalc.groups import closure_of, maximal_normal_in

ETA0 = split_cover_c2()
ETA1 = nonsplit_cover_c2()
C2 = ETA0.target

POOL_C2 = cover_pool(ETA0, ETA1, max_factors=3)
POOL_C3 = cover_pool(split_cover_c3(), nonsplit_cover_c3(), max_factors=3)
POOL_C2_4 = cover_pool(ETA0, ETA1, max_factors=4)
# 28 covers, carriers up to order 128
POOL_C2_6 = cover_pool(ETA0, ETA1, max_factors=6)


def power_cover(eta, k):
    """The fiber product of k copies of a cover (k = 0: the identity)."""
    return fiber_product(eta.target, [eta] * k).structure_map


# ---------------------------------------------------------------------------
# fundament kernels and series sizes


def test_covercalc_fundament_is_the_module():
    # the package re-exports no function under its submodule's name
    import covercalc.fundament as fd

    assert isinstance(fd, types.ModuleType)
    assert fd.fundament is fundament


SERIES_SIZES = {
    "C4": [4, 2, 1],
    "S3": [6, 3, 1],
    "V4": [4, 1],
    "Q8": [8, 2, 1],
    "D4": [8, 2, 1],
    "A4": [12, 4, 1],
    "S4": [24, 12, 4, 1],
    "C9": [9, 3, 1],
    "C3xC3": [9, 1],
}


@pytest.mark.parametrize("name,sizes", sorted(SERIES_SIZES.items()))
def test_series_kernel_sizes(name, sizes):
    pi = terminal_cover(SMALL_GROUPS[name]())
    series = fundament_series(pi)
    assert [k.order for k in series.kernels] == sizes


def test_series_kernel_sizes_a5():
    assert [
        k.order for k in fundament_series(terminal_cover(alt5())).kernels
    ] == [60, 1]


def test_series_first_stage_of_s3_is_the_three_cycles():
    s3 = SMALL_GROUPS["S3"]()
    series = fundament_series(terminal_cover(s3))
    assert series.kernels[1] == generated_subgroup(s3, [1])


@pytest.mark.parametrize("name", sorted(SERIES_SIZES))
def test_series_structure(name):
    pi = terminal_cover(SMALL_GROUPS[name]())
    series = fundament_series(pi)
    kernels, stages = series.kernels, series.stage_covers
    assert len(stages) == len(kernels) - 1
    assert kernels[-1].is_trivial()
    for bigger, smaller in zip(kernels, kernels[1:]):
        assert oracles.is_subgroup_of(smaller, bigger)
        assert smaller.order < bigger.order
    for cov in stages:
        assert is_fundamental(cov)
    # composing the chain from the source end reproduces the cover
    total = identity_cover(pi.source)
    for cov in reversed(stages):
        total = compose(cov, total)
    assert oracles.same_map(total, pi)
    if stages:
        assert is_fundament_series(stages)


def test_fundament_kernel_examples():
    c4 = SMALL_GROUPS["C4"]()
    assert fundament_kernel(terminal_cover(c4)) == Subgroup(c4, (0, 2))
    v4 = SMALL_GROUPS["V4"]()
    assert fundament_kernel(terminal_cover(v4)).is_trivial()
    a4 = SMALL_GROUPS["A4"]()
    assert fundament_kernel(terminal_cover(a4)).order == 4
    assert fundament_kernel(terminal_cover(alt5())).is_trivial()
    # trivial kernel: the family of maximal normals is empty
    assert fundament_kernel(identity_cover(c4)).is_trivial()


def test_fundament_kernel_is_memoized_on_the_cover():
    pi = terminal_cover(SMALL_GROUPS["A4"]())
    assert fundament_kernel(pi) is fundament_kernel(pi)
    assert fundament_kernel(pi).order == 4
    pi = POOL_C3[-1]
    assert fundament_kernel(pi) is fundament_kernel(pi)
    assert fundament_kernel(pi).is_trivial()


def _lattice_route_is_off(monkeypatch):
    """Make the normal closure of conjugacy classes raise, so that a test
    shows what closes no class."""

    def refuse(*args):
        raise AssertionError("a conjugacy class was closed")

    monkeypatch.setattr(groups_module, "_class_closures", refuse)


def _check_maximals(group, bound, table):
    """``maximal_normal_in`` and the fundament kernel under ``bound``
    against the oracles, in (order, elements) order."""
    got = [s.elements for s in maximal_normal_in(group, bound)]
    want = oracles.maximal_normal_inside(table, frozenset(bound.elements))
    assert got == sorted((tuple(sorted(s)) for s in want), key=lambda e: (len(e), e))
    pi = quotient(group, bound)[1]
    assert set(fundament_kernel(pi).elements) == oracles.fundament_kernel_set(
        table, frozenset(bound.elements)
    )


def _direct_product(*groups):
    return fiber_product(trivial_group(), [terminal_cover(g) for g in groups]).carrier


NONSOLVABLE = {
    "A5": alt5,
    "S5": sym5,
    "SL(2,5)": sl2_5,
    "A5xC2": lambda: _direct_product(alt5(), SMALL_GROUPS["C2"]()),
    "S5xC2": lambda: _direct_product(sym5(), SMALL_GROUPS["C2"]()),
    "A5xS3": lambda: _direct_product(alt5(), SMALL_GROUPS["S3"]()),
}


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS) + list(NONSOLVABLE))
def test_maximal_normal_in_every_bound_matches_oracle(name):
    group = NONSOLVABLE[name]() if name in NONSOLVABLE else SMALL_GROUPS[name]()
    rng = random.Random(len(name))
    for g in (group, relabel(group, rng)):
        table = tuple(tuple(row) for row in g.mul.tolist())
        for bound in normal_subgroups(g):
            _check_maximals(g, bound, table)


def test_maximal_normal_in_pool_kernels_match_oracle(monkeypatch):
    # every pool kernel is solvable: none of them reaches the lattice
    _lattice_route_is_off(monkeypatch)
    pools = cover_pool(ETA0, ETA1, max_factors=4) + cover_pool(
        split_cover_c3(), nonsplit_cover_c3(), max_factors=4
    )
    assert max(pi.source.order for pi in pools) == 243
    rng = random.Random(11)
    for pi in pools:
        for cov in (pi, relabel_cover(pi, rng)):
            table = tuple(tuple(row) for row in cov.source.mul.tolist())
            _check_maximals(cov.source, cov.kernel(), table)


@pytest.mark.parametrize(
    "factors",
    ["C3xC9", "C9xC3", "C4xC4", "C2xC8", "C4xC2xC2", "D4xC2", "Q8xC2"],
)
def test_maximal_normal_in_matches_oracle_on_relabeled_products(factors):
    # M_p's basis is the generators at the free columns of the RREF basis
    # of Hom(K, F_p), each row's last nonzero entry; relabelings with no
    # stored generators move the walk's generators and their columns
    parts = [cyclic_group(8) if n == "C8" else SMALL_GROUPS[n]() for n in factors.split("x")]
    group = _direct_product(*parts)
    rng = random.Random(factors)
    for _ in range(20):
        g = relabel(group, rng, keep_generators=False)
        table = tuple(tuple(row) for row in g.mul.tolist())
        for bound in normal_subgroups(g):
            _check_maximals(g, bound, table)


def test_decisions_and_series_do_not_build_the_lattice(monkeypatch):
    _lattice_route_is_off(monkeypatch)
    pools = [
        cover_pool(split_cover_c2(), nonsplit_cover_c2()),
        cover_pool(split_cover_c3(), nonsplit_cover_c3()),
    ]
    for pool in pools:
        for tau, tau_prime in product(pool, repeat=2):
            assert dominates(tau_prime, tau) == (
                find_epimorphism_over(tau, tau_prime) is not None
            )
            assert isomorphic_fundamental(tau, tau_prime) == (
                find_isomorphism_over(tau, tau_prime) is not None
            )
    _, doc = run_command(Workspace(), "series", ["C64->1"])
    assert doc["sizes"] == [64, 32, 16, 8, 4, 2, 1]
    # a kernel that is not solvable closes only classes of its perfect
    # residual: the A5 axis of A5 x C2^5
    monkeypatch.undo()
    closures, closed = groups_module._class_closures, []

    def record(group, elements):
        closed.append(set(elements))
        return closures(group, elements)

    monkeypatch.setattr(groups_module, "_class_closures", record)
    fp = fiber_product(trivial_group(), [terminal_cover(alt5())] + [terminal_cover(C2)] * 5)
    assert fundament_kernel(fp.structure_map).is_trivial()
    assert closed and all(s <= set(axis_kernels(fp)[0].elements) for s in closed)


def test_accept_nonsolvable_kernel_with_abelian_part():
    # the abelian tops of A5 x C2^5 come from M_2, the A5 top from a chief
    # series of A5; the text lines and the JSON digest were recorded from
    # the normal-subgroup lattice, which took 7.6 s and 8.5 s for them in
    # process (shared 2-core host)
    cover = "fprod(A5->1,C2->1,C2->1,C2->1,C2->1,C2->1)"
    want = {
        "fundament": (
            [
                "kernel size: 1920",
                "fundament kernel size: 1",
                "fundamental quotient order: 1920",
                "already fundamental: true",
            ],
            "990db319c6d0406811f22c14320fb3f6067d0691f9482845a085fed502cefbc0",
        ),
        "invariants": (
            [
                "base: 1",
                "non-abelian classes: 1",
                "  class 1: quotient order 60, mult 1",
                "abelian classes: 1",
                "  class 1: module dim 1 over F2, endo field order 2, supp rank 0, mult 5",
                "empty: false",
            ],
            "b1deb5fa1f69d0d7a6c69ea2be59e164d24a16603a23afca21d9b1400d83e1ed",
        ),
    }
    for command, (lines, digest) in want.items():
        t0 = time.perf_counter()
        got, doc = run_command(Workspace(), command, [cover])
        elapsed = time.perf_counter() - t0
        body = json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)
        assert got == lines
        assert hashlib.sha256(body.encode()).hexdigest() == digest
        assert elapsed < 3.0, (command, elapsed)


def test_fundament_splits_off():
    pi = terminal_cover(SMALL_GROUPS["C4"]())
    pi_bar, rho = fundament(pi)
    assert is_fundamental(pi_bar)
    assert oracles.same_map(compose(pi_bar, rho), pi)
    assert rho.kernel() == fundament_kernel(pi)
    # fundamental input: rho is a relabeling isomorphism
    pi_bar2, rho2 = fundament(ETA1)
    assert rho2.is_isomorphism()
    assert oracles.same_map(compose(pi_bar2, rho2), ETA1)


@pytest.mark.parametrize("pi", POOL_C2 + POOL_C3)
def test_pool_members_are_fundamental(pi):
    assert is_fundamental(pi)


# ---------------------------------------------------------------------------
# the multiplicity/support table for powers of one cover


def test_power_table_of_split_cover():
    # kappa split copies: multiplicity kappa, empty support
    for kappa in range(4):
        pi = power_cover(ETA0, kappa)
        inv = invariants(pi)
        assert not inv.na_classes
        if kappa == 0:
            assert inv.is_empty()
            continue
        (cls,) = inv.ab_classes
        assert cls.mult == kappa
        assert cls.supp.shape[0] == 0


def test_power_table_of_nonsplit_cover():
    # kappa non-split copies: multiplicity kappa - 1, support the span of
    # the cover's own class (the full one-dimensional cohomology space)
    space = cohom_space(C2, f2_trivial(C2))
    assert space.dim_p == 1
    for kappa in range(4):
        pi = power_cover(ETA1, kappa)
        inv = invariants(pi)
        assert not inv.na_classes
        if kappa == 0:
            assert inv.is_empty()
            continue
        (cls,) = inv.ab_classes
        assert cls.mult == kappa - 1
        assert np.array_equal(cls.supp, np.array([[1]]))


def test_mixed_power_invariants():
    pi = fiber_product(C2, [ETA0, ETA1]).structure_map
    inv = invariants(pi)
    (cls,) = inv.ab_classes
    assert cls.mult == 1
    assert np.array_equal(cls.supp, np.array([[1]]))


def test_invariants_of_identity_are_empty():
    assert invariants(identity_cover(C2)).is_empty()
    assert invariants(identity_cover(trivial_group())).is_empty()


def test_invariants_with_nonabelian_class():
    one = trivial_group()
    t_a5 = terminal_cover(alt5())
    t_c2 = terminal_cover(C2)
    pi = fiber_product(one, [t_a5, t_c2]).structure_map
    inv = invariants(pi)
    assert len(inv.na_classes) == 1
    assert inv.na_classes[0].mult == 1
    assert find_isomorphism_over(inv.na_classes[0].cover, t_a5) is not None
    (ab,) = inv.ab_classes
    assert ab.mult == 1  # H^2 of the point vanishes, all mass is relations
    assert ab.supp.shape[0] == 0
    # one registry entry per class: the A5 quotient and the F2 module
    reps = pi.target._classes
    assert len(reps) == 2
    assert reps[_cover_class(pi.target, t_a5)] is inv.na_classes[0].cover
    assert reps[oracles.module_class(pi.target, ab.module)] is ab.module


def test_invariants_require_fundamental():
    with pytest.raises(NotFundamental):
        invariants(terminal_cover(SMALL_GROUPS["C4"]()))


def test_invariants_raise_on_every_call_for_non_fundamental():
    pi = terminal_cover(SMALL_GROUPS["C4"]())
    for _ in range(2):
        with pytest.raises(NotFundamental):
            invariants(pi)


def test_invariants_are_frozen():
    pi = power_cover(ETA1, 2)
    inv = invariants(pi)
    (ab,) = inv.ab_classes
    assert ab.supp.shape[0] == 1
    with pytest.raises(ValueError):
        ab.supp[0, 0] = 0
    with pytest.raises(ValueError):
        pi.image[0] = 0


def test_nonabelian_multiplicity_counts_copies():
    one = trivial_group()
    t_a5 = terminal_cover(alt5())
    pi = fiber_product(one, [t_a5, t_a5]).structure_map
    assert is_fundamental(pi)
    inv = invariants(pi)
    assert len(inv.na_classes) == 1
    assert inv.na_classes[0].mult == 2
    assert not inv.ab_classes
    # both A5 quotients are one class, matched once: one representative
    assert pi.target._classes == [inv.na_classes[0].cover]


# ---------------------------------------------------------------------------
# decision procedures vs explicit searches (the big agreement matrices)


@pytest.mark.parametrize("pool", [POOL_C2, POOL_C3], ids=["base-C2", "base-C3"])
def test_domination_agrees_with_epimorphism_search(pool):
    for tau in pool:
        for tau_prime in pool:
            decided = dominates(tau_prime, tau)
            searched = find_epimorphism_over(tau, tau_prime) is not None
            assert decided == searched, (tau, tau_prime)


@pytest.mark.parametrize("pool", [POOL_C2, POOL_C3], ids=["base-C2", "base-C3"])
def test_isomorphism_agrees_with_isomorphism_search(pool):
    for tau in pool:
        for tau_prime in pool:
            decided = isomorphic_fundamental(tau, tau_prime)
            searched = find_isomorphism_over(tau, tau_prime) is not None
            assert decided == searched, (tau, tau_prime)


def test_domination_is_a_preorder_on_the_pool():
    for tau in POOL_C2:
        assert dominates(tau, tau)
    for a in POOL_C2:
        for b in POOL_C2:
            for c in POOL_C2:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_comparison_validates_inputs():
    with pytest.raises(BaseMismatch):
        dominates(ETA1, split_cover_c3())
    with pytest.raises(NotFundamental):
        dominates(terminal_cover(SMALL_GROUPS["C4"]()), terminal_cover(C2))


# ---------------------------------------------------------------------------
# the per-base class registry, against per-pair matching


def _check_transported(base, cls, module, rows):
    """A simple-module class ``cls`` of ``invariants`` over ``base`` is
    reported by a registered representative, and its support is the RREF
    of what the oracle transports ``rows`` (coordinates in
    H^2(base, module)) onto along a module isomorphism."""
    assert any(cls.module is rep for rep in base._classes)
    iso = oracles.module_iso(module, cls.module)
    assert iso is not None
    moved = oracles.transport_rows(
        rows, cohom_space(base, module), iso, cohom_space(base, cls.module)
    )
    assert np.array_equal(cls.supp, oracles.rref_mod_p(moved, module.p)[0])
    assert not cls.supp.flags.writeable


def _check_own_route(pi):
    """Every simple-module class of ``invariants(pi)`` against the
    oracle's route in the cover's own modules: the same multiplicity, and
    the own support transported onto the representative. Returns how many
    own modules have another basis than their representative."""
    classes = invariants(pi).ab_classes
    own = oracles.invariants_by_quotients(pi)
    assert len(classes) == len(own)
    other_basis = 0
    for cls, (module, mult, supp) in zip(classes, own):
        assert cls.mult == mult
        _check_transported(pi.target, cls, module, supp)
        other_basis += module.structural_key() != cls.module.structural_key()
    return other_basis


@pytest.mark.parametrize(
    "pool", [POOL_C2_4, POOL_C2_6, POOL_C3], ids=["base-C2-4", "base-C2-6", "base-C3"]
)
def test_canonical_supports_match_transport_oracle(pool):
    for pi in pool:
        _check_own_route(pi)


@pytest.mark.parametrize(
    "pool", [POOL_C2_4, POOL_C2_6, POOL_C3], ids=["base-C2-4", "base-C2-6", "base-C3"]
)
def test_domination_agrees_with_per_pair_matching(pool):
    for tau in pool:
        for tau_prime in pool:
            assert dominates(tau_prime, tau) == oracles.dominates_by_matching(
                tau_prime, tau
            ), (tau, tau_prime)


EQUAL_TABLE_INPUTS = {
    "base-C2": lambda: POOL_C2,
    "base-C3": lambda: POOL_C3,
    # 2-dimensional modules: copies whose own module has another basis
    # than the representative of the original base
    "a4xc2-f4-planes": lambda: f4_plane_covers()[-1],
}


@pytest.mark.parametrize(
    "make", list(EQUAL_TABLE_INPUTS.values()), ids=list(EQUAL_TABLE_INPUTS)
)
def test_equal_table_bases_take_the_same_path(make, monkeypatch):
    pool = make()
    base = FiniteGroup(pool[0].target.mul.copy(), name="copy")
    copy = [Cover(c.source, base, c.image) for c in pool]

    def one_pass():
        for i, j in product(range(len(pool)), repeat=2):
            dom = dominates(pool[j], pool[i])
            iso = isomorphic_fundamental(pool[i], pool[j])
            assert dominates(copy[j], copy[i]) == dom
            assert dominates(copy[j], pool[i]) == dominates(pool[j], copy[i]) == dom
            assert isomorphic_fundamental(copy[i], copy[j]) == iso
            assert isomorphic_fundamental(pool[i], copy[j]) == iso
            assert (find_epimorphism_over(copy[i], copy[j]) is not None) == dom
            assert (find_isomorphism_over(copy[i], copy[j]) is not None) == iso

    one_pass()
    assert len(base._classes) == 1
    # each cover keeps one table per base object, so switching between
    # the two bases classifies nothing again
    calls = _watch_classification(monkeypatch)
    one_pass()
    assert calls == []
    for pi, twin in zip(pool, copy):
        got, want = invariants(twin), invariants(pi)
        assert [c.mult for c in got.na_classes] == [c.mult for c in want.na_classes]
        assert [(c.mult, c.supp.tobytes()) for c in got.ab_classes] == [
            (c.mult, c.supp.tobytes()) for c in want.ab_classes
        ]


def test_decisions_do_not_depend_on_session_order():
    want = {
        (k, i, j): (
            dominates(pool[j], pool[i]),
            isomorphic_fundamental(pool[i], pool[j]),
        )
        for k, pool in enumerate((POOL_C2, POOL_C3))
        for i, j in product(range(10), repeat=2)
    }
    for seed in (1, 2):
        # fresh pools, so fresh registries filled in a seeded order
        rng = random.Random(seed)
        pools = [
            cover_pool(split_cover_c2(), nonsplit_cover_c2()),
            cover_pool(split_cover_c3(), nonsplit_cover_c3()),
        ]
        pools = [[relabel_cover(c, rng) for c in pool] for pool in pools]
        keys = list(want)
        rng.shuffle(keys)
        got = {
            (k, i, j): (
                dominates(pools[k][j], pools[k][i]),
                isomorphic_fundamental(pools[k][i], pools[k][j]),
            )
            for k, i, j in keys
        }
        assert got == want


def test_second_pass_makes_no_hom_solve(monkeypatch):
    def one_pass():
        for tau in POOL_C2:
            for tau_prime in POOL_C2:
                dominates(tau_prime, tau)
                isomorphic_fundamental(tau, tau_prime)

    one_pass()
    solves = []
    real = gm._hom_basis
    monkeypatch.setattr(gm, "_hom_basis", lambda *a: solves.append(a) or real(*a))
    one_pass()
    assert solves == []


def s3_trivial_and_sign_covers():
    """Over S3, the split extensions by F3 with trivial and with sign
    action, then their fiber products (trivial, sign), (trivial,
    trivial), (sign, sign) and (sign, trivial)."""
    sc = sign_cover()
    s3 = sc.source
    sign = GModule(s3, 3, tuple(np.array([[2 if sc.image[g] else 1]]) for g in range(6)))
    split = []
    for module in (trivial_module(s3, 3), sign):
        zero = CohomClass(cohom_space(s3, module), np.zeros(cohom_space(s3, module).dim_p))
        split.append(extension_from_cocycle(zero.representative()).cover)
    return split + [
        fiber_product(s3, [split[a], split[b]]).structure_map
        for a, b in ((0, 1), (0, 0), (1, 1), (1, 0))
    ]


def test_tops_of_one_prime_and_dimension_fall_into_their_classes():
    # over S3, F3 with trivial and with sign action: two simple classes of
    # the same prime and dimension, told apart by their action matrices
    covers = s3_trivial_and_sign_covers()
    inv = invariants(covers[2])
    assert sorted(c.mult for c in inv.ab_classes) == [1, 1]
    assert [c.mult for c in invariants(covers[3]).ab_classes] == [2]
    for tau, tau_prime in product(covers, repeat=2):
        dom = dominates(tau_prime, tau)
        assert dom == (find_epimorphism_over(tau, tau_prime) is not None)
        assert isomorphic_fundamental(tau, tau_prime) == (
            find_isomorphism_over(tau, tau_prime) is not None
        )
        assert dom == oracles.dominates_by_matching(tau_prime, tau)


def test_invariants_match_the_joint_quotient_route():
    # a class meeting in 1 reads its dual pair off the cover itself; two
    # classes (the S3 covers) still build the joint quotient
    a5_c2 = fiber_product(trivial_group(), [terminal_cover(alt5()), terminal_cover(C2)])
    covers = POOL_C2 + POOL_C3 + POOL_C2_6 + s3_trivial_and_sign_covers()
    for pi in covers + [a5_c2.structure_map]:
        _check_own_route(pi)


def fresh_pools():
    """The C2 and C3 pools over new bases, whose registries start empty."""
    return [
        cover_pool(split_cover_c2(), nonsplit_cover_c2()),
        cover_pool(split_cover_c3(), nonsplit_cover_c3()),
    ]


def test_invariants_build_a_quotient_only_for_a_new_class(monkeypatch):
    # the first cover of the one class builds its least N's quotient for
    # the representative; every later cover matches its top against that
    # representative and builds none: no joint quotient, no quotient
    # inside the maximal tops
    calls = []
    for owner in (fu, groups_module):
        real = owner.quotient
        monkeypatch.setattr(
            owner, "quotient", lambda *args, real=real: calls.append(args) or real(*args)
        )
    for pool in fresh_pools():
        base = pool[0].target
        built = []
        for pi in pool[1:]:
            before = len(calls)
            (cls,) = invariants(pi).ab_classes
            built.append(len(calls) - before)
            assert cls.module is base._classes[oracles.module_class(base, cls.module)]
        assert built == [1] + [0] * (len(pool) - 2)
        assert len(base._classes) == 1
        assert not invariants(pool[0]).ab_classes  # the identity cover


def test_first_invariants_read_each_kernel_once(monkeypatch):
    # the maximal tops read no kernel coordinates: Ker(pi) is read once,
    # by its kernel module; only the first cover of a class also reads the
    # kernel of its least N's quotient, for the class's representative,
    # and before its own
    computed = []
    real = gm.kernel_coordinates
    monkeypatch.setattr(
        gm, "kernel_coordinates", lambda sub: computed.append(sub) or real(sub)
    )
    pools = fresh_pools()
    for pool in pools:
        for k, pi in enumerate(pool[1:]):
            before = len(computed)
            assert len(invariants(pi).ab_classes) == 1
            want = [False, True] if k == 0 else [True]
            assert [sub.parent is pi.source for sub in computed[before:]] == want
            assert computed[-1].mask == pi.kernel().mask
    keys = [(id(sub.parent), sub.mask) for sub in computed]
    assert len(keys) == len(set(keys)) == sum(len(pool) for pool in pools)


def _watch_classification(monkeypatch, *more):
    """The list of calls, by name, to the steps that classify a cover in
    a base's registry, and to the ``more`` names of ``fundament``."""
    calls = []
    owners = [(fu, name) for name in ("_top_class", "_cover_class", "quotient", *more)]
    for owner, name in owners + [(fu.ch, "x2")]:
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    return calls


def test_second_pass_is_lookups(monkeypatch):
    # a warm decision reads each cover's indexed classes and each
    # containment from their memos

    def one_pass():
        return [
            (dominates(tau_prime, tau), isomorphic_fundamental(tau, tau_prime))
            for tau, tau_prime in product(POOL_C3, repeat=2)
        ]

    want = one_pass()
    calls = _watch_classification(monkeypatch, "row_space_le")
    assert one_pass() == want
    assert calls == []


def a4xc2_f4_planes():
    """A4xC2 with the F4-plane inflated along A4xC2 ->> C3, once in its
    stored basis and once in another: H^2 is 2-dimensional over F4."""
    g = build_group(
        [(1, 2, 0, 3, 4, 5), (1, 0, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)], name="A4xC2"
    )
    involutions = [x for x in range(g.order) if g.element_orders()[x] <= 2]
    _, to_c3 = quotient(g, Subgroup(g, closure_of(g, involutions)))
    plane = oracles.inflate_module(to_c3, GModule(to_c3.target, 2, f4_over_c3().action))
    t = np.array([[1, 1], [0, 1]])  # its own inverse over F2
    other = GModule(g, 2, tuple(t @ m @ t % 2 for m in plane.action))
    return g, plane, other


def extension_cover(space, coords):
    """The extension cover realizing the class ``coords`` of ``space``."""
    rep = CohomClass(space, np.array(coords)).representative()
    return extension_from_cocycle(rep).cover


def f4_plane_covers():
    """The A4xC2 F4-planes with the extension covers of four classes,
    built in the stored basis and then in the other. The stored one is
    registered first, so it is the representative of the other's covers,
    which read their supports in another basis than their own module's."""
    g, plane, other = a4xc2_f4_planes()
    assert oracles.module_class(g, plane, register=True) == 0
    assert oracles.module_class(g, other) == 0
    covers = [
        extension_cover(cohom_space(g, module), coords)
        for module in (plane, other)
        for coords in ([0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0])
    ]
    return g, plane, other, covers


def test_supports_are_carried_between_isomorphic_modules():
    # the pools' modules are 1-dimensional, so every isomorphic pair has
    # one key; here H^2 is 2-dimensional over F4, so the covers built in
    # the other basis have an own module that is not the representative,
    # and every F4-line of theirs is read in the representative's basis
    g, plane, other, covers = f4_plane_covers()
    other_basis = []
    for module in (plane, other):
        space = cohom_space(g, module)
        assert space.f_dim == 2
        for coords in product(range(2), repeat=space.dim_p):
            other_basis.append(_check_own_route(extension_cover(space, coords)))
    assert other_basis == [0] * 16 + [1] * 16
    # the lines of (1,0,0,1) and (0,1,1,0) in the other basis are those
    # of (0,1,1,0) and (1,0,0,1) in the stored one; the other lines keep
    # their coordinates
    supports = [invariants(pi).ab_classes[0].supp for pi in covers]
    for a, b in ((0, 4), (1, 5), (2, 7), (3, 6)):
        assert np.array_equal(supports[a], supports[b])
    assert not np.array_equal(supports[2], supports[3])
    for tau in covers:
        for tau_prime in covers:
            dom = dominates(tau_prime, tau)
            assert dom == (find_epimorphism_over(tau, tau_prime) is not None)
            assert dom == oracles.dominates_by_matching(tau_prime, tau)


def test_supports_are_f_subspaces_without_a_generator():
    # F is read through its degree k alone: an F_p row space of an
    # F-linear image is an F-subspace already. Checked against the
    # oracles' generator J of F4 acting on H^2, in both bases
    g, plane, other = a4xc2_f4_planes()
    scalars = {}  # module key -> the matrix of J on its H^2 coordinates

    def f_stable(module, rows):
        key = module.structural_key()
        if key not in scalars:  # h2_scalar_matrix with endo_generator
            scalars[key] = oracles.scalar_matrix(cohom_space(g, module))
        moved = rows @ scalars[key].T % 2
        rank = len(oracles.rref_mod_p(rows, 2)[1]) if len(rows) else 0
        return len(oracles.rref_mod_p(np.vstack([rows, moved]), 2)[1]) == rank

    rng = random.Random(29)
    for module in (plane, other):
        space = cohom_space(g, module)
        assert space.endo_field.k == 2
        assert space.f_dim * space.endo_field.k == space.dim_p == 4
        # the check has teeth: an F2-line is not an F4-line
        assert not f_stable(module, np.eye(4, dtype=np.int64)[:1])
        classes = [CohomClass(space, np.array(c)) for c in product(range(2), repeat=4)]
        picks = [[c] for c in classes] + [rng.sample(classes, 2) for _ in range(8)]
        for values in picks:
            pi = oracles.y2(g, module, values)
            rows = x2(pi, module).image_rows()
            assert len(rows) % 2 == 0 and f_stable(module, rows)
            for cls in invariants(pi).ab_classes:
                assert len(cls.supp) % 2 == 0 and f_stable(cls.module, cls.supp)


def test_containment_keys_decode_to_their_supports():
    # ``_bounded`` keys a containment by the class index and the bytes of
    # two canonical supports; the index fixes the column count dim_p, so
    # every key decodes into the pair of supports it was stored for
    rng = random.Random(30)
    runs = []  # (base, the covers decided over it)
    for split, nonsplit in ((split_cover_c2, nonsplit_cover_c2), (split_cover_c3, nonsplit_cover_c3)):
        pool = cover_pool(split(), nonsplit())  # fresh: an empty registry
        runs.append((pool[0].target, pool + [relabel_cover(c, rng) for c in pool]))
    g, _, _, covers = f4_plane_covers()
    runs.append((g, covers))

    def rank(rows, p):
        return len(oracles.rref_mod_p(rows, p)[1])

    answers = set()
    for base, covers in runs:
        for tau, tau_prime in product(covers, repeat=2):
            dominates(tau_prime, tau)
            isomorphic_fundamental(tau, tau_prime)
        carried = {  # every canonical support of a cover, by class index
            (i, supp.tobytes())
            for pi in covers
            for i, (_, supp) in pi._indexed[base].items()
            if supp is not None
        }
        assert base._contained
        for (index, supp, span), inside in base._contained.items():
            assert {(index, supp), (index, span)} <= carried
            rep = base._classes[index]
            dim = cohom_space(base, rep).dim_p
            a, b = (np.frombuffer(x, dtype=np.int64).reshape(-1, dim) for x in (supp, span))
            for rows in (a, b):  # canonical: each is its own RREF
                assert np.array_equal(oracles.rref_mod_p(rows, rep.p)[0], rows)
            assert inside == (rank(np.vstack([a, b]), rep.p) == rank(b, rep.p))
            answers.add(inside)
    assert answers == {True, False}


@pytest.mark.parametrize(
    "split,nonsplit,factors",
    [(split_cover_c2, nonsplit_cover_c2, 4), (split_cover_c3, nonsplit_cover_c3, 3)],
    ids=["base-C2-4", "base-C3"],
)
def test_pool_base_holds_one_representative_per_class(split, nonsplit, factors):
    # a fresh pool, so that its base registry holds only the pool's classes
    pool = cover_pool(split(), nonsplit(), max_factors=factors)
    base = pool[0].target
    for pi in pool:
        invariants(pi)
    reps = base._classes
    # pairwise non-isomorphic, and every class of the pool maps onto one
    for a, b in product(range(len(reps)), repeat=2):
        assert (oracles.module_iso(reps[a], reps[b]) is not None) == (a == b)
    modules = [cls.module for pi in pool for cls in invariants(pi).ab_classes]
    indices = [oracles.module_class(base, m) for m in modules]
    assert sorted(set(indices)) == list(range(len(reps)))
    for m, i in zip(modules, indices):
        assert oracles.module_iso(m, reps[i]) is not None
    assert len(reps) == 1  # the trivial module is the one class over C2, C3


def test_nonabelian_classes_are_matched_once_per_base(monkeypatch):
    one = trivial_group()
    t_a5, t_c2 = terminal_cover(alt5()), terminal_cover(C2)
    rng = random.Random(5)
    # relabeled carriers, so that their A5 quotients come with other tables
    covers = [
        relabel_cover(fiber_product(one, factors).structure_map, rng)
        for factors in ([t_a5], [t_a5, t_c2], [t_c2, t_a5], [t_c2])
    ]

    searches = []
    real = fu.find_isomorphism_over
    monkeypatch.setattr(
        fu, "find_isomorphism_over", lambda *a: searches.append(a) or real(*a)
    )
    for tau in covers:
        for tau_prime in covers:
            dom = dominates(tau_prime, tau)
            iso = isomorphic_fundamental(tau, tau_prime)
            assert dom == (find_epimorphism_over(tau, tau_prime) is not None)
            assert iso == (find_isomorphism_over(tau, tau_prime) is not None)
            assert dom == oracles.dominates_by_matching(tau_prime, tau)
    # A5 x C2 and C2 x A5 are isomorphic over the point, so dominate each other
    assert isomorphic_fundamental(covers[1], covers[2])
    assert dominates(covers[0], covers[1]) and not dominates(covers[1], covers[0])
    # three carriers give three A5 quotient tables: one search for each
    # after the first, which became the representative, and none per pair
    assert len(searches) == 2
    assert len(one._classes) == 2
    searches.clear()
    for tau in covers:
        for tau_prime in covers:
            dominates(tau_prime, tau)
    assert searches == []


# ---------------------------------------------------------------------------
# decomposition into indecomposable factors


@pytest.mark.parametrize("pi", POOL_C2)
def test_decomposition_reassembles_over_c2(pi):
    factors, iso = decompose_fundamental(pi)
    for f in factors:
        assert is_indecomposable(f)
    if not factors:
        assert pi.kernel().is_trivial()
        return
    fp = fiber_product(pi.target, factors)
    assert iso.is_isomorphism()
    assert np.array_equal(fp.structure_map.image[iso.image], pi.image)


def test_decompositions_close_no_class(monkeypatch):
    # is_indecomposable reads the maximal normal subgroups is_fundamental
    # memoized; it closes no conjugacy class
    _lattice_route_is_off(monkeypatch)
    for pi in POOL_C2 + POOL_C3:
        factors, _ = decompose_fundamental(pi)
        assert math.prod(f.kernel().order for f in factors) == pi.kernel().order


def _relabeling_view(pi):
    """What must not depend on the element labels of ``pi``: the series
    kernel sizes, the class data of its fundamental part, the split flag
    of its cocycle (on a simple kernel module) and the number of
    decomposition factors."""
    sizes = [k.order for k in fundament_series(pi).kernels]
    bar = pi if is_fundamental(pi) else fundament(pi)[0]
    inv = invariants(bar)
    classes = sorted(
        (c.module.dim, c.module.p, c.endo_field.order, len(c.supp), c.mult)
        for c in inv.ab_classes
    )
    split = None
    k = np.asarray(pi.kernel().elements)
    if (pi.source.mul[k[:, None], k] == pi.source.mul[k, k[:, None]]).all():
        raw = cover_cochain(pi)
        if is_simple_module(raw.module):
            split = cohom_space(pi.target, raw.module).class_of(raw).is_zero()
    return sizes, classes, split, len(decompose_fundamental(bar)[0])


RELABELED = POOL_C2 + POOL_C3 + [
    terminal_cover(SMALL_GROUPS["S4"]()),
    fiber_product(trivial_group(), [terminal_cover(alt5()), terminal_cover(C2)]).structure_map,
]


@pytest.mark.parametrize("pi", RELABELED)
def test_answers_do_not_follow_the_labels(pi):
    # the least section fibers[:, 0] follows the labels, and so does every
    # cocycle and kernel module read through it; the answers must not
    rng = random.Random(pi.source.order)
    assert _relabeling_view(relabel_cover(pi, rng)) == _relabeling_view(pi)


def test_decomposition_factor_count_matches_kernel():
    pi = power_cover(ETA1, 3)
    factors, _ = decompose_fundamental(pi)
    # kernel is elementary abelian of rank 3: one factor per rank
    assert len(factors) == 3
    split_count = sum(
        1 for f in factors if find_isomorphism_over(f, ETA0) is not None
    )
    nonsplit_count = sum(
        1 for f in factors if find_isomorphism_over(f, ETA1) is not None
    )
    assert split_count == 2 and nonsplit_count == 1


def test_decomposition_of_nonabelian_product():
    one = trivial_group()
    t_a5 = terminal_cover(alt5())
    t_c2 = terminal_cover(C2)
    pi = fiber_product(one, [t_a5, t_c2]).structure_map
    factors, iso = decompose_fundamental(pi)
    assert len(factors) == 2
    assert iso.is_isomorphism()


def test_decomposition_requires_fundamental():
    with pytest.raises(NotFundamental):
        decompose_fundamental(terminal_cover(SMALL_GROUPS["C4"]()))


# ---------------------------------------------------------------------------
# lifting along a base epimorphism, against a fiber-product search oracle


def c4_covers():
    c4 = SMALL_GROUPS["C4"]()
    space = cohom_space(c4, f2_trivial(c4))
    covers = [identity_cover(c4)]
    for coords in ([0], [1]):
        rep = CohomClass(space, np.array(coords)).representative()
        covers.append(extension_from_cocycle(rep).cover)
    return covers


def v4_covers():
    v4 = SMALL_GROUPS["V4"]()
    space = cohom_space(v4, f2_trivial(v4))
    covers = [identity_cover(v4)]
    for coords in ([0, 0, 0], [1, 0, 0], [0, 1, 0]):
        rep = CohomClass(space, np.array(coords)).representative()
        covers.append(extension_from_cocycle(rep).cover)
    return covers


def c2_pool_small():
    return [
        identity_cover(C2),
        ETA0,
        ETA1,
        fiber_product(C2, [ETA0, ETA1]).structure_map,
    ]


def point_covers():
    one = trivial_group()
    return [
        identity_cover(one),
        terminal_cover(C2),
        fiber_product(one, [terminal_cover(C2)] * 2).structure_map,
        terminal_cover(alt5()),
    ]


def a5_covers_over_c2():
    """Covers of C2 with an A5 in the kernel: the projection of C2 x A5,
    and its fiber product with eta0 (kernel A5 x C2)."""
    one = trivial_group()
    times_a5 = fiber_product(one, [terminal_cover(C2), terminal_cover(alt5())])
    with_a5 = times_a5.projections[0]
    return [identity_cover(C2), with_a5, fiber_product(C2, [with_a5, ETA0]).structure_map]


def a5_covers_of_the_point():
    one = trivial_group()
    a5 = terminal_cover(alt5())
    return [
        identity_cover(one),
        a5,
        terminal_cover(C2),
        fiber_product(one, [a5, terminal_cover(C2)]).structure_map,
    ]


def lift_oracle(pi, tau, tau_prime):
    """Search directly: a semi-cartesian lift exists iff the source of tau
    surjects over pi.source onto the fiber product of pi and tau_prime."""
    fp = fiber_product(pi.target, [pi, tau_prime])
    return find_epimorphism_over(tau, fp.projections[0]) is not None


LIFT_SETTINGS = [
    ("through-nonsplit", lambda: (ETA1, c4_covers(), c2_pool_small())),
    ("through-split", lambda: (ETA0, v4_covers(), c2_pool_small())),
    ("to-the-point", lambda: (terminal_cover(C2), c2_pool_small(), point_covers())),
    ("along-identity", lambda: (identity_cover(C2), c2_pool_small(), c2_pool_small())),
    (
        "non-abelian",
        lambda: (terminal_cover(C2), a5_covers_over_c2(), a5_covers_of_the_point()),
    ),
]


@pytest.mark.parametrize(
    "make", [m for _, m in LIFT_SETTINGS], ids=[i for i, _ in LIFT_SETTINGS]
)
def test_lift_decision_agrees_with_search(make):
    pi, taus, tau_primes = make()
    for tau in taus:
        for tau_prime in tau_primes:
            decided = exists_semicartesian_lift(pi, tau, tau_prime)
            searched = lift_oracle(pi, tau, tau_prime)
            assert decided == searched, (tau, tau_prime)


@pytest.mark.parametrize(
    "make", [m for _, m in LIFT_SETTINGS], ids=[i for i, _ in LIFT_SETTINGS]
)
def test_lift_agrees_with_per_pair_matching(make):
    pi, taus, tau_primes = make()
    for tau in taus:
        for tau_prime in tau_primes:
            assert exists_semicartesian_lift(
                pi, tau, tau_prime
            ) == oracles.lift_by_matching(pi, tau, tau_prime), (tau, tau_prime)
    # the pullback's classes are the inflated classes of tau_prime, with
    # their inflated supports read in the representatives over pi.source
    for tau_prime in tau_primes:
        pullback = fiber_product(pi.target, [pi, tau_prime]).projections[0]
        classes = invariants(pullback).ab_classes
        for cls in invariants(tau_prime).ab_classes:
            module_up, rows = oracles.lifted_support(pi, cls)
            (up,) = [c for c in classes if oracles.module_iso(module_up, c.module) is not None]
            _check_transported(pi.source, up, module_up, rows)


def _relabeled_setting(pi, taus, tau_primes, rng):
    """The setting on relabeled copies: B = ``pi.source`` is relabeled
    once and serves as both the source of pi and the target of every tau,
    whose images follow the renaming; every source of tau and tau' is
    relabeled too."""
    big = pi.source
    sigma = np.array([0] + rng.sample(range(1, big.order), big.order - 1))
    twin = relabel(big, rng, sigma=sigma)
    image = np.empty_like(pi.image)
    image[sigma] = pi.image
    moved = [relabel_cover(tau, rng) for tau in taus]
    return (
        Cover(twin, pi.target, image),
        [Cover(tau.source, twin, sigma[tau.image]) for tau in moved],
        [relabel_cover(tau_prime, rng) for tau_prime in tau_primes],
    )


@pytest.mark.parametrize(
    "make", [m for _, m in LIFT_SETTINGS], ids=[i for i, _ in LIFT_SETTINGS]
)
def test_lift_decision_survives_relabeling(make):
    pi, taus, tau_primes = make()
    for seed in (1, 2):
        twin, twin_taus, twin_primes = _relabeled_setting(
            pi, taus, tau_primes, random.Random(seed)
        )
        for tau, twin_tau in zip(taus, twin_taus):
            for tau_prime, twin_prime in zip(tau_primes, twin_primes):
                decided = exists_semicartesian_lift(twin, twin_tau, twin_prime)
                assert decided == exists_semicartesian_lift(pi, tau, tau_prime)
                assert decided == lift_oracle(twin, twin_tau, twin_prime)
                assert decided == oracles.lift_by_matching(twin, twin_tau, twin_prime)


def _nonfund_over_c2():
    """An order-8 cyclic tower over C2: the kernel is cyclic of order 4,
    whose unique maximal normal subgroup is not trivial, so the cover is
    not fundamental."""
    c4 = SMALL_GROUPS["C4"]()
    _, to_c2 = quotient(c4, Subgroup(c4, (0, 2)))
    space = cohom_space(c4, f2_trivial(c4))
    c8_over_c4 = extension_from_cocycle(
        CohomClass(space, np.array([1])).representative()
    ).cover
    return compose(to_c2, c8_over_c4)


def test_lift_validates_inputs():
    with pytest.raises(BaseMismatch):
        exists_semicartesian_lift(ETA1, ETA0, identity_cover(C2))
    with pytest.raises(BaseMismatch):
        exists_semicartesian_lift(
            ETA1, identity_cover(ETA1.source), terminal_cover(C2)
        )
    with pytest.raises(NotFundamental):
        exists_semicartesian_lift(
            terminal_cover(C2),
            _nonfund_over_c2(),
            identity_cover(trivial_group()),
        )


# ---------------------------------------------------------------------------
# recognizing fundaments and fundament series


def test_is_fundament_of_accepts_the_real_fundament():
    pi = terminal_cover(SMALL_GROUPS["C4"]())
    pi_bar, rho = fundament(pi)
    assert is_fundament_of(rho, pi_bar)


def test_is_fundament_of_identity_on_fundamental_cover():
    assert is_fundament_of(identity_cover(ETA1.source), ETA1)


def test_is_fundament_of_rejects_overshoot():
    # quotienting all the way to the base leaves nothing: the identity on
    # C2 is not the fundament of the order-4 nonsplit cover by eta1
    assert not is_fundament_of(ETA1, identity_cover(C2))


def test_is_fundament_of_requires_fundamental_quotient():
    c4 = SMALL_GROUPS["C4"]()
    with pytest.raises(NotFundamental):
        is_fundament_of(identity_cover(c4), terminal_cover(c4))


def test_series_recognition_on_towers():
    c4 = SMALL_GROUPS["C4"]()
    series = fundament_series(terminal_cover(c4))
    chain = list(series.stage_covers)
    assert is_fundament_series(chain)
    # trailing isomorphism stages are harmless
    assert is_fundament_series(chain + [identity_cover(c4)])
    # padding at the base end shifts every kernel: rejected
    assert not is_fundament_series([identity_cover(chain[0].target)] + chain)


def test_series_recognition_on_s4_tower():
    s4 = SMALL_GROUPS["S4"]()
    series = fundament_series(terminal_cover(s4))
    assert is_fundament_series(series.stage_covers)
    # swapping two middle stages breaks composability or correctness
    stages = list(series.stage_covers)
    assert len(stages) == 3


def test_series_recognition_rejects_wrong_split():
    # C4 ->> C2 followed by C2 ->> 1 read in the wrong order: the stage
    # covers [eta1-to-point] alone filter through a non-fundamental stage
    with pytest.raises(NotFundamentalStage):
        is_fundament_series([terminal_cover(SMALL_GROUPS["C4"]())])


def test_series_recognition_validates_chain():
    with pytest.raises(Incompatible):
        is_fundament_series([])
    with pytest.raises(Incompatible):
        # third stage targets C2, but the chain has reached C4
        is_fundament_series([terminal_cover(C2), ETA1, ETA1])


def _series_by_kernels(chain):
    """The library's answer for a chain of fundamental covers: the
    cumulative kernels from the full source are the fundament kernels of
    the composite covers."""
    rhos = [identity_cover(chain[-1].source)]
    for cov in reversed(chain):
        rhos.append(compose(cov, rhos[-1]))
    rhos.reverse()  # rhos[k]: full source ->> k-th group
    return all(
        rhos[k].kernel() == fundament_kernel(rhos[k - 1]) for k in range(1, len(rhos))
    )


def _assert_fundament_routes_agree(pi):
    # every split pi = pi_bar o rho through a quotient by a normal M inside
    # Ker(pi), with pi_bar fundamental, and the series with one stage too
    # many at either end
    src = pi.source
    stages = list(fundament_series(pi).stage_covers)
    chains = [[identity_cover(pi.target)] + stages, stages + [identity_cover(src)]]
    if stages:
        assert is_fundament_series(stages)
        chains.append(stages)
    for m in normal_subgroups(src, pi.kernel()):
        pi_bar, rho = _quotient_over(pi, m)
        if not is_fundamental(pi_bar):
            continue
        assert is_fundament_of(rho, pi_bar) == (fundament_kernel(pi) == m)
        if is_fundamental(rho):
            chains.append([pi_bar, rho])
    for chain in chains:
        assert is_fundament_series(chain) == _series_by_kernels(chain)


CATALOG_COVERS = [terminal_cover(SMALL_GROUPS[name]()) for name in sorted(SMALL_GROUPS)] + [
    sign_cover(),
    ETA0,
    ETA1,
]


@pytest.mark.parametrize("relabeled", [False, True], ids=["stored", "relabeled"])
def test_square_route_matches_fundament_kernels(relabeled):
    # the semi-cartesian-square obstruction of the oracles against the
    # library's fundament_kernel and fundament_series
    rng = random.Random(23)
    for pi in CATALOG_COVERS + POOL_C2 + POOL_C3:
        _assert_fundament_routes_agree(relabel_cover(pi, rng) if relabeled else pi)
