"""Acceptance gate: one test per headline guarantee, each printing a
single PASS line (run with ``-v`` for one status line per guarantee, or
``-s``/``-rA`` to see the printed details).

Every check here is end-to-end and independently cross-checked: frozen
values were computed by the straight-line enumerators in
``tests/oracles.py``, decision procedures are compared against explicit
backtracking searches, and all time bounds are asserted inside the tests.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from catalog import (
    SMALL_GROUPS,
    alt5,
    cover_pool,
    f2_trivial,
    f3_sign,
    f4_over_c3,
    nonsplit_cover_c2,
    nonsplit_cover_c3,
    relabel,
    split_cover_c2,
    split_cover_c3,
)
from covercalc import (
    CohomClass,
    GModule,
    Subgroup,
    cohom_space,
    compose_horizontal,
    decompose_isotypic,
    direct_sum_module,
    dominates,
    fiber_product,
    find_epimorphism_over,
    find_isomorphism_over,
    fundament_series,
    hom_space,
    invariants,
    is_cartesian,
    is_compact_cartesian,
    is_indecomposable,
    is_semi_cartesian,
    isomorphic_fundamental,
    kernel_normal_decomposition,
    make_square,
    quotient,
    terminal_cover,
    trivial_group,
    trivial_module,
    x2,
    y2,
)
from covercalc.cli import Workspace, parse_workspace, run_command
from covercalc.fiber import _product_of_subsets
from covercalc.groups import (
    Cover,
    closure_of,
    normal_subgroups,
    normal_subgroups_inside,
)
from covercalc.squares import _has_proper_full_subgroup

ETA0 = split_cover_c2()
ETA1 = nonsplit_cover_c2()
C2 = ETA0.target

INTRO = str(Path(__file__).resolve().parents[1] / "examples" / "intro.grp")


def report(check: str, detail: str) -> None:
    print(f"PASS {check}: {detail}")


def _rank_mod_p(mat, p):
    rows = [list(int(x) % p for x in row) for row in np.atleast_2d(mat)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(inv * x) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _invertible_mod_p(mat, p):
    mat = np.atleast_2d(mat)
    return mat.shape[0] == mat.shape[1] and _rank_mod_p(mat, p) == mat.shape[0]


def _inverse_mod_p(mat, p):
    mat = np.atleast_2d(mat) % p
    d = mat.shape[0]
    aug = np.concatenate([mat, np.eye(d, dtype=np.int64)], axis=1).tolist()
    rank = 0
    for col in range(d):
        piv = next(r for r in range(rank, d) if aug[r][col] % p)
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(int(aug[rank][col]) % p, -1, p)
        aug[rank] = [(inv * x) % p for x in aug[rank]]
        for r in range(d):
            if r != rank and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[rank])]
        rank += 1
    return np.array(aug, dtype=np.int64)[:, d:]


# ---------------------------------------------------------------------------
# 1. the introductory pair of order-8 covers


def test_accept_intro_isomorphism():
    t0 = time.perf_counter()
    ws = parse_workspace([INTRO])
    eta0, eta1 = ws.homs["eta0"], ws.homs["eta1"]
    fp11 = fiber_product(C2, [eta1, eta1]).structure_map
    fp01 = fiber_product(C2, [eta0, eta1]).structure_map
    for pi in (fp11, fp01):
        assert pi.source.order == 8
        assert max(pi.source.element_orders()) == 4
    assert isomorphic_fundamental(fp11, fp01)
    assert find_isomorphism_over(fp11, fp01) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "intro-isomorphism",
        f"two non-equal order-8 fiber products are isomorphic over C2 "
        f"({elapsed:.2f}s < 1s)",
    )


# ---------------------------------------------------------------------------
# 2. fundament series of the first worked examples


def test_accept_series_examples():
    t0 = time.perf_counter()
    c4 = SMALL_GROUPS["C4"]()
    ser_c4 = fundament_series(terminal_cover(c4))
    assert [k.order for k in ser_c4.kernels] == [4, 2, 1]
    s3 = SMALL_GROUPS["S3"]()
    ser_s3 = fundament_series(terminal_cover(s3))
    assert [k.order for k in ser_s3.kernels] == [6, 3, 1]
    orders = s3.element_orders()
    three_part = tuple(sorted(x for x in range(6) if orders[x] in (1, 3)))
    assert ser_s3.kernels[1] == Subgroup(s3, three_part)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "series-examples",
        f"kernel sizes [4,2,1] and [6,3,1]; first stage of the order-6 "
        f"series is the index-2 subgroup ({elapsed:.2f}s < 1s)",
    )


# ---------------------------------------------------------------------------
# 3. multiplicity/support table for repeated split/non-split factors


def test_accept_power_table():
    checked = 0
    for kappa in range(4):
        split = fiber_product(C2, [ETA0] * kappa).structure_map
        inv_s = invariants(split)
        if kappa == 0:
            assert inv_s.is_empty()
        else:
            (cls,) = inv_s.ab_classes
            assert cls.mult == kappa
            assert cls.supp.shape[0] == 0
        nonsplit = fiber_product(C2, [ETA1] * kappa).structure_map
        inv_n = invariants(nonsplit)
        if kappa == 0:
            assert inv_n.is_empty()
        else:
            (cls,) = inv_n.ab_classes
            assert cls.mult == kappa - 1
            assert np.array_equal(cls.supp, np.array([[1]]))
        checked += 2
    report(
        "power-table",
        f"multiplicity kappa (split) / kappa-1 (non-split), support the "
        f"span of the class, {checked} cases exact",
    )


# ---------------------------------------------------------------------------
# 4. H^2 dimensions against the independent enumerator


def test_accept_h2_dimensions():
    t0 = time.perf_counter()
    expected = {"C2": 1, "V4": 3, "C3": 0}
    for name, want in expected.items():
        group = SMALL_GROUPS[name]()
        module = f2_trivial(group, 1)
        space = cohom_space(group, module)
        assert space.f_dim == want
        table = [[int(x) for x in row] for row in group.mul]
        action = [
            tuple(map(tuple, module.action[g])) for g in range(group.order)
        ]
        brute = oracles.h2_dim_by_enumeration(table, module.p, action)
        assert space.dim_p == brute == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        "h2-dimensions",
        f"library dims equal enumeration oracle dims: "
        f"{expected} ({elapsed:.2f}s < 5s)",
    )


def test_accept_h2_s4_any_labeling():
    # H^2(S4, F2) = F2^2 and H^2(S4, F3) = 0, on the built-in labeling through
    # the h2 command and on a relabeled table without stored generators
    t0 = time.perf_counter()
    ws = Workspace()
    relabeled = relabel(ws.group("S4"), random.Random(24), keep_generators=False)
    for p, want in ((2, 2), (3, 0)):
        _, doc = run_command(ws, "h2", ["S4", f"F{p}triv"])
        assert doc["dim_p"] == want
        assert cohom_space(relabeled, trivial_module(relabeled, p, 1)).dim_p == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(
        "h2-s4",
        f"dim_p 2 over F2 and 0 over F3, built-in and relabeled "
        f"({elapsed:.2f}s < 20s)",
    )


# ---------------------------------------------------------------------------
# 5. decision procedures agree with explicit searches on both pools


def test_accept_decision_vs_search():
    t0 = time.perf_counter()
    pools = {
        "C2": cover_pool(ETA0, ETA1, max_factors=3),
        "C3": cover_pool(split_cover_c3(), nonsplit_cover_c3(), max_factors=3),
    }
    pairs = 0
    for pool in pools.values():
        assert len(pool) == 10
        for tau in pool:
            for tau_prime in pool:
                assert dominates(tau_prime, tau) == (
                    find_epimorphism_over(tau, tau_prime) is not None
                )
                assert isomorphic_fundamental(tau, tau_prime) == (
                    find_isomorphism_over(tau, tau_prime) is not None
                )
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        "decision-vs-search",
        f"domination and isomorphism decisions match backtracking searches "
        f"on {pairs} ordered pairs, 100% agreement ({elapsed:.2f}s < 60s)",
    )


def test_accept_decision_vs_search_four_factors():
    t0 = time.perf_counter()
    pool = cover_pool(ETA0, ETA1, max_factors=4)
    assert len(pool) == 15
    assert max(tau.source.order for tau in pool) == 32
    for tau in pool:
        for tau_prime in pool:
            assert dominates(tau_prime, tau) == (
                find_epimorphism_over(tau, tau_prime) is not None
            )
            assert isomorphic_fundamental(tau, tau_prime) == (
                find_isomorphism_over(tau, tau_prime) is not None
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        "decision-vs-search-4",
        f"domination and isomorphism decisions match backtracking searches "
        f"on all 225 ordered pairs of the C2 pool with up to 4 factors "
        f"(carriers up to order 32, {elapsed:.2f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# 6. duality round trips for powers of a simple module


def _simple_modules():
    return [
        ("F2-trivial/C2", f2_trivial(C2, 1)),
        ("F3-sign/C2", f3_sign()),
        ("F4-plane/C3", f4_over_c3()),
    ]


def _scramble(module, kappa, seed):
    big = direct_sum_module(module, kappa)
    rng = np.random.default_rng(seed)
    d = big.dim
    while True:
        t = rng.integers(0, module.p, size=(d, d))
        if _invertible_mod_p(t, module.p):
            break
    t_inv = _inverse_mod_p(t, module.p)
    mats = tuple((t @ m @ t_inv) % module.p for m in big.action)
    return GModule(big.group, module.p, mats, check=True)


def test_accept_duality_round_trip():
    for label, module in _simple_modules():
        group = module.group
        space = cohom_space(group, module)
        # classes to draw value lists from: zero, plus one generator when
        # the space is nonzero
        zero = CohomClass(space, np.zeros(space.dim_p, dtype=np.int64))
        g0 = None
        if space.dim_p:
            e0 = np.zeros(space.dim_p, dtype=np.int64)
            e0[0] = 1
            g0 = CohomClass(space, e0)
        for kappa in (1, 2, 3):
            # module side: any twisted power decomposes back
            scrambled = _scramble(module, kappa, seed=kappa)
            iso = decompose_isotypic(scrambled, module)
            assert iso.is_equivariant() and iso.is_isomorphism()
            assert hom_space(scrambled, module).f_dim == kappa
            # cover side: realize value lists, then read the pair back
            lists = [[zero] * kappa]
            if g0 is not None:
                lists.append([g0] + [zero] * (kappa - 1))
                if kappa >= 2:
                    lists.append([g0, g0] + [zero] * (kappa - 2))
            for vals in lists:
                pi = y2(group, module, vals)
                assert pi.kernel().order == module.size**kappa
                pair = x2(pi, module)
                assert pair.dual.f_dim == kappa
                stacked = np.array(
                    [v.coords for v in vals], dtype=np.int64
                ).reshape(kappa, space.dim_p)
                want_rank_p = _rank_mod_p(stacked, module.p) if space.dim_p else 0
                assert pair.f_rank == want_rank_p // space.endo_field.k
                assert pair.f_nullity == kappa - pair.f_rank
                got = pair.image_rows()
                # same row space: equal ranks separately and stacked
                assert got.shape[0] == want_rank_p
                if space.dim_p:
                    joint = np.concatenate([stacked, got], axis=0)
                    assert _rank_mod_p(joint, module.p) == want_rank_p
        # realizations of distinct lines are not isomorphic over the base
        if g0 is not None:
            a = y2(group, module, [zero])
            b = y2(group, module, [g0])
            assert find_isomorphism_over(a, b) is None
            assert find_isomorphism_over(b, y2(group, module, [g0])) is not None
    report(
        "duality-round-trip",
        "powers 1..3 of three simple modules: decomposition bijective, "
        "realization then readback reproduces (rank, nullity, row space) "
        "exactly",
    )


# ---------------------------------------------------------------------------
# 7. square laws on randomized tower instances


def _q(h, sub, cache={}):
    key = (id(h), sub.mask)
    if key not in cache:
        cache[key] = quotient(h, sub)
    return cache[key]


def _qcover(h, small, big):
    qa, pa = _q(h, small)
    qb, pb = _q(h, big)
    image = np.zeros(qa.order, dtype=np.int32)
    image[pa.image] = pb.image
    return Cover(qa, qb, image, check=False)


def _join(h, a, b):
    return Subgroup(h, closure_of(h, a.elements + b.elements))


def _tower_square(h, n, l, m):
    return make_square(
        _q(h, n)[1], _q(h, l)[1], _qcover(h, l, m), _qcover(h, n, m)
    )


def test_accept_square_laws():
    rng = random.Random(20250814)
    names = ["V4", "C4", "C6", "S3", "D4", "Q8", "C3xC3", "A4", "S4"]
    groups = {n: SMALL_GROUPS[n]() for n in names}
    assert all(g.order <= 24 for g in groups.values())
    triples = []
    for name, h in groups.items():
        normals = normal_subgroups(h)
        for n, l, m in itertools.product(normals, repeat=3):
            if n.is_subgroup_of(m) and l.is_subgroup_of(m):
                triples.append((h, n, l, m))
    rng.shuffle(triples)

    checked = 0
    for h, n, l, m in triples[:170]:
        sq = _tower_square(h, n, l, m)
        prod = _product_of_subsets(h, [n.elements, l.elements])
        covers_m = prod == set(m.elements)
        trivial_meet = set(n.elements) & set(l.elements) == {0}
        assert is_semi_cartesian(sq) == covers_m
        assert is_cartesian(sq) == (covers_m and trivial_meet)
        if is_cartesian(sq):
            assert is_indecomposable(sq.bottom) == is_indecomposable(sq.top)
            if is_indecomposable(sq.bottom):
                fast = find_epimorphism_over(sq.right, sq.bottom) is None
                brute = not _has_proper_full_subgroup(sq)
                assert fast == brute == is_compact_cartesian(sq)
        checked += 1

    # horizontal composition: sample nested tower pairs
    composed = 0
    attempts = 0
    while composed < 40 and attempts < 4000:
        attempts += 1
        h, n, l, m = triples[rng.randrange(len(triples))]
        normals = list(normal_subgroups(h))
        n2 = normals[rng.randrange(len(normals))]
        m2 = normals[rng.randrange(len(normals))]
        if not (n.is_subgroup_of(n2) and _join(h, n2, m).is_subgroup_of(m2)):
            continue
        sq1 = _tower_square(h, n, l, m)
        sq2 = make_square(
            _qcover(h, n, n2), _qcover(h, n, m), _qcover(h, m, m2),
            _qcover(h, n2, m2),
        )
        outer = compose_horizontal(sq1, sq2)
        c1, c2, co = is_cartesian(sq1), is_cartesian(sq2), is_cartesian(outer)
        assert not (c1 and c2) or co
        assert not (c1 and co) or c2
        assert not (c2 and co) or c1
        s1, s2, so = (
            is_semi_cartesian(sq1),
            is_semi_cartesian(sq2),
            is_semi_cartesian(outer),
        )
        assert not so or s2
        assert not (s1 and s2) or so
        if c1 and c2:
            assert is_compact_cartesian(outer) == (
                is_compact_cartesian(sq1) and is_compact_cartesian(sq2)
            )
        composed += 1

    total = checked + composed
    assert total >= 200
    report(
        "square-laws",
        f"{total} randomized instances (orders <= 24): predicate laws, "
        f"indecomposable-base corollaries, compactness fast path vs brute "
        f"sweep, two-of-three and composition laws — zero discrepancies",
    )


# ---------------------------------------------------------------------------
# 8. normal subgroups of kernels decompose along the axes


def test_accept_kernel_decomposition():
    fps = [
        fiber_product(C2, list(combo))
        for r in (1, 2, 3)
        for combo in itertools.combinations_with_replacement([ETA0, ETA1], r)
    ]
    fps.append(fiber_product(trivial_group(), [terminal_cover(alt5())]))
    checked = 0
    for fp in fps:
        ker = fp.structure_map.kernel()
        for sub in normal_subgroups_inside(fp.carrier, ker):
            decomp = kernel_normal_decomposition(fp, sub)
            pieces = [fp.axis_kernels[i] for i in decomp.swallowed_nonabelian]
            pieces += [b.component for b in decomp.abelian_blocks]
            assert _product_of_subsets(
                fp.carrier, [p.elements for p in pieces]
            ) == set(sub.elements)
            checked += 1
    report(
        "kernel-decomposition",
        f"{checked} normal subgroups inside fiber-product kernels rebuilt "
        f"exactly from axis blocks",
    )


# ---------------------------------------------------------------------------
# 9. single-command latency


def test_accept_command_performance():
    ws = parse_workspace([INTRO])
    invocations = [
        ("fprod", ["eta1", "eta1", "eta1"]),
        ("check-square", ["id(V4)", "id(V4)", "eta0", "eta0"]),
        ("h2", ["D4", "F2triv"]),
        ("cocycle", ["eta1"]),
        ("fundament", ["S4->1"]),
        ("series", ["C64->1"]),
        ("invariants", ["fprod(eta0,eta1,eta1)"]),
        ("dominates", ["fprod(eta0,eta1)", "fprod(eta1,eta1,eta1)"]),
        ("isomorphic", ["fprod(eta1,eta1)", "fprod(eta0,eta1)"]),
        ("lift", ["C2->1", "eta1", "id(1)"]),
        ("decompose", ["fprod(eta0,eta1,eta1)"]),
    ]
    worst = 0.0
    for command, args in invocations:
        t0 = time.perf_counter()
        run_command(ws, command, args)
        worst = max(worst, time.perf_counter() - t0)
        assert worst < 10.0
    report(
        "command-performance",
        f"all {len(invocations)} commands on inputs of order <= 64, worst "
        f"{worst:.2f}s < 10s",
    )
