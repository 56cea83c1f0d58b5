"""Independent brute-force oracles for the test suite.

Everything in this file is deliberately naive and self-contained: raw
multiplication tables (tuples of tuples, identity at index 0), subset
enumeration, exhaustive cochain enumeration, and the degree-2 linear
systems over every group element, solved by plain dense elimination. It
never imports the package under test, so agreement between the two is
meaningful. Four exceptions say why: ``compact_by_independence`` states
the paper's compactness criterion in the package's own terms, the
per-pair class matching (``dominates_by_matching``,
``lift_by_matching``) is the route the package took before its per-base
class registry, ``invariants_by_quotients`` is the route its
``invariants`` took before it read the dual pair off the cover itself,
and the lemma checkers (``is_fundament_of``, ``is_fundament_series``,
``is_fiber_presentation``, ``are_congruent``, ``modules_isomorphic``,
``subgroup_from_elements``, ``compose_horizontal``) state a lemma about
the package's objects, which the tests check; the package itself
computes none of them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

# ---------------------------------------------------------------------------
# table builders


def cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def direct_product_table(t1, t2):
    """Table of the direct product; element (a, b) gets index a*len(t2)+b."""
    n2 = len(t2)
    size = len(t1) * n2
    table = [[0] * size for _ in range(size)]
    for a1, b1 in product(range(len(t1)), range(n2)):
        for a2, b2 in product(range(len(t1)), range(n2)):
            table[a1 * n2 + b1][a2 * n2 + b2] = t1[a1][a2] * n2 + t2[b1][b2]
    return tuple(tuple(row) for row in table)


def compose_perms(p, q):
    """Apply p first, then q (left-to-right composition on points)."""
    return tuple(q[p[x]] for x in range(len(p)))


def perm_closure(gens):
    """All permutations generated; BFS from the identity, in discovery order."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    seen = {ident: 0}
    order: list[tuple[int, ...]] = [ident]
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = compose_perms(cur, g)
            if nxt not in seen:
                seen[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    return order


def table_from_perms(gens):
    elems = perm_closure(gens)
    idx = {e: i for i, e in enumerate(elems)}
    return tuple(
        tuple(idx[compose_perms(a, b)] for b in elems) for a in elems
    ), elems


def quaternion_table():
    """Q8 on symbols [1, -1, i, -i, j, -j, k, -k] (identity index 0)."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): ("+", "1"), ("i", "i"): ("-", "1"), ("j", "j"): ("-", "1"),
        ("k", "k"): ("-", "1"), ("i", "j"): ("+", "k"), ("j", "i"): ("-", "k"),
        ("j", "k"): ("+", "i"), ("k", "j"): ("-", "i"), ("k", "i"): ("+", "j"),
        ("i", "k"): ("-", "j"),
    }
    def split(sym):
        return (-1, sym[1:]) if sym.startswith("-") else (1, sym)
    def mul(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        if ua == "1":
            sign, unit = sa * sb, ub
        elif ub == "1":
            sign, unit = sa * sb, ua
        else:
            s, unit = base[(ua, ub)]
            sign = sa * sb * (1 if s == "+" else -1)
        return unit if sign == 1 else "-" + unit
    idx = {n: i for i, n in enumerate(names)}
    return tuple(
        tuple(idx[mul(a, b)] for b in names) for a in names
    ), names


# ---------------------------------------------------------------------------
# element / subgroup utilities


def inverse_of(table, x):
    for y in range(len(table)):
        if table[x][y] == 0:
            return y
    raise AssertionError("no inverse")


def element_order(table, x):
    k, cur = 1, x
    while cur != 0:
        cur = table[cur][x]
        k += 1
    return k


def element_orders(table):
    return sorted(element_order(table, x) for x in range(len(table)))


def is_subgroup_set(table, s):
    if 0 not in s:
        return False
    return all(table[a][b] in s for a in s for b in s)


def all_subgroup_sets(table):
    """Every subgroup, by subset enumeration. Only sane for order <= 12."""
    n = len(table)
    out = []
    for bits in range(1 << n):
        if not bits & 1:
            continue
        s = frozenset(i for i in range(n) if bits >> i & 1)
        if is_subgroup_set(table, s):
            out.append(s)
    return out


def generated_set(table, gens):
    """The subgroup generated by ``gens``: the orbit of the identity under
    right multiplication by them (works at any order)."""
    elems = [0]
    seen = {0}
    for x in elems:
        for g in gens:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return frozenset(elems)


def greedy_generating_set(table, stored=()):
    """``stored`` if it generates the group; otherwise the elements by
    descending order, then index, each one joining the generators when the
    set generated so far misses it."""
    n = len(table)
    if stored and len(generated_set(table, stored)) == n:
        return tuple(stored)
    ranked = sorted(range(n), key=lambda x: (-element_order(table, x), x))
    gens, reached = [], {0}
    for x in ranked:
        if len(reached) == n:
            break
        if x not in reached:
            gens.append(x)
            reached = generated_set(table, gens)
    return tuple(gens)


@lru_cache(maxsize=None)
def subgroup_sets_by_joins(table):
    """Every subgroup: the cyclic subgroups, closed under joins.

    ``table`` must be hashable (a tuple of tuples); the result is cached
    per table. Each subgroup keeps the generators it was reached by, so a
    join with <x> is the orbit under those generators and x. Affordable
    up to order 64 or so.
    """
    cyclic = {}
    for x in range(len(table)):
        cyclic.setdefault(generated_set(table, [x]), x)
    found = {s: (x,) for s, x in cyclic.items()}
    frontier = dict(found)
    while frontier:
        new = {}
        for s, gens in frontier.items():
            for c, x in cyclic.items():
                if x in s:
                    continue
                j = generated_set(table, gens + (x,))
                if j not in found:
                    found[j] = new[j] = gens + (x,)
        frontier = new
    return tuple(found)


def conjugate(table, g, x):
    return table[table[g][x]][inverse_of(table, g)]


def is_normal_set(table, s):
    return all(conjugate(table, g, x) in s for g in range(len(table)) for x in s)


def normal_subgroup_sets(table):
    return [s for s in all_subgroup_sets(table) if is_normal_set(table, s)]


def normal_closure(table, xs):
    """Smallest normal subgroup containing xs (works at any order)."""
    n = len(table)
    cur = {0}
    frontier = set()
    for x in xs:
        for g in range(n):
            frontier.add(conjugate(table, g, x))
    while frontier:
        nxt = set()
        for a in frontier:
            if a in cur:
                continue
            cur.add(a)
            for b in list(cur):
                for c in (table[a][b], table[b][a]):
                    if c not in cur:
                        nxt.add(c)
            inv = inverse_of(table, a)
            if inv not in cur:
                nxt.add(inv)
        frontier = nxt
    # close under products until stable (paranoid but simple)
    changed = True
    while changed:
        changed = False
        for a in list(cur):
            for b in list(cur):
                c = table[a][b]
                if c not in cur:
                    cur.add(c)
                    changed = True
    return frozenset(cur)


def normal_subgroups_inside(table, m):
    """All normal subgroups of the whole group contained in the set m.

    The blocks are the subgroups generated by one conjugacy class of an
    element of m (its normal closure), closed under joins. Each subgroup
    keeps the conjugates it was generated by: a join of normal subgroups
    is the subgroup generated by their generators together.
    """
    n = len(table)
    inv = [inverse_of(table, g) for g in range(n)]
    blocks = {}
    for x in m:
        if x != 0:
            gens = tuple(sorted({table[table[g][x]][inv[g]] for g in range(n)}))
            blocks.setdefault(generated_set(table, gens), gens)
    blocks = {b: gens for b, gens in blocks.items() if b <= m}
    found = {frozenset({0}): (), **blocks}
    frontier = dict(blocks)
    while frontier:
        new = {}
        for a, gens in frontier.items():
            for b, more in blocks.items():
                if b <= a:
                    continue
                j = generated_set(table, gens + more)
                if j <= m and j not in found:
                    found[j] = new[j] = gens + more
        frontier = new
    return set(found)


def maximal_normal_inside(table, m):
    """Maximal elements among proper normal subgroups of G inside m."""
    cands = [s for s in normal_subgroups_inside(table, m) if s < m]
    return [s for s in cands if not any(s < t for t in cands if t < m)]


def fundament_kernel_set(table, m):
    """Intersection of the maximal proper normal subgroups inside m."""
    tops = maximal_normal_inside(table, m)
    if not tops:
        return frozenset({0})
    cur = set(m)
    for t in tops:
        cur &= t
    return frozenset(cur)


def fundament_series_sizes(table):
    """Kernel sizes of the iterated-fundament chain of G -> 1."""
    m = frozenset(range(len(table)))
    sizes = [len(m)]
    while len(m) > 1:
        m = fundament_kernel_set(table, m)
        sizes.append(len(m))
    return sizes


def quotient_table(table, normal):
    """Table of G/N with the coset of x numbered in order of least
    elements; returns (table, coset number of each element)."""
    coset_of = [-1] * len(table)
    reps = []
    for x in range(len(table)):
        if coset_of[x] < 0:
            for k in normal:
                coset_of[table[x][k]] = len(reps)
            reps.append(x)
    return tuple(tuple(coset_of[table[a][b]] for b in reps) for a in reps), coset_of


# ---------------------------------------------------------------------------
# fiber products of tables


def fiber_table(tables, maps):
    """Pullback of quotient maps maps[i]: H_i -> common base (as index lists).

    Returns (table, carrier) where carrier is the lexicographically sorted
    list of agreeing tuples.
    """
    ranges = [range(len(t)) for t in tables]
    carrier = [
        tup for tup in product(*ranges)
        if len({maps[i][tup[i]] for i in range(len(tup))}) == 1
    ]
    idx = {tup: i for i, tup in enumerate(carrier)}
    table = tuple(
        tuple(
            idx[tuple(tables[i][a[i]][b[i]] for i in range(len(a)))]
            for b in carrier
        )
        for a in carrier
    )
    return table, carrier


# ---------------------------------------------------------------------------
# compactness


def has_proper_supplement(table, maps):
    """Whether some proper subgroup maps onto the image of every map in
    ``maps`` (index lists over the group), by a sweep of the whole
    subgroup lattice."""
    n = len(table)
    sizes = [len(set(m)) for m in maps]
    return any(
        len(s) < n and all(len({m[x] for x in s}) == k for m, k in zip(maps, sizes))
        for s in subgroup_sets_by_joins(table)
    )


def compact_by_independence(fp):
    """The paper's compactness criterion for a fiber product ``fp`` of
    indecomposable covers: no two factors with non-abelian kernels are
    isomorphic over the base, at most one factor per abelian kernel class
    splits, and the extension classes of the others are linearly
    independent over the endomorphism field.

    Unlike the rest of this file it is built from the package (its
    isomorphism search, modules and H^2), because the criterion is stated
    in those terms; what makes it a check is that it is a different
    theorem from the subgroup search that decides compactness.
    """
    from covercalc import cohomology as ch
    from covercalc import gmodules as gm
    from covercalc.groups import _commute, find_isomorphism_over

    def abelian_kernel(cov):
        ker = cov.kernel().elements
        return _commute(cov.source, ker, ker)

    nonabelian = [c for c in fp.factors if not abelian_kernel(c)]
    for a in range(len(nonabelian)):
        for b in range(a + 1, len(nonabelian)):
            if find_isomorphism_over(nonabelian[a], nonabelian[b]) is not None:
                return False
    blocks = []  # [representative module, factors with that kernel module]
    for cov in fp.factors:
        if not abelian_kernel(cov):
            continue
        module = gm.module_from_cover(cov, cov.kernel())
        for block in blocks:
            if modules_isomorphic(block[0], module):
                block[1].append(cov)
                break
        else:
            blocks.append([module, [cov]])
    for module, covs in blocks:
        classes = []
        for cov in covs:
            ident = gm.first_module_iso(gm.module_from_cover(cov, cov.kernel()), module)
            classes.append(ch.cocycle_from_extension(cov, ident).coords)
        nonzero = [c for c in classes if c.any()]
        if len(classes) - len(nonzero) > 1:
            return False
        space = ch.cohom_space(fp.base, module)
        if nonzero and space.f_rank(np.array(nonzero, dtype=np.int64)) != len(nonzero):
            return False
    return True


# ---------------------------------------------------------------------------
# class matching per pair of covers


def module_iso(a, b):
    """The first-basis-row G-isomorphism a -> b of simple modules (its
    matrix, target x source) from the Hom system over every group
    element, or None when they are not isomorphic (Schur: a nonzero map
    is an isomorphism)."""
    if (a.p, a.dim) != (b.p, b.dim):
        return None
    basis = hom_system_nullspace(a.action, b.action, a.p)
    return basis[0].reshape(b.dim, a.dim) if len(basis) else None


def matching_class(module, classes):
    """The first class whose module is isomorphic to ``module``, with the
    isomorphism onto it; ``(None, None)`` when none is."""
    for c in classes:
        iso = module_iso(module, c.module)
        if iso is not None:
            return c, iso
    return None, None


def transport_rows(rows, space_src, matrix, space_dst):
    """H^2 coordinate rows carried along a coefficient isomorphism: each
    row's representative cocycle, pushed through ``matrix``, read back
    in ``space_dst``."""
    from covercalc import cohomology as ch

    out = []
    for r in np.asarray(rows, dtype=np.int64):
        pushed = ch.push_cochain(space_src.representative(r), matrix, space_dst.module)
        out.append(space_dst.class_of(pushed).coords)
    return np.array(out, dtype=np.int64).reshape(len(out), space_dst.dim_p)


def _support_within(rows, space_src, match, space_dst):
    """Whether ``rows``, transported along the matched class's
    isomorphism, lie in that class's support."""
    cls, matrix = match
    moved = transport_rows(rows, space_src, matrix, space_dst)
    rank = len(rref_mod_p(cls.supp, space_dst.p)[1])
    return len(rref_mod_p(np.vstack([cls.supp, moved]), space_dst.p)[1]) == rank


def dominates_by_matching(tau_prime, tau):
    """``dominates`` by per-pair matching: each class of ``tau_prime`` is
    matched against the classes of ``tau`` by isomorphism search (covers)
    or Hom_G solve (modules), and its support transported into the
    matching class's coordinates."""
    from covercalc import cohomology as ch
    from covercalc import invariants
    from covercalc.groups import find_isomorphism_over

    inv_p, inv = invariants(tau_prime), invariants(tau)
    for cls in inv_p.na_classes:
        match = next(
            (c for c in inv.na_classes if find_isomorphism_over(cls.cover, c.cover)),
            None,
        )
        if match is None or cls.mult > match.mult:
            return False
    base = tau.target
    for cls in inv_p.ab_classes:
        match = matching_class(cls.module, inv.ab_classes)
        if match[0] is None:
            if cls.mult > 0 or len(cls.supp):
                return False
        elif cls.mult > match[0].mult or not _support_within(
            cls.supp,
            ch.cohom_space(base, cls.module),
            match,
            ch.cohom_space(base, match[0].module),
        ):
            return False
    return True


def lifted_support(pi, cls):
    """The inflated module of a class of a cover of ``pi.target`` and the
    inflation of its support rows into H^2(pi.source, inflated module)."""
    from covercalc import cohomology as ch

    module_up = ch.inflate_module(pi, cls.module)
    space_small = ch.cohom_space(pi.target, cls.module)
    space_up = ch.cohom_space(pi.source, module_up)
    lifted = [ch.inflate(pi, ch.CohomClass(space_small, r)).coords for r in cls.supp]
    return module_up, np.array(lifted, dtype=np.int64).reshape(len(lifted), space_up.dim_p)


def lift_by_matching(pi, tau, tau_prime):
    """``exists_semicartesian_lift`` by per-pair matching, as in
    ``dominates_by_matching``, after pulling the classes of ``tau_prime``
    back along ``pi``."""
    from covercalc import cohomology as ch
    from covercalc import fiber_product, invariants
    from covercalc.groups import find_isomorphism_over

    inv, inv_p = invariants(tau), invariants(tau_prime)
    big = pi.source
    for cls in inv_p.na_classes:
        pulled = fiber_product(pi.target, [pi, cls.cover]).projections[0]
        match = next(
            (c for c in inv.na_classes if find_isomorphism_over(pulled, c.cover)),
            None,
        )
        if match is None or cls.mult > match.mult:
            return False
    for cls in inv_p.ab_classes:
        module_up, lifted = lifted_support(pi, cls)
        space_up = ch.cohom_space(big, module_up)
        nullity = len(cls.supp) // cls.endo_field.k - space_up.f_rank(lifted)
        match = matching_class(module_up, inv.ab_classes)
        if match[0] is None:
            if lifted.any() or nullity + cls.mult > 0:
                return False
        elif nullity + cls.mult > match[0].mult or not _support_within(
            lifted, space_up, match, ch.cohom_space(big, match[0].module)
        ):
            return False
    return True


def invariants_by_quotients(pi):
    """The simple-module classes of ``invariants(pi)`` for a fundamental
    cover, as (module structural key, multiplicity, support rows): per
    class the quotient by its least N gives the module, the quotient by
    the intersection M of its N (built even when M = 1) gives the cover
    whose cochain is pushed through each F_p basis map of Hom_G(K/M, A)
    and read by ``class_of``, one map at a time; the support is the RREF
    of those images, the multiplicity the F-dimension of the maps that
    go to 0."""
    from covercalc import cohomology as ch
    from covercalc import gmodules as gm
    from covercalc.fundament import _cover_through, _same_top
    from covercalc.groups import Subgroup, _maximal_tops, quotient

    src, ker = pi.source, pi.kernel()
    classes = []  # [least N, its top, mask of the class's N]
    for sub, top in _maximal_tops(src, ker):
        if top is None:
            continue
        for cls in classes:
            if _same_top(top, cls[1]):
                cls[2] &= sub.mask
                break
        else:
            classes.append([sub, top, sub.mask])
    out = []
    for least, _, common in classes:
        cov = _cover_through(pi, quotient(src, least)[1])
        module = gm.module_from_cover(cov, cov.kernel())
        inside = tuple(x for x in ker.elements if common >> x & 1)
        joint = _cover_through(pi, quotient(src, Subgroup(src, inside))[1])
        dual = gm.hom_space(gm.module_from_cover(joint, joint.kernel()), module)
        space = ch.cohom_space(pi.target, module)
        raw = ch.cover_cochain(joint)
        images = [
            space.class_of(ch.push_cochain(raw, phi, module)).coords
            for phi in dual.fp_basis
        ]
        images = np.array(images, dtype=np.int64).reshape(len(images), space.dim_p)
        supp, _ = rref_mod_p(images, module.p)
        mult = (len(images) - len(supp)) // gm.endo_field(module).k
        out.append((module.structural_key(), mult, supp))
    return out


# ---------------------------------------------------------------------------
# lemma checkers over the package's objects


def _has_diagonal_square(rho, pi_bar):
    """Whether some quotient of rho.source by a maximal normal subgroup of
    the composite kernel yields a semi-cartesian square under ``rho``
    (the obstruction to ``pi_bar`` being the fundament of the composite)."""
    from covercalc import compose
    from covercalc.groups import _product_set, maximal_normal_in

    ker_comp = compose(pi_bar, rho).kernel()
    ker_rho = rho.kernel().elements
    for sub in maximal_normal_in(rho.source, ker_comp):
        product = _product_set(rho.source, (sub.elements, ker_rho))
        if tuple(product.tolist()) == ker_comp.elements:
            return True
    return False


def is_fundament_of(rho, pi_bar):
    """Whether ``pi_bar`` is the fundament of ``pi_bar o rho`` by ``rho``:
    no semi-cartesian-square obstruction (``_has_diagonal_square``)."""
    from covercalc import is_fundamental
    from covercalc.errors import NotFundamental

    if not is_fundamental(pi_bar):
        raise NotFundamental("the quotient cover must be fundamental")
    return not _has_diagonal_square(rho, pi_bar)


def is_fundament_series(chain):
    """Whether a chain of fundamental covers is the fundament series of
    its composite, by the stagewise semi-cartesian obstruction search.

    ``chain[k]`` maps the (k+1)-st group onto the k-th one, the base
    being ``chain[0].target``. Trailing isomorphism stages (next to the
    full source) are accepted; padding at the base end is not, since it
    shifts every kernel out of place.
    """
    from covercalc import is_fundamental, same_group
    from covercalc.errors import Incompatible, NotFundamentalStage

    chain = list(chain)
    if not chain:
        raise Incompatible("empty chain")
    for first, second in zip(chain, chain[1:]):
        if not same_group(second.target, first.source):
            raise Incompatible("chain covers do not compose")
    for cov in chain:
        if not is_fundamental(cov):
            raise NotFundamentalStage(f"stage {cov!r} is not fundamental")
    return all(
        not _has_diagonal_square(chain[k], chain[k - 1]) for k in range(1, len(chain))
    )


def is_fiber_presentation(p_list, pi):
    """Whether covers ``p_list`` present their common source as the fiber
    product of the induced factor covers over ``pi.target``.

    ``pi`` is the common composite onto the base; every ``p`` must satisfy
    Ker p <= Ker pi, otherwise the family is rejected as Incompatible.
    The kernel-product criterion: with L = Ker pi and L_j the
    intersection of the kernels of all other maps, the family presents a
    fiber product iff L is the internal direct product of the L_j.
    """
    from covercalc import same_group
    from covercalc.errors import Incompatible
    from covercalc.groups import _product_set

    p_list = tuple(p_list)
    if len(p_list) < 2:
        raise Incompatible("need at least two covers")
    src = pi.source
    ker_pi = pi.kernel()
    for p in p_list:
        if not same_group(p.source, src):
            raise Incompatible("covers do not share a source")
        if p.kernel().mask & ~ker_pi.mask:
            raise Incompatible("cover kernel not inside the base kernel")
    l_full = ker_pi.elements
    masks = [p.kernel().mask for p in p_list]
    parts = []
    for j in range(len(p_list)):
        cur = ker_pi.mask
        for i, mask in enumerate(masks):
            if i != j:
                cur &= mask
        parts.append(tuple(x for x in l_full if cur >> x & 1))
    size = 1
    for part in parts:
        size *= len(part)
    if size != len(l_full):
        return False
    return tuple(_product_set(src, parts).tolist()) == l_full


def are_congruent(c1, c2):
    """Equal classes in the same cohomology space."""
    from covercalc.errors import SpaceMismatch

    if c1.space is not c2.space and c1.space.structural_key() != c2.space.structural_key():
        raise SpaceMismatch("classes live in different cohomology spaces")
    return bool(np.array_equal(c1.coords, c2.coords))


def modules_isomorphic(a, b):
    """G-isomorphism test for simple modules (Schur: any nonzero hom);
    NotSimple for any other module."""
    from covercalc.gmodules import _module_iso

    return _module_iso(a, b) is not None


def subgroup_from_elements(group, elements):
    """Wrap ``elements`` as a Subgroup, verifying closure."""
    from covercalc import Subgroup
    from covercalc.errors import Incompatible

    elems = tuple(sorted(set(int(e) for e in elements)))
    if not elems or elems[0] != 0:
        raise Incompatible("a subgroup must contain the identity (index 0)")
    member = np.zeros(group.order, dtype=bool)
    member[list(elems)] = True
    if not member[group.mul[np.ix_(elems, elems)]].all():
        raise Incompatible("element set is not closed under products")
    return Subgroup(group, elems)


def compose_horizontal(first, second):
    """Glue two squares along the shared vertical edge.

    ``first.right`` must equal ``second.left`` (same element table); the
    result has composed top and bottom rows. Raises Mismatch otherwise.
    """
    from covercalc import compose, make_square
    from covercalc.errors import Mismatch

    if not first.right.same_map(second.left):
        raise Mismatch("shared vertical edge differs between the two squares")
    return make_square(
        top=compose(second.top, first.top),
        left=first.left,
        bottom=compose(second.bottom, first.bottom),
        right=second.right,
    )


# ---------------------------------------------------------------------------
# endomorphism fields


def field_tables(elements, p):
    """Addition and multiplication tables of a finite field of matrices
    over GF(p), by one lookup of the matrix bytes per pair."""
    index = {m.tobytes(): i for i, m in enumerate(elements)}
    q = len(elements)
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            add[i, j] = index[((a + b) % p).tobytes()]
            mul[i, j] = index[(a @ b % p).tobytes()]
    return add, mul


def is_simple_by_sweep(module):
    """Whether a module is simple, by sweeping all p^d - 1 nonzero
    vectors of F_p^d: nonzero, and the orbit of each vector under every
    group element spans the module."""
    p, d = module.p, module.dim
    for idx in range(1, p ** d):
        v = np.array([idx // p ** j % p for j in range(d)], dtype=np.int64)
        orbit = np.array([m @ v % p for m in module.action], dtype=np.int64)
        if len(rref_mod_p(orbit, p)[1]) != d:
            return False
    return d > 0


def hom_system_nullspace(source_gens, target_gens, p):
    """Basis of {X : X·a(g) = b(g)·X for every listed g}, X a dB x dA
    matrix flattened row-major, from the per-generator Kronecker system
    kron(I, a(g)^T) - kron(b(g), I) stacked in the order of the lists.

    The basis has one row per free column c of the system's RREF: 1 at c,
    minus the RREF's column c at the pivots, 0 elsewhere.
    """
    blocks = []
    for a, b in zip(source_gens, target_gens):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        eye_b = np.eye(len(b), dtype=np.int64)
        eye_a = np.eye(len(a), dtype=np.int64)
        blocks.append((np.kron(eye_b, a.T) - np.kron(b, eye_a)) % p)
    rows, pivots = rref_mod_p(np.vstack(blocks), p)
    u = rows.shape[1]
    free = [c for c in range(u) if c not in set(pivots)]
    basis = np.zeros((len(free), u), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        basis[k, pivots] = -rows[:, c] % p
    return basis


# ---------------------------------------------------------------------------
# homomorphisms over a common base


def first_hom_over(src, dst, src_base, dst_base, gens, bijective=False):
    """The first surjective hom f: src -> dst with dst_base[f(x)] ==
    src_base[x], or None.

    Tries the images of ``gens`` in lexicographic order, each over its
    generator's base fiber and of an order dividing the generator's, and
    returns the image tuple of the first assignment that extends to such
    a map (bijective if asked). There is none when the candidates
    generate less than dst. An assignment is dropped as soon as the
    images of its first i generators fail: the map they close on
    <gens[:i]> is not well defined, leaves the base, or sends more than
    |src| / |dst| elements to 0 (more than the kernel of a surjection
    holds). A map extending those images agrees with that closure, so
    the first map is the same as without the pruning.
    """
    n, m = len(src), len(dst)
    if bijective and n != m:
        return None
    fibers = [
        [
            k
            for k in range(m)
            if dst_base[k] == src_base[g]
            and element_order(src, g) % element_order(dst, k) == 0
        ]
        for g in gens
    ]
    if len(generated_set(dst, [k for fiber in fibers for k in fiber])) != m:
        return None

    def close(pairs):
        """f on the subgroup generated by the pairs' g, set by
        f(x·g) = f(x)·k from f(0) = 0; None when that is not well
        defined, some f(x) lies over the wrong base element, or too many
        f(x) are 0."""
        f = {0: 0}
        todo = [0]
        while todo:
            x = todo.pop()
            for g, k in pairs:
                y, fy = src[x][g], dst[f[x]][k]
                if y not in f:
                    if dst_base[fy] != src_base[y]:
                        return None
                    f[y] = fy
                    todo.append(y)
                elif f[y] != fy:
                    return None
        return f if list(f.values()).count(0) <= n // m else None

    def search(pairs):
        f = close(pairs)
        if f is None:
            return None
        i = len(pairs)
        if i < len(gens):
            for k in fibers[i]:
                found = search(pairs + [(gens[i], k)])
                if found is not None:
                    return found
            return None
        if len(f) != n or len(set(f.values())) != m:  # onto; with n == m also bijective
            return None
        if any(f[src[a][b]] != dst[f[a]][f[b]] for a in range(n) for b in range(n)):
            return None
        if any(dst_base[f[x]] != src_base[x] for x in range(n)):
            return None
        return tuple(f[x] for x in range(n))

    return search([])


# ---------------------------------------------------------------------------
# cohomology in degree 2, by full enumeration (tiny inputs only)


def _vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def _vec_sub(u, v, p):
    return tuple((a - b) % p for a, b in zip(u, v))


def _act(mat, v, p):
    d = len(v)
    return tuple(sum(mat[r][c] * v[c] for c in range(d)) % p for r in range(d))


def cocycle_identity_holds(table, p, action, f):
    """x.f(y,z) + f(x,yz) = f(xy,z) + f(x,y) for every (x, y, z) of G^3.

    ``f(a, b)`` returns the value at (a, b) as a tuple over GF(p).
    """
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = _vec_add(_act(action[x], f(y, z), p), f(x, table[y][z]), p)
                rhs = _vec_add(f(table[x][y], z), f(x, y), p)
                if lhs != rhs:
                    return False
    return True


def h2_dim_by_enumeration(table, p, action):
    """dim H^2(G, A) over GF(p) by enumerating all normalized cochains.

    action: per-element d x d matrices over GF(p) (action[0] = identity).
    Only usable when p ** ((n-1)^2 * d) is small.
    """
    n = len(table)
    d = len(action[0])
    nontriv = [g for g in range(n) if g != 0]
    pairs = [(a, b) for a in nontriv for b in nontriv]
    vecs = list(product(range(p), repeat=d))

    def get(a, b):
        return f[(a, b)] if (a, b) in f else (0,) * d

    cocycles = []
    for assignment in product(vecs, repeat=len(pairs)):
        f = dict(zip(pairs, assignment))
        if cocycle_identity_holds(table, p, action, get):
            cocycles.append(f)

    coboundaries = set()
    for cvals in product(vecs, repeat=len(nontriv)):
        c = dict(zip(nontriv, cvals))
        c[0] = (0,) * d
        f = {}
        for a, b in pairs:
            f[(a, b)] = _vec_sub(
                _vec_add(_act(action[a], c[b], p), c[a], p), c[table[a][b]], p
            )
        coboundaries.add(tuple(f[k] for k in pairs))

    nz = len(cocycles)
    nb = len(coboundaries)
    dim = 0
    quot = nz // nb
    while quot > 1:
        quot //= p
        dim += 1
    assert nz % nb == 0 and nb * p ** dim == nz
    return dim


# ---------------------------------------------------------------------------
# cohomology in degree 2 from the full linear systems (dense GF(p)
# elimination in numpy; the identity is imposed for every x, not just for
# generators)


def rref_mod_p(mat, p):
    """Reduced row echelon form over GF(p) by Gauss-Jordan; returns (the
    nonzero rows, their pivot columns)."""
    m = np.array(mat, dtype=np.int64) % p
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == m.shape[0]:
            break
        below = np.flatnonzero(m[r:, c])
        if below.size == 0:
            continue
        m[[r, r + below[0]]] = m[[r + below[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        factor = m[:, c].copy()
        factor[r] = 0
        hit = np.flatnonzero(factor)
        m[hit] = (m[hit] - np.outer(factor[hit], m[r])) % p
        pivots.append(c)
    return m[: len(pivots)], pivots


def minimal_stable_subspaces_by_spins(mats, p):
    """The minimal nonzero subspaces of the row space F_p^d stable under
    right multiplication by every matrix of ``mats``, as RREF bases: the
    span of every projective point (first nonzero entry 1, points by the
    position of that entry, then by the entries after it), grown by the
    images of its rows until it stops growing; spans by rising dimension,
    then by first point, kept unless they contain a smaller kept one."""
    mats = np.asarray(mats, dtype=np.int64) % p
    d = mats.shape[-1]
    spans = {}
    for lead in range(d):
        for tail in product(range(p), repeat=d - 1 - lead):
            rows, _ = rref_mod_p([(0,) * lead + (1,) + tail], p)
            while True:
                grown, _ = rref_mod_p(np.vstack([rows] + [rows @ m for m in mats]), p)
                if len(grown) == len(rows):
                    break
                rows = grown
            spans.setdefault(rows.tobytes(), rows)
    kept = []
    for rows in sorted(spans.values(), key=len):
        if not any(
            len(w) < len(rows) and len(rref_mod_p(np.vstack([rows, w]), p)[1]) == len(rows)
            for w in kept
        ):
            kept.append(rows)
    return kept


def cochain_column(n, d, s, t, j):
    """Coordinate of the j-th entry of f(s, t), s and t non-identity."""
    return ((s - 1) * (n - 1) + (t - 1)) * d + j


def cocycle_nullspace(table, p, action, xs=None):
    """The normalized 2-cocycles: nullspace of the identity at every
    (x, y, z) of non-identity elements, (n-1)^3 * d constraint rows; with
    ``xs``, of the identity for x in ``xs`` only.

    Rows are added one x at a time to a running RREF, so that order 24 is
    affordable. The basis has one row per free column c of the RREF: 1 at
    c, minus the RREF's column c at the pivots, 0 elsewhere.
    """
    n = len(table)
    d = len(action[0])
    u = (n - 1) ** 2 * d
    rows, pivots = np.zeros((0, u), dtype=np.int64), []
    for x in range(1, n) if xs is None else xs:
        block = np.zeros(((n - 1) ** 2 * d, u), dtype=np.int64)
        i = 0
        for y in range(1, n):
            for z in range(1, n):
                for r in range(d):
                    for c in range(d):
                        block[i, cochain_column(n, d, y, z, c)] += action[x][r][c]
                    if table[y][z]:
                        block[i, cochain_column(n, d, x, table[y][z], r)] += 1
                    if table[x][y]:
                        block[i, cochain_column(n, d, table[x][y], z, r)] -= 1
                    block[i, cochain_column(n, d, x, y, r)] -= 1
                    i += 1
        if pivots:
            # in float64 for speed; exact, every sum is an integer below 2**53
            block -= np.rint(block[:, pivots].astype(float) @ rows).astype(np.int64)
        block %= p
        block = block[block.any(axis=1)]
        if len(block):
            rows, pivots = rref_mod_p(np.vstack([rows, block]), p)
    free = [c for c in range(u) if c not in set(pivots)]
    basis = np.zeros((len(free), u), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        basis[k, pivots] = -rows[:, c] % p
    return basis


def coboundary_rref(table, p, action):
    """RREF of the boundaries (a, b) -> a.c(b) - c(ab) + c(a) of the
    cochains c = e_j at w, over every non-identity w and every j."""
    n = len(table)
    d = len(action[0])
    gens = []
    for w in range(1, n):
        for j in range(d):
            c = [[0] * d for _ in range(n)]
            c[w][j] = 1
            vec = [0] * ((n - 1) ** 2 * d)
            for a in range(1, n):
                for b in range(1, n):
                    val = _vec_add(
                        _act(action[a], c[b], p), _vec_sub(c[a], c[table[a][b]], p), p
                    )
                    for r in range(d):
                        vec[cochain_column(n, d, a, b, r)] = val[r]
            gens.append(vec)
    return rref_mod_p(np.array(gens, dtype=np.int64), p)[0]


def h2_representatives(z_rows, b_rows, p):
    """The cocycle rows that leave the span of the coboundaries and of the
    cocycle rows before them, in order."""
    span = np.array(b_rows, dtype=np.int64)
    rank = len(rref_mod_p(span, p)[1])
    reps = []
    for z in z_rows:
        grown = np.vstack([span, z])
        if len(rref_mod_p(grown, p)[1]) > rank:
            reps.append(z)
            span, rank = grown, rank + 1
    return np.array(reps, dtype=np.int64).reshape(-1, np.shape(z_rows)[1])


def h2_scalar_matrix(h_rows, b_rows, generator, p):
    """Matrix of the field generator on H^2 coordinates: column i holds the
    h-coefficients of h_rows[i] with ``generator`` applied to every value,
    written in the basis h_rows + b_rows (the combination is unique)."""
    m, u = np.shape(h_rows)
    if m == 0:
        return np.zeros((0, 0), dtype=np.int64)
    d = len(generator)
    basis = np.vstack([h_rows, b_rows]).T
    cols = []
    for rep in h_rows:
        image = (rep.reshape(-1, d) @ np.array(generator).T % p).reshape(-1)
        rows, pivots = rref_mod_p(np.column_stack([basis, image]), p)
        assert pivots == list(range(basis.shape[1]))
        cols.append(rows[:m, -1])
    return np.array(cols, dtype=np.int64).T % p



# ---------------------------------------------------------------------------
# GF(p) spans grown one row at a time, and single solves


class RunningRref:
    """A reduced row echelon basis grown one appended row at a time."""

    def __init__(self, n, p):
        self.n, self.p = n, p
        self.rows, self.pivots = [], []

    def _reduce(self, vec):
        v = np.asarray(vec, dtype=np.int64).reshape(-1) % self.p
        for row, pc in zip(self.rows, self.pivots):
            if v[pc]:
                v = (v - v[pc] * row) % self.p
        return v

    def contains(self, vec):
        return not self._reduce(vec).any()

    def add(self, vec):
        """Extend the basis by ``vec``; True iff the span grew."""
        v = self._reduce(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        pc = int(nz[0])
        v = v * pow(int(v[pc]), self.p - 2, self.p) % self.p
        self.rows = [(row - row[pc] * v) % self.p for row in self.rows]
        pos = sum(1 for c in self.pivots if c < pc)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pc)
        return True


def greedy_independent_rows(mat, p):
    """Indices of the rows that are not in the span of the rows before them."""
    mat = np.asarray(mat, dtype=np.int64)
    span = RunningRref(mat.shape[1] if mat.ndim == 2 else 0, p)
    return [i for i, row in enumerate(mat) if span.add(row)]


def greedy_f_independent(items, scalar_fn, p, k):
    """Indices of the items outside the F-span of the items before them;
    the F-span of v is the F_p-span of scalar_fn^j(v) for j < k."""
    span, picked = None, []
    for i, v in enumerate(items):
        v = np.asarray(v, dtype=np.int64) % p
        if span is None:
            span = RunningRref(v.size, p)
        if span.contains(v):
            continue
        picked.append(i)
        for _ in range(k):
            span.add(v)
            v = scalar_fn(v)
    return picked


def solve_mod_p(mat, rhs, p):
    """One solution x of mat @ x = rhs over GF(p), free variables zero; None
    when there is none."""
    mat = np.asarray(mat, dtype=np.int64) % p
    n = mat.shape[1]
    rows, pivots = rref_mod_p(np.column_stack([mat, np.asarray(rhs) % p]), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = rows[:, n]
    return x

def commutant_dimension(p, gens):
    """dim over GF(p) of matrices commuting with all gens (d x d, tiny d)."""
    d = len(gens[0])
    dim = 0
    basis = []
    def reduce(vec):
        v = list(vec)
        for bvec in basis:
            lead = next(i for i, x in enumerate(bvec) if x)
            if v[lead]:
                coef = v[lead] * pow(bvec[lead], p - 2, p) % p
                v = [(a - coef * b) % p for a, b in zip(v, bvec)]
        return v
    for entries in product(range(p), repeat=d * d):
        m = [entries[r * d : (r + 1) * d] for r in range(d)]
        ok = True
        for g in gens:
            mg = [[sum(m[r][k] * g[k][c] for k in range(d)) % p for c in range(d)] for r in range(d)]
            gm = [[sum(g[r][k] * m[k][c] for k in range(d)) % p for c in range(d)] for r in range(d)]
            if mg != gm:
                ok = False
                break
        if ok:
            flat = reduce([x for row in m for x in row])
            if any(flat):
                basis.append(flat)
                dim += 1
    return dim
