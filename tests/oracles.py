"""Independent brute-force oracles for the test suite.

Everything in this file is deliberately naive and self-contained: raw
multiplication tables (tuples of tuples, identity at index 0), subset
enumeration, exhaustive cochain enumeration, and the degree-2 linear
systems over every group element, solved by plain dense elimination. It
never imports the package under test, so agreement between the two is
meaningful.
"""

from __future__ import annotations

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
    """All normal subgroups of the whole group contained in the set m."""
    blocks = {normal_closure(table, [x]) for x in m if x != 0}
    blocks = {b for b in blocks if b <= m}
    found = {frozenset({0})} | set(blocks)
    changed = True
    while changed:
        changed = False
        for a in list(found):
            for b in list(blocks):
                j = normal_closure(table, a | b)
                if j <= m and j not in found:
                    found.add(j)
                    changed = True
    return found


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
