"""Degree-2 cohomology, the extension dictionary, and the dual pair (V, S).

Cochains are normalized (zero whenever an argument is the identity), so a
2-cochain is a table over the (n-1)^2 pairs of non-identity elements with
values in F_p^d. All spaces are presented by F_p bases; the field
F = End_G(A) acts through explicit scalar matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Incompatible,
    KernelNotAbelian,
    Mismatch,
    NotCocycle,
    NotIsomorphism,
    NotSimple,
    OrderCapExceeded,
    SpaceMismatch,
)
from .groups import Cover, FiniteGroup, generating_set, identity_cover, same_group
from .gmodules import (
    EndoField,
    GModule,
    ModuleHom,
    direct_sum_module,
    endo_field,
    is_simple_module,
    kernel_coordinates,
    module_from_cover,
)
from .linalg import (
    IncrementalRowReduce,
    nullspace_mod_p,
    rank_mod_p,
    row_echelon_mod_p,
    solve_mod_p,
)

__all__ = [
    "TwoCochain",
    "CohomSpace",
    "CohomClass",
    "DualPairS",
    "ExtensionRealization",
    "cohom_space",
    "extension_from_cocycle",
    "cover_cochain",
    "cocycle_from_extension",
    "are_congruent",
    "are_isomorphic_extensions",
    "inflate",
    "inflate_module",
    "x2",
    "y2",
    "fiber_cocycle",
    "push_cochain",
]

COCHAIN_COORDS_CAP = 2500


@dataclass(frozen=True)
class TwoCochain:
    """A normalized A-valued function on G x G."""

    group: FiniteGroup
    module: GModule
    table: np.ndarray  # (n, n, d) over F_p

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=np.int64) % max(self.module.p, 2)
        n, d = self.group.order, self.module.dim
        if t.shape != (n, n, d):
            raise Incompatible("cochain table has wrong shape")
        if t[0].any() or t[:, 0].any():
            raise Incompatible("cochain is not normalized")
        object.__setattr__(self, "table", t)

    def flat(self) -> np.ndarray:
        """Coordinates over the non-identity pairs, row-major."""
        return self.table[1:, 1:, :].reshape(-1)

    def is_cocycle(self) -> bool:
        """The identity x.f(y,z) + f(x,yz) = f(xy,z) + f(x,y), checked for x
        in ``generating_set(group)`` and all (y, z): that suffices for a
        normalized cochain (see ``CohomSpace._cocycle_basis``)."""
        g, t = self.group, self.table
        for x in generating_set(g):
            lhs = t @ self.module.action[x].T + t[x][g.mul]
            rhs = t[g.mul[x]] + t[x][:, None, :]
            if ((lhs - rhs) % self.module.p).any():
                return False
        return True


def _cochain_from_flat(group: FiniteGroup, module: GModule, vec: np.ndarray) -> TwoCochain:
    n, d = group.order, module.dim
    table = np.zeros((n, n, d), dtype=np.int64)
    table[1:, 1:, :] = np.asarray(vec, dtype=np.int64).reshape(n - 1, n - 1, d)
    return TwoCochain(group, module, table % max(module.p, 2))


class CohomSpace:
    """H^2(G, A) presented over F_p with its F = End_G(A) structure."""

    def __init__(self, group: FiniteGroup, module: GModule, field: EndoField) -> None:
        self.group = group
        self.module = module
        self.endo_field = field
        n, d, p = group.order, module.dim, module.p
        self.p = p
        u = (n - 1) * (n - 1) * d
        self._u = u
        if u > COCHAIN_COORDS_CAP:
            raise OrderCapExceeded(
                f"{u} cochain coordinates exceed cap {COCHAIN_COORDS_CAP}"
            )
        self.z_basis = self._cocycle_basis()
        self.b_basis = self._coboundary_basis()
        reps = []
        span = IncrementalRowReduce(u, p) if u else None
        if span is not None:
            for row in self.b_basis:
                span.add(row)
            for row in self.z_basis:
                if span.add(row):
                    reps.append(row % p)
        self.h_reps = (
            np.array(reps, dtype=np.int64)
            if reps
            else np.zeros((0, u), dtype=np.int64)
        )
        self.dim_p = len(reps)
        if self.dim_p % field.k:
            raise Incompatible("H^2 dimension not divisible by field degree")
        self.f_dim = self.dim_p // field.k
        self._solver = (
            np.vstack([self.h_reps, self.b_basis]).T
            if (self.dim_p or len(self.b_basis))
            else np.zeros((u, 0), dtype=np.int64)
        )
        self.scalar_matrix = self._scalar_action()

    # -- construction ---------------------------------------------------

    def _cocycle_basis(self) -> np.ndarray:
        """Nullspace of the cocycle identity, imposed for x in a generating
        set S only.

        For h = df, the 3-cocycle identity at (s, y, z, w) gives
        h(sy, z, w) = s.h(y, z, w); with h(1, ., .) = 0 for a normalized f,
        h vanishing on S x G x G vanishes everywhere. So the nullspace, and
        with it the RREF-derived basis, equals the one over all x in G.
        Rows are indexed (y, z, r) per x, columns (s, t, j); y, z run over
        the non-identity elements, where the identity is not automatic.
        """
        g, mod = self.group, self.module
        n, d, p, u = g.order, mod.dim, mod.p, self._u
        if u == 0:
            return np.zeros((0, 0), dtype=np.int64)
        k = n - 1
        y, z = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
        yz = g.mul[y, z]
        eye = np.eye(d, dtype=np.int64)
        blocks = []
        for x in generating_set(g):
            if x == 0:
                continue
            xy = g.mul[x, y]
            c = np.zeros((k, k, d, k, k, d), dtype=np.int64)
            # x.f(y,z) + f(x,yz) - f(xy,z) - f(x,y) = 0; f(1, .) = f(., 1) = 0
            c[y - 1, z - 1, :, y - 1, z - 1, :] += mod.action[x]
            m = yz != 0
            c[y[m] - 1, z[m] - 1, :, x - 1, yz[m] - 1, :] += eye
            m = xy != 0
            c[y[m] - 1, z[m] - 1, :, xy[m] - 1, z[m] - 1, :] -= eye
            c[y - 1, z - 1, :, x - 1, y - 1, :] -= eye
            blocks.append(c.reshape(k * k * d, u))
        return nullspace_mod_p(np.vstack(blocks) % p, p)

    def _coboundary_basis(self) -> np.ndarray:
        """RREF of the boundaries of the cochains e_j at w, rows (w, j)."""
        g, mod = self.group, self.module
        n, d, p, u = g.order, mod.dim, mod.p, self._u
        if u == 0:
            return np.zeros((0, u), dtype=np.int64)
        k = n - 1
        x, y = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
        xy = g.mul[x, y]
        j = np.arange(d)
        b = np.zeros((k, d, k, k, d), dtype=np.int64)
        # the boundary (x, y) -> x.c(y) - c(xy) + c(x) of c = e_j at w:
        # x.c(y) where w = y, -c(xy) where w = xy, c(x) where w = x
        b[y - 1, :, x - 1, y - 1, :] += np.asarray(mod.action)[x].transpose(0, 1, 3, 2)
        m = xy != 0
        b[xy[m, None] - 1, j, x[m, None] - 1, y[m, None] - 1, j] -= 1
        b[x[..., None] - 1, j, x[..., None] - 1, y[..., None] - 1, j] += 1
        reduced, _ = row_echelon_mod_p(b.reshape(k * d, u) % p, p)
        return reduced

    def _scalar_action(self) -> np.ndarray:
        m = self.dim_p
        if m == 0:
            return np.zeros((0, 0), dtype=np.int64)
        d = self.module.dim
        J = self.endo_field.generator_matrix
        cols = []
        for rep in self.h_reps:
            vis = rep.reshape(-1, d) @ J.T % self.p
            cols.append(self.coordinates_of_flat(vis.reshape(-1)))
        return np.array(cols, dtype=np.int64).T % self.p

    # -- queries ----------------------------------------------------------

    def structural_key(self) -> bytes:
        return self.group.mul.tobytes() + self.module.structural_key()

    def coordinates_of_flat(self, vec: np.ndarray) -> np.ndarray:
        """H^2-coordinates of a cocycle given by its flat table."""
        if self.dim_p == 0:
            return np.zeros(0, dtype=np.int64)
        sol = solve_mod_p(self._solver, vec, self.p)
        if sol is None:
            raise NotCocycle("vector is not in the cocycle span")
        return sol[: self.dim_p] % self.p

    def class_of(self, cochain: TwoCochain) -> CohomClass:
        if not cochain.is_cocycle():
            raise NotCocycle("cochain fails the degree-2 identity")
        return CohomClass(self, self.coordinates_of_flat(cochain.flat()))

    def representative(self, coords: np.ndarray) -> TwoCochain:
        vec = (
            np.asarray(coords, dtype=np.int64) @ self.h_reps % self.p
            if self.dim_p
            else np.zeros(self._u, dtype=np.int64)
        )
        return _cochain_from_flat(self.group, self.module, vec)

    def f_rank(self, vectors: np.ndarray) -> int:
        """F-dimension of the F-span of coordinate vectors (rows)."""
        vectors = np.asarray(vectors, dtype=np.int64) % self.p
        span = IncrementalRowReduce(self.dim_p, self.p)
        count = 0
        for v in vectors:
            if span.contains(v):
                continue
            count += 1
            w = v
            for _ in range(self.endo_field.k):
                span.add(w)
                w = self.scalar_matrix @ w % self.p
        return count

    def __repr__(self) -> str:
        return (
            f"CohomSpace(H^2({self.group.name}, F{self.p}^{self.module.dim}),"
            f" dim_F={self.f_dim})"
        )


@dataclass(frozen=True)
class CohomClass:
    """An element of a CohomSpace, stored by F_p-coordinates."""

    space: CohomSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coords, dtype=np.int64) % self.space.p
        if c.shape != (self.space.dim_p,):
            raise SpaceMismatch("coordinate vector has wrong length")
        object.__setattr__(self, "coords", c)

    def representative(self) -> TwoCochain:
        return self.space.representative(self.coords)

    def is_zero(self) -> bool:
        return not self.coords.any()


_space_cache: dict[bytes, CohomSpace] = {}


def cohom_space(group: FiniteGroup, module: GModule, field: EndoField | None = None) -> CohomSpace:
    """H^2(group, module) for a simple module; memoized per (group, module)."""
    if not is_simple_module(module):
        raise NotSimple("cohomology space needs a simple module")
    if not same_group(module.group, group):
        raise Incompatible("module is over a different group")
    key = group.mul.tobytes() + module.structural_key()
    cached = _space_cache.get(key)
    if cached is not None:
        return cached
    space = CohomSpace(group, module, field or endo_field(module))
    _space_cache[key] = space
    return space


# ---------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class ExtensionRealization:
    """The explicit group built from a cocycle, with its projection cover."""

    cover: Cover
    module: GModule
    embed: np.ndarray  # module element index -> group element index
    cochain: TwoCochain


def extension_from_cocycle(cochain: TwoCochain) -> ExtensionRealization:
    """Build the extension of the cochain's group by its module.

    Elements are pairs (a, g) numbered a * |G| + g, multiplied by
    (a1, g1)(a2, g2) = (a1 + g1.a2 + f(g1, g2), g1 g2); the identity is
    (0, 1) = index 0. Raises NotCocycle for non-cocycles.
    """
    if not cochain.is_cocycle():
        raise NotCocycle("table fails the degree-2 identity")
    g = cochain.group
    mod = cochain.module
    n, p, d = g.order, mod.p, mod.dim
    q = mod.size
    add_idx = np.empty((q, q), dtype=np.int64)
    vecs = [mod.index_to_vector(a) for a in range(q)]
    for a1 in range(q):
        for a2 in range(q):
            add_idx[a1, a2] = mod.vector_to_index((vecs[a1] + vecs[a2]) % p)
    act_idx = np.empty((n, q), dtype=np.int64)
    for x in range(n):
        m = mod.action[x]
        for a in range(q):
            act_idx[x, a] = mod.vector_to_index(m @ vecs[a] % p)
    f_idx = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            f_idx[x, y] = mod.vector_to_index(cochain.table[x, y] % p)
    size = q * n
    rows = g.mul_rows
    mul = np.empty((size, size), dtype=np.int32)
    for a1 in range(q):
        for g1 in range(n):
            i = a1 * n + g1
            for a2 in range(q):
                shifted = add_idx[a1, act_idx[g1, a2]]
                for g2 in range(n):
                    a_out = add_idx[shifted, f_idx[g1, g2]]
                    mul[i, a2 * n + g2] = a_out * n + rows[g1][g2]
    base_gens = tuple(int(x) for x in (g.generators or tuple(range(1, n))))
    base_labels = g.generator_labels
    if len(base_labels) != len(base_gens):
        base_labels = tuple(f"e{x}" for x in base_gens)
    gens = tuple(p ** j * n for j in range(d)) + base_gens
    labels = tuple(f"k{j}" for j in range(d)) + base_labels
    ext = FiniteGroup(
        mul,
        name=f"ext({g.name};F{p}^{d})",
        generators=gens,
        generator_labels=labels,
    )
    image = np.fromiter((i % n for i in range(size)), dtype=np.int32, count=size)
    cover = Cover(ext, g, image, check=False)
    embed = np.fromiter((a * n for a in range(q)), dtype=np.int64, count=q)
    return ExtensionRealization(cover=cover, module=mod, embed=embed, cochain=cochain)


def cover_cochain(pi: Cover) -> TwoCochain:
    """The cocycle of a cover with abelian kernel, via the least-index
    section; coefficients in the conjugation module on the kernel."""
    ker = pi.kernel()
    src = pi.source
    rows = src.mul_rows
    for a in ker.elements:
        for b in ker.elements:
            if rows[a][b] != rows[b][a]:
                raise KernelNotAbelian("cover kernel is not abelian")
    mod = module_from_cover(pi, ker)
    coords = kernel_coordinates(ker)
    base = pi.target
    n = base.order
    section = np.full(n, -1, dtype=np.int64)
    for h in range(src.order):
        gidx = int(pi.image[h])
        if section[gidx] < 0:
            section[gidx] = h
    inv = src.inv
    d = mod.dim
    table = np.zeros((n, n, d), dtype=np.int64)
    for s in range(1, n):
        us = int(section[s])
        for t in range(1, n):
            h = rows[us][int(section[t])]
            k = rows[h][int(inv[int(section[int(pi.image[h])])])]
            table[s, t] = coords.to_vector[k]
    return TwoCochain(base, mod, table)


def cocycle_from_extension(pi: Cover, ident: ModuleHom) -> CohomClass:
    """The H^2 class of a cover with abelian kernel, read through the
    kernel identification ``ident`` onto a simple module."""
    raw = cover_cochain(pi)
    kmod = raw.module
    if ident.source.structural_key() != kmod.structural_key():
        raise NotIsomorphism(
            "identification source is not the kernel module of the cover"
        )
    if not ident.is_isomorphism():
        raise NotIsomorphism("kernel identification must be bijective")
    target = ident.target
    pushed = push_cochain(raw, ident.matrix, target)
    space = cohom_space(pi.target, target)
    return space.class_of(pushed)


def push_cochain(cochain: TwoCochain, matrix: np.ndarray, target: GModule) -> TwoCochain:
    """Apply a linear map to all values of a cochain."""
    matrix = np.asarray(matrix, dtype=np.int64)
    n = cochain.group.order
    dk = cochain.module.dim
    flatvals = cochain.table.reshape(-1, dk)
    out = flatvals @ matrix.T % max(target.p, 2)
    return TwoCochain(cochain.group, target, out.reshape(n, n, target.dim))


def are_congruent(c1: CohomClass, c2: CohomClass) -> bool:
    """Equal classes in the same cohomology space."""
    if c1.space is not c2.space and c1.space.structural_key() != c2.space.structural_key():
        raise SpaceMismatch("classes live in different cohomology spaces")
    return bool(np.array_equal(c1.coords, c2.coords))


def are_isomorphic_extensions(c1: CohomClass, c2: CohomClass) -> bool:
    """True iff the classes agree up to a nonzero scalar of F = End_G(A)."""
    if c1.space is not c2.space and c1.space.structural_key() != c2.space.structural_key():
        raise SpaceMismatch("classes live in different cohomology spaces")
    space = c1.space
    v = c1.coords % space.p
    target = c2.coords % space.p
    q = space.endo_field.order
    cur = v.copy()
    for _ in range(max(q - 1, 1)):
        if np.array_equal(cur, target):
            return True
        cur = space.scalar_matrix @ cur % space.p if space.dim_p else cur
    return bool(np.array_equal(v, target))


def inflate_module(pi: Cover, module: GModule) -> GModule:
    """Pull a module over the target back along a cover of groups."""
    if not same_group(module.group, pi.target):
        raise Incompatible("module is not over the cover target")
    mats = tuple(module.action[int(pi.image[g])] for g in range(pi.source.order))
    return GModule(pi.source, module.p, mats, check=False)


def inflate(pi: Cover, cls: CohomClass) -> CohomClass:
    """Inflation along pi: class of (s, t) -> f(pi(s), pi(t))."""
    src = pi.source
    rep = cls.representative()
    mod_up = inflate_module(pi, rep.module)
    n = src.order
    table = np.zeros((n, n, mod_up.dim), dtype=np.int64)
    for s in range(n):
        ps = int(pi.image[s])
        for t in range(n):
            table[s, t] = rep.table[ps, int(pi.image[t])]
    space_up = cohom_space(src, mod_up)
    return space_up.class_of(TwoCochain(src, mod_up, table))


# ---------------------------------------------------------------------------
# the dual pair (V, S) of a cover, and its inverse construction


@dataclass(frozen=True)
class DualPairS:
    """Hom(K, A) together with the F-linear map S into H^2(G, A)."""

    dual: object  # DualSpace
    space: CohomSpace
    s_matrix: np.ndarray  # (dim_p H^2) x (fp_dim of dual), over F_p

    @property
    def f_nullity(self) -> int:
        cols = self.s_matrix.shape[1]
        r = rank_mod_p(self.s_matrix, self.space.p) if cols else 0
        return (cols - r) // self.space.endo_field.k

    @property
    def f_rank(self) -> int:
        cols = self.s_matrix.shape[1]
        if not cols:
            return 0
        return rank_mod_p(self.s_matrix, self.space.p) // self.space.endo_field.k

    def image_rows(self) -> np.ndarray:
        """Canonical (RREF) F_p row basis of the image of S in H^2."""
        if not self.s_matrix.size:
            return np.zeros((0, self.space.dim_p), dtype=np.int64)
        reduced, _ = row_echelon_mod_p(self.s_matrix.T, self.space.p)
        return reduced


def x2(pi: Cover, target: GModule) -> DualPairS:
    """The dual pair of a cover whose kernel is target-generated."""
    from .gmodules import hom_space, is_A_generated
    from .errors import NotAGenerated

    ker = pi.kernel()
    kmod = module_from_cover(pi, ker)
    if not is_A_generated(kmod, target):
        raise NotAGenerated("cover kernel is not generated by the module")
    dual = hom_space(kmod, target)
    space = cohom_space(pi.target, target)
    raw = cover_cochain(pi)
    cols = []
    for phi in dual.fp_basis:
        pushed = push_cochain(raw, phi, target)
        cols.append(space.class_of(pushed).coords)
    s_matrix = (
        np.array(cols, dtype=np.int64).T
        if cols
        else np.zeros((space.dim_p, 0), dtype=np.int64)
    )
    return DualPairS(dual=dual, space=space, s_matrix=s_matrix)


def y2(group: FiniteGroup, module: GModule, values) -> Cover:
    """The fiber product of the extensions realizing the given classes."""
    from .fiber import fiber_product

    values = list(values)
    if not values:
        return identity_cover(group)
    covers = []
    for cls in values:
        if cls.space.structural_key() != cohom_space(group, module).structural_key():
            raise SpaceMismatch("class does not live in H^2(group, module)")
        covers.append(extension_from_cocycle(cls.representative()).cover)
    return fiber_product(group, covers).structure_map


def fiber_cocycle(cochains) -> TwoCochain:
    """Componentwise cochain of a fiber product of extensions: values in
    the direct sum of the coefficient modules."""
    cochains = list(cochains)
    if not cochains:
        raise Mismatch("need at least one cochain")
    first = cochains[0]
    for c in cochains[1:]:
        if not same_group(c.group, first.group):
            raise Mismatch("cochains over different groups")
        if c.module.structural_key() != first.module.structural_key():
            raise Mismatch("cochains with different coefficient modules")
    big = direct_sum_module(first.module, len(cochains))
    table = np.concatenate([c.table for c in cochains], axis=2)
    return TwoCochain(first.group, big, table)
