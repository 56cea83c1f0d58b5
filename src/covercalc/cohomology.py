"""Degree-2 cohomology, the extension dictionary, and the dual pair (V, S).

Cochains are normalized (zero whenever an argument is the identity), so a
2-cochain is a table over the (n-1)^2 pairs of non-identity elements with
values in F_p^d. All spaces are presented by F_p bases. The field
F = End_G(A) is read through its degree k alone: an F_p row space of an
F-linear image is an F-subspace, and its F-dimension is its F_p
dimension divided by k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Incompatible,
    KernelNotAbelian,
    NotAGenerated,
    NotCocycle,
    NotIsomorphism,
    NotSimple,
    OrderCapExceeded,
    SpaceMismatch,
)
from .groups import (
    Cover,
    FiniteGroup,
    _commute,
    _walk,
    generating_set,
    same_group,
)
from .gmodules import (
    EndoField,
    GModule,
    KernelCoords,
    ModuleHom,
    _generates,
    _module_and_coords,
    endo_field,
    hom_space,
    is_simple_module,
)
from .linalg import (
    nullspace_mod_p,
    rank_mod_p,
    row_echelon_mod_p,
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
    "x2",
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
        t = np.asarray(self.table, dtype=np.int64) % self.module.p
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
        in S = ``generating_set(group)`` and all (y, z).

        That suffices for a normalized cochain: h = df satisfies the
        3-cocycle identity, which at (s, y, z, w) with h zero on S x G x G
        reads h(sy, z, w) = s.h(y, z, w). S generates G and
        h(1, z, w) = f(z, w) - f(z, w) + f(1, zw) - f(1, z) = 0, so h
        vanishes everywhere."""
        g, t = self.group, self.table
        xs = np.array(generating_set(g), dtype=np.intp)
        # axes (x, y, z, value) with x in S
        acted = t @ self.module.action[xs, None].swapaxes(-1, -2)
        diff = acted + t[xs[:, None, None], g.mul] - t[g.mul[xs]] - t[xs, :, None]
        return not (diff % self.module.p).any()


def _cochain_from_flat(group: FiniteGroup, module: GModule, vec: np.ndarray) -> TwoCochain:
    n, d = group.order, module.dim
    table = np.zeros((n, n, d), dtype=np.int64)
    table[1:, 1:, :] = np.asarray(vec, dtype=np.int64).reshape(n - 1, n - 1, d)
    return TwoCochain(group, module, table % module.p)


class CohomSpace:
    """H^2(G, A) presented over F_p with its F = End_G(A) structure.

    A cochain's flat coordinates are its u = (n-1)^2·d values f(x, y)_c
    over the non-identity pairs, row-major. ``z_basis`` (r x u) has the
    identity at its pivot columns P, so a cocycle v is v[P]·``z_basis``
    and v -> v[P] is an isomorphism Z^2 -> F_p^r. All later algebra is
    in these r coordinates: B^2 is read only at P; ``h_reps`` are the
    rows of ``z_basis`` whose unit vectors a greedy scan keeps after B^2;
    and the H^2-coordinates of v are the coefficients of v[P] on those
    unit vectors once its B^2 part is taken off.
    """

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
        self.z_basis, self._pivots = self._cocycle_basis()
        r = len(self._pivots)
        # B^2 in the RREF of its reversed columns: row i ends in a 1 at
        # column ends[i] and is 0 at the other ends. e_i is in
        # B^2 + <e_0, ..., e_(i-1)> iff some coboundary ends at i, so a
        # greedy scan of the unit vectors after B^2 keeps the others.
        reduced, rev = row_echelon_mod_p(self._coboundaries_at_pivots()[:, ::-1], p)
        ends = [r - 1 - c for c in rev]
        dropped = np.zeros(r, dtype=bool)
        dropped[ends] = True
        kept = (~dropped).nonzero()[0]
        self.h_reps = self.z_basis[kept]
        self.dim_p = len(kept)
        if self.dim_p % field.k:
            raise Incompatible("H^2 dimension not divisible by field degree")
        self.f_dim = self.dim_p // field.k
        # w = c·I[kept] + b with b in B^2 has b = w[ends]·reduced[:, ::-1],
        # as the unit vectors vanish at the ends, so c = w·T
        transform = np.eye(r, dtype=np.int64)[:, kept]
        transform[ends] -= reduced[:, ::-1][:, kept]
        self._transform = transform % p

    # -- construction ---------------------------------------------------

    def _cocycle_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """RREF-derived basis of Z^2 and its pivot columns P, solved for
        the values f(x, s) on the non-identity x and the distinct
        non-identity s of S = ``generating_set(group)``: (n-1)·|S|·d
        unknowns (Holt–Eick–O'Brien, *Handbook of Computational Group
        Theory*, ch. 7).

        The tree of ``groups._walk(group, S)`` extends the unknowns to
        all of G x G: on a tree edge y -> ys,
        f(w, ys) = f(w, y) + f(wy, s) - w.f(y, s), the cocycle identity at
        (w, y, s). On every other edge that identity gives n·d rows. A
        cocycle satisfies them all and is fixed by its values on G x S.
        Conversely the tree extension f of a solution is normalized and
        h = df vanishes on G x G x S; the 3-cocycle identity of h at
        (w, x, y, s) then reads h(w, x, ys) = h(w, x, y), and S generates
        G, so h(w, x, z) = h(w, x, 1) = 0 for every z. The nullspace N is
        Z^2.

        The rows of N, expanded into flat cochain coordinates, span Z^2
        whatever the tree and the order of the rows, and its basis is the
        one with a 1 at one free column of the full system's RREF and 0
        at the others. Those free columns are the pivots of the RREF of
        the column-reversed span, so that RREF, reversed back in rows and
        columns, is the same basis, and its pivots, reversed back, are P.
        """
        g, mod = self.group, self.module
        n, d, p, u = g.order, mod.dim, mod.p, self._u
        if u == 0:
            return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.intp)
        gens = list(dict.fromkeys(s for s in generating_set(g) if s))
        m = (n - 1) * len(gens) * d
        # unknown[x, i] selects f(x, gens[i]) among the unknowns, 0 at x = 1
        unknown = np.zeros((n, len(gens), d, m), dtype=np.int64)
        unknown[1:] = np.eye(m, dtype=np.int64).reshape(n - 1, len(gens), d, m)
        tree = np.zeros((n, n, d, m), dtype=np.int64)  # tree[z][w] = f(w, z)

        def across(x, i):  # f(w, x·s) for s = gens[i], from f(w, x)
            return (tree[x] + unknown[g.mul[:, x], i] - mod.action @ unknown[x, i]) % p

        rows = []
        for edges, relations in _walk(g, gens):
            for y, x, i in edges:
                tree[y] = across(x, i)
            rows += [(tree[y] - across(x, i)).reshape(n * d, m) for x, i, y in relations]
        null = nullspace_mod_p(np.concatenate(rows) % p, p)
        # the cochain table[w, z, r] = f(w, z)_r, over the non-identity pairs
        expand = tree.transpose(1, 0, 2, 3)[1:, 1:]
        span = null @ expand.reshape(u, m).T % p
        reduced, pivots = row_echelon_mod_p(span[:, ::-1], p)
        return (
            np.ascontiguousarray(reduced[::-1, ::-1]),
            u - 1 - np.array(pivots[::-1], dtype=np.intp),
        )

    def _coboundaries_at_pivots(self) -> np.ndarray:
        """The boundaries (x, y) -> x.c(y) - c(xy) + c(x) of the cochains
        c = e_j at w, row (w, j), read at the pivot columns P: column
        (x, y, c) holds A_x[c, j]·[w = y] - [w = xy]·[j = c] + [w = x]·[j = c]."""
        g, mod = self.group, self.module
        n, d, cols = g.order, mod.dim, self._pivots
        xy, c = np.divmod(cols, d)
        x, y = np.divmod(xy, n - 1)
        x, y, k = x + 1, y + 1, np.arange(len(cols))
        # rows (w, j) for every w; w = 1 takes the -c(xy) terms with xy = 1
        b = np.zeros((n, d, len(cols)), dtype=np.int64)
        b[y, :, k] += mod.action[x, c]
        b[g.mul[x, y], c, k] -= 1
        b[x, c, k] += 1
        return b[1:].reshape((n - 1) * d, len(cols)) % mod.p

    # -- queries ----------------------------------------------------------

    def coordinates_of_flat(self, vec: np.ndarray) -> np.ndarray:
        """H^2-coordinates of a cocycle given by its flat table; for a
        2-D array, of each row, every row checked against Z^2.

        This is the cocycle test: a normalized cochain is fixed by its
        flat table, and v lies in Z^2 = span(``z_basis``) iff
        v = v[P]·``z_basis``, as ``z_basis`` is the identity at P.
        Raises NotCocycle otherwise."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        w = v[..., self._pivots]
        if ((w @ self.z_basis - v) % self.p).any():
            raise NotCocycle("vector is not in the cocycle span")
        return w @ self._transform % self.p

    def class_of(self, cochain: TwoCochain) -> CohomClass:
        """The class of a normalized cocycle; NotCocycle, from
        ``coordinates_of_flat``, for any other cochain."""
        return CohomClass(self, self.coordinates_of_flat(cochain.flat()))

    def representative(self, coords: np.ndarray) -> TwoCochain:
        vec = np.asarray(coords, dtype=np.int64) @ self.h_reps % self.p
        return _cochain_from_flat(self.group, self.module, vec)

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


def cohom_space(group: FiniteGroup, module: GModule) -> CohomSpace:
    """H^2(group, module) for a simple module; memoized on the group
    (``group._spaces``, keyed by the module's structural key)."""
    if not is_simple_module(module):
        raise NotSimple("cohomology space needs a simple module")
    if not same_group(module.group, group):
        raise Incompatible("module is over a different group")
    key = module.structural_key()
    space = group._spaces.get(key)
    if space is None:
        space = group._spaces[key] = CohomSpace(group, module, endo_field(module))
    return space


# ---------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class ExtensionRealization:
    """The explicit group built from a cocycle, with its projection cover."""

    cover: Cover


def extension_from_cocycle(cochain: TwoCochain) -> ExtensionRealization:
    """Build the extension of the cochain's group by its module.

    Elements are pairs (a, g) numbered a * |G| + g, multiplied by
    (a1, g1)(a2, g2) = (a1 + g1.a2 + f(g1, g2), g1 g2); the identity is
    (0, 1) = index 0. The cover keeps the cochain's module as its kernel
    module (``Cover._kernel_module``). Raises NotCocycle for non-cocycles.
    """
    if not cochain.is_cocycle():
        raise NotCocycle("table fails the degree-2 identity")
    g = cochain.group
    mod = cochain.module
    n, p, d = g.order, mod.p, mod.dim
    q = mod.size
    # module elements as vectors and back (index = sum of v_j p^j)
    vecs = np.array([mod.index_to_vector(a) for a in range(q)], dtype=np.int64).reshape(q, d)
    weights = p ** np.arange(d, dtype=np.int64)
    add_idx = ((vecs[:, None, :] + vecs[None, :, :]) % p @ weights).astype(np.int32)
    act_idx = vecs @ mod.action.transpose(0, 2, 1) % p @ weights  # [x, a]: x.a
    f_idx = cochain.table % p @ weights
    # (a1, g1)(a2, g2) over axes (a1, g1, a2, g2)
    shifted = add_idx[np.arange(q)[:, None, None], act_idx[None, :, :]]
    a_out = add_idx[shifted[..., None], f_idx[None, :, None, :]]  # int32, like the table
    size = q * n
    mul = (a_out * n + g.mul[None, :, None, :]).reshape(size, size)
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
    cover = Cover(ext, g, np.arange(size) % n, check=False)
    embed = np.arange(q, dtype=np.int64) * n
    if d and same_group(mod.group, g):
        # the kernel's module and coordinates, as _module_and_coords reads
        # them: kernel element a·n has vector a, the greedy basis is p^j·n,
        # and conjugation by the least section element (0, x) acts as x
        vectors = np.zeros((size, d), dtype=np.int64)
        vectors[embed] = vecs
        basis = tuple(int(b) for b in embed[weights])
        cover._kernel_module = (mod, KernelCoords(p, d, basis, vectors))
    return ExtensionRealization(cover=cover)


def cover_cochain(pi: Cover) -> TwoCochain:
    """The cocycle of a cover with abelian kernel, read through the one
    section of the cover, ``fibers[:, 0]`` (the least element of each
    fiber); coefficients in the conjugation module on the kernel."""
    src, ker = pi.source, pi.kernel()
    # a memoized kernel module was read off an abelian kernel
    if pi._kernel_module is None and not _commute(src, ker.elements, ker.elements):
        raise KernelNotAbelian("cover kernel is not abelian")
    mod, coords = _module_and_coords(pi, ker)
    # f(s, t) is the kernel part of u_s u_t against u_st, u the section
    section = pi.fibers[:, 0]
    h = src.mul[section[:, None], section]
    k = src.mul[h, src.inv[section[pi.image[h]]]]
    return TwoCochain(pi.target, mod, coords.vectors[k])


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
    out = flatvals @ matrix.T % target.p
    return TwoCochain(cochain.group, target, out.reshape(n, n, target.dim))


# ---------------------------------------------------------------------------
# the dual pair (V, S) of a cover, and its inverse construction


@dataclass(frozen=True)
class DualPairS:
    """The F-linear map S from Hom_G(K, A) into H^2(G, A), in the F_p
    basis of ``hom_space(K, A)``."""

    space: CohomSpace
    s_matrix: np.ndarray  # (dim_p H^2) x (fp_dim of Hom_G(K, A)), over F_p

    @property
    def f_nullity(self) -> int:
        cols = self.s_matrix.shape[1]
        r = rank_mod_p(self.s_matrix, self.space.p) if cols else 0
        return (cols - r) // self.space.endo_field.k

    def image_rows(self) -> np.ndarray:
        """Canonical (RREF) F_p row basis of the image of S in H^2."""
        if not self.s_matrix.size:
            return np.zeros((0, self.space.dim_p), dtype=np.int64)
        reduced, _ = row_echelon_mod_p(self.s_matrix.T, self.space.p)
        return reduced


def x2(pi: Cover, target: GModule) -> DualPairS:
    """The map S of the dual pair (V, S) of a cover whose kernel is
    target-generated, on the F_p basis of V = ``hom_space(K, A)``. The
    kernel module (memoized on the cover) and V are built once.

    The K-valued cochain f of the cover is pushed through every F_p
    basis map phi of Hom_G(K, A) at once, and ``coordinates_of_flat``
    checks every pushed table against Z^2. That is the only cocycle
    test f needs: a G-map commutes with the coboundary, so
    phi(df) = d(phi f) = 0 for every phi, and as K is A-generated the
    phi have zero common kernel, so df = 0."""
    kmod = _module_and_coords(pi, pi.kernel())[0]
    dual = hom_space(kmod, target)
    if kmod.dim and not _generates(dual):
        raise NotAGenerated("cover kernel is not generated by the module")
    space = cohom_space(pi.target, target)
    if not len(dual.fp_basis):
        s_matrix = np.zeros((space.dim_p, 0), dtype=np.int64)
        return DualPairS(space=space, s_matrix=s_matrix)
    raw = cover_cochain(pi)
    # pushed[m, x, y] = phi_m(f(x, y)), over the non-identity pairs
    pushed = raw.table[1:, 1:] @ dual.fp_basis[:, None].swapaxes(-1, -2)
    flat = pushed.reshape(len(dual.fp_basis), -1)
    s_matrix = space.coordinates_of_flat(flat).T
    return DualPairS(space=space, s_matrix=s_matrix)
