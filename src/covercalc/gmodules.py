"""Finite group modules over prime fields, and the Hom(-, A) duality.

A module is a matrix action of a finite group on F_p^d: one read-only
(order, d, d) int64 array, the invertible matrix of element g at index
g. Simple modules carry an endomorphism field F = End_G(A); Hom-spaces
are F-vector spaces presented by F_p bases, one (m, dA, dK) array,
together with the scalar action, so a single GF(p) elimination core
serves both F_p and F_q linear algebra.

F is kept as its F_p basis and one algebra generator J, a matrix with
F_p[J] = F; its elements are never listed. Every reader of F uses it
only through F-spans, and the F-span of v is the F_p-span of
v, Jv, ..., J^(k-1)v for any such J, so the choice of J changes no
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacteristicMismatch,
    Incompatible,
    NotAGenerated,
    NotCentralInKernel,
    NotElementaryAbelian,
    NotNormal,
    NotSimple,
    NotSubmodule,
)
from .groups import (
    Cover,
    FiniteGroup,
    Subgroup,
    _commute,
    _prime_divisors,
    generating_set,
    same_group,
)
from .linalg import (
    independent_rows,
    nullspace_mod_p,
    projective_points,
    rank_mod_p,
    row_echelon_mod_p,
    row_space_le,
    spin,
)

__all__ = [
    "GModule",
    "ModuleHom",
    "EndoField",
    "DualSpace",
    "KernelCoords",
    "module_from_cover",
    "kernel_coordinates",
    "trivial_module",
    "direct_sum_module",
    "is_simple_module",
    "endo_field",
    "hom_space",
    "homs_vanishing_on",
    "is_A_generated",
    "decompose_isotypic",
    "complement",
    "first_module_iso",
    "f_independent_subset",
]


class GModule:
    """A finite G-module: F_p^d with one action matrix per group element.

    ``action`` may be any array-like of ``group.order`` square d x d
    matrices; anything else raises Incompatible, with or without
    ``check``. It is stored reduced mod p as one read-only
    (order, d, d) int64 array, ``action[g]`` the matrix of g."""

    def __init__(
        self,
        group: FiniteGroup,
        p: int,
        action,
        check: bool = True,
    ) -> None:
        # F_p arithmetic is a field only for prime p
        if _prime_divisors(p) != [p]:
            raise Incompatible(f"module coefficients need a prime p, got {p}")
        try:
            acts = np.ascontiguousarray(action, dtype=np.int64) % p
        except ValueError:  # ragged: matrices of different shapes
            acts = np.zeros(0)
        if acts.ndim != 3 or acts.shape[0] != group.order or acts.shape[1] != acts.shape[2]:
            raise Incompatible("need one square action matrix per group element")
        acts.flags.writeable = False
        self.group = group
        self.p = p
        self.action = acts
        self.dim = int(acts.shape[1])
        self._endo = None  # endo_field memo
        self._simple: bool | None = None  # is_simple_module memo
        self._key: bytes | None = None  # structural_key memo
        if check and self.dim:
            if not np.array_equal(acts[0], np.eye(self.dim, dtype=np.int64)):
                raise Incompatible("identity must act trivially")
            gens = list(generating_set(group))
            if not np.array_equal(acts[group.mul[gens]], acts[gens, None] @ acts % p):
                raise Incompatible("action is not a homomorphism")

    def act(self, g: int, vec: np.ndarray) -> np.ndarray:
        return self.action[g] @ np.asarray(vec, dtype=np.int64) % self.p

    @property
    def size(self) -> int:
        return self.p ** self.dim

    def index_to_vector(self, idx: int) -> np.ndarray:
        out = np.empty(self.dim, dtype=np.int64)
        for j in range(self.dim):
            out[j] = idx % self.p
            idx //= self.p
        return out

    def structural_key(self) -> bytes:
        """Exact key: the sizes first, then the table and every matrix.
        Memoized on the module (``module._key``)."""
        if self._key is None:
            self._key = (
                np.array([self.group.order, self.p, self.dim], dtype=np.int64).tobytes()
                + self.group.mul.tobytes()
                + self.action.tobytes()
            )
        return self._key

    def __repr__(self) -> str:
        return f"GModule(F{self.p}^{self.dim} over {self.group.name})"


@dataclass(frozen=True)
class ModuleHom:
    """A G-equivariant linear map, stored as its matrix (target x source)."""

    source: GModule
    target: GModule
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.int64) % self.source.p
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.target.dim, self.source.dim):
            raise Incompatible("hom matrix has wrong shape")

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=np.int64) % self.source.p

    def is_equivariant(self) -> bool:
        p, gens = self.source.p, list(generating_set(self.source.group))
        return np.array_equal(
            self.matrix @ self.source.action[gens] % p,
            self.target.action[gens] @ self.matrix % p,
        )

    def is_isomorphism(self) -> bool:
        return (
            self.source.dim == self.target.dim
            and rank_mod_p(self.matrix, self.source.p) == self.source.dim
        )


@dataclass(frozen=True)
class KernelCoords:
    """F_p-coordinates on an elementary abelian subgroup.

    ``vectors`` is read-only, one row per element of the parent group:
    row e is the coordinate vector of e, zero outside the subgroup.
    Element b_j of ``basis_elements`` has the j-th unit vector, and
    multiplying elements adds their vectors."""

    subgroup: Subgroup
    p: int
    dim: int
    basis_elements: tuple[int, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors.flags.writeable = False


def kernel_coordinates(sub: Subgroup) -> KernelCoords:
    """Deterministic coordinates on an elementary abelian subgroup.

    Basis elements are chosen greedily by ascending element index.
    Raises NotElementaryAbelian if the subgroup is not elementary abelian.
    Memoized on the group (``group._coords``, keyed by ``sub.mask``): a
    cover's first ``invariants`` reads its kernel both for the maximal
    tops and for its kernel module.
    """
    coords = sub.parent._coords.get(sub.mask)
    if coords is None:
        coords = sub.parent._coords[sub.mask] = _read_coordinates(sub)
    return coords


def _read_coordinates(sub: Subgroup) -> KernelCoords:
    """The coordinates of ``kernel_coordinates``, computed."""
    group = sub.parent
    elems = sub.elements
    if len(elems) == 1:
        return KernelCoords(sub, 2, 0, (), np.zeros((group.order, 0), dtype=np.int64))
    if not _commute(group, elems, elems):
        raise NotElementaryAbelian("subgroup is not abelian")
    orders = set(group.element_orders()[list(elems)].tolist()) - {1}
    if len(orders) != 1:
        raise NotElementaryAbelian("mixed element orders")
    p = orders.pop()
    # p prime iff no proper divisor order appears; for elementary abelian
    # groups every non-identity element has order exactly p
    for d in range(2, p):
        if p % d == 0:
            raise NotElementaryAbelian(f"element order {p} is not prime")
    to_vector: dict[int, tuple[int, ...]] = {0: ()}
    basis: list[int] = []
    for x in elems:
        if x in to_vector:
            continue
        # extend every known element by powers of the new basis vector x
        basis.append(x)
        col = group.mul[:, x].tolist()
        current = list(to_vector.items())
        for elt, vec in current:
            acc = elt
            for k in range(1, p):
                acc = col[acc]
                to_vector[acc] = vec + (k,)
        for elt, vec in current:
            to_vector[elt] = vec + (0,)
    dim = len(basis)
    if p ** dim != len(elems):
        raise NotElementaryAbelian("order is not a prime power of the rank")
    vectors = np.zeros((group.order, dim), dtype=np.int64)
    vectors[list(to_vector)] = list(to_vector.values())
    return KernelCoords(sub, p, dim, tuple(basis), vectors)


def module_from_cover(pi: Cover, sub: Subgroup) -> GModule:
    """The conjugation module on ``sub`` induced along ``pi``.

    ``sub`` must be normal in the source, elementary abelian, and central
    in Ker(pi) (so that conjugation is independent of the preimage choice).
    """
    return _module_and_coords(pi, sub)[0]


def _module_and_coords(pi: Cover, sub: Subgroup) -> tuple[GModule, KernelCoords]:
    """``module_from_cover`` with the coordinates it was read in; for the
    kernel itself, memoized on the cover (``pi._kernel_module``). A base
    element g acts by conjugation with the one section of ``pi``,
    ``fibers[:, 0]``."""
    src = pi.source
    if not same_group(sub.parent, src):
        raise Incompatible("subgroup lives in a different group")
    ker = pi.kernel()
    is_kernel = sub.mask == ker.mask
    if is_kernel and pi._kernel_module is not None:
        return pi._kernel_module
    if not sub.is_normal():
        raise NotNormal("subgroup is not normal in the cover source")
    if sub.mask & ~ker.mask:
        raise NotCentralInKernel("subgroup is not inside the kernel")
    if not _commute(src, ker.elements, sub.elements):
        raise NotCentralInKernel("subgroup is not centralized by the kernel")
    coords = kernel_coordinates(sub)
    base = pi.target
    section = pi.fibers[:, 0]
    # column j of the matrix for g is the vector of s·b_j·s^-1, s = section[g]
    basis = np.asarray(coords.basis_elements, dtype=np.intp)
    conj = src.mul[src.mul[section[:, None], basis], src.inv[section][:, None]]
    mats = coords.vectors[conj].transpose(0, 2, 1) % coords.p
    out = GModule(base, coords.p, mats, check=True), coords
    if is_kernel:
        pi._kernel_module = out
    return out


def trivial_module(group: FiniteGroup, p: int, dim: int = 1) -> GModule:
    ident = np.eye(dim, dtype=np.int64)
    return GModule(group, p, np.broadcast_to(ident, (group.order, dim, dim)), check=False)


def direct_sum_module(module: GModule, n: int) -> GModule:
    """The direct sum of ``n`` copies (block-diagonal action)."""
    mats = np.kron(np.eye(n, dtype=np.int64), module.action)
    return GModule(module.group, module.p, mats, check=False)


def is_simple_module(module: GModule) -> bool:
    """True iff nonzero and every nonzero vector generates the module:
    its orbit under the group has rank d. A vector and its nonzero
    multiples generate the same submodule, so one vector per line
    (``projective_points``) is tested.

    Memoized on the module (``module._simple``)."""
    if module._simple is None:
        d, p = module.dim, module.p
        module._simple = d > 0 and all(
            rank_mod_p(module.action @ v % p, p) == d for v in projective_points(d, p)
        )
    return module._simple


@dataclass(frozen=True)
class EndoField:
    """The endomorphism field F = End_G(A) of a simple module, of order
    p^k: its F_p basis (``basis_endos``, a read-only (k, d, d) array)
    and one algebra generator J (``generator_matrix``, d x d), a matrix
    with F_p[J] = F.

    J is the first nonzero F_p-combination of the basis, in mixed-radix
    order of its coefficients (that of ``basis_endos[0]`` varying
    fastest), whose powers I, J, ..., J^(k-1) are independent. Readers
    use J only through F-spans, the F_p-spans of v, Jv, ..., J^(k-1)v,
    and these are the same for every J with F_p[J] = F."""

    module: GModule
    basis_endos: np.ndarray
    generator_matrix: np.ndarray

    @property
    def p(self) -> int:
        return self.module.p

    @property
    def k(self) -> int:
        return len(self.basis_endos)

    @property
    def order(self) -> int:
        return self.p ** self.k


def _hom_basis(module: GModule, target: GModule) -> np.ndarray:
    """F_p basis of Hom_G(K, A), one flattened (dA x dK, row-major) X per row,
    from the matrices of the generating set (the identity alone for a
    trivial group)."""
    gens = list(generating_set(module.group) or (0,))
    return _intertwiners(module.action[gens], target.action[gens], module.p)


def _intertwiners(ak: np.ndarray, aa: np.ndarray, p: int) -> np.ndarray:
    """F_p basis of the X with X·ak[g] = aa[g]·X for every g, one
    flattened (dA x dK, row-major) X per row, where ``ak`` and ``aa``
    stack the matrices of the same generators on two modules.

    The nullspace of the system whose row (g, i, j) holds the
    coefficients of entry (i, j) of X·ak[g] - aa[g]·X, built for all
    generators by one einsum over the stacked matrices.
    """
    dk, da = ak.shape[-1], aa.shape[-1]
    system = np.einsum("ab,gdc->gacbd", np.eye(da, dtype=np.int64), ak) - np.einsum(
        "gab,cd->gacbd", aa, np.eye(dk, dtype=np.int64)
    )
    return nullspace_mod_p(system.reshape(-1, da * dk) % p, p)


def endo_field(module: GModule) -> EndoField:
    """End_G(A) of a simple module: the F_p basis of the Kronecker
    system's nullspace and the generator J of ``EndoField``. Any J with
    F_p[J] = F gives the same F-spans, so the same answers. Memoized on
    the module (``module._endo``); J and the basis are read-only.
    """
    if module._endo is not None:
        return module._endo
    if not is_simple_module(module):
        raise NotSimple("endomorphism field needs a simple module")
    p, d = module.p, module.dim
    basis = _hom_basis(module, module)
    k = len(basis)
    for code in range(1, p ** k):
        J = (code // p ** np.arange(k) % p @ basis % p).reshape(d, d)
        powers = [np.eye(d, dtype=np.int64)]
        for _ in range(k - 1):
            powers.append(powers[-1] @ J % p)
        if rank_mod_p(np.reshape(powers, (k, -1)), p) == k:
            break
    basis = basis.reshape(k, d, d)
    J.flags.writeable = basis.flags.writeable = False
    module._endo = EndoField(module=module, basis_endos=basis, generator_matrix=J)
    return module._endo


@dataclass(frozen=True)
class DualSpace:
    """Hom_G(K, A) as an F = End_G(A) vector space: an F_p basis, one
    (m, dA, dK) array, and an F-basis of maps."""

    module: GModule  # K
    target: GModule  # A
    endo_field: EndoField
    fp_basis: np.ndarray  # (m, dA, dK): F_p-basis matrices
    basis: tuple[ModuleHom, ...]  # F-basis

    @property
    def f_dim(self) -> int:
        return len(self.basis)

    @property
    def fp_dim(self) -> int:
        return len(self.fp_basis)


def f_independent_subset(items, scalar_fn, p: int, k: int):
    """Greedy F-independent subset of ``items`` spanning their F-span.

    ``scalar_fn`` applies the field generator; the F-span of v is the
    F_p-span of scalar_fn^j(v) for j < k. Returns (picked, indices).
    """
    items = [np.asarray(v, dtype=np.int64) % p for v in items]
    if not items:
        return [], []
    # item i is picked iff the greedy scan keeps row i·k of the stacked
    # scalar images v, J v, ..., J^(k-1) v of every item
    rows = []
    for v in items:
        for _ in range(k):
            rows.append(v.reshape(-1))
            v = scalar_fn(v)
    indices = [i // k for i in independent_rows(np.array(rows), p) if i % k == 0]
    return [items[i] for i in indices], indices


def hom_space(module: GModule, target: GModule) -> DualSpace:
    """Hom_G(K, A) for simple A, presented by F_p and F bases."""
    if module.p != target.p:
        raise CharacteristicMismatch("modules live over different primes")
    if not same_group(module.group, target.group):
        raise Incompatible("modules are over different groups")
    endo = endo_field(target)
    p = module.p
    dk, da = module.dim, target.dim
    if dk == 0 or da == 0:
        return DualSpace(module, target, endo, np.zeros((0, da, dk), dtype=np.int64), ())
    fp_basis = _hom_basis(module, target).reshape(-1, da, dk)
    J = endo.generator_matrix
    picked, _ = f_independent_subset(
        fp_basis, lambda m: J @ m % p, p, endo.k
    )
    f_basis = tuple(ModuleHom(module, target, m) for m in picked)
    return DualSpace(module, target, endo, fp_basis, f_basis)


def homs_vanishing_on(dual: DualSpace, vectors: np.ndarray) -> np.ndarray:
    """F_p-basis of the maps in the dual space vanishing on given vectors
    (rows), an (m', dA, dK) array."""
    vectors = np.asarray(vectors, dtype=np.int64)
    basis, p = dual.fp_basis, dual.module.p
    if not len(basis) or vectors.size == 0:
        return basis
    # coefficients x: sum_i x_i (M_i @ v) = 0, one row per (v, A-coordinate)
    system = (basis @ vectors.T).transpose(2, 1, 0).reshape(-1, len(basis)) % p
    return np.tensordot(nullspace_mod_p(system, p), basis, 1) % p


def is_A_generated(module: GModule, target: GModule) -> bool:
    """True iff the elements of Hom_G(K, A) have zero common kernel."""
    return module.dim == 0 or _generates(hom_space(module, target))


def _generates(dual: DualSpace) -> bool:
    """Whether the maps of ``dual`` have zero common kernel."""
    d = dual.module.dim
    if not len(dual.fp_basis):
        return d == 0
    return rank_mod_p(dual.fp_basis.reshape(-1, d), dual.module.p) == d


def decompose_isotypic(module: GModule, target: GModule) -> ModuleHom:
    """The isomorphism K -> A^n assembled from an F-basis of Hom_G(K, A)."""
    if not is_A_generated(module, target):
        raise NotAGenerated("module is not generated by the simple module")
    dual = hom_space(module, target)
    n = dual.f_dim
    ambient = direct_sum_module(target, n)
    if n == 0:
        return ModuleHom(module, ambient, np.zeros((0, module.dim)))
    stacked = np.vstack([h.matrix for h in dual.basis]) % module.p
    hom = ModuleHom(module, ambient, stacked)
    if not hom.is_isomorphism():
        raise NotAGenerated("dual basis did not induce an isomorphism")
    return hom


def _is_invariant_subspace(module: GModule, rows: np.ndarray) -> bool:
    rows = np.asarray(rows, dtype=np.int64) % module.p
    if rows.size == 0:
        return True
    reduced, _ = row_echelon_mod_p(rows, module.p)
    gens = list(generating_set(module.group) or (0,))
    images = reduced @ module.action[gens].transpose(0, 2, 1) % module.p
    return row_space_le(images.reshape(-1, module.dim), reduced, module.p)


def submodule_generated(module: GModule, vec: np.ndarray) -> np.ndarray:
    """RREF row basis of the submodule generated by one vector: its spin
    under the matrices of the generating set (rows act by the
    transposes), which is stable under the whole group."""
    gens = list(generating_set(module.group) or (0,))
    return spin(vec, module.action[gens].transpose(0, 2, 1), module.p)


def restrict_to_subspace(module: GModule, rows: np.ndarray) -> GModule:
    """The action of the group on an invariant subspace, in its row basis."""
    p = module.p
    rows = np.asarray(rows, dtype=np.int64) % p
    if not _is_invariant_subspace(module, rows):
        raise NotSubmodule("subspace is not stable under the group action")
    reduced, pivots = row_echelon_mod_p(rows, p)
    # coordinates of each image row g·r in the RREF basis: read pivots
    mats = (module.action @ reduced.T)[:, pivots] % p
    return GModule(module.group, p, mats, check=False)


def infer_simple_summand(module: GModule) -> GModule:
    """A simple submodule of an isotypic module, deterministically chosen."""
    if module.dim == 0:
        raise NotAGenerated("zero module has no simple summand")
    for idx in range(1, module.size):
        rows = submodule_generated(module, module.index_to_vector(idx))
        cand = restrict_to_subspace(module, rows)
        if is_simple_module(cand):
            return cand
    raise NotAGenerated("no cyclic submodule is simple")


def complement(module: GModule, sub_rows: np.ndarray) -> np.ndarray:
    """A complement submodule M with K = L (+) M, via dual-space splitting.

    The module must be A-generated; A is inferred from a simple cyclic
    submodule. Returns a canonical (RREF) row basis. Raises NotSubmodule
    when L is not invariant.
    """
    if module.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return complement_in(module, infer_simple_summand(module), sub_rows)


def complement_in(
    module: GModule, target: GModule, sub_rows: np.ndarray
) -> np.ndarray:
    """Complement of an invariant subspace inside an A-generated module.

    Returns a canonical (RREF) row basis of an invariant M with
    L ∩ M = 0 and L + M = K. Raises NotSubmodule if L is not invariant.
    """
    p = module.p
    sub_rows = np.asarray(sub_rows, dtype=np.int64) % p
    if sub_rows.size == 0:
        sub_rows = sub_rows.reshape(0, module.dim)
    if not _is_invariant_subspace(module, sub_rows):
        raise NotSubmodule("subspace is not stable under the group action")
    dual = hom_space(module, target)
    ann = homs_vanishing_on(dual, sub_rows)
    J = dual.endo_field.generator_matrix
    scalar = lambda m: J @ m % p
    items = np.concatenate([ann, dual.fp_basis])
    _, indices = f_independent_subset(items, scalar, p, dual.endo_field.k)
    # the completion part: picked items that came from the full basis
    completion = [i for i in indices if i >= len(ann)]
    if not completion:
        ident = np.eye(module.dim, dtype=np.int64)
        reduced, _ = row_echelon_mod_p(ident, p)
        return reduced
    basis = nullspace_mod_p(items[completion].reshape(-1, module.dim), p)
    reduced, _ = row_echelon_mod_p(basis, p) if basis.size else (basis, [])
    return reduced


def _iso_basis(a: GModule, b: GModule) -> np.ndarray:
    """F_p basis of Hom_G(a, b) for simple modules, flattened as in
    ``_hom_basis``; by Schur it is empty or its nonzero combinations are
    all isomorphisms."""
    if not is_simple_module(a) or not is_simple_module(b):
        raise NotSimple("isomorphism test implemented for simple modules")
    if a.p != b.p or a.dim != b.dim or not same_group(a.group, b.group):
        return np.zeros((0, b.dim * a.dim), dtype=np.int64)
    return _hom_basis(a, b)


def _module_iso(a: GModule, b: GModule) -> ModuleHom | None:
    """The deterministic G-isomorphism between simple modules (the first
    row of their Hom_G basis), or None when they are not isomorphic."""
    basis = _iso_basis(a, b)
    if not len(basis):
        return None
    hom = ModuleHom(a, b, basis[0].reshape(b.dim, a.dim))
    assert hom.is_isomorphism()
    return hom


def first_module_iso(a: GModule, b: GModule) -> ModuleHom:
    """A deterministic G-isomorphism between isomorphic simple modules."""
    hom = _module_iso(a, b)
    if hom is None:
        raise NotSimple("modules are not isomorphic simple modules")
    return hom
