"""Finite group modules over prime fields and their G-maps.

A module is a matrix action of a finite group on F_p^d: one read-only
(order, d, d) int64 array, the invertible matrix of element g at index
g. Simple modules carry an endomorphism field F = End_G(A). A space of
G-maps is the nullspace of one intertwiner system (``_intertwiners``),
presented by an F_p basis of flattened matrices, so a single GF(p)
elimination core serves both F_p and F_q linear algebra.

F is kept as its F_p basis and read through its degree k = [F : F_p]
alone; its elements are never listed. The spaces that F acts on are
handled by their F_p bases: an F_p row space of an F-linear image is
already an F-subspace, and k turns F_p dimensions into F dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Incompatible,
    NotCentralInKernel,
    NotElementaryAbelian,
    NotNormal,
    NotSimple,
)
from .groups import (
    Cover,
    FiniteGroup,
    Subgroup,
    _closure,
    _commute,
    _prime_divisors,
    _words,
    generating_set,
    same_group,
)
from .linalg import (
    nullspace_mod_p,
    projective_points,
    rank_mod_p,
)

__all__ = [
    "GModule",
    "ModuleHom",
    "EndoField",
    "KernelCoords",
    "module_from_cover",
    "kernel_coordinates",
    "trivial_module",
    "direct_sum_module",
    "is_simple_module",
    "endo_field",
    "first_module_iso",
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
        # All arithmetic is int64: a sum of up to 2^14 products of
        # residues stays exact while p²·2^14 < 2^63. The longest such sum
        # runs over the unknowns of CohomSpace._cocycle_basis,
        # m = (n-1)·|S|·d with |S| < n, so at most the (n-1)²·d ≤ 2500
        # cochain coordinates that COCHAIN_COORDS_CAP admits. Checked
        # first, as the trial division below takes O(√p) steps.
        if p >= 1 << 24:
            raise Incompatible(f"module coefficients need a prime p < 2^24, got {p}")
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
            if not (acts[0] == np.eye(self.dim, dtype=np.int64)).all():
                raise Incompatible("identity must act trivially")
            gens = list(generating_set(group))
            if not (acts[group.mul[gens]] == acts[gens, None] @ acts % p).all():
                raise Incompatible("action is not a homomorphism")

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

    p: int
    dim: int
    basis_elements: tuple[int, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors.flags.writeable = False


def kernel_coordinates(sub: Subgroup) -> KernelCoords:
    """Deterministic coordinates on an elementary abelian subgroup.

    Basis elements are chosen greedily by ascending element index: the
    generators that ``_closure`` picks. An element's vector is its word
    in the Schreier walk of that basis (``groups._words``) mod p, for the
    prime p dividing |sub|. Raises NotElementaryAbelian if the subgroup
    is not elementary abelian.
    """
    group = sub.parent
    elems = sub.elements
    if len(elems) == 1:
        return KernelCoords(2, 0, (), np.zeros((group.order, 0), dtype=np.int64))
    if not _commute(group, elems, elems):
        raise NotElementaryAbelian("subgroup is not abelian")
    basis = _closure(group, elems)[1]
    words, relations = _words(group, basis)
    p = _prime_divisors(len(elems))[0]
    # with no relation left mod p, the words mod p are a homomorphism
    # onto F_p^dim, and a bijection iff |sub| = p^dim
    if p ** len(basis) != len(elems) or (relations % p).any():
        raise NotElementaryAbelian("mixed element orders")
    return KernelCoords(p, len(basis), tuple(basis), words % p)


def _conjugation_matrices(coords: KernelCoords, group: FiniteGroup, elements) -> np.ndarray:
    """The matrices of conjugation by each of ``elements`` on the subgroup
    of ``group`` that ``coords`` reads: column j of the matrix of e is the
    vector of e·b_j·e^-1, for the basis elements b_j."""
    e = np.asarray(elements, dtype=np.intp)[:, None]
    basis = np.asarray(coords.basis_elements, dtype=np.intp)
    return coords.vectors[group.mul[group.mul[e, basis], group.inv[e]]].transpose(0, 2, 1)


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
    is_kernel = sub.elements == ker.elements
    if is_kernel and pi._kernel_module is not None:
        return pi._kernel_module
    if not sub.is_normal():
        raise NotNormal("subgroup is not normal in the cover source")
    if pi.image[list(sub.elements)].any():  # Ker(pi) is what maps to 0
        raise NotCentralInKernel("subgroup is not inside the kernel")
    if not _commute(src, ker.elements, sub.elements):
        raise NotCentralInKernel("subgroup is not centralized by the kernel")
    coords = kernel_coordinates(sub)
    mats = _conjugation_matrices(coords, src, pi.fibers[:, 0])
    out = GModule(pi.target, coords.p, mats, check=True), coords
    if is_kernel:
        pi._kernel_module = out
    return out


def trivial_module(group: FiniteGroup, p: int) -> GModule:
    """F_p with every element acting as the identity."""
    return GModule(group, p, np.ones((group.order, 1, 1), dtype=np.int64), check=False)


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
    p^k: its F_p basis (``basis_endos``, a read-only (k, d, d) array).
    Readers use F only through its degree k: the spaces it acts on are
    presented by F_p bases, and an F-dimension is an F_p dimension
    divided by k."""

    module: GModule
    basis_endos: np.ndarray

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
    generators by one broadcast over the stacked matrices: axes
    (g, i, j, a, b) for the unknown X[a, b].
    """
    dk, da = ak.shape[-1], aa.shape[-1]
    system = (
        np.eye(da, dtype=np.int64)[:, None, :, None] * ak.swapaxes(-1, -2)[:, None, :, None]
        - aa[:, :, None, :, None] * np.eye(dk, dtype=np.int64)[:, None]
    )
    return nullspace_mod_p(system.reshape(-1, da * dk) % p, p)


def endo_field(module: GModule) -> EndoField:
    """End_G(A) of a simple module: the F_p basis of the Kronecker
    system's nullspace. Memoized on the module (``module._endo``); the
    basis is read-only.
    """
    if module._endo is not None:
        return module._endo
    if not is_simple_module(module):
        raise NotSimple("endomorphism field needs a simple module")
    d = module.dim
    basis = _hom_basis(module, module).reshape(-1, d, d)
    basis.flags.writeable = False
    module._endo = EndoField(module=module, basis_endos=basis)
    return module._endo


def first_module_iso(a: GModule, b: GModule) -> ModuleHom:
    """The deterministic G-isomorphism between isomorphic simple modules:
    the first row of their Hom_G basis. By Schur that basis is empty or
    its nonzero combinations are all isomorphisms."""
    if not is_simple_module(a) or not is_simple_module(b):
        raise NotSimple("isomorphism test implemented for simple modules")
    same = a.p == b.p and a.dim == b.dim and same_group(a.group, b.group)
    if not same:
        basis = ()
    elif (a.action == b.action).all():
        # Hom_G(A, A) = End_G(A), whose basis endo_field solved for already
        basis = endo_field(b).basis_endos
    else:
        basis = _hom_basis(a, b)
    if not len(basis):
        raise NotSimple("modules are not isomorphic simple modules")
    hom = ModuleHom(a, b, basis[0].reshape(b.dim, a.dim))
    assert hom.is_isomorphism()
    return hom
