"""Finite groups as multiplication tables, subgroups, homs and covers.

Groups are stored as dense multiplication tables over element indices
``0..order-1`` with the identity always at index 0. Groups built from
permutation generators are closed by BFS from the identity, so element
numbering is deterministic for a fixed generator list.

Permutations are 0-based one-line tuples and compose left-to-right on
points: ``(p * q)(x) = q(p(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Incompatible,
    MalformedPermutation,
    NotNormal,
    OrderCapExceeded,
)
from .linalg import minimal_stable_subspaces, nullspace_mod_p

__all__ = [
    "BuildLimits",
    "DEFAULT_LIMITS",
    "FiniteGroup",
    "Subgroup",
    "GroupHom",
    "Cover",
    "build_group",
    "cyclic_group",
    "trivial_group",
    "same_group",
    "compose",
    "identity_cover",
    "terminal_cover",
    "quotient",
    "closure_of",
    "maximal_normal_in",
    "is_minimal_normal",
    "is_indecomposable",
    "generating_set",
    "find_isomorphism_over",
    "find_epimorphism_over",
]


@dataclass(frozen=True)
class BuildLimits:
    """Resource caps for closure/carrier constructions."""

    order_cap: int = 5000


DEFAULT_LIMITS = BuildLimits()


class FiniteGroup:
    """A finite group given by its multiplication table.

    Attributes:
        mul: (n, n) int array, ``mul[a, b]`` = index of the product a*b.
        order: number of elements.
        inv: (n,) int array of inverses.
        generators: indices of a generating set (may be empty for tiny groups).
        generator_labels: printable labels aligned with ``generators``.
        name: display name.
    """

    def __init__(
        self,
        mul: np.ndarray,
        name: str = "G",
        generators: tuple[int, ...] = (),
        generator_labels: tuple[str, ...] = (),
    ) -> None:
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
        n = mul.shape[0] if mul.ndim else 0
        if not n or mul.shape != (n, n):
            raise Incompatible("multiplication table must be a nonempty square")
        ident = np.arange(n)
        if not ((mul[0] == ident).all() and (mul[:, 0] == ident).all()):
            raise Incompatible("index 0 must be a two-sided identity")
        if mul.min() < 0 or mul.max() >= n:
            raise Incompatible(f"table entries must lie in 0..{n - 1}")
        if not _is_latin(mul):
            raise Incompatible("every row and column must hold each element exactly once")
        self.mul = mul
        self.order = n
        # each row holds the identity once, at the least entry
        self.inv = mul.argmin(axis=1).astype(np.int32)
        self.name = name
        self.generators = tuple(int(g) for g in generators)
        self.generator_labels = tuple(generator_labels)
        self._orders: np.ndarray | None = None
        self._maximals: dict[tuple, tuple] = {}  # _maximal_tops, by bound elements
        self._spaces: dict[bytes, object] = {}  # cohom_space memo, by module key
        # the class registry: one representative per class of simple
        # modules (fundament._top_class) and of covers with non-abelian
        # kernel (fundament._cover_class)
        self._classes: list = []
        # exact key of a non-abelian quotient cover -> class index
        # (fundament._cover_class)
        self._class_of: dict[bytes, int] = {}
        # (class index, bytes of two canonical supports) -> containment
        # (fundament._bounded)
        self._contained: dict[tuple[int, bytes, bytes], bool] = {}
        self._gen_cache: tuple[int, ...] | None = None
        self._gen_walk: list | None = None  # _walk of _gen_cache, by _search_hom

    # -- basic structure ----------------------------------------------------

    def element_orders(self) -> np.ndarray:
        """The order of every element, memoized. For each prime power q^a
        exactly dividing n, x^(n/q^a) has order q^k, the q-part of the
        order of x, so raising it to the q-th power k times reaches 1.
        Powers are taken by squaring, for all elements at once; the q-th
        powers at most a times, so the loop ends on any Latin table."""
        if self._orders is None:
            n = self.order
            out = np.ones(n, dtype=np.int32)
            for q in _prime_divisors(n):
                a, m = 0, n
                while m % q == 0:
                    a, m = a + 1, m // q
                y = _power(self, np.arange(n), m)
                for _ in range(a):
                    out[y != 0] *= q
                    y = _power(self, y, q)
            self._orders = out
        return self._orders

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _is_latin(mul: np.ndarray) -> bool:
    """Whether every row and every column of a square table with entries
    in 0..n-1 holds each of them exactly once. Strips of 64 rows and of
    64 columns are each scattered into one small flag array, which keeps
    the writes in cache: O(n²), with no sort."""
    n = len(mul)
    for start in range(0, n, 64):
        rows, cols = mul[start:start + 64], mul[:, start:start + 64]
        k = len(rows)
        # row i's entries land in [i·n, (i+1)·n); column j's entry v at v·k + j
        for flat in (rows + np.arange(0, k * n, n)[:, None], cols * k + np.arange(k)):
            seen = np.zeros(k * n, dtype=bool)
            seen[flat.ravel()] = True
            if not seen.all():
                return False
    return True


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Equality of groups: identical object or identical table."""
    return a is b or (a.order == b.order and bool((a.mul == b.mul).all()))


class Subgroup:
    """A subgroup of a fixed parent, as its sorted element tuple."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]) -> None:
        self.parent = parent
        self.elements = tuple(sorted(int(e) for e in elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return self.elements == (0,)

    def is_full(self) -> bool:
        return len(self.elements) == self.parent.order

    def is_normal(self) -> bool:
        g = self.parent
        if self.is_trivial() or self.is_full():
            return True
        elems = np.asarray(self.elements, dtype=np.intp)
        member = np.zeros(g.order, dtype=bool)
        member[elems] = True
        conj = g.mul[g.mul[:, elems], g.inv[:, None]]
        return bool(member[conj].all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.elements == other.elements and same_group(self.parent, other.parent)

    def __hash__(self) -> int:
        return hash((self.elements, self.parent.order))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def closure_of(group: FiniteGroup, seed: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Elements of the subgroup generated by ``seed`` (sorted).

    The orbit of the identity under right multiplication by generators
    (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, §4.1).
    Seed elements are taken in order; one already reached is skipped, any
    other becomes a generator, read as its column of the table. After each
    new generator the known elements are closed again, so the cost is
    O(|H|·|gens|) lookups.
    """
    return tuple(sorted(_closure(group, seed)[0]))


def _closure(group: FiniteGroup, seed) -> tuple[list[int], list[int]]:
    """``closure_of``'s orbit in discovery order, with the seed elements
    that became its generators."""
    mul = group.mul
    reached = bytearray(group.order)
    reached[0] = 1
    elems = [0]
    gens: list[int] = []
    cols: list[list[int]] = []
    for s in seed:
        s = int(s)
        if reached[s]:
            continue
        gens.append(s)
        cols.append(mul[:, s].tolist())
        old = len(elems)  # these are closed under the earlier columns already
        i = 0
        while i < len(elems):
            x = elems[i]
            for col in cols[-1:] if i < old else cols:
                y = col[x]
                if not reached[y]:
                    reached[y] = 1
                    elems.append(y)
            i += 1
    return elems, gens


def _walk(group: FiniteGroup, gens) -> list[tuple[list, list]]:
    """The closure of {1} under right multiplication by ``gens``, step i
    closing <gens[:i+1]> as ``_closure`` does. Step i lists its tree edges
    (y, x, j), y = x·gens[j] reached for the first time, and its other
    edges (x, j, y), the Schreier relations (Holt–Eick–O'Brien, §4.1).
    Each pair (x, j) appears once, so a map set along the tree edges by
    f(x·gens[j]) = f(x)·f(gens[j]) is a homomorphism on <gens[:i+1]> iff
    it satisfies the other edges of steps 0..i.
    """
    reached = bytearray(group.order)
    reached[0] = 1
    elems, steps = [0], []
    cols: list[list[int]] = []
    for i, s in enumerate(gens):
        cols.append(group.mul[:, int(s)].tolist())
        old = len(elems)  # these are closed under the earlier columns already
        tree, other = [], []
        for k, x in enumerate(elems):  # the loop sees elements appended to it
            for j in (i,) if k < old else range(i + 1):
                y = cols[j][x]
                if reached[y]:
                    other.append((x, j, y))
                else:
                    reached[y] = 1
                    elems.append(y)
                    tree.append((y, x, j))
        steps.append((tree, other))
    return steps


def _words(group: FiniteGroup, gens) -> tuple[np.ndarray, np.ndarray]:
    """``(words, relations)`` of ``_walk(group, gens)``: row x of the
    (order, |gens|) array ``words`` counts the uses of each generator on
    x's tree path, zero off the closure, and each other edge (x, j, y)
    gives the relation row words[x] + e_j - words[y]. A map of the
    closure K into an abelian group, set along the tree edges from values
    v on the generators, is a homomorphism iff every relation row takes
    the value 0 at v (Reidemeister–Schreier): over F_p, Hom(K, F_p) is
    the nullspace of the relations mod p, and f(x) = words[x]·v."""
    words = np.zeros((group.order, len(gens)), dtype=np.int64)
    other = []
    for tree, edges in _walk(group, gens):
        for y, x, j in tree:
            words[y] = words[x]
            words[y, j] += 1
        other += edges
    x, j, y = np.array(other, dtype=np.intp).reshape(-1, 3).T
    relations = words[x] - words[y]
    relations[np.arange(len(j)), j] += 1
    return words, relations


def _distinct(indices, n: int) -> np.ndarray:
    """Sorted distinct values of an index array over ``range(n)``.

    A boolean scatter, not ``np.unique``: the first ``np.unique`` in a
    process imports ``numpy.ma`` (about 18 ms), which small cold commands
    would otherwise pay.
    """
    member = np.zeros(n, dtype=bool)
    member[indices] = True
    return member.nonzero()[0]


def _product_set(group: FiniteGroup, parts) -> np.ndarray:
    """Sorted distinct products a_1·…·a_k with a_i in ``parts[i]``, each
    part a sorted tuple of distinct elements; the identity alone for no
    parts."""
    cur = np.asarray(parts[0] if parts else (0,), dtype=np.intp)
    for part in parts[1:]:
        # index arrays broadcast to the |cur| x |part| block (cheaper than np.ix_)
        cur = _distinct(group.mul[cur[:, None], np.asarray(part, dtype=np.intp)], group.order)
    return cur


def _commute(group: FiniteGroup, a, b) -> bool:
    """Whether every element of ``a`` commutes with every element of ``b``."""
    a = np.asarray(a, dtype=np.intp)[:, None]
    b = np.asarray(b, dtype=np.intp)
    return bool((group.mul[a, b] == group.mul[b, a]).all())


def _conjugacy_orbit(group: FiniteGroup, x: int) -> np.ndarray:
    """Sorted orbit of ``x`` under conjugation by the whole group."""
    gx = group.mul[:, x]
    return _distinct(group.mul[gx, group.inv], group.order)


def _class_closures(group: FiniteGroup, elements) -> set[tuple[int, ...]]:
    """Normal closures of the given elements, one closure per conjugacy
    class (the closure only depends on the class, and the subgroup
    generated by a conjugation-invariant set is itself normal)."""
    done = np.zeros(group.order, dtype=bool)
    done[0] = True
    blocks: set[tuple[int, ...]] = set()
    for g in elements:
        g = int(g)
        if done[g]:
            continue
        orbit = _conjugacy_orbit(group, g)
        done[orbit] = True
        blocks.add(closure_of(group, orbit))
    return blocks


# ---------------------------------------------------------------------------
# maximal normal subgroups


def maximal_normal_in(group: FiniteGroup, bound: Subgroup) -> tuple[Subgroup, ...]:
    """Maximal elements of {N normal in group : N strictly inside bound}.

    Empty exactly when ``bound`` is trivial. Canonically sorted by
    (order, element tuple) and memoized on the group per bound.

    Each K/N, for the bound K, is a chief factor of the group
    (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, ch. 7;
    Cannon–Holt, J. Symbolic Comput. 24, 1997). An abelian one is
    elementary abelian of some prime order p, so N contains
    Φ_p = [K,K]K^p and N/Φ_p is a maximal submodule of M_p = K/Φ_p, on
    which the group acts by conjugation. M_p is read off the Schreier
    walk of K, in the coordinates that Hom(K, F_p) gives it, with no
    quotient by Φ_p built. A non-abelian one is perfect, so K = N·R for
    the perfect residual R of K, and N is the centralizer of a chief
    factor of a chief series through R. Both kinds are found with no
    subgroup lattice: see ``_maximal_tops``.
    """
    return tuple(sub for sub, _ in _maximal_tops(group, bound))


def _maximal_tops(group: FiniteGroup, bound: Subgroup) -> tuple:
    """The N of ``maximal_normal_in``, each paired with its top K/N: for
    an abelian top the F_p-module ``(p, mats, reading)``, where
    ``mats[i]`` is the matrix of ``generating_set(group)[i]`` acting by
    conjugation on K/N and ``reading`` is M_p's from
    ``_tops_from_modules``, one object per prime; None for a
    non-abelian top. Memoized on the group (``group._maximals``, keyed
    by ``bound.elements``); a non-normal bound is never stored."""
    if not same_group(bound.parent, group):
        raise Incompatible("subgroup belongs to a different group")
    found = group._maximals.get(bound.elements)
    if found is None:
        if not bound.is_normal():
            raise NotNormal("bound subgroup is not normal")
        k_gens, lower, residual = _derived_series(group, bound.elements)
        tops = _tops_from_modules(group, bound, k_gens, lower)
        tops += _tops_from_chief_series(group, bound, residual)
        tops.sort(key=lambda top: (top[0].order, top[0].elements))
        found = group._maximals[bound.elements] = tuple(tops)
    return found


def _tops_from_modules(group: FiniteGroup, bound: Subgroup, k_gens, lower) -> list:
    """The abelian tops of ``_maximal_tops``, from K's generators and the
    elements of [K,K].

    Per prime p, M_p = K/Φ_p is read off the Schreier walk of K
    (``_words``): the nullspace of its relations mod p is a basis of
    Hom(K, F_p), whose values ``words @ dual.T`` are coordinates on M_p.
    Each row of that RREF nullspace is 1 at its last nonzero entry, a
    free column where the other rows are 0, so the generators at those
    columns are M_p's basis, and ``mats`` holds the conjugation matrices
    A_h of the group's generators. A maximal submodule of M_p is the
    annihilator of a simple submodule W of the dual, i.e. rows w with
    w·A_h in W, so N_W = {k in K : W·v(k) = 0}, and K/N_W in the
    coordinates W·v is acted on by the C_h with W·A_h = C_h·W. Every top
    of p keeps M_p's reading ``(values, mats)``: ``values`` is the
    |H| x d_p array of v, zero off K.
    """
    mul, inv = group.mul, group.inv
    kel = np.asarray(bound.elements, dtype=np.intp)
    h = np.asarray(generating_set(group), dtype=np.intp)[:, None]
    primes = _prime_divisors(bound.order // len(lower))
    if not primes:  # K is perfect
        return []
    words, relations = _words(group, k_gens)
    tops = []
    for p in primes:
        dual = nullspace_mod_p(relations % p, p)
        values = words @ dual.T % p
        vectors = values[kel]
        last = len(k_gens) - 1 - (dual[:, ::-1] != 0).argmax(axis=1)
        basis = np.asarray(k_gens, dtype=np.intp)[last]
        mats = values[mul[mul[h, basis], inv[h]]].transpose(0, 2, 1)
        reading = (values, mats)
        for w in minimal_stable_subspaces(mats, p):
            inside = ~(vectors @ w.T % p).any(axis=1)
            pivots = (w != 0).argmax(axis=1)  # w is in RREF
            action = (w @ mats % p)[:, :, pivots]
            tops.append((Subgroup(group, tuple(kel[inside].tolist())), (p, action, reading)))
    return tops


def _tops_from_chief_series(group: FiniteGroup, bound: Subgroup, residual) -> list:
    """The non-abelian tops of ``_maximal_tops``, from the elements of the
    perfect residual R of K.

    A chief series 1 = L_0 < … < L_m = R of the group is built inside R,
    each L_i the least L_(i-1)·C, by (order, elements), over the normal
    closures C of the classes of R. For a non-abelian top N, take the
    least i with L_i not in N: then N ∩ L_i = L_(i-1) and N·L_i = K, so
    N = C_K(L_i/L_(i-1)) = {k : [k, g] in L_(i-1) for the generators g
    of L_i}. Conversely that centralizer is such an N exactly when
    |N|·|L_i| = |K|·|L_(i-1)|. An abelian factor of order p^a never
    passes: it centralizes itself, so K/N would be a p-group of order
    p^a acting faithfully on it, yet K acts semisimply (Clifford), and a
    p-group acts trivially on a semisimple F_p-module.
    """
    if len(residual) == 1:
        return []
    mul, inv = group.mul, group.inv
    kel = np.asarray(bound.elements, dtype=np.intp)[:, None]
    closures = _class_closures(group, residual)
    low = (0,)  # L_(i-1)
    member = np.zeros(group.order, dtype=bool)
    member[0] = True
    tops = []
    while len(low) < len(residual):
        step = min(
            (
                tuple(_product_set(group, (low, c)).tolist())
                for c in closures
                if not member[list(c)].all()
            ),
            key=lambda e: (len(e), e),
        )
        g = np.asarray(_closure(group, step)[1], dtype=np.intp)
        central = member[mul[mul[inv[kel], inv[g]], mul[kel, g]]].all(axis=1)
        if int(central.sum()) * len(step) == bound.order * len(low):
            tops.append((Subgroup(group, tuple(kel[central, 0].tolist())), None))
        low = step
        member[list(step)] = True
    return tops


def _derived_series(group: FiniteGroup, elements) -> tuple:
    """(generators of K, elements of [K,K], elements of the perfect
    residual K^(∞)) for the subgroup K with these elements; [K,K] is K
    itself when K is perfect.

    The derived series is walked down until a term is abelian (then
    K^(∞) = 1) or perfect. The commutators [a, y] = a^-1·y^-1·a·y of
    the generators a with every y generate the derived subgroup: they
    contain [a, b] for generators a, b, and [a, y]^z = [a, z]^-1·[a, yz]
    keeps them closed under conjugation.
    """
    mul, inv = group.mul, group.inv
    elems, gens = _closure(group, elements)
    k_gens, first = gens, None
    while not _commute(group, gens, gens):
        a = np.asarray(gens, dtype=np.intp)[:, None]
        y = np.asarray(elems, dtype=np.intp)
        comm = mul[mul[inv[a], inv[y]], mul[a, y]]
        lower = _closure(group, _distinct(comm, group.order))  # (elements, generators)
        first = first or lower[0]
        if len(lower[0]) == len(elems):
            break
        elems, gens = lower
    else:
        elems = [0]
    return k_gens, first or [0], elems


def _power(group: FiniteGroup, x, e: int):
    """x^e, by repeated squaring: of an element, or of each element of
    an index array (then e >= 1)."""
    out = 0
    while e:
        if e & 1:
            out = group.mul[out, x]
        x = group.mul[x, x]
        e >>= 1
    return out


def _prime_divisors(n: int) -> list[int]:
    """The primes dividing n, ascending."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def is_minimal_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff ``sub`` is nontrivial, normal, with no proper nontrivial
    normal subgroup of ``group`` inside it: the only maximal normal
    subgroup strictly inside it (``maximal_normal_in``) is 1."""
    return [s.order for s in maximal_normal_in(group, sub)] == [1]


def generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """A small deterministic generating set: the stored generators if they
    generate, else greedy over the elements by descending order, then
    index, each one not yet generated joining the set."""
    if group._gen_cache is not None:
        return group._gen_cache
    if group.generators:
        if len(closure_of(group, group.generators)) == group.order:
            group._gen_cache = group.generators
            return group.generators
    orders = group.element_orders()
    ranked = (-orders).argsort(kind="stable")
    gens = _closure(group, ranked.tolist())[1]
    group._gen_cache = tuple(gens)
    return group._gen_cache


# ---------------------------------------------------------------------------
# homomorphisms and covers


class GroupHom:
    """A homomorphism, stored as the full image array.

    ``image[h]`` is the index in the target of the image of element ``h``;
    the array is a read-only copy, so data memoized on the map (its fiber
    table and kernel) stays valid.
    """

    def __init__(
        self,
        source: FiniteGroup,
        target: FiniteGroup,
        image: np.ndarray,
        check: bool = True,
    ) -> None:
        image = np.array(image, dtype=np.int32)  # a private, read-only copy
        if image.shape != (source.order,):
            raise Incompatible("image array has wrong length")
        if image.min() < 0 or image.max() >= target.order:
            raise Incompatible("image value is not an element of the target")
        if check:
            if image[0] != 0:
                raise Incompatible("map does not send identity to identity")
            # f(x·s) = f(x)·f(s) for all x and generators s: f is multiplicative
            gens = list(generating_set(source))
            got = target.mul[image[:, None], image[gens]]
            if not (image[source.mul[:, gens]] == got).all():
                raise Incompatible("map is not a homomorphism")
        self.source = source
        self.target = target
        self.image = image
        image.flags.writeable = False
        self._fibers: np.ndarray | None = None
        self._kernel: Subgroup | None = None

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def is_surjective(self) -> bool:
        return len(_distinct(self.image, self.target.order)) == self.target.order

    def is_isomorphism(self) -> bool:
        return self.source.order == self.target.order and self.is_surjective()

    def kernel(self) -> Subgroup:
        """Ker = the elements that map to 0, memoized."""
        if self._kernel is None:
            self._kernel = Subgroup(self.source, (self.image == 0).nonzero()[0].tolist())
        return self._kernel

    @property
    def fibers(self) -> np.ndarray:
        """The (|target|, |kernel|) table whose row g is the fiber over g in
        ascending order, so column 0 is the least section: one stable argsort
        of ``image``, memoized and read-only, for an onto map only."""
        if self._fibers is None:
            if not self.is_surjective():
                raise Incompatible("only a surjective map has a fiber table")
            table = self.image.argsort(kind="stable").reshape(self.target.order, -1)
            table.flags.writeable = False
            self._fibers = table
        return self._fibers

    def __repr__(self) -> str:
        return f"GroupHom({self.source.name} -> {self.target.name})"


class Cover(GroupHom):
    """A surjective homomorphism; caches its fundament kernel, its tables
    of classes, one per base object whose registry they index
    (``_indexed``, and ``_class_tops`` with no H^2), and the conjugation
    module on an elementary abelian kernel with the coordinates it is
    read in (``_kernel_module``, filled by ``gmodules._module_and_coords``
    or, for the extension it builds, by
    ``cohomology.extension_from_cocycle``). The kernel itself is
    memoized by ``GroupHom.kernel``."""

    def __init__(self, source, target, image, check: bool = True) -> None:
        super().__init__(source, target, image, check=check)
        if not self.is_surjective():
            raise Incompatible("cover must be surjective")
        self._fundament = None  # fundament.fundament_kernel memo
        self._indexed: dict = {}  # base -> fundament._indexed of it
        self._class_tops: dict = {}  # base -> fundament._class_tops of it
        self._kernel_module = None  # (GModule, KernelCoords) of the kernel

    def __repr__(self) -> str:
        return f"Cover({self.source.name} ->> {self.target.name})"


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer o inner (apply ``inner`` first)."""
    if not same_group(inner.target, outer.source):
        raise Incompatible("composition target/source mismatch")
    image = outer.image[inner.image]
    cls = Cover if isinstance(outer, Cover) and isinstance(inner, Cover) else GroupHom
    return cls(inner.source, outer.target, image, check=False)


def identity_cover(group: FiniteGroup) -> Cover:
    return Cover(group, group, np.arange(group.order), check=False)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(np.zeros((1, 1), dtype=np.int32), name="1")


def cyclic_group(
    n: int, name: str | None = None, limits: BuildLimits = DEFAULT_LIMITS
) -> FiniteGroup:
    if n < 1:
        raise Incompatible("cyclic group needs n >= 1")
    if n == 1:
        g = trivial_group()
        g.name = name or "1"
        return g
    perm = tuple(list(range(1, n)) + [0])
    return build_group([perm], labels=("g",), name=name or f"C{n}", limits=limits)


def terminal_cover(group: FiniteGroup) -> Cover:
    """The cover of the trivial group."""
    return Cover(group, trivial_group(), np.zeros(group.order, dtype=np.int32), check=False)


def quotient(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, Cover]:
    """Quotient by a normal subgroup, with the canonical cover.

    Cosets are numbered in order of their least element, so the identity
    coset is index 0 and the construction is deterministic.
    """
    if not same_group(normal.parent, group):
        raise Incompatible("subgroup belongs to a different group")
    if not normal.is_normal():
        raise NotNormal("cannot quotient by a non-normal subgroup")
    n = group.order
    least = group.mul[:, list(normal.elements)].min(axis=1)  # least of x·N
    reps = _distinct(least, n)
    number = np.empty(n, dtype=np.int32)
    number[reps] = np.arange(len(reps), dtype=np.int32)
    coset_of = number[least]
    qmul = coset_of[group.mul[reps[:, None], reps]]
    # the first generator in each non-identity coset, with its own label
    first: dict[int, int] = {}
    for i, g in enumerate(group.generators):
        first.setdefault(int(coset_of[g]), i)
    first.pop(0, None)
    gens = tuple(first)
    labels = tuple(
        group.generator_labels[i] for i in first.values() if i < len(group.generator_labels)
    )
    q = FiniteGroup(
        qmul,
        name=f"{group.name}/N{normal.order}",
        generators=gens,
        generator_labels=labels,
    )
    cov = Cover(group, q, coset_of, check=False)
    return q, cov


def is_indecomposable(cover: Cover) -> bool:
    """True iff the kernel is a minimal normal subgroup of the source."""
    ker = cover.kernel()
    if ker.is_trivial():
        return False
    return is_minimal_normal(cover.source, ker)


# ---------------------------------------------------------------------------
# permutation input and group building


def _normalize_perm(perm, degree: int) -> tuple[int, ...]:
    p = list(perm)
    if len(p) < degree:
        p = p + list(range(len(p), degree))
    if sorted(p) != list(range(degree)):
        raise MalformedPermutation(f"not a permutation of 0..{degree - 1}: {perm}")
    return tuple(p)


def build_group(
    perm_generators,
    labels: tuple[str, ...] | None = None,
    name: str = "G",
    limits: BuildLimits = DEFAULT_LIMITS,
) -> FiniteGroup:
    """Close permutation generators into a full multiplication table.

    Args:
        perm_generators: 0-based one-line permutations (tuples/lists). Short
            permutations are padded with fixed points to the common degree.
        labels: printable generator labels (defaults to g0, g1, ...).
        name: group name.
        limits: order cap; exceeding it raises OrderCapExceeded.

    Elements are numbered in BFS discovery order from the identity, so the
    numbering is deterministic. Raises MalformedPermutation for bad input.

    One BFS does all the permutation work: the orbit of the identity under
    right multiplication by the generators, with its Schreier tree
    (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, §4.1).
    It records ``right[j, x]``, the index of x·g_j, for every element x,
    and for each new element y the tree edge y = x·g_j with x < y. The
    table is then read off column by column in discovery order: column y
    is ``right[j][mul[:, x]]``, because z·y = (z·x)·g_j for every z and
    column x is already filled.
    """
    perms = list(perm_generators)
    if not perms:
        degree = 1
    else:
        try:
            degree = max(len(tuple(p)) for p in perms)
        except TypeError as exc:
            raise MalformedPermutation(str(exc)) from None
    # each element is the bytes of its image array; cur * g is g[cur]. The
    # keys are most of the BFS's memory, hence the narrowest point type.
    point = np.min_scalar_type(degree - 1)
    gens = [np.array(_normalize_perm(p, degree), dtype=point) for p in perms]
    elems = [np.arange(degree, dtype=point).tobytes()]
    index = {elems[0]: 0}
    right = [[] for _ in gens]
    parent, via = [0], [0]
    for x, key in enumerate(elems):  # the loop sees elements appended to it
        cur = np.frombuffer(key, dtype=point)
        for j, g in enumerate(gens):
            nxt = g[cur].tobytes()
            y = index.get(nxt)
            if y is None:
                y = len(elems)
                if y + 1 > limits.order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeded order cap {limits.order_cap}"
                    )
                index[nxt] = y
                elems.append(nxt)
                parent.append(x)
                via.append(j)
            right[j].append(y)
    gen_idx = tuple(index[g.tobytes()] for g in gens)
    n = len(elems)
    del elems, index  # free the permutations before the table is filled
    right = np.array(right, dtype=np.int32).reshape(len(gens), n)
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for y in range(1, n):
        mul[:, y] = right[via[y]][mul[:, parent[y]]]
    if labels is None:
        labels = tuple(f"g{i}" for i in range(len(gens)))
    return FiniteGroup(mul, name=name, generators=gen_idx, generator_labels=tuple(labels))


# ---------------------------------------------------------------------------
# hom search over a common base


def _search_hom(tau: Cover, tau_prime: Cover) -> np.ndarray | None:
    """Backtracking search for a surjective hom f of the sources with
    tau_prime(f(x)) == tau(x) for all x; the image array or None.

    Between sources of equal order such an f is bijective, so the search
    prunes with exact element orders, which make the kernel trivial.

    The candidates for f(g) are the elements of ``tau_prime.fibers`` over
    tau(g) whose order fits, in ascending order. f(gens[i]) is chosen at
    step i of ``_walk(src, generating_set(src))``, memoized on ``src``: f
    is set along the step's tree edges and checked on its other edges,
    the Schreier relations.
    """
    src, dst = tau.source, tau_prime.source
    if src.order % dst.order:
        return None  # the kernel of a surjection has order |src| / |dst|
    bijective = src.order == dst.order
    gens = generating_set(src)
    if not gens:  # trivial source: only the zero map, surjective iff dst trivial
        return np.zeros(src.order, dtype=np.int32) if dst.order == 1 else None
    src_ord, dst_ord = src.element_orders().tolist(), dst.element_orders().tolist()
    candidates: list[list[int]] = []
    for g in gens:
        og = src_ord[g]
        fiber = tau_prime.fibers[tau.image[g]].tolist()
        cand = [k for k in fiber if (og == dst_ord[k] if bijective else og % dst_ord[k] == 0)]
        if not cand:
            return None
        candidates.append(cand)

    # the image lies inside the subgroup generated by all candidate values,
    # so a surjection needs that subgroup to be everything. It is when one
    # list is a whole fiber: then it holds Ker(tau_prime), and it lies over
    # tau(gens), which generate the base
    whole = max(map(len, candidates)) == tau_prime.fibers.shape[1]
    if not whole and len(_closure(dst, [k for cand in candidates for k in cand])[0]) != dst.order:
        return None

    walk = src._gen_walk = src._gen_walk or _walk(src, gens)
    dst_cols: dict[int, list[int]] = {}
    cols: list = [None] * len(gens)  # cols[j]: the column of f(gens[j])
    img = [0] * src.order  # f on the steps taken so far

    def passes(i: int, k: int) -> bool:
        """Whether f(gens[i]) = k passes step i, as steps 0..i-1 did. Every
        k writes the same elements, so a rejected one leaves nothing to undo.
        f(y) = f(x)·f(gens[j]) lies over tau(x)·tau(gens[j]) = tau(y), as
        every candidate lies over its generator's image."""
        cols[i] = dst_cols.get(k) or dst_cols.setdefault(k, dst.mul[:, k].tolist())
        tree, other = walk[i]
        for y, x, j in tree:
            fy = cols[j][img[x]]
            if (src_ord[y] != dst_ord[fy]) if bijective else (src_ord[y] % dst_ord[fy]):
                return False
            img[y] = fy
        for x, j, y in other:
            if img[y] != cols[j][img[x]]:
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(gens):
            return len(set(img)) == dst.order
        return any(passes(i, k) and backtrack(i + 1) for k in candidates[i])

    return np.array(img, dtype=np.int32) if backtrack(0) else None


def find_isomorphism_over(pi: Cover, pi_prime: Cover) -> GroupHom | None:
    """An isomorphism f of sources with pi_prime o f = pi, or None.

    Both covers must share the same base group.
    """
    if not same_group(pi.target, pi_prime.target):
        raise Incompatible("covers do not share a base group")
    if pi.source.order != pi_prime.source.order:
        return None
    img = _search_hom(pi, pi_prime)
    if img is None:
        return None
    return GroupHom(pi.source, pi_prime.source, img, check=False)


def find_epimorphism_over(tau: Cover, tau_prime: Cover) -> Cover | None:
    """A surjection f of sources with tau_prime o f = tau, or None."""
    if not same_group(tau.target, tau_prime.target):
        raise Incompatible("covers do not share a base group")
    img = _search_hom(tau, tau_prime)
    if img is None:
        return None
    return Cover(tau.source, tau_prime.source, img, check=False)
