"""Finite groups as multiplication tables, subgroups, homs and covers.

Groups are stored as dense multiplication tables over element indices
``0..order-1`` with the identity always at index 0. Groups built from
permutation generators are closed by BFS from the identity, so element
numbering is deterministic for a fixed generator list.

Permutations are 0-based one-line tuples and compose left-to-right on
points: ``(p * q)(x) = q(p(x))``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    Incompatible,
    MalformedPermutation,
    NotNormal,
    OrderCapExceeded,
)

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
    "subgroup_from_elements",
    "closure_of",
    "all_subgroups",
    "normal_subgroups",
    "normal_subgroups_inside",
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
        identity: always 0.
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
        element_perms: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise Incompatible("multiplication table must be square")
        if not (np.array_equal(mul[0], np.arange(n)) and np.array_equal(mul[:, 0], np.arange(n))):
            raise Incompatible("index 0 must be a two-sided identity")
        self.mul = mul
        self.order = n
        self.identity = 0
        pos = np.argwhere(mul == 0)
        inv = np.empty(n, dtype=np.int32)
        inv[pos[:, 0]] = pos[:, 1]
        self.inv = inv
        self.name = name
        self.generators = tuple(int(g) for g in generators)
        self.generator_labels = tuple(generator_labels)
        self.element_perms = element_perms
        self._mul_rows: list[list[int]] | None = None
        self._orders: np.ndarray | None = None
        self._subgroups: tuple[Subgroup, ...] | None = None
        self._normals: tuple[Subgroup, ...] | None = None
        self._gen_cache: tuple[int, ...] | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def mul_rows(self) -> list[list[int]]:
        """Table as nested lists (faster for tight Python loops)."""
        if self._mul_rows is None:
            self._mul_rows = self.mul.tolist()
        return self._mul_rows

    def product(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def element_order(self, x: int) -> int:
        return int(self.element_orders()[x])

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            rows = self.mul_rows
            out = np.empty(self.order, dtype=np.int32)
            for x in range(self.order):
                k, cur = 1, x
                while cur != 0:
                    cur = rows[cur][x]
                    k += 1
                out[x] = k
            self._orders = out
        return self._orders

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def exponent(self) -> int:
        return int(reduce(np.lcm, self.element_orders()))

    # -- subgroup helpers ----------------------------------------------------

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (0,))

    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, tuple(range(self.order)))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Equality of groups: identical object or identical table."""
    return a is b or (a.order == b.order and np.array_equal(a.mul, b.mul))


class Subgroup:
    """A subgroup of a fixed parent, as a sorted element tuple + bitmask."""

    __slots__ = ("parent", "elements", "mask")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]) -> None:
        self.parent = parent
        self.elements = tuple(sorted(int(e) for e in elements))
        mask = 0
        for e in self.elements:
            mask |= 1 << e
        self.mask = mask

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def is_trivial(self) -> bool:
        return self.elements == (0,)

    def is_full(self) -> bool:
        return len(self.elements) == self.parent.order

    def is_subgroup_of(self, other: Subgroup) -> bool:
        return self.mask & ~other.mask == 0

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
        return self.mask == other.mask and same_group(self.parent, other.parent)

    def __hash__(self) -> int:
        return hash((self.mask, self.parent.order))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def closure_of(group: FiniteGroup, seed: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Elements of the subgroup generated by ``seed`` (sorted)."""
    if group.order > 256:
        return _closure_large(group, seed)
    seed = [int(s) for s in seed]
    rows = group.mul_rows
    seen = 1  # bitmask, identity always in
    elems = [0]
    stack = [s for s in seed if s != 0]
    for s in stack:
        seen |= 1 << s
    elems.extend(dict.fromkeys(s for s in seed if s != 0))
    frontier = list(elems)
    while frontier:
        new: list[int] = []
        for a in frontier:
            row = rows[a]
            for b in elems:
                for c in (row[b], rows[b][a]):
                    if not seen >> c & 1:
                        seen |= 1 << c
                        new.append(c)
        elems.extend(new)
        frontier = new
    return tuple(sorted(elems))


def _closure_large(group: FiniteGroup, seed) -> tuple[int, ...]:
    """Array-based closure BFS; pays off once the group is big.

    Each round multiplies the unprocessed frontier against everything seen
    so far (both orders), so every pair of members gets multiplied by the
    time the later of the two leaves the frontier.
    """
    mul = group.mul
    member = np.zeros(group.order, dtype=bool)
    member[0] = True
    for s in seed:
        member[int(s)] = True
    frontier = np.flatnonzero(member)
    current = frontier
    while frontier.size:
        reached = np.zeros(group.order, dtype=bool)
        reached[mul[np.ix_(frontier, current)]] = True
        reached[mul[np.ix_(current, frontier)]] = True
        new = np.flatnonzero(reached & ~member)
        member[new] = True
        current = np.flatnonzero(member)
        if current.size == group.order:
            break  # everything is reached; no round can add more
        frontier = new
    return tuple(int(x) for x in np.flatnonzero(member))


def subgroup_from_elements(group: FiniteGroup, elements) -> Subgroup:
    """Wrap ``elements`` as a Subgroup, verifying closure."""
    elems = tuple(sorted(set(int(e) for e in elements)))
    if not elems or elems[0] != 0:
        raise Incompatible("a subgroup must contain the identity (index 0)")
    sub = Subgroup(group, elems)
    rows = group.mul_rows
    for a in elems:
        for b in elems:
            if not sub.contains(rows[a][b]):
                raise Incompatible("element set is not closed under products")
    return sub


def _distinct(indices, n: int) -> np.ndarray:
    """Sorted distinct values of an index array over ``range(n)``.

    A boolean scatter, not ``np.unique``: the first ``np.unique`` in a
    process imports ``numpy.ma`` (about 18 ms), which small cold commands
    would otherwise pay.
    """
    member = np.zeros(n, dtype=bool)
    member[indices] = True
    return np.flatnonzero(member)


def _conjugacy_orbit(group: FiniteGroup, x: int) -> np.ndarray:
    """Sorted orbit of ``x`` under conjugation by the whole group."""
    gx = group.mul[:, x]
    return _distinct(group.mul[gx, group.inv], group.order)


def _normal_closure(group: FiniteGroup, seed: list[int]) -> tuple[int, ...]:
    if not seed:
        return closure_of(group, [])
    conj = _distinct(
        np.concatenate([_conjugacy_orbit(group, int(x)) for x in seed]), group.order
    )
    return closure_of(group, conj)


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
# subgroup enumeration


def _join_lattice(group: FiniteGroup, blocks, join) -> tuple[Subgroup, ...]:
    """Close ``blocks`` (element tuples) and the trivial subgroup under
    ``join``, canonically sorted by (order, element tuple)."""
    found: set[tuple[int, ...]] = {(0,)} | blocks
    block_sets = [(c, frozenset(c)) for c in blocks]
    frontier = {s: frozenset(s) for s in blocks}
    while frontier:
        new: dict[tuple[int, ...], frozenset[int]] = {}
        for s, s_set in frontier.items():
            for c, c_set in block_sets:
                if c_set <= s_set:
                    continue
                j = join(s, c)
                if j not in found:
                    found.add(j)
                    new[j] = frozenset(j)
        frontier = new
    return tuple(
        Subgroup(group, elems)
        for elems in sorted(found, key=lambda e: (len(e), e))
    )


def all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, via join-closure of the cyclic subgroups.

    Canonically sorted by (order, element tuple). Memoized on the group.
    """
    if group._subgroups is None:
        cyclics = {closure_of(group, [g]) for g in range(group.order)}
        group._subgroups = _join_lattice(
            group, cyclics, lambda s, c: closure_of(group, s + c)
        )
    return group._subgroups


def normal_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, via joins of normal closures of elements.

    The join of two normal subgroups N, M is their product set N·M, read
    off the table with no closure. Canonically sorted by (order, element
    tuple). Memoized on the group (``group._normals``), which also serves
    every ``normal_subgroups_inside`` call on it.
    """
    if group._normals is None:

        def product_set(s: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(_distinct(group.mul[np.ix_(s, c)], group.order).tolist())

        blocks = _class_closures(group, range(1, group.order))
        group._normals = _join_lattice(group, blocks, product_set)
    return group._normals


def normal_subgroups_inside(group: FiniteGroup, bound: Subgroup) -> tuple[Subgroup, ...]:
    """Normal subgroups of ``group`` contained in the normal subgroup ``bound``.

    A filter over the memoized ``normal_subgroups(group)``, in its
    canonical (order, element tuple) sort.
    """
    if not same_group(bound.parent, group):
        raise Incompatible("subgroup belongs to a different group")
    if not bound.is_normal():
        raise NotNormal("bound subgroup is not normal")
    return tuple(
        s for s in normal_subgroups(group) if s.mask & ~bound.mask == 0
    )


def maximal_normal_in(group: FiniteGroup, bound: Subgroup) -> tuple[Subgroup, ...]:
    """Maximal elements of {N normal in group : N strictly inside bound}.

    Empty exactly when ``bound`` is trivial.
    """
    inside = [
        s for s in normal_subgroups_inside(group, bound) if s.mask != bound.mask
    ]
    return tuple(
        s
        for s in inside
        if not any(
            s.mask != t.mask and s.mask & ~t.mask == 0 for t in inside
        )
    )


def is_minimal_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff ``sub`` is nontrivial, normal, with no proper nontrivial
    normal subgroup of ``group`` inside it."""
    if not same_group(sub.parent, group):
        raise Incompatible("subgroup belongs to a different group")
    if not sub.is_normal():
        raise NotNormal("subgroup is not normal")
    if sub.is_trivial():
        return False
    full = set(sub.elements)
    return all(
        set(_normal_closure(group, [x])) == full
        for x in sub.elements
        if x != 0
    )


def generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """A small deterministic generating set (greedy over ascending indices)."""
    if group._gen_cache is not None:
        return group._gen_cache
    if group.generators:
        if len(closure_of(group, group.generators)) == group.order:
            group._gen_cache = group.generators
            return group.generators
    gens: list[int] = []
    current: tuple[int, ...] = (0,)
    orders = group.element_orders()
    ranked = sorted(range(group.order), key=lambda x: (-int(orders[x]), x))
    cur_set = {0}
    for x in ranked:
        if x in cur_set:
            continue
        gens.append(x)
        current = closure_of(group, gens)
        cur_set = set(current)
        if len(current) == group.order:
            break
    group._gen_cache = tuple(gens)
    return group._gen_cache


# ---------------------------------------------------------------------------
# homomorphisms and covers


class GroupHom:
    """A homomorphism, stored as the full image array.

    ``image[h]`` is the index in the target of the image of element ``h``;
    the array is a read-only copy, so data memoized on the map stays valid.
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
        if check:
            if image[0] != 0:
                raise Incompatible("map does not send identity to identity")
            expected = image[source.mul]
            got = target.mul[np.ix_(image, image)]
            if not np.array_equal(expected, got):
                raise Incompatible("map is not a homomorphism")
        self.source = source
        self.target = target
        self.image = image
        image.flags.writeable = False

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def is_surjective(self) -> bool:
        return len(_distinct(self.image, self.target.order)) == self.target.order

    def is_injective(self) -> bool:
        return len(_distinct(self.image, self.target.order)) == self.source.order

    def is_isomorphism(self) -> bool:
        return self.source.order == self.target.order and self.is_surjective()

    def kernel(self) -> Subgroup:
        elems = tuple(int(x) for x in np.nonzero(self.image == 0)[0])
        return Subgroup(self.source, elems)

    def image_subgroup(self) -> Subgroup:
        return Subgroup(
            self.target, tuple(int(x) for x in _distinct(self.image, self.target.order))
        )

    def apply_subgroup(self, sub: Subgroup) -> Subgroup:
        elems = tuple(sorted({int(self.image[x]) for x in sub.elements}))
        return Subgroup(self.target, elems)

    def preimage_subgroup(self, sub: Subgroup) -> Subgroup:
        keep = tuple(
            int(x) for x in range(self.source.order) if sub.contains(int(self.image[x]))
        )
        return Subgroup(self.source, keep)

    def same_map(self, other: GroupHom) -> bool:
        return (
            same_group(self.source, other.source)
            and same_group(self.target, other.target)
            and np.array_equal(self.image, other.image)
        )

    def __repr__(self) -> str:
        return f"GroupHom({self.source.name} -> {self.target.name})"


class Cover(GroupHom):
    """A surjective homomorphism; caches its kernel and invariants."""

    def __init__(self, source, target, image, check: bool = True) -> None:
        super().__init__(source, target, image, check=check)
        if len(_distinct(self.image, target.order)) != target.order:
            raise Incompatible("cover must be surjective")
        self._kernel = super().kernel()
        self._invariants = None  # fundament.invariants memo

    def kernel(self) -> Subgroup:
        return self._kernel

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


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise Incompatible("cyclic group needs n >= 1")
    if n == 1:
        g = trivial_group()
        g.name = name or "1"
        return g
    perm = tuple(list(range(1, n)) + [0])
    return build_group([perm], labels=("g",), name=name or f"C{n}")


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
    rows = group.mul_rows
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for k in normal.elements:
            coset_of[rows[x][k]] = idx
    m = len(reps)
    qmul = np.empty((m, m), dtype=np.int32)
    for a, ra in enumerate(reps):
        row = rows[ra]
        for b, rb in enumerate(reps):
            qmul[a, b] = coset_of[row[rb]]
    gens = tuple(
        dict.fromkeys(coset_of[g] for g in group.generators if coset_of[g] != 0)
    )
    labels = tuple(
        lab
        for g, lab in zip(group.generators, group.generator_labels)
        if coset_of[g] != 0
    )[: len(gens)]
    q = FiniteGroup(
        qmul,
        name=f"{group.name}/N{normal.order}",
        generators=gens,
        generator_labels=labels,
    )
    cov = Cover(group, q, np.asarray(coset_of, dtype=np.int32), check=False)
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


def _compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


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
    """
    perms = list(perm_generators)
    if not perms:
        degree = 1
    else:
        try:
            degree = max(len(tuple(p)) for p in perms)
        except TypeError as exc:
            raise MalformedPermutation(str(exc)) from None
    gens = [_normalize_perm(p, degree) for p in perms]
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = _compose_perm(cur, g)
            if nxt not in index:
                if len(elems) + 1 > limits.order_cap:
                    raise OrderCapExceeded(
                        f"closure exceeded order cap {limits.order_cap}"
                    )
                index[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
    n = len(elems)
    mul = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = index[_compose_perm(a, b)]
    if labels is None:
        labels = tuple(f"g{i}" for i in range(len(gens)))
    gen_idx = tuple(index[g] for g in gens)
    return FiniteGroup(
        mul,
        name=name,
        generators=gen_idx,
        generator_labels=tuple(labels),
        element_perms=tuple(elems),
    )


# ---------------------------------------------------------------------------
# hom search over a common base


def _search_hom(
    src: FiniteGroup,
    dst: FiniteGroup,
    src_base: np.ndarray,
    dst_base: np.ndarray,
    want_iso: bool,
) -> np.ndarray | None:
    """Backtracking search for a surjective hom f: src -> dst with
    dst_base[f(x)] == src_base[x] for all x. Returns the image array or None.

    ``want_iso`` additionally demands bijectivity (and prunes with exact
    element orders).
    """
    if want_iso and src.order != dst.order:
        return None
    if src.order % dst.order:
        return None  # the kernel of a surjection has order |src| / |dst|
    if src.order == dst.order:
        want_iso = True  # a surjection between equal orders is bijective
    gens = generating_set(src)
    if not gens:  # trivial source: only the zero map, surjective iff dst trivial
        return np.zeros(src.order, dtype=np.int32) if dst.order == 1 else None
    src_orders = src.element_orders()
    dst_orders = dst.element_orders()
    dst_rows = dst.mul_rows
    src_rows = src.mul_rows

    candidates: list[list[int]] = []
    for g in gens:
        og = int(src_orders[g])
        fiber = int(src_base[g])
        cand = [
            k
            for k in range(dst.order)
            if int(dst_base[k]) == fiber
            and (
                og == int(dst_orders[k])
                if want_iso
                else og % int(dst_orders[k]) == 0
            )
        ]
        if not cand:
            return None
        candidates.append(cand)

    # the image lies inside the subgroup generated by all candidate values,
    # so a surjection needs that subgroup to be everything
    pool = set()
    for cand in candidates:
        pool.update(cand)
    if len(closure_of(dst, tuple(pool))) != dst.order:
        return None

    n = src.order

    def extend(mapping: dict[int, int], g: int, k: int) -> dict[int, int] | None:
        """Close mapping ∪ {g -> k} under products; None on conflict."""
        new = dict(mapping)
        if g in new:
            return new if new[g] == k else None
        new[g] = k
        if int(src_base[g]) != int(dst_base[k]):
            return None
        frontier = [g]
        while frontier:
            nxt: list[int] = []
            items = list(new.items())
            for a in frontier:
                fa = new[a]
                for b, fb in items:
                    for prod, fprod in (
                        (src_rows[a][b], dst_rows[fa][fb]),
                        (src_rows[b][a], dst_rows[fb][fa]),
                    ):
                        known = new.get(prod)
                        if known is None:
                            if int(src_base[prod]) != int(dst_base[fprod]):
                                return None
                            if want_iso and int(src_orders[prod]) != int(
                                dst_orders[fprod]
                            ):
                                return None
                            if int(src_orders[prod]) % int(dst_orders[fprod]) != 0:
                                return None
                            new[prod] = fprod
                            nxt.append(prod)
                        elif known != fprod:
                            return None
            frontier = nxt
        if want_iso:
            vals = list(new.values())
            if len(set(vals)) != len(vals):
                return None
        return new

    def backtrack(i: int, mapping: dict[int, int]) -> dict[int, int] | None:
        if i == len(gens):
            if len(mapping) != n:
                return None
            img = set(mapping.values())
            if len(img) != dst.order:
                return None
            if want_iso and len(mapping) != len(img):
                return None
            return mapping
        for k in candidates[i]:
            nxt = extend(mapping, gens[i], k)
            if nxt is not None:
                res = backtrack(i + 1, nxt)
                if res is not None:
                    return res
        return None

    found = backtrack(0, {0: 0})
    if found is None:
        return None
    image = np.empty(n, dtype=np.int32)
    for a, fa in found.items():
        image[a] = fa
    return image


def find_isomorphism_over(pi: Cover, pi_prime: Cover) -> GroupHom | None:
    """An isomorphism f of sources with pi_prime o f = pi, or None.

    Both covers must share the same base group.
    """
    if not same_group(pi.target, pi_prime.target):
        raise Incompatible("covers do not share a base group")
    img = _search_hom(pi.source, pi_prime.source, pi.image, pi_prime.image, True)
    if img is None:
        return None
    return GroupHom(pi.source, pi_prime.source, img, check=False)


def find_epimorphism_over(tau: Cover, tau_prime: Cover) -> Cover | None:
    """A surjection f of sources with tau_prime o f = tau, or None."""
    if not same_group(tau.target, tau_prime.target):
        raise Incompatible("covers do not share a base group")
    img = _search_hom(tau.source, tau_prime.source, tau.image, tau_prime.image, False)
    if img is None:
        return None
    return Cover(tau.source, tau_prime.source, img, check=False)
