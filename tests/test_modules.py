"""Modules over finite groups and the duality between a module and its
space of maps into a fixed simple module.

The central round trip: a module K generated by copies of a simple
module A is carried isomorphically onto A^n by stacking an F-basis of
Hom(K, A), where F is the endomorphism field of A. The suite drives this
with three coefficient modules whose endomorphism fields have orders
2, 3 and 4, including genuinely scrambled (conjugated) copies of A^n.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import (
    SMALL_GROUPS,
    alt4,
    alt5,
    cover_pool,
    f2_trivial,
    f3_sign,
    f4_over_c3,
    generated_subgroup,
    nonsplit_cover_c2,
    nonsplit_cover_c3,
    sign_cover,
    split_cover_c2,
    split_cover_c3,
)
from covercalc import (
    GModule,
    ModuleHom,
    cyclic_group,
    direct_sum_module,
    endo_field,
    fiber_product,
    first_module_iso,
    is_simple_module,
    module_from_cover,
    quotient,
    terminal_cover,
    trivial_module,
)
from covercalc.errors import (
    Incompatible,
    NotCentralInKernel,
    NotElementaryAbelian,
    NotSimple,
)
from covercalc.gmodules import kernel_coordinates
from covercalc.groups import generating_set
from covercalc.linalg import spin
from oracles import (
    CharacteristicMismatch,
    NotAGenerated,
    commutant_dimension,
    decompose_isotypic,
    dual_f_dim,
    endo_generator,
    f_basis,
    f_independent_subset,
    field_tables,
    hom_space,
    hom_system_nullspace,
    inflate_module,
    is_A_generated,
    is_equivariant,
    is_simple_by_sweep,
    modules_isomorphic,
    rref_mod_p,
)

C2 = SMALL_GROUPS["C2"]()
C3 = SMALL_GROUPS["C3"]()

F2TRIV = f2_trivial(C2)
F3SIGN = f3_sign()
F4MOD = f4_over_c3()

SIMPLES = [F2TRIV, F3SIGN, F4MOD]
SIMPLE_IDS = ["f2-trivial", "f3-sign", "f4-plane"]


def inv_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a small matrix over GF(p) by Gauss-Jordan elimination."""
    n = mat.shape[0]
    a = [[int(x) % p for x in row] for row in mat]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = pow(a[col][col], p - 2, p)
        a[col] = [x * scale % p for x in a[col]]
        inv[col] = [x * scale % p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[col])]
                inv[r] = [(x - c * y) % p for x, y in zip(inv[r], inv[col])]
    return np.array(inv, dtype=np.int64)


def conjugated_sum(module: GModule, n: int, seed: int) -> GModule:
    """A^n with its coordinates scrambled by a random base change."""
    big = direct_sum_module(module, n)
    rng = np.random.default_rng(seed)
    p, d = big.p, big.dim
    while True:
        t = rng.integers(0, p, size=(d, d))
        try:
            t_inv = inv_mod_p(t, p)
            break
        except StopIteration:
            continue
    mats = tuple(t @ m @ t_inv % p for m in big.action)
    return GModule(big.group, p, mats, check=True)


# ---------------------------------------------------------------------------
# module basics


def test_action_validation():
    with pytest.raises(Incompatible):  # identity must act trivially
        GModule(C2, 3, (np.array([[2]]), np.array([[1]])))
    with pytest.raises(Incompatible):  # 2 has order 4 mod 5, not 3
        GModule(C3, 5, (np.eye(1), np.array([[2]]), np.array([[4]])))
    with pytest.raises(Incompatible):  # one matrix per element
        GModule(C2, 2, (np.eye(1),))
    # anything but order square d x d matrices is rejected before any check
    eye = np.eye(2, dtype=np.int64)
    malformed = {
        "ragged": (eye, np.eye(3)),
        "non-square": (np.ones((2, 3)), np.ones((2, 3))),
        "1-D": (1, 1),
        "one matrix": eye,
        "wrong count": (eye, eye, eye),
        "empty": (),
    }
    for check in (True, False):
        for action in malformed.values():
            with pytest.raises(Incompatible, match="square"):
                GModule(C2, 2, action, check=check)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 25, 221, -3])
def test_coefficients_must_be_prime(p):
    # arithmetic mod a composite is no field: h2 over "F4" read dim 0
    with pytest.raises(Incompatible, match="prime"):
        GModule(C2, p, (np.eye(1), np.eye(1)), check=False)
    with pytest.raises(Incompatible, match="prime"):
        trivial_module(C3, p)


def test_act_and_indexing():
    m = F4MOD
    for idx in range(m.size):
        v = m.index_to_vector(idx)
        assert sum(int(x) * m.p ** j for j, x in enumerate(v)) == idx
    assert m.size == 4
    assert F3SIGN.size == 3


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(min_value=0, max_value=2),
    h=st.integers(min_value=0, max_value=2),
    idx=st.integers(min_value=0, max_value=3),
)
def test_action_is_homomorphism_property(g, h, idx):
    m = F4MOD
    v = m.index_to_vector(idx)
    gh = int(m.group.mul[g, h])
    assert np.array_equal(m.action[g] @ (m.action[h] @ v) % m.p, m.action[gh] @ v % m.p)


def test_direct_sum_block_structure():
    big = direct_sum_module(F3SIGN, 3)
    assert big.dim == 3
    assert np.array_equal(big.action[1], (-np.eye(3)) % 3)


# ---------------------------------------------------------------------------
# coordinates on elementary abelian subgroups and conjugation modules


def test_kernel_coordinates_on_klein_four():
    eta0 = split_cover_c2()
    fp = fiber_product(eta0.target, [eta0, eta0])
    ker = fp.structure_map.kernel()
    coords = kernel_coordinates(ker)
    assert coords.p == 2 and coords.dim == 2
    vecs = coords.vectors
    assert vecs.shape == (fp.carrier.order, 2) and not vecs.flags.writeable
    assert len({tuple(vecs[e]) for e in ker.elements}) == 4
    assert not vecs[[e for e in range(fp.carrier.order) if e not in ker.elements]].any()
    assert np.array_equal(vecs[list(coords.basis_elements)], np.eye(2, dtype=np.int64))
    # coordinates are additive: multiplying elements adds vectors
    for a in ker.elements:
        for b in ker.elements:
            assert np.array_equal((vecs[a] + vecs[b]) % 2, vecs[fp.carrier.mul[a, b]])


def test_kernel_coordinates_rejects_non_elementary():
    c4 = nonsplit_cover_c2().source
    from covercalc import Subgroup

    whole = Subgroup(c4, (0, 1, 2, 3))
    with pytest.raises(NotElementaryAbelian):
        kernel_coordinates(whole)


def test_module_from_cover_trivial_action():
    eta1 = nonsplit_cover_c2()
    mod = module_from_cover(eta1, eta1.kernel())
    assert mod.p == 2 and mod.dim == 1
    assert modules_isomorphic(mod, F2TRIV)


def test_module_from_cover_sign_action():
    pi = sign_cover()
    mod = module_from_cover(pi, pi.kernel())
    assert mod.p == 3 and mod.dim == 1
    assert np.array_equal(mod.action[1], np.array([[2]]))
    assert modules_isomorphic(mod, F3SIGN)


def test_module_from_cover_validation():
    t = terminal_cover(alt5())
    with pytest.raises(NotCentralInKernel):  # non-abelian kernel
        module_from_cover(t, t.kernel())
    c4_down = terminal_cover(nonsplit_cover_c2().source)
    with pytest.raises(NotElementaryAbelian):  # central but exponent four
        module_from_cover(c4_down, c4_down.kernel())
    eta1 = nonsplit_cover_c2()
    with pytest.raises(NotCentralInKernel):
        # the whole source escapes the kernel
        module_from_cover(eta1, _whole(eta1.source))


def _whole(group):
    from covercalc import Subgroup

    return Subgroup(group, tuple(range(group.order)))


# ---------------------------------------------------------------------------
# simplicity and endomorphism fields


@pytest.mark.parametrize("module", SIMPLES, ids=SIMPLE_IDS)
def test_simple_modules_are_simple(module):
    assert is_simple_module(module)


def test_sums_are_not_simple():
    assert not is_simple_module(direct_sum_module(F2TRIV, 2))
    assert not is_simple_module(direct_sum_module(F4MOD, 2))


def test_simplicity_is_memoized_on_the_module(monkeypatch):
    fresh = GModule(F4MOD.group, F4MOD.p, F4MOD.action)
    cases = ((fresh, True), (direct_sum_module(F4MOD, 2), False))
    for module, want in cases:
        assert module._simple is None
        assert is_simple_module(module) is want
        assert module._simple is want
    # a second sweep over the lines would call this and fail
    monkeypatch.setattr("covercalc.gmodules.projective_points", None)
    for module, want in cases:
        assert is_simple_module(module) is want


def _random_cyclic_modules(p, d, count, rng):
    """``count`` modules over F_p^d, each a random invertible matrix
    acting as a generator of the cyclic group of its order."""
    out = []
    while len(out) < count:
        m = rng.integers(0, p, size=(d, d))
        if len(rref_mod_p(m, p)[1]) < d:
            continue
        powers = [np.eye(d, dtype=np.int64)]
        while not np.array_equal(nxt := powers[-1] @ m % p, powers[0]):
            powers.append(nxt)
        out.append(GModule(cyclic_group(len(powers)), p, tuple(powers)))
    return out


def test_simplicity_matches_sweep():
    """One vector per line gives the answer of the all-vectors sweep."""
    cases = SIMPLES + [_f9_over_c8(), _a4_over_c3()]
    cases += [direct_sum_module(m, n) for m in SIMPLES for n in (2, 3)]
    cases += [conjugated_sum(m, 2, seed) for m in SIMPLES for seed in (1, 2)]
    for split, nonsplit in (
        (split_cover_c2(), nonsplit_cover_c2()),
        (split_cover_c3(), nonsplit_cover_c3()),
    ):
        cases += [_kernel_module(cov) for cov in cover_pool(split, nonsplit, max_factors=3)[1:]]
    rng = np.random.default_rng(2024)
    randoms = [
        m
        for p, top in ((2, 4), (3, 3))
        for d in range(1, top + 1)
        for m in _random_cyclic_modules(p, d, 6, rng)
    ]
    answers = [is_simple_by_sweep(m) for m in randoms]
    assert any(answers) and not all(answers)
    for module in cases + randoms:
        assert is_simple_module(module) == is_simple_by_sweep(module), module


def test_structural_key_is_memoized_on_the_module():
    fresh = GModule(F4MOD.group, F4MOD.p, F4MOD.action)
    assert fresh._key is None
    key = fresh.structural_key()
    assert fresh.structural_key() is key
    assert key == GModule(F4MOD.group, F4MOD.p, F4MOD.action).structural_key()
    assert key != direct_sum_module(F4MOD, 2).structural_key()


KEY_CASES = {
    "trivial": lambda: direct_sum_module(trivial_module(C3, 2), 2),
    "from-cover": lambda: module_from_cover(sign_cover(), sign_cover().kernel()),
    "inflated": lambda: inflate_module(split_cover_c3(), F4MOD),
    "direct-sum": lambda: direct_sum_module(F4MOD, 3),
    "restricted": lambda: GModule(C3, 2, direct_sum_module(F4MOD, 2).action[:, 2:, 2:]),
    "strided-input": lambda: GModule(C3, 2, F4MOD.action.transpose(0, 2, 1)),
}


@pytest.mark.parametrize("make", list(KEY_CASES.values()), ids=list(KEY_CASES))
def test_structural_key_format(make):
    """The class registry and the H^2 memo key on these bytes, and a
    read-only action keeps a memoized key valid."""
    module = make()
    order, d = module.group.order, module.dim
    assert module.action.shape == (order, d, d) and module.action.dtype == np.int64
    assert not module.action.flags.writeable
    want = (
        np.array([order, module.p, d], dtype=np.int64).tobytes()
        + module.group.mul.tobytes()
        + b"".join(module.action[g].tobytes() for g in range(order))
    )
    assert module.structural_key() == want


@pytest.mark.parametrize(
    "module,order", list(zip(SIMPLES, [2, 3, 4])), ids=SIMPLE_IDS
)
def test_endo_field_orders(module, order):
    field = endo_field(module)
    assert field.order == order
    assert field.p ** field.k == order
    gens = [tuple(map(tuple, module.action[g])) for g in range(module.group.order)]
    assert field.k == commutant_dimension(module.p, gens)


def _field_elements(field):
    """All F_p-combinations of the field's basis, in mixed-radix order of
    their coefficients (that of the first basis matrix varying fastest)."""
    p, k = field.p, field.k
    coefs = np.arange(p ** k)[:, None] // p ** np.arange(k) % p
    return list(np.einsum("ck,kab->cab", coefs, np.array(field.basis_endos)) % p)


@pytest.mark.parametrize("module", SIMPLES, ids=SIMPLE_IDS)
def test_endo_field_axioms(module):
    """The combinations of the basis, enumerated here, form a field: the
    pairwise oracle's tables close on them, 0 and 1 are among them, every
    nonzero element has an inverse, and the ring laws hold."""
    field = endo_field(module)
    elements = _field_elements(field)
    q = len(elements)
    assert q == field.order
    add, mul = field_tables(elements, field.p)  # a KeyError if not closed
    ident = np.eye(module.dim, dtype=np.int64) % module.p
    zero = next(i for i, m in enumerate(elements) if not m.any())
    one = next(i for i, m in enumerate(elements) if np.array_equal(m, ident))
    assert np.array_equal(add[zero], np.arange(q))
    assert np.array_equal(mul[one], np.arange(q))
    assert all(one in mul[a] for a in range(q) if a != zero)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    # associativity and distributivity on all triples (q <= 4 keeps this cheap)
    for a, b, c in itertools.product(range(q), repeat=3):
        assert mul[a, mul[b, c]] == mul[mul[a, b], c]
        assert add[a, add[b, c]] == add[add[a, b], c]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


def _kernel_module(cov):
    return module_from_cover(cov, cov.kernel())


def _f9_over_c8():
    # C8 acting on F3^2 by a matrix of order 8: the endomorphisms are F9
    m = np.array([[0, 1], [1, 1]])
    powers = [np.eye(2, dtype=int)]
    for _ in range(7):
        powers.append(powers[-1] @ m % 3)
    return GModule(cyclic_group(8), 3, tuple(powers))


def _a4_over_c3():
    a4 = alt4()
    v4 = generated_subgroup(a4, [x for x in range(a4.order) if a4.element_orders()[x] == 2])
    return _kernel_module(quotient(a4, v4)[1])


def _f16_over_c5():
    # C5 acting on F2^4 by the companion matrix of x^4 + x^3 + x^2 + x + 1:
    # the endomorphisms are F16
    m = np.zeros((4, 4), dtype=np.int64)
    m[1:, :3] = np.eye(3, dtype=np.int64)
    m[:, 3] = 1
    powers = [np.eye(4, dtype=np.int64)]
    for _ in range(4):
        powers.append(powers[-1] @ m % 2)
    return GModule(cyclic_group(5), 2, tuple(powers))


FIELD_CASES = (
    [lambda p=p: trivial_module(C2, p) for p in (2, 3, 5, 7, 11, 509)]
    + [f3_sign, f4_over_c3, _f9_over_c8, _a4_over_c3]
    + [
        lambda cov=cov: _kernel_module(cov())
        for cov in (split_cover_c2, nonsplit_cover_c2, split_cover_c3, nonsplit_cover_c3, sign_cover)
    ]
    # in the scrambled coordinates the first basis matrix lies in F4 < F16
    + [_f16_over_c5, lambda: conjugated_sum(_f16_over_c5(), 1, 3)]
)
FIELD_IDS = [f"F{p}" for p in (2, 3, 5, 7, 11, 509)] + [
    "f3-sign", "f4-plane", "f9-plane", "a4-kernel", "eta0", "eta1", "split3", "nonsplit3", "sign",
    "f16", "f16-scrambled",
]


def _generator_powers(field, count):
    """I, J, ..., J^(count - 1), flattened row-major, one per row."""
    d, p, j = field.module.dim, field.p, endo_generator(field)
    powers = [np.eye(d, dtype=np.int64)]
    for _ in range(count - 1):
        powers.append(powers[-1] @ j % p)
    return np.array([m.reshape(-1) for m in powers], dtype=np.int64)


@pytest.mark.parametrize("make", FIELD_CASES, ids=FIELD_IDS)
def test_endo_field_generator_commutes_with_the_action(make):
    module = make()
    field = endo_field(module)
    j, p = endo_generator(field), module.p
    assert j.shape == (module.dim, module.dim)
    basis = field.basis_endos
    assert basis.shape == (field.k, module.dim, module.dim) and not basis.flags.writeable
    for g in generating_set(module.group) or (0,):
        assert np.array_equal(j @ module.action[g] % p, module.action[g] @ j % p)


@pytest.mark.parametrize("make", FIELD_CASES, ids=FIELD_IDS)
def test_endo_field_generator_powers_span_the_basis(make):
    field = endo_field(make())
    p, k = field.p, field.k
    powers = _generator_powers(field, k)
    basis = np.array([b.reshape(-1) for b in field.basis_endos], dtype=np.int64)
    assert len(rref_mod_p(powers, p)[1]) == k  # I, ..., J^(k-1) independent
    assert len(rref_mod_p(np.vstack([powers, basis]), p)[1]) == k  # same span


@pytest.mark.parametrize("make", FIELD_CASES, ids=FIELD_IDS)
def test_endo_field_generator_is_the_first_with_independent_powers(make):
    """J (``oracles.endo_generator``) is the first nonzero combination of
    the basis, in mixed-radix order of its coefficients, whose first k
    powers are independent."""
    field = endo_field(make())
    p, k, d = field.p, field.k, field.module.dim
    for m in _field_elements(field)[1:]:
        powers = [np.eye(d, dtype=np.int64)]
        for _ in range(k - 1):
            powers.append(powers[-1] @ m % p)
        if len(rref_mod_p(np.reshape(powers, (k, -1)), p)[1]) == k:
            break
    assert np.array_equal(endo_generator(field), m)


@pytest.mark.parametrize("make", FIELD_CASES, ids=FIELD_IDS)
def test_endo_field_tables_match_pairwise_oracle(make):
    """The F_p-combinations of I, J, ..., J^(k-1) are the elements of F:
    the same set as the combinations of the basis, and the pairwise
    oracle's tables close on them."""
    field = endo_field(make())
    p, k, d = field.p, field.k, field.module.dim
    coefs = np.arange(p ** k)[:, None] // p ** np.arange(k) % p
    by_j = list((coefs @ _generator_powers(field, k) % p).reshape(-1, d, d))
    by_basis = [np.asarray(m, dtype=np.int64) for m in _field_elements(field)]
    assert {m.tobytes() for m in by_j} == {m.tobytes() for m in by_basis}
    field_tables(by_j, p)  # a KeyError if not closed


def test_endo_field_is_memoized_on_the_module():
    module = f4_over_c3()
    field = endo_field(module)
    assert endo_field(module) is field
    with pytest.raises(ValueError):
        field.basis_endos[0, 0, 0] = 1


def test_endo_field_requires_simple():
    with pytest.raises(NotSimple):
        endo_field(direct_sum_module(F2TRIV, 2))


def _generator_actions(module):
    return [module.action[g] for g in generating_set(module.group) or (0,)]


def _kron_nullspace(module, target):
    """The per-generator Kronecker system's nullspace (tests/oracles.py)."""
    return hom_system_nullspace(
        _generator_actions(module), _generator_actions(target), module.p
    )


def _flat(mats, width):
    return np.array([m.reshape(-1) for m in mats], dtype=np.int64).reshape(-1, width)


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make",
    [lambda p=p: trivial_module(C2, p) for p in (2, 3, 509)]
    + [f3_sign, f4_over_c3, _f9_over_c8, lambda: conjugated_sum(_f9_over_c8(), 1, 3)],
    ids=["F2", "F3", "F509", "f3-sign", "f4-plane", "f9-plane", "f9-scrambled"],
)
def test_endo_field_equals_kron_system(make):
    module = make()
    d = module.dim
    field = endo_field(module)
    basis = _kron_nullspace(module, module)
    assert_bytes_equal(_flat(field.basis_endos, d * d), basis)


def _hom_system_cases():
    f9 = _f9_over_c8()
    simples = [trivial_module(C2, p) for p in (3, 509)] + [F2TRIV, F3SIGN, F4MOD, f9]
    cases = [(m, m) for m in simples]
    cases += [(direct_sum_module(F4MOD, 2), F4MOD), (direct_sum_module(F3SIGN, 3), F3SIGN)]
    # scrambled coordinates, so that a generator matrix is not symmetric
    # (every element of order 3 in GL2(F2) is, so the F4 plane cannot be)
    cases += [(conjugated_sum(f9, 1, 10), f9), (conjugated_sum(f9, 2, 9), f9)]
    cases += [(f9, conjugated_sum(f9, 1, 11)), (_a4_over_c3(), _a4_over_c3())]
    # the kernel modules of dimension >= 2 in the two pools (14 of them)
    for split, nonsplit in (
        (split_cover_c2(), nonsplit_cover_c2()),
        (split_cover_c3(), nonsplit_cover_c3()),
    ):
        for cov in cover_pool(split, nonsplit, max_factors=3):
            if cov.kernel().order >= 4:
                module = _kernel_module(cov)
                cases.append((module, trivial_module(split.target, module.p)))
    return cases


def test_hom_space_equals_kron_system():
    cases = _hom_system_cases()
    unsymmetric = [
        any(not np.array_equal(m, m.T) for m in _generator_actions(k) + _generator_actions(a))
        for k, a in cases
    ]
    assert sum(unsymmetric) >= 3 and len(cases) == 26
    for module, target in cases:
        dual = hom_space(module, target)
        want = _kron_nullspace(module, target)
        assert_bytes_equal(_flat(dual.fp_basis, target.dim * module.dim), want)
        if is_simple_module(module):
            assert modules_isomorphic(module, target) == (len(want) > 0)
            if len(want):
                iso = first_module_iso(module, target)
                assert_bytes_equal(iso.matrix.reshape(1, -1), want[:1])


def test_first_module_iso_rejects_non_isomorphic_and_non_simple():
    with pytest.raises(NotSimple):
        first_module_iso(trivial_module(C2, 3), F3SIGN)
    with pytest.raises(NotSimple):
        first_module_iso(direct_sum_module(F2TRIV, 2), F2TRIV)
    with pytest.raises(NotSimple):
        first_module_iso(F2TRIV, F4MOD)


# ---------------------------------------------------------------------------
# hom spaces and F-linear independence


@pytest.mark.parametrize("module", SIMPLES, ids=SIMPLE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_space_dimensions(module, n):
    big = direct_sum_module(module, n)
    dual = hom_space(big, module)
    field = endo_field(module)
    assert dual_f_dim(dual) == n
    assert len(dual.fp_basis) == n * field.k
    for h in f_basis(dual):
        assert is_equivariant(h)


def test_hom_space_between_distinct_simples_is_zero():
    triv3 = trivial_module(C2, 3)
    dual = hom_space(triv3, F3SIGN)
    assert dual_f_dim(dual) == 0 and len(dual.fp_basis) == 0
    assert not modules_isomorphic(triv3, F3SIGN)


def test_hom_space_mismatches():
    with pytest.raises(CharacteristicMismatch):
        hom_space(F2TRIV, F3SIGN)
    with pytest.raises(Incompatible):
        hom_space(trivial_module(C3, 2), F2TRIV)


def test_direct_sum_is_block_diagonal():
    for module, n in [(F3SIGN, 3), (F4MOD, 2), (_f9_over_c8(), 2), (F2TRIV, 1)]:
        big = direct_sum_module(module, n)
        d = module.dim
        assert big.dim == n * d and big.p == module.p
        for g in range(module.group.order):
            want = np.zeros((n * d, n * d), dtype=np.int64)
            for i in range(n):
                want[i * d : (i + 1) * d, i * d : (i + 1) * d] = module.action[g]
            assert big.action[g].dtype == np.int64
            assert np.array_equal(big.action[g], want)


def test_f_independent_subset_collapses_scalar_multiples():
    field = endo_field(F4MOD)
    j = endo_generator(field)
    e1 = np.array([1, 0], dtype=np.int64)
    e2 = np.array([0, 1], dtype=np.int64)
    picked, indices = f_independent_subset(
        [e1, j @ e1 % 2, e2], lambda v: j @ v % 2, 2, field.k
    )
    assert indices == [0]  # e1's F-span is the whole plane already
    picked, indices = f_independent_subset(
        [e1, e2], lambda v: j @ v % 2, 2, 1
    )  # with k = 1 the scalar closure is too small to swallow e2
    assert indices == [0, 1]


def test_coordinate_projections_are_an_f_basis():
    # the n coordinate projections of A^n land in Hom(A^n, A) and form an
    # F-basis: independent and spanning
    for module in SIMPLES:
        n = 3
        big = direct_sum_module(module, n)
        dual = hom_space(big, module)
        field = dual.endo_field
        d = module.dim
        projs = []
        for i in range(n):
            m = np.zeros((d, n * d), dtype=np.int64)
            m[:, i * d : (i + 1) * d] = np.eye(d, dtype=np.int64)
            projs.append(m)
            assert is_equivariant(ModuleHom(big, module, m))
        j = endo_generator(field)
        picked, indices = f_independent_subset(
            projs, lambda m: j @ m % module.p, module.p, field.k
        )
        assert indices == list(range(n))
        # spanning: every basis hom is an F_p-combination of the
        # scalar-translates of the projections
        span_rows = []
        for m in projs:
            w = m
            for _ in range(field.k):
                span_rows.append(w.reshape(-1))
                w = j @ w % module.p
        from covercalc.linalg import rank_mod_p

        base_rank = rank_mod_p(np.array(span_rows), module.p)
        for h in f_basis(dual):
            stacked = np.array(span_rows + [h.matrix.reshape(-1)])
            assert rank_mod_p(stacked, module.p) == base_rank


# ---------------------------------------------------------------------------
# generation and the isotypic decomposition round trip


@pytest.mark.parametrize("module", SIMPLES, ids=SIMPLE_IDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sums_are_generated(module, n):
    big = direct_sum_module(module, n) if n else direct_sum_module(
        trivial_module(module.group, module.p), 0
    )
    assert is_A_generated(big, module)


def test_mixed_module_is_not_generated():
    mixed = GModule(
        C2,
        3,
        (np.eye(2, dtype=np.int64), np.diag([1, -1]).astype(np.int64) % 3),
    )
    assert not is_A_generated(mixed, F3SIGN)
    assert not is_A_generated(mixed, trivial_module(C2, 3))
    with pytest.raises(NotAGenerated):
        decompose_isotypic(mixed, F3SIGN)


@pytest.mark.parametrize("module", SIMPLES, ids=SIMPLE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_isotypic_decomposition_round_trip(module, n):
    for seed in (1, 2):
        scrambled = conjugated_sum(module, n, seed)
        assert is_A_generated(scrambled, module)
        iso = decompose_isotypic(scrambled, module)
        assert iso.source is scrambled
        assert iso.target.dim == n * module.dim
        assert is_equivariant(iso)
        assert iso.is_isomorphism()
        # the map is exactly the stacked F-basis of the hom space
        dual = hom_space(scrambled, module)
        stacked = np.vstack([h.matrix for h in f_basis(dual)]) % module.p
        assert np.array_equal(iso.matrix, stacked)


def test_decomposition_counts_multiplicity():
    # multiplicity is read off as the F-dimension, not the F_p-dimension
    big = conjugated_sum(F4MOD, 2, 5)
    dual = hom_space(big, F4MOD)
    assert dual_f_dim(dual) == 2
    assert len(dual.fp_basis) == 4


# ---------------------------------------------------------------------------
# the submodule generated by one vector


def test_submodule_generated_is_the_orbit_span():
    """Spinning under the generators gives the RREF of the orbit under
    every group element, row for row (rows act by the transposes)."""
    rng = np.random.default_rng(31)
    modules = [direct_sum_module(F4MOD, 2), conjugated_sum(F3SIGN, 3, 4), _a4_over_c3()]
    modules += [_kernel_module(cov) for cov in cover_pool(split_cover_c3(), nonsplit_cover_c3())[1:]]
    modules += _random_cyclic_modules(2, 4, 4, rng) + _random_cyclic_modules(3, 3, 4, rng)
    for module in modules:
        p = module.p
        gens = list(generating_set(module.group) or (0,))
        for _ in range(4):
            v = rng.integers(0, p, size=module.dim)
            orbit = np.array([m @ v % p for m in module.action], dtype=np.int64)
            spun = spin(v, module.action[gens].transpose(0, 2, 1), p)
            assert_bytes_equal(spun, rref_mod_p(orbit, p)[0])


# ---------------------------------------------------------------------------
# isomorphism of simple modules


@pytest.mark.parametrize("module", SIMPLES, ids=SIMPLE_IDS)
def test_conjugated_simple_is_isomorphic(module):
    other = conjugated_sum(module, 1, 9)
    assert modules_isomorphic(module, other)
    iso = first_module_iso(module, other)
    assert is_equivariant(iso) and iso.is_isomorphism()


def test_modules_isomorphic_rejects_non_simple():
    with pytest.raises(NotSimple):
        modules_isomorphic(direct_sum_module(F2TRIV, 2), F2TRIV)
