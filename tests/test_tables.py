"""The index-table arithmetic core: multiplication, negation and projection
tables, and the constructions that run on them.

The references here are scalar: every product is redone as
``poly_mod(poly_mul(a, b))`` on coefficient tuples, and every projection
entry from its definition on element objects; negation is read from the
reference alphabet of ``bench/reference.py``.  The golden digests were
recorded from the element-object implementation of the constructions, so
they pin the table-driven rewrite cell for cell.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import ex12_inputs, ex13_dm, ex13_noa, reference_alphabet, thm8_inputs

from nestfill import algebra
from nestfill.algebra import (
    DEFAULT_IRREDUCIBLES,
    INDEX_DTYPE,
    Field,
    GaloisGroup,
    GfElem,
    ProductGroup,
    ResidueGroup,
    _check_mul_table,
    add_table,
    digits,
    field_make,
    group_to_dict,
    modulus,
    mul_table,
    neg_table,
    poly_mod,
    poly_mul,
    prime_power,
    truncation,
)
from nestfill.arrays import NestedPair
from nestfill.constructions import (
    SEC34_GF32_POLY,
    THEOREM3_POLYS,
    mult_table,
    ndm_p3,
    ndm_sec34,
    ndm_theorem1,
    ndm_theorem2,
    ndm_theorem3,
    noa_theorem4,
    noa_theorem5,
    qtw_noa,
    rao_hamming_oa,
    trivial_oa,
    validation_pair,
)
from nestfill.mixed import ww_from_ndms, ww_from_noas


def reference_product(f: Field, a: int, b: int) -> int:
    """Index of a * b, by polynomial product and remainder."""
    rem = poly_mod(poly_mul(digits(a, f.p, f.u), digits(b, f.p, f.u), f.p), f.irreducible, f.p)
    return sum(c * f.p**k for k, c in enumerate(rem))


def reference_table(f: Field) -> np.ndarray:
    n = f.order
    return np.array([[reference_product(f, a, b) for b in range(n)] for a in range(n)])


# ---------------------------------------------------------------------------
# mul_table against the scalar polynomial product
# ---------------------------------------------------------------------------


PINNED_POLYS = [(2, 5, SEC34_GF32_POLY)] + [(2, m + 2, poly) for m, poly in THEOREM3_POLYS.items()]


@pytest.mark.parametrize("p,u", sorted(DEFAULT_IRREDUCIBLES))
def test_mul_table_matches_polynomial_products_default_fields(p, u):
    f = field_make(p, u)
    assert np.array_equal(mul_table(f), reference_table(f))


@pytest.mark.parametrize("p,u,poly", PINNED_POLYS)
def test_mul_table_matches_polynomial_products_pinned_polys(p, u, poly):
    f = field_make(p, u, poly)
    assert np.array_equal(mul_table(f), reference_table(f))


@st.composite
def irreducible_fields(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    u = draw(st.integers(1, {2: 8, 3: 5, 5: 3, 7: 2}[p]))
    low = draw(st.lists(st.integers(0, p - 1), min_size=u, max_size=u))
    try:
        return Field(p, u, tuple(low) + (1,))
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(irreducible_fields(), st.data())
def test_mul_table_random_irreducibles(f, data):
    tab = mul_table(f)
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, f.order - 1), st.integers(0, f.order - 1)), min_size=1, max_size=20)
    )
    for a, b in pairs:
        assert tab[a, b] == reference_product(f, a, b)


def test_mul_table_is_cached_and_read_only(gf8):
    tab = mul_table(gf8)
    assert tab is mul_table(field_make(2, 3))
    assert not tab.flags.writeable


def test_mul_table_check_rejects_a_wrong_entry(gf9):
    bad = mul_table(gf9).copy()
    bad[5, 7] = (bad[5, 7] + 1) % gf9.order
    with pytest.raises(RuntimeError, match=r"GF\(9\).*\(5, 7\)"):
        _check_mul_table(gf9, bad)


@pytest.mark.parametrize("p,u", [(2, 2), (2, 3), (3, 2)])
def test_mul_table_check_rejects_every_one_cell_mutation(p, u):
    f = field_make(p, u)
    good = mul_table(f)
    _check_mul_table(f, good)
    for a in range(f.order):
        for b in range(f.order):
            for wrong in range(f.order):
                if wrong == good[a, b]:
                    continue
                bad = good.copy()
                bad[a, b] = wrong
                with pytest.raises(RuntimeError) as err:
                    _check_mul_table(f, bad)
                assert str(err.value).endswith(f"at indices ({a}, {b}): {wrong} instead of {good[a, b]}")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (2, 5)]), st.data())
def test_mul_table_check_names_the_first_bad_cell(pu, data):
    f = field_make(*pu)
    good = mul_table(f)
    cell = st.tuples(st.integers(0, f.order - 1), st.integers(0, f.order - 1))
    cells = data.draw(st.lists(cell, min_size=2, max_size=2, unique=True))
    bad = good.copy()
    for a, b in cells:
        bad[a, b] = (good[a, b] + data.draw(st.integers(1, f.order - 1))) % f.order
    a, b = min(cells)  # np.argwhere order: row-major
    with pytest.raises(RuntimeError, match=rf"GF\({f.order}\).*\({a}, {b}\): {bad[a, b]} instead of {good[a, b]}$"):
        _check_mul_table(f, bad)


def test_mul_table_build_error_names_the_first_bad_cell(monkeypatch):
    """The check does not use the build's times-x map: with that map wrong
    at one element b, row x (index p) is the first to use it, and its cell b
    is the first bad one."""
    for f, b, wrong in [(field_make(2, 3), 5, 2), (field_make(3, 2), 7, 0), (field_make(2, 8), 200, 17)]:
        good = algebra._times_x(f)
        bad = good.copy()
        bad[b] = wrong
        monkeypatch.setattr(algebra, "_times_x", lambda _f, bad=bad: bad)
        want = rf"GF\({f.order}\).* at indices \({f.p}, {b}\): {wrong} instead of {reference_product(f, f.p, b)}$"
        with pytest.raises(RuntimeError, match=want):
            mul_table.__wrapped__(f)
        monkeypatch.undo()
        assert np.array_equal(mul_table.__wrapped__(f), mul_table(f))


@pytest.mark.parametrize("p,u,k", [(2, 3, 3), (3, 2, 1), (2, 8, 12)])
def test_mul_table_check_fails_a_good_table_on_wrong_powers_of_x(monkeypatch, p, u, k):
    """The check's reference comes from the scalar powers of x, so a wrong
    power fails a good table."""
    f = field_make(p, u)
    good = mul_table(f)
    powers = algebra._powers_mod

    def wrong_powers(f, count):
        xk = powers(f, count).copy()
        xk[k, 0] = (xk[k, 0] + 1) % f.p
        return xk

    monkeypatch.setattr(algebra, "_powers_mod", wrong_powers)
    with pytest.raises(RuntimeError, match=rf"GF\({f.order}\) multiplication table is wrong"):
        _check_mul_table(f, good)


def gf_add_reference(f: Field) -> list:
    """Index of a + b for every pair, through ``Field.add`` on elements."""
    elems = f.elements()
    return [[f.index(f.add(a, b)) for b in elems] for a in elems]


def zp_power_add_table(f: Field) -> np.ndarray:
    """The addition table of Z_p^u as a product alphabet (Z_p itself for u = 1)."""
    zp = ResidueGroup(f.p)
    return add_table(ProductGroup((zp,) * f.u) if f.u > 1 else zp)


@pytest.mark.parametrize("p,u,poly", [(p, u, None) for p, u in sorted(DEFAULT_IRREDUCIBLES)] + PINNED_POLYS)
def test_gf_add_table_matches_field_add_and_zp_power(p, u, poly):
    f = field_make(p, u, poly)
    tab = add_table(GaloisGroup(f))
    assert tab.dtype == INDEX_DTYPE and not tab.flags.writeable
    assert tab.tolist() == gf_add_reference(f)
    assert np.array_equal(tab, zp_power_add_table(f))


@settings(max_examples=40, deadline=None)
@given(irreducible_fields(), st.data())
def test_gf_add_table_random_irreducibles(f, data):
    tab = add_table(GaloisGroup(f))
    assert np.array_equal(tab, zp_power_add_table(f))
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, f.order - 1), st.integers(0, f.order - 1)), min_size=1, max_size=20)
    )
    for a, b in pairs:
        assert tab[a, b] == f.index(f.add(f.element(a), f.element(b)))


def test_mul_table_agrees_with_scalar_view(gf9):
    tab = mul_table(gf9)
    for a in range(gf9.order):
        for b in range(gf9.order):
            assert gf9.element(int(tab[a, b])) == gf9.mul(gf9.element(a), gf9.element(b))


# ---------------------------------------------------------------------------
# neg_table, projection tables, helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        GaloisGroup(field_make(3, 3)),
        GaloisGroup(field_make(2, 4)),
        ResidueGroup(12),
        ProductGroup((ResidueGroup(6), GaloisGroup(field_make(3, 2)))),
    ],
    ids=lambda g: g.describe(),
)
def test_neg_table_matches_scalar_neg(g):
    assert neg_table(g).tolist() == reference_alphabet(g).neg.tolist()


@pytest.mark.parametrize("big,small", [((2, 5), (2, 3)), ((2, 8), (2, 4)), ((3, 4), (3, 2)), ((3, 3), (3, 1))])
def test_projection_tables_match_definitions(big, small):
    f1, f2 = field_make(*big), field_make(*small)
    elems = f1.elements()
    assert truncation(f1, f2).table == tuple(f2.index(GfElem(e.coeffs[: f2.u])) for e in elems)
    assert modulus(f1, f2).table == tuple(f2.index(f2.from_poly(e.coeffs)) for e in elems)


def test_digits_of_arrays_match_scalars():
    values = np.arange(81)
    by_array = np.stack(digits(values, 3, 4), axis=1)
    assert by_array.tolist() == [list(digits(int(v), 3, 4)) for v in values]


@pytest.mark.parametrize(
    "n,want",
    [(2, (2, 1)), (8, (2, 3)), (9, (3, 2)), (97, (97, 1)), (243, (3, 5)), (1, None), (0, None), (6, None), (12, None)],
)
def test_prime_power(n, want):
    assert prime_power(n) == want


# ---------------------------------------------------------------------------
# golden digests of the constructions
# ---------------------------------------------------------------------------


def sha(values):
    if values is None:
        return None
    a = np.asarray(values, dtype=np.int64)
    h = hashlib.sha1(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


#: name -> (construction, SHA-1 of data, of child_rows, of row_labels)
GOLDEN = {
    "mult_table(GF(128))": (
        lambda: mult_table(field_make(2, 7)),
        "1631e2176f182b47c065f23ffa93bab6fbfff215",
        None,
        "a52235db96de218deb0e7f1e2ccd9cc509d1af57",
    ),
    "rao_hamming_oa(GF(16), 2)": (
        lambda: rao_hamming_oa(field_make(2, 4), 2),
        "45ad8f7a8a544ae34086a08af1be5923e0e293a2",
        None,
        None,
    ),
    "rao_hamming_oa(GF(27), 2)": (
        lambda: rao_hamming_oa(field_make(3, 3), 2),
        "3a10a87346296aa02ee7228b3dff04de0840c502",
        None,
        None,
    ),
    "qtw_noa(GF(32), GF(8), 2)": (
        lambda: qtw_noa(field_make(2, 5), field_make(2, 3), 2),
        "3f9f1ce496476a72d5226b33dd259e8e87a9e25e",
        "7402cf2d6d1a09a897a0c35ad9fb89946d09eaae",
        None,
    ),
    "qtw_noa(GF(8), GF(4), 3)": (
        lambda: qtw_noa(field_make(2, 3), field_make(2, 2), 3),
        "6363e2f783787254ecf9ea4dd4551dc5da413eed",
        "281bf8a93bc7dc0683df737c96e7f820333c1274",
        None,
    ),
    "ndm_theorem1(2)": (
        lambda: ndm_theorem1(2),
        "2920d110d1eb87ea9d7d00728236825dd5bc2347",
        "35958acf99e6d046490e32b541fbdbd357d5edfc",
        "ad0035e6e0c02dec74e6781dc27f4b926e8e9478",
    ),
    "ndm_theorem1(3)": (
        lambda: ndm_theorem1(3),
        "023e2d46ec21a11e938abb22ddfb842c3c58fe7b",
        "a5b2f7cc008f8bd3075f7dedd75f0cb9e913ac2e",
        "6a2ce2015345a8c762e70fd869485034bca26a04",
    ),
    "ndm_theorem2(2)": (
        lambda: ndm_theorem2(2),
        "41ddd8332f26ae8386c70edcaaf92f35c3dd993a",
        "e7b4df7d2a29243cfb7e9983219bfd2b12545f62",
        "26dc062618817ba042b3add3caaf0712a11f89ae",
    ),
    "ndm_theorem2(3)": (
        lambda: ndm_theorem2(3),
        "df90ab8f9a1c75554020f33be534bd006019ad57",
        "071cba604a3404998ea259fe303a7caa852bcb1c",
        "9b73d1349bab6214e447c73529eca5d1342eaeb4",
    ),
    "ndm_theorem3(2)": (
        lambda: ndm_theorem3(2),
        "498f69b13e56f0d3969c4ec74fcfeabc233313b9",
        "e2d3408acfc94eafe436daa3929379fcfc7b740e",
        "26dc062618817ba042b3add3caaf0712a11f89ae",
    ),
    "ndm_theorem3(3)": (
        lambda: ndm_theorem3(3),
        "d4eaf82810354d80a14dc4406337d2790f23cb42",
        "f7cf61a01161c0d1c8d0d31988c10a90e778b085",
        "9b73d1349bab6214e447c73529eca5d1342eaeb4",
    ),
    "ndm_theorem3(4)": (
        lambda: ndm_theorem3(4),
        "40dd6bba6b5d3e317cdd57450f3a6e7b9762b023",
        "e2d9d4d8bc5addc457799ab9982d33c7607bd9fc",
        "bdc9448fdf99c03b23598287c90c142ed8c75a79",
    ),
    "ndm_sec34('a8cols')": (
        lambda: ndm_sec34("a8cols"),
        "1ee6b9e176bd0b8329cc0cecca317c8623f7d525",
        "e2d3408acfc94eafe436daa3929379fcfc7b740e",
        "389f1c5ab0dc2cde285f6379df51247bd3a50a6f",
    ),
    "ndm_sec34('b16cols')": (
        lambda: ndm_sec34("b16cols"),
        "e9a80ee44cb3174a169c07333adc4e767229336a",
        "d425797d872dea7c98b36d47eaa87f8ab479ab71",
        "389f1c5ab0dc2cde285f6379df51247bd3a50a6f",
    ),
    "ndm_p3('gf27_to_gf9')": (
        lambda: ndm_p3("gf27_to_gf9"),
        "a782148aa971410f6732800ce7a4b25bcfa63653",
        "4fd9b4b27226fd1c7c7a3f6f82feb513ff636eb5",
        "c197c480ffb781884e0ad93e4e0b42f80d9abab0",
    ),
    "ndm_p3('gf81_to_gf27')": (
        lambda: ndm_p3("gf81_to_gf27"),
        "5874593b1ba36a64978477b5f48916fdf46621bc",
        "6e88241c96a5279cd8258c389718e060a5a52e54",
        "3d9d742eead7e5dacebb6e4ad0953a37d23e7c38",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digests(name):
    build, data, child_rows, row_labels = GOLDEN[name]
    obj = build()
    arr = obj.parent if isinstance(obj, NestedPair) else obj
    rows = obj.child_rows if isinstance(obj, NestedPair) else None
    assert (sha(arr.data), sha(rows), sha(arr.row_labels)) == (data, child_rows, row_labels)


# ---------------------------------------------------------------------------
# golden digests of the Kronecker compositions
# ---------------------------------------------------------------------------


def projection_sha(projections):
    """SHA-1 of each projection's kind, source, target and table, in order."""
    h = hashlib.sha1()
    for p in projections:
        h.update(repr((p.kind, group_to_dict(p.source), group_to_dict(p.target), p.table)).encode())
    return h.hexdigest()


def _gf(p, u):
    return GaloisGroup(field_make(p, u))


#: name -> (construction, SHA-1 of data, of child_rows, of row_labels, of
#: projections); the validation full arrays are plain arrays
KRONECKER_GOLDEN = {
    "noa_theorem4(trivial_oa(GF(8)), ndm_theorem1(2))": (
        lambda: noa_theorem4(trivial_oa(_gf(2, 3)), ndm_theorem1(2)),
        "3aedfc1b3a0a1250ff3afeab694a402725a6495a",
        "61be708c0f4236730b94398d8e0b843a61bf8eaa",
        None,
        "b75d9b21f7ac87f27113b9ae30dfca7bcba4870b",
    ),
    "noa_theorem4(RH(GF(16), 2), ndm_theorem1(3))": (
        lambda: noa_theorem4(rao_hamming_oa(field_make(2, 4), 2), ndm_theorem1(3)),
        "18b264affa4e65aabab7b7185b1d16f2029865ed",
        "052dc88c214378d41b936aa7bee51a2a3a20bc46",
        None,
        "fcc450b2099eb3bdece58dcc28c79f911c483b1e",
    ),
    "noa_theorem5(qtw_noa(GF(8), GF(4), 2), mult_table(GF(8)))": (
        lambda: noa_theorem5(qtw_noa(field_make(2, 3), field_make(2, 2), 2), mult_table(field_make(2, 3))),
        "43e210e219e1119219d34f1eaff51ae6affde7a5",
        "a81c54c76c2efb5afb088ff6daacd294968c2b80",
        None,
        "05e9f83c4f2665ee37604f3af44bfd2f2c91723e",
    ),
    "validation_pair(2, trivial_oa(GF(8))) full": (
        lambda: validation_pair(2, trivial_oa(_gf(2, 3)))[0],
        "877f27b39468af8ce50ef57632232cfd257f4f64",
        None,
        None,
        None,
    ),
    "validation_pair(2, trivial_oa(GF(8))) pair": (
        lambda: validation_pair(2, trivial_oa(_gf(2, 3)))[1],
        "5d9c00994ac464229b713bea11e9f5b200c272bc",
        "61be708c0f4236730b94398d8e0b843a61bf8eaa",
        None,
        "b75d9b21f7ac87f27113b9ae30dfca7bcba4870b",
    ),
    "validation_pair(2, RH(GF(8), 2)) full": (
        lambda: validation_pair(2, rao_hamming_oa(field_make(2, 3), 2))[0],
        "9bf5930326cac3277e3e9908fca495b107a4d50c",
        None,
        None,
        None,
    ),
    "validation_pair(2, RH(GF(8), 2)) pair": (
        lambda: validation_pair(2, rao_hamming_oa(field_make(2, 3), 2))[1],
        "19fcf2df8aa7cb84b73d48dfb65e15fb80d97337",
        "09ee2b15591ea4e901ef3ed14ffaeb5c586cb9a6",
        None,
        "4ea85ac1f35add2a38104cbe757453f967f10a39",
    ),
    "ww_from_noas(ex12)": (
        lambda: ww_from_noas(*ex12_inputs()),
        "a88c94fdcfce5943288b27efacdef219ae8de84c",
        "b196fd923aeb2dccdddb409e858f87e0b51d3a1a",
        None,
        "dce1ddda04d76ae57a98ed1a7036d6afad2f2a9a",
    ),
    "ww_from_noas(ex12, include_b)": (
        lambda: ww_from_noas(*ex12_inputs(), include_b=True),
        "2656fe0099bfc4cead3c1d36736324384b25a17b",
        "b196fd923aeb2dccdddb409e858f87e0b51d3a1a",
        None,
        "4bc49c8348650c14848a09648698081213992414",
    ),
    "ww_from_ndms(ex11 + Z2)": (
        lambda: ww_from_ndms(*thm8_inputs()),
        "c689742f1518ed892927847305c8e0eac2ed38b3",
        "7b8d465c15e0844cb4062387dc9c5166bf1e533e",
        None,
        "d421ede66480399155f77bb972e540c717d69849",
    ),
    "ww_from_ndms(ex11 + Z2, include_b)": (
        lambda: ww_from_ndms(*thm8_inputs(), include_b=True),
        "0b7956ff4b4728b32e9079b8b0a65f8cf7673558",
        "7b8d465c15e0844cb4062387dc9c5166bf1e533e",
        None,
        "4fd425b0df7f9697a9dfcd7fbc8931fa0c9ed6f8",
    ),
    "noa_theorem9(lemma7(GF(4), GF(3), 2))": (
        lambda: ex13_noa(ex13_dm()),
        "1fc9db6cd236925dcc4f70f22d352dc4cb3ecf7d",
        "cc1fc66b009e192e50ec04b6fdf4ab9103d33b22",
        None,
        "300db1aca2b7403f146279b86042792c6c685275",
    ),
}


@pytest.mark.parametrize("name", list(KRONECKER_GOLDEN))
def test_kronecker_golden_digests(name):
    build, data, child_rows, row_labels, projections = KRONECKER_GOLDEN[name]
    obj = build()
    if isinstance(obj, NestedPair):
        got = (sha(obj.parent.data), sha(obj.child_rows), sha(obj.parent.row_labels), projection_sha(obj.projections))
    else:
        got = (sha(obj.data), None, sha(obj.row_labels), None)
    assert got == (data, child_rows, row_labels, projections)
