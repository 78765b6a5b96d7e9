"""Field arithmetic, group alphabets, and projection properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestfill.algebra import (
    Field,
    GaloisGroup,
    ProductGroup,
    ResidueGroup,
    _vectors,
    add_table,
    component,
    digits,
    field_make,
    gf_add,
    gf_mul,
    group_add,
    identity_projection,
    modulus,
    product_projection,
    project,
    poly_parse,
    poly_text,
    residue,
    rho,
    truncation,
)
from nestfill.constructions import full_factorial


# ---------------------------------------------------------------------------
# field_make and element arithmetic
# ---------------------------------------------------------------------------


def test_gf4_elements_in_lex_order(gf4):
    assert [gf4.text(e) for e in gf4.elements()] == ["0", "1", "x", "x+1"]


def test_gf4_multiplication_table_row_x(gf4):
    x = gf4.parse("x")
    assert gf4.text(gf_mul(gf4, x, x)) == "x+1"
    assert gf4.text(gf_mul(gf4, x, gf4.parse("x+1"))) == "1"


def test_gf2_is_z2():
    f = field_make(2, 1)
    assert f.order == 2
    assert [f.text(e) for e in f.elements()] == ["0", "1"]


def test_reducible_polynomial_rejected_naming_factor():
    with pytest.raises(ValueError, match=r"reducible.*x\^2\+x\+1"):
        field_make(2, 5, "x^5+x+1")


def test_reducible_rejection_agrees_with_sympy():
    # independent oracle: sympy's factorization over GF(2)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    factors = sympy.factor_list(sympy.Poly(x**5 + x + 1, x, modulus=2))[1]
    degs = sorted(f.degree() for f, _ in factors)
    assert degs == [2, 3]  # so a degree-2 factor exists, as our error reports


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError, match="not prime"):
        field_make(4, 1, "x+1")
    with pytest.raises(ValueError, match="not prime"):
        Field(1, 10**12, (1, 1))


def test_field_order_cap():
    with pytest.raises(ValueError, match="maximum"):
        field_make(2, 9, [1, 1] + [0] * 7 + [1])
    with pytest.raises(ValueError, match="maximum"):
        Field(257, 1, (1, 1))
    with pytest.raises(ValueError, match="maximum"):
        Field(2, 10**9, (1, 1))  # refused before 2**(10**9) is computed


def test_non_monic_rejected():
    with pytest.raises(ValueError, match="monic"):
        Field(3, 2, (1, 1, 2))


def test_gf8_add_self_inverse(gf8):
    x2 = gf8.parse("x^2")
    assert gf8.text(gf_add(gf8, x2, x2)) == "0"


def test_gf4_char2_cancellation(gf4):
    assert gf4.text(gf_add(gf4, gf4.parse("x"), gf4.parse("x+1"))) == "1"


def test_gf9_componentwise_mod3_addition(gf9):
    assert gf9.text(gf_add(gf9, gf9.parse("x+1"), gf9.parse("x+2"))) == "2x"


def test_gf8_mul_matches_published_table(gf8):
    assert gf8.text(gf_mul(gf8, gf8.parse("x^2"), gf8.parse("x"))) == "x+1"


def test_mul_by_zero_annihilates(gf8):
    for e in gf8.elements():
        assert gf_mul(gf8, e, gf8.zero) == gf8.zero


def test_mismatched_field_element_rejected(gf4, gf8):
    with pytest.raises(ValueError):
        gf_add(gf4, gf4.parse("x"), gf8.parse("x^2"))


@pytest.mark.parametrize("p,u", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)])
def test_field_axioms_exhaustive(p, u):
    f = field_make(p, u)
    assert check_field_axioms(f)


def check_field_axioms(f) -> bool:
    """Exhaustive associativity, commutativity, distributivity, identities
    and inverses, via the index tables."""
    n = f.order
    add = np.asarray(add_table(GaloisGroup(f)))
    mul = np.array(
        [[f.index(f.mul(f.element(i), f.element(j))) for j in range(n)] for i in range(n)]
    )
    i = np.arange(n)
    a, b, c = i[:, None, None], i[None, :, None], i[None, None, :]
    return bool(
        np.array_equal(add, add.T)
        and np.array_equal(mul, mul.T)
        and np.array_equal(add[add[a, b], c], add[a, add[b, c]])
        and np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
        and np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
        and np.array_equal(add[0, :], i)  # additive identity
        and np.array_equal(mul[1, :], i)  # multiplicative identity
        and np.all((add == 0).sum(axis=1) == 1)  # unique additive inverses
        and np.all((mul[1:, :] == 1).sum(axis=1) == 1)  # nonzero units invert
    )


# ---------------------------------------------------------------------------
# text round trips
# ---------------------------------------------------------------------------


def test_poly_text_examples():
    assert poly_text((1, 1, 0, 1)) == "x^3+x+1"
    assert poly_text((2, 1, 2)) == "2x^2+x+2"
    assert poly_text(()) == "0"


def test_poly_parse_inverse_of_text():
    for coeffs in [(1, 1, 0, 1), (2, 1, 2), (0, 0, 1), (), (1,)]:
        p = 3 if any(c > 1 for c in coeffs) else 2
        assert poly_parse(poly_text(coeffs), p) == coeffs


@given(st.integers(0, 80))
def test_element_text_round_trip_gf81(idx):
    f = field_make(3, 4)
    e = f.element(idx)
    assert f.parse(f.text(e)) == e
    assert f.index(e) == idx  # enumeration round-trips


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def test_residue_group_add():
    z12 = ResidueGroup(12)
    assert group_add(z12, 7, 8) == 3


def test_product_group_add_and_text():
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(6)))
    a, b = pg.parse("15"), pg.parse("15")
    assert pg.text(pg.add(a, b)) == "04"
    # componentwise: (1+1 mod 2, 5+1 mod 6) = (0, 0)
    assert pg.text(pg.add(pg.parse("15"), pg.parse("11"))) == "00"
    z2sq = ProductGroup((ResidueGroup(2), ResidueGroup(2)))
    assert z2sq.text(z2sq.add(z2sq.parse("01"), z2sq.parse("11"))) == "10"


def test_product_group_enumeration_last_component_fastest():
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(3)))
    assert [pg.text(pg.element(i)) for i in range(6)] == ["00", "01", "02", "10", "11", "12"]


def test_product_group_parenthesized_text(gf4):
    pg = ProductGroup((GaloisGroup(gf4), ResidueGroup(3)))
    e = (gf4.parse("x+1"), 2)
    assert pg.text(e) == "(x+1)2"
    assert pg.parse("(x+1)2") == e


def test_galois_group_matches_z2_square(gf4):
    assert np.array_equal(
        add_table(GaloisGroup(gf4)),
        add_table(ProductGroup((ResidueGroup(2), ResidueGroup(2)))),
    )


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_truncation_example(gf8, gf4):
    phi = truncation(gf8, gf4)
    assert gf4.text(project(phi, gf8.parse("x^2+1"))) == "1"
    fibers = {}
    for i in range(8):
        fibers.setdefault(phi.table[i], []).append(phi.source.text_at(i))
    assert fibers[0] == ["0", "x^2"]
    assert fibers[1] == ["1", "x^2+1"]


def test_modulus_example(gf8, gf4):
    var = modulus(gf8, gf4)
    assert gf4.text(project(var, gf8.parse("x^2"))) == "x+1"
    assert gf4.text(project(var, gf8.parse("x^2+x+1"))) == "0"


def test_residue_example():
    r = residue(6, 3)
    assert project(r, 4) == 1


def test_residue_requires_divisor():
    with pytest.raises(ValueError, match="divide"):
        residue(6, 4)


def test_component_selection():
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(6)))
    sel = component(pg, 1)
    assert project(sel, (1, 4)) == 4


def test_projection_outside_source_rejected(gf8, gf4):
    phi = truncation(gf8, gf4)
    with pytest.raises(ValueError):
        project(phi, gf4.parse("x"))


def test_modulus_characteristic_mismatch(gf8, gf9):
    with pytest.raises(ValueError, match="characteristic"):
        modulus(gf8, gf9)


PROJECTION_CASES = [
    ("truncation 8->4", lambda: truncation(field_make(2, 3), field_make(2, 2))),
    ("truncation 16->4", lambda: truncation(field_make(2, 4), field_make(2, 2))),
    ("modulus 8->4", lambda: modulus(field_make(2, 3), field_make(2, 2))),
    ("modulus 27->9", lambda: modulus(field_make(3, 3), field_make(3, 2))),
    ("modulus 81->27", lambda: modulus(field_make(3, 4), field_make(3, 3))),
    ("residue 6->3", lambda: residue(6, 3)),
    ("residue 12->4", lambda: residue(12, 4)),
]


@pytest.mark.parametrize("label,make", PROJECTION_CASES, ids=[c[0] for c in PROJECTION_CASES])
def test_projection_homomorphism_exhaustive(label, make):
    proj = make()
    src, tgt = proj.source, proj.target
    tab = proj.np_table()
    s_add, t_add = add_table(src), add_table(tgt)
    assert np.array_equal(tab[s_add], t_add[tab[:, None], tab[None, :]])


@pytest.mark.parametrize("label,make", PROJECTION_CASES, ids=[c[0] for c in PROJECTION_CASES])
def test_projection_balanced(label, make):
    proj = make()
    counts = np.bincount(proj.np_table(), minlength=proj.target.order)
    assert counts.min() == counts.max() == proj.source.order // proj.target.order


def test_product_projection_homomorphism(gf4):
    d0 = product_projection(
        [truncation(gf4, field_make(2, 1)), identity_projection(ResidueGroup(3))]
    )
    assert d0.source.order == 12 and d0.target.order == 6


@pytest.mark.parametrize("a,b", [(6, 3), (6, 2), (12, 6), (12, 4), (12, 3)])
def test_rho_composition(a, b):
    # rho_b after rho_a equals rho_b whenever b divides a
    for u in range(3 * a):
        assert rho(b, rho(a, u)) == rho(b, u)


def test_rho_of_sum():
    for a in (3, 6, 12):
        for u1 in range(2 * a):
            for u2 in range(2 * a):
                assert rho(a, u1 + u2) == rho(a, rho(a, u1) + rho(a, u2))


def test_identity_projection_round_trip(gf8):
    g = GaloisGroup(gf8)
    ident = identity_projection(g)
    for e in gf8.elements():
        assert project(ident, e) == e


def test_projection_table_is_built_once_and_read_only(gf8):
    p = truncation(gf8, field_make(2, 1))
    tab = p.np_table()
    assert tab is p.np_table()
    assert not tab.flags.writeable
    assert tab.tolist() == list(p.table)


# ---------------------------------------------------------------------------
# index layout: the table path against the scalar element path
# ---------------------------------------------------------------------------

# each small alphabet with the projections out of it
SMALL = [
    (GaloisGroup(field_make(2, 1)), []),
    (GaloisGroup(field_make(3, 1)), []),
    (GaloisGroup(field_make(2, 2)), [lambda g: truncation(g, field_make(2, 1)), lambda g: modulus(g, field_make(2, 1))]),
    (ResidueGroup(1), []),
    (ResidueGroup(2), []),
    (ResidueGroup(4), [lambda g: residue(g, 2)]),
    (ResidueGroup(6), [lambda g: residue(g, 3), lambda g: residue(g, 2)]),
]


@st.composite
def small_products(draw):
    picks = draw(st.lists(st.sampled_from(SMALL), min_size=2, max_size=3).filter(
        lambda ps: np.prod([g.order for g, _ in ps]) <= 48))
    parts = [draw(st.sampled_from([identity_projection] + makes))(g) for g, makes in picks]
    return ProductGroup(tuple(g for g, _ in picks)), parts


@settings(max_examples=30, deadline=None)
@given(small_products())
def test_product_tables_match_element_path(drawn):
    pg, parts = drawn
    elems = [pg.element(i) for i in range(pg.order)]
    assert add_table(pg).tolist() == [[pg.index(pg.add(a, b)) for b in elems] for a in elems]
    for which, g in enumerate(pg.components):
        assert list(component(pg, which).table) == [g.index(e[which]) for e in elems]
    proj = product_projection(parts)
    assert list(proj.table) == [proj.target.index(tuple(project(p, x) for p, x in zip(parts, e))) for e in elems]
    ff = full_factorial(pg.components)
    assert ff.data.tolist() == [list(t) for t in itertools.product(*[range(g.order) for g in pg.components])]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_vectors_are_digits_by_index(p, k):
    v = _vectors(p, k)
    assert v.tolist() == [list(digits(i, p, k)) for i in range(p**k)]
