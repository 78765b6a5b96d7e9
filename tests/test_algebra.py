"""Field arithmetic, group alphabets, and projection properties."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_alphabet
from nestfill.algebra import (
    Field,
    GaloisGroup,
    ProductGroup,
    ResidueGroup,
    _find_factor,
    _validated,
    _vectors,
    add_table,
    component,
    digits,
    field_make,
    identity_projection,
    modulus,
    mul_table,
    product_projection,
    projection_to_dict,
    poly_parse,
    poly_text,
    residue,
    truncation,
)
from nestfill.constructions import full_factorial, mult_table


# ---------------------------------------------------------------------------
# field_make and element arithmetic
# ---------------------------------------------------------------------------


def test_gf4_elements_in_lex_order(gf4):
    assert [gf4.text(e) for e in gf4.elements()] == ["0", "1", "x", "x+1"]


def test_gf4_multiplication_table_row_x(gf4):
    x = gf4.parse("x")
    assert gf4.text(gf4.mul(x, x)) == "x+1"
    assert gf4.text(gf4.mul(x, gf4.parse("x+1"))) == "1"


def test_gf2_is_z2():
    f = field_make(2, 1)
    assert f.order == 2
    assert [f.text(e) for e in f.elements()] == ["0", "1"]


def test_reducible_polynomial_rejected_naming_factor():
    with pytest.raises(ValueError, match=r"reducible.*x\^2\+x\+1"):
        field_make(2, 5, "x^5+x+1")


def test_defining_polynomial_text_is_bounded_by_the_degree():
    """Text far above the extension degree is refused before its
    coefficients are listed, instead of exhausting memory."""
    with pytest.raises(ValueError, match="degree 99999999999, above the maximum 3"):
        field_make(2, 3, "x^99999999999")


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
    assert gf8.text(gf8.add(x2, x2)) == "0"


def test_gf4_char2_cancellation(gf4):
    assert gf4.text(gf4.add(gf4.parse("x"), gf4.parse("x+1"))) == "1"


def test_gf9_componentwise_mod3_addition(gf9):
    assert gf9.text(gf9.add(gf9.parse("x+1"), gf9.parse("x+2"))) == "2x"


def test_gf8_mul_matches_published_table(gf8):
    assert gf8.text(gf8.mul(gf8.parse("x^2"), gf8.parse("x"))) == "x+1"


def test_mul_by_zero_annihilates(gf8):
    for e in gf8.elements():
        assert gf8.mul(e, gf8.zero) == gf8.zero


def test_mismatched_field_element_rejected(gf4, gf8):
    with pytest.raises(ValueError):
        gf4.add(gf4.parse("x"), gf8.parse("x^2"))


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


def _sum_text(g, a: str, b: str) -> str:
    """Text of ``a + b`` through ``add_table``, checked against the reference."""
    ref = reference_alphabet(g)
    want = ref.text(ref.add[ref.parse(a), ref.parse(b)])
    got = g.text_at(add_table(g)[g.parse(a), g.parse(b)])
    assert got == want
    return got


def test_residue_group_add():
    z12 = ResidueGroup(12)
    assert _sum_text(z12, "7", "8") == "3"


def test_product_group_add_and_text():
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(6)))
    assert _sum_text(pg, "15", "15") == "04"
    # componentwise: (1+1 mod 2, 5+1 mod 6) = (0, 0)
    assert _sum_text(pg, "15", "11") == "00"
    z2sq = ProductGroup((ResidueGroup(2), ResidueGroup(2)))
    assert _sum_text(z2sq, "01", "11") == "10"


def test_product_group_enumeration_last_component_fastest():
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(3)))
    want = ["00", "01", "02", "10", "11", "12"]
    assert [pg.text_at(i) for i in range(6)] == want
    assert [reference_alphabet(pg).text(i) for i in range(6)] == want


def test_product_group_parenthesized_text(gf4):
    pg = ProductGroup((GaloisGroup(gf4), ResidueGroup(3)))
    i = GaloisGroup(gf4).parse("x+1") * 3 + 2  # last component fastest
    assert pg.text_at(i) == reference_alphabet(pg).text(i) == "(x+1)2"
    assert pg.parse("(x+1)2") == i


def test_galois_group_matches_z2_square(gf4):
    assert np.array_equal(
        add_table(GaloisGroup(gf4)),
        add_table(ProductGroup((ResidueGroup(2), ResidueGroup(2)))),
    )


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def image(spec, text: str) -> str:
    """Text of the image of the element spelled ``text`` under ``spec``,
    through its table."""
    return spec.target.text_at(spec.table[spec.source.parse(text)])


def test_truncation_example(gf8, gf4):
    phi = truncation(gf8, gf4)
    assert image(phi, "x^2+1") == "1"
    fibers = {}
    for i in range(8):
        fibers.setdefault(phi.table[i], []).append(phi.source.text_at(i))
    assert fibers[0] == ["0", "x^2"]
    assert fibers[1] == ["1", "x^2+1"]


def test_modulus_example(gf8, gf4):
    var = modulus(gf8, gf4)
    assert image(var, "x^2") == "x+1"
    assert image(var, "x^2+x+1") == "0"


def test_residue_example():
    r = residue(6, 3)
    assert image(r, "4") == "1"


def test_residue_requires_divisor():
    with pytest.raises(ValueError, match="divide"):
        residue(6, 4)


def test_component_selection():
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(6)))
    sel = component(pg, 1)
    assert image(sel, "14") == "4"


def test_projection_outside_source_rejected(gf8, gf4):
    phi = truncation(gf8, gf4)
    with pytest.raises(ValueError):
        image(phi, "x^3")  # an element of GF(16), not of the source GF(8)


@pytest.mark.parametrize(
    "table, says",
    [
        ([0, 1, 0], "^test projection table does not cover the source alphabet$"),
        ([0, 1, 0, 2], "^test projection maps outside the target alphabet$"),
        ([0, 1, 0, -1], "^test projection maps outside the target alphabet$"),
        ([0, 0, 0, 1], "^test projection Z_4 -> Z_2 is not balanced: unequal fiber sizes$"),
        ([0, 0, 1, 1], "^test projection Z_4 -> Z_2 does not preserve addition$"),
    ],
    ids=["short", "above", "negative", "unequal-fibres", "not-additive"],
)
def test_projection_tables_are_validated(table, says):
    """Each refusal of the one validation every projection constructor goes
    through; Z_4 -> Z_2 by u mod 2 is the table that passes."""
    z4, z2 = ResidueGroup(4), ResidueGroup(2)
    assert _validated("test", z4, z2, [0, 1, 0, 1]).table == (0, 1, 0, 1)
    with pytest.raises(ValueError, match=says):
        _validated("test", z4, z2, table)


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
    to_a, to_b = residue(3 * a, a).table, residue(3 * a, b).table
    for u in range(3 * a):
        assert residue(a, b).table[to_a[u]] == to_b[u] == u % b


def test_rho_of_sum():
    for a in (3, 6, 12):
        rho_a = residue(4 * a, a).table
        for u1 in range(2 * a):
            for u2 in range(2 * a):
                assert rho_a[u1 + u2] == rho_a[rho_a[u1] + rho_a[u2]] == (u1 + u2) % a


def test_identity_projection_round_trip(gf8):
    g = GaloisGroup(gf8)
    ident = identity_projection(g)
    ref = reference_alphabet(g)
    for i in range(g.order):
        assert image(ident, ref.text(i)) == ref.text(i)


def test_projection_table_is_built_once_and_read_only(gf8):
    p = truncation(gf8, field_make(2, 1))
    tab = p.np_table()
    assert tab is p.np_table()
    assert not tab.flags.writeable
    assert tab.tolist() == list(p.table)


# ---------------------------------------------------------------------------
# validation once per value: trial division and the projection builders
# ---------------------------------------------------------------------------

# each builder with a call that builds its arguments anew
BUILDER_CALLS = [
    ("identity", lambda: identity_projection(GaloisGroup(field_make(3, 2)))),
    ("truncation", lambda: truncation(field_make(2, 3), field_make(2, 2))),
    ("modulus", lambda: modulus(field_make(3, 3), field_make(3, 2))),
    ("residue", lambda: residue(12, 4)),
    ("component", lambda: component(ProductGroup((ResidueGroup(2), ResidueGroup(6))), 1)),
    ("product", lambda: product_projection([residue(6, 3), identity_projection(ResidueGroup(2))])),
]


@pytest.mark.parametrize("label,make", BUILDER_CALLS, ids=[c[0] for c in BUILDER_CALLS])
def test_equal_arguments_give_one_projection(label, make):
    assert make() is make()


def test_product_projection_keys_on_the_parts_not_their_container():
    parts = [residue(6, 3), identity_projection(ResidueGroup(2))]
    copies = [dataclasses.replace(q) for q in parts]
    assert copies[0] is not parts[0] and copies == parts
    assert product_projection(parts) is product_projection(tuple(copies))


def test_each_polynomial_is_divided_through_once():
    _find_factor.cache_clear()
    polys = [None, "x^4+x^3+1", (1, 0, 0, 1, 1)]  # x^4+x+1, and two spellings of another
    fields = [field_make(2, 4, poly) for _ in range(3) for poly in polys]
    info = _find_factor.cache_info()
    assert (info.misses, info.hits) == (2, 7)
    # every Field is still its own validated object
    assert fields[0] == fields[3] and fields[0] is not fields[3]


def test_refusals_are_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible over Z_2: divisible by x\\+1"):
            field_make(2, 2, "x^2+1")
        with pytest.raises(ValueError, match="needs 4 to divide 6"):
            residue(6, 4)


def test_numpy_integers_are_recorded_as_ints():
    """Whichever equal argument builds a projection first, it records plain
    ints, so every caller's bundle can be written as JSON."""
    for builder in (residue, component, identity_projection, modulus):
        builder.cache_clear()
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(5)))
    first = [
        residue(10, np.int64(5)),
        component(pg, np.int64(1)),
        identity_projection(ResidueGroup(np.int64(14))),
        modulus(Field(np.int64(3), np.int64(2), (2, 1, 1)), field_make(3, 1)),
    ]
    again = [residue(10, 5), component(pg, 1), identity_projection(ResidueGroup(14)), modulus(field_make(3, 2), field_make(3, 1))]
    for a, b in zip(first, again):
        assert a == b
        json.dumps([projection_to_dict(a), projection_to_dict(b)])
    f = Field(2, 3, np.array([1, 1, 0, 1]))
    assert f == field_make(2, 3) and all(type(c) is int for c in f.irreducible)
    # a float or a bool is refused, not answered from an equal int's entry
    with pytest.raises(ValueError, match="modulus must be an integer"):
        residue(10, 5.0)
    with pytest.raises(ValueError, match="modulus must be an integer"):
        residue(10.0, 5)
    with pytest.raises(ValueError, match="component index must be an integer, got True"):
        component(pg, True)


def test_equal_projection_arguments_share_one_cache_entry():
    """A numpy integer and the int it equals are one argument: the second
    call is answered from the first call's entry."""
    pg = ProductGroup((ResidueGroup(2), ResidueGroup(5)))
    for builder, first, second in [
        (residue, (np.int64(10), 5), (10, 5)),
        (residue, (10, np.int32(5)), (np.int64(10), 5)),
        (component, (pg, np.int64(1)), (pg, 1)),
    ]:
        builder.cache_clear()
        assert builder(*first) is builder(*second)
        assert (builder.cache_info().misses, builder.cache_info().hits) == (1, 1)


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: ResidueGroup(6.0), "modulus"),
        (lambda: ResidueGroup(True), "modulus"),
        (lambda: ResidueGroup("6"), "modulus"),
        (lambda: Field(2.0, 3, (1, 1, 0, 1)), "characteristic"),
        (lambda: Field(2, True, (1, 1)), "extension degree"),
        (lambda: Field(2, 3, (1.5, 1, 0, 1)), "polynomial coefficient"),
        (lambda: field_make(2, 3, [1.5, 1, 0, 1]), "polynomial coefficient"),
        (lambda: Field(2, 3, (True, 1, 0, 1)), "polynomial coefficient"),
    ],
    ids=["Z_6.0", "Z_True", "Z_'6'", "GF(2.0^3)", "GF(2^True)", "1.5+x+x^3", "field_make-1.5", "True+x+x^3"],
)
def test_alphabet_parameters_must_be_integers(make, what):
    """Z_6.0 would equal Z_6, and GF(2.0^3) GF(2^3), and be answered from
    their cached tables, factors and projections; a coefficient 1.5 was
    read as 1."""
    field_make(2, 3), field_make(2, 1), ResidueGroup(6)  # the equal alphabets, built first
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        make()


@pytest.mark.parametrize(
    "call, says",
    [
        (lambda f8, f4: mul_table(GaloisGroup(f8)), "a multiplication table needs a Field, not GF(8)"),
        (lambda f8, f4: mult_table(GaloisGroup(f8)), "a multiplication table needs a Field, not GF(8)"),
        (lambda f8, f4: truncation(GaloisGroup(f8), GaloisGroup(f4)), "a truncation projection needs a Field, not GF(8)"),
        (lambda f8, f4: truncation(f8, GaloisGroup(f4)), "a truncation projection needs a Field, not GF(4)"),
        (lambda f8, f4: modulus(GaloisGroup(f8), GaloisGroup(f4)), "a modulus projection needs a Field, not GF(8)"),
        (lambda f8, f4: truncation(f8, 4), "a truncation projection needs a Field, not 4"),
        (lambda f8, f4: modulus(f8, 4), "a modulus projection needs a Field, not 4"),
    ],
    ids=["mul_table", "mult_table", "truncation", "truncation-target", "modulus", "truncation-4", "modulus-4"],
)
def test_field_arguments_must_be_fields(gf8, gf4, call, says):
    """Each used to fail with an AttributeError on ``.p``; the refusal is
    not cached, so it raises again on a second call."""
    mul_table(gf8), truncation(gf8, gf4), modulus(gf8, gf4)  # the good entries, built first
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            call(gf8, gf4)


def test_a_shared_projection_is_frozen_and_read_only(gf8, gf4):
    shared = modulus(gf8, gf4)
    assert modulus(field_make(2, 3), field_make(2, 2)) is shared
    assert not shared.np_table().flags.writeable
    with pytest.raises(ValueError):
        shared.np_table()[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.kind = "identity"


# ---------------------------------------------------------------------------
# index layout: the table path against the scalar element path
# ---------------------------------------------------------------------------

# each small alphabet with the projections out of it
SMALL = [
    (GaloisGroup(field_make(2, 1)), []),
    (GaloisGroup(field_make(3, 1)), []),
    (GaloisGroup(field_make(2, 2)), [lambda g: truncation(g.field, field_make(2, 1)), lambda g: modulus(g.field, field_make(2, 1))]),
    (ResidueGroup(1), []),
    (ResidueGroup(2), []),
    (ResidueGroup(4), [lambda g: residue(g.order, 2)]),
    (ResidueGroup(6), [lambda g: residue(g.order, 3), lambda g: residue(g.order, 2)]),
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
    assert add_table(pg).tolist() == reference_alphabet(pg).add.tolist()
    # the component indices of every element, last component fastest
    elems = list(itertools.product(*[range(g.order) for g in pg.components]))
    for which in range(len(pg.components)):
        assert list(component(pg, which).table) == [e[which] for e in elems]
    proj = product_projection(parts)
    want = [np.ravel_multi_index([p.table[x] for p, x in zip(parts, e)], [p.target.order for p in parts]) for e in elems]
    assert list(proj.table) == want
    ff = full_factorial(pg.components)
    assert ff.data.tolist() == [list(t) for t in itertools.product(*[range(g.order) for g in pg.components])]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_vectors_are_digits_by_index(p, k):
    v = _vectors(p, k)
    assert v.tolist() == [list(digits(i, p, k)) for i in range(p**k)]
