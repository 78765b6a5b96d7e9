"""Construction families: published fixtures, checker gates, properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import randomize_array

from nestfill import arrays, constructions
from nestfill.algebra import (
    GaloisGroup,
    ResidueGroup,
    field_make,
    identity_projection,
    modulus,
    poly_mul,
    poly_trim,
    residue,
    truncation,
)
from nestfill.arrays import (
    LevelArray,
    check_dm,
    check_nested,
    check_oa,
    collapse,
    subcols,
    subrows,
)
from nestfill.catalog import catalog_get
from nestfill.constructions import (
    ConstructionError,
    _crossed,
    full_factorial,
    label_sequence,
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
    search_nested_rows,
    trivial_oa,
    validation_pair,
    zero_sum_noa,
)


# ---------------------------------------------------------------------------
# label sequences and multiplication tables
# ---------------------------------------------------------------------------


def test_label_sequence_r1(gf8):
    assert [gf8.text(e) for e in label_sequence(gf8, 1)] == ["0", "1", "x", "x+1"]
    assert [gf8.text(e) for e in label_sequence(gf8, -1)] == ["0"]


def test_label_sequence_counts():
    f = field_make(3, 3)
    assert len(label_sequence(f, 1)) == 9  # p^(m+1)


def test_mult_table_gf4_matches_published(gf4):
    t = mult_table(gf4)
    assert t.texts() == [
        ["0", "0", "0", "0"],
        ["0", "1", "x", "x+1"],
        ["0", "x", "x+1", "1"],
        ["0", "x+1", "1", "x"],
    ]
    assert check_dm(t)


def test_mult_table_zero_row_and_column(gf8):
    t = mult_table(gf8)
    assert np.all(t.data[0, :] == 0) and np.all(t.data[:, 0] == 0)


# ---------------------------------------------------------------------------
# nested difference matrix families
# ---------------------------------------------------------------------------


def test_theorem1_m2_matches_published_tables():
    pair = ndm_theorem1(2)
    golden_parent = catalog_get("ex3_d1").payload
    assert pair.parent.texts() == golden_parent.texts()
    assert pair.collapsed_child().texts() == catalog_get("ex3_phi_d2").payload.texts()
    assert pair.parent.label_texts() == [
        "0", "1", "x^2", "x^2+1", "x", "x+1", "x^2+x", "x^2+x+1",
    ]


def test_theorem1_m2_shape():
    pair = ndm_theorem1(2)
    assert pair.parent.shape == (8, 4) and pair.child_size == 4


def test_theorem1_m3_verifies():
    pair = ndm_theorem1(3)
    assert pair.parent.shape == (16, 4)
    assert pair.collapsed_child().shape == (8, 4)
    assert check_nested(pair, "ndm")


def test_theorem1_rejects_small_m():
    with pytest.raises(ValueError, match=">= 2"):
        ndm_theorem1(1)


def test_theorem2_m2_matches_published_child():
    pair = ndm_theorem2(2)
    assert pair.parent.shape == (16, 4)
    child = pair.collapsed_child()
    assert child.texts() == catalog_get("ex4_phi_d2").payload.texts()
    assert child.label_texts() == ["0", "1", "x^3+x^2+x", "x^3+x^2+x+1"]


def test_theorem2_m4_verifies():
    pair = ndm_theorem2(4)
    assert pair.parent.shape == (64, 4) and pair.collapsed_child().shape == (16, 4)


def test_theorem3_m2_sizes():
    pair = ndm_theorem3(2)
    assert pair.parent.shape == (16, 8)
    child = pair.collapsed_child()
    assert child.shape == (8, 8) and child.groups[0].order == 4


def test_theorem3_m3_child_levels():
    pair = ndm_theorem3(3)
    assert pair.child_size == 16
    assert pair.collapsed_child().groups[0].order == 8


@pytest.mark.parametrize("m", range(2, 8))
def test_theorem1_gate_across_m(m):
    assert check_nested(ndm_theorem1(m), "ndm")


@pytest.mark.parametrize("m", range(2, 7))
def test_theorem2_gate_across_m(m):
    assert check_nested(ndm_theorem2(m), "ndm")


@pytest.mark.parametrize("m", range(2, 7))
def test_theorem3_gate_across_m(m):
    assert check_nested(ndm_theorem3(m), "ndm")


def test_sec34_variant_a():
    pair = ndm_sec34("a8cols")
    assert pair.parent.shape == (32, 8)
    assert check_dm(pair.parent)
    child = pair.collapsed_child()
    assert child.shape == (8, 8) and child.groups[0].order == 4


def test_sec34_variant_b():
    pair = ndm_sec34("b16cols")
    assert pair.parent.shape == (32, 16)
    assert pair.child_size == 16


def test_sec34_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        ndm_sec34("c")


def test_p3_gf27_matches_published_columns():
    pair = ndm_p3("gf27_to_gf9")
    assert check_dm(pair.parent)  # D(27, 9, 27)
    child = pair.collapsed_child()
    block = subcols(child, range(3, 9))  # columns x .. 2x+2
    assert block.texts() == catalog_get("ex6_block").payload.texts()


def test_p3_gf81_shape():
    pair = ndm_p3("gf81_to_gf27")
    assert pair.child_size == 27
    assert pair.parent.shape == (81, 9)


def test_p3_unknown_instance():
    with pytest.raises(ValueError, match="instance"):
        ndm_p3("gf9_to_gf3")


# ---------------------------------------------------------------------------
# linear orthogonal arrays and the modulus-collapse family
# ---------------------------------------------------------------------------


def test_rao_hamming_smallest(gf2):
    arr = rao_hamming_oa(gf2, 2)
    assert arr.shape == (4, 3)
    assert check_oa(arr)


def test_rao_hamming_gf4_k3(gf4):
    arr = rao_hamming_oa(gf4, 3)
    assert arr.shape == (64, 21)


def test_rao_hamming_gf3():
    assert rao_hamming_oa(field_make(3, 1), 2).shape == (9, 4)


def test_rao_hamming_k1_rejected(gf4):
    with pytest.raises(ValueError, match="k"):
        rao_hamming_oa(gf4, 1)


def test_qtw_child_equals_published_matrix(gf8, gf4):
    pair = qtw_noa(gf8, gf4, 2)
    assert pair.child().texts() == catalog_get("ex10_a2").payload.texts()


def test_qtw_collapsed_child_is_oa_16_5_4(gf8, gf4):
    pair = qtw_noa(gf8, gf4, 2)
    child = pair.collapsed_child()
    assert child.shape == (16, 5)
    assert check_oa(child)


def test_qtw_4_2(gf4, gf2):
    for k in (2, 3):
        pair = qtw_noa(gf4, gf2, k)
        assert pair.parent.shape == (16 if k == 2 else 64, 2**k - 1)
        assert check_nested(pair, "noa")


def test_qtw_collapsed_child_equals_rao_hamming(gf8, gf4, gf2):
    for f1, f2, k in [(gf8, gf4, 2), (gf4, gf2, 2), (gf4, gf2, 3)]:
        pair = qtw_noa(f1, f2, k)
        child = collapse(pair.child(), modulus(f1, f2))
        rh = rao_hamming_oa(f2, k)
        assert np.array_equal(child.data, rh.data)


def test_qtw_parameter_condition(gf8, gf2):
    f16 = field_make(2, 4)
    with pytest.raises(ValueError, match="2\\*u2"):
        qtw_noa(f16, field_make(2, 3), 2)
    with pytest.raises(ValueError, match="characteristic"):
        qtw_noa(gf8, field_make(3, 1), 2)


# ---------------------------------------------------------------------------
# Kronecker compositions
# ---------------------------------------------------------------------------


def test_theorem4_published_sizes(gf8):
    pair = noa_theorem4(trivial_oa(GaloisGroup(gf8)), ndm_theorem1(2))
    assert pair.parent.shape == (64, 4)
    child = pair.collapsed_child()
    assert child.shape == (32, 4) and child.groups[0].order == 4


def test_theorem4_wide_pipeline(gf4):
    # OA(64,21,4) crossed with the 12-row nested pair from the catalog
    from nestfill.arrays import cast_group

    ndm = catalog_get("d_4_4_2_nested").payload
    a = cast_group(rao_hamming_oa(gf4, 3), ndm.parent.groups[0])
    pair = noa_theorem4(a, ndm)
    assert pair.parent.shape == (768, 84)
    child = pair.collapsed_child()
    assert child.shape == (256, 84) and child.groups[0].order == 2
    assert check_nested(pair, "noa")


def test_theorem4_rejects_unbalanced_input(gf8):
    # the checker gate guards the precondition: a single-row "array" is out
    one = subrows(trivial_oa(GaloisGroup(gf8)), [3])
    with pytest.raises(ConstructionError, match="input array"):
        noa_theorem4(one, ndm_theorem1(2))


def test_single_row_kronecker_shifts(gf8):
    # the n = 1 product itself is just a shifted copy of the second factor
    from nestfill.algebra import add_table
    from nestfill.arrays import kronecker_add

    one = subrows(trivial_oa(GaloisGroup(gf8)), [3])
    d1 = ndm_theorem1(2).parent
    tab = add_table(GaloisGroup(gf8))
    assert np.array_equal(kronecker_add(one, d1).data, tab[3, d1.data])


def test_theorem5_published_sizes(gf8, gf4):
    pair = noa_theorem5(qtw_noa(gf8, gf4, 2), mult_table(gf8))
    assert pair.parent.shape == (512, 40)
    child = pair.collapsed_child()
    assert child.shape == (128, 40) and child.groups[0].order == 4


def test_theorem5_zero_column_dm(gf8, gf4):
    zero = subcols(mult_table(gf8), [0])
    noa = qtw_noa(gf8, gf4, 2)
    pair = noa_theorem5(noa, zero)
    # adding a single zero column replicates each parent row b times
    assert np.array_equal(pair.parent.data, np.repeat(noa.parent.data, 8, axis=0))
    assert check_nested(pair, "noa")


def test_theorem5_with_small_qtw(gf4, gf2):
    pair = noa_theorem5(qtw_noa(gf4, gf2, 2), mult_table(gf4))
    assert check_nested(pair, "noa")


def test_theorem4_example11_route():
    # nonprime levels: OA(36,3,6) crossed with the 12x6 nested pair over Z6
    a = zero_sum_noa(6, 3).parent
    ndm = catalog_get("ex11_ndm").payload
    pair = noa_theorem4(a, ndm)
    assert pair.parent.shape == (432, 18)
    child = pair.collapsed_child()
    assert child.shape == (216, 18) and child.groups[0].order == 3


# ---------------------------------------------------------------------------
# zero-sum family
# ---------------------------------------------------------------------------


def test_zero_sum_rows_sum_to_zero():
    for s1, s2 in [(4, 2), (6, 3), (12, 6)]:
        pair = zero_sum_noa(s1, s2)
        assert np.all(pair.parent.data.sum(axis=1) % s1 == 0)


def test_zero_sum_third_entry():
    pair = zero_sum_noa(3, 3)
    row = pair.parent.data[1 * 3 + 2]  # (i, j) = (1, 2)
    assert row.tolist() == [1, 2, 0]


def test_zero_sum_sizes():
    pair = zero_sum_noa(6, 3)
    assert pair.parent.shape == (36, 3)
    assert pair.collapsed_child().shape == (9, 3)


def test_zero_sum_rejects_non_divisor():
    with pytest.raises(ValueError, match="divide"):
        zero_sum_noa(6, 4)


# ---------------------------------------------------------------------------
# validation pairs
# ---------------------------------------------------------------------------


def test_validation_pair_m2(gf8):
    full, pair, shared = validation_pair(2, trivial_oa(GaloisGroup(gf8)))
    assert full.shape == (64, 8)
    assert shared == (0, 1, 2, 3)
    assert check_oa(full)
    child = pair.collapsed_child()
    assert child.shape == (32, 4) and child.groups[0].order == 4
    # calibration columns exceed the shared field columns
    assert full.n_cols > len(shared)


def test_validation_pair_child_is_submatrix(gf8):
    full, pair, shared = validation_pair(2, trivial_oa(GaloisGroup(gf8)))
    assert np.array_equal(pair.parent.data, subcols(full, shared).data)


def test_crossed_rejects_rows_outside_either_factor():
    z2 = ResidueGroup(2)
    block = (trivial_oa(z2), trivial_oa(z2), (identity_projection(z2),))
    for outer, inner in [([2], [0]), ([-1], [0])]:
        with pytest.raises(ValueError, match="outer row index out of range"):
            _crossed([block], outer, inner, "x")
    for outer, inner in [([0], [2]), ([0], [-1])]:
        with pytest.raises(ValueError, match="inner row index out of range"):
            _crossed([block], outer, inner, "x")
    assert _crossed([block], [1, 0], [0, 1], "x").child_rows == (2, 3, 0, 1)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def reference_search(d, child_size, projection, budget, seed=None):
    """The per-candidate search: every candidate subset is collapsed anew.
    Same candidate order and arguments as ``search_nested_rows``; returns the
    subset found and its position among the candidates, or (None, None)."""
    if child_size < 1 or child_size > d.n_rows or child_size % projection.target.order:
        return None, None
    b = d.n_rows
    if seed is None:
        candidates = itertools.combinations(range(b), child_size)
    else:
        rng = np.random.default_rng(seed)

        def _random_subsets():
            while True:
                yield tuple(sorted(rng.choice(b, size=child_size, replace=False).tolist()))

        candidates = _random_subsets()
    for count, subset in enumerate(candidates):
        if count >= budget:
            break
        child = collapse(subrows(d, subset), (projection,) * d.n_cols)
        if check_dm(child):
            return tuple(subset), count
    return None, None


def _search_cases():
    gf2, gf3, gf4 = field_make(2, 1), field_make(3, 1), field_make(2, 2)
    gf8, gf9 = field_make(2, 3), field_make(3, 2)
    return [
        (gf4, [truncation(gf4, gf2), modulus(gf4, gf2), identity_projection(GaloisGroup(gf4))]),
        (gf8, [truncation(gf8, gf4), modulus(gf8, gf2), identity_projection(GaloisGroup(gf8))]),
        (gf9, [truncation(gf9, gf3), modulus(gf9, gf3), identity_projection(GaloisGroup(gf9))]),
    ]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_search_agrees_with_the_per_candidate_reference(data):
    f, projections = data.draw(st.sampled_from(_search_cases()))
    projection = data.draw(st.sampled_from(projections))
    # row and column permutations, column shifts and column subsets keep a
    # difference matrix; few columns let row subsets pass
    d = randomize_array(mult_table(f), np.random.default_rng(data.draw(st.integers(0, 2**16))))
    d = subcols(d, range(data.draw(st.integers(2, f.order))))
    t = projection.target.order  # sizes that split evenly are the ones that can pass
    child_size = data.draw(st.one_of(st.integers(0, f.order + 1), st.integers(1, f.order // t).map(lambda k: k * t)))
    budget = data.draw(st.integers(1, 150))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**16)))
    want, count = reference_search(d, child_size, projection, budget, seed)
    assert search_nested_rows(d, child_size, projection, budget, seed) == want
    if want is not None:  # the budget is spent exactly up to the answer
        assert search_nested_rows(d, child_size, projection, count + 1, seed) == want
        if count:
            assert search_nested_rows(d, child_size, projection, count, seed) is None


@pytest.mark.parametrize("target", [(2, 2), (2, 1)])
@pytest.mark.parametrize("seed", [None, 3])
def test_search_agrees_with_the_reference_across_chunk_sizes(target, seed):
    """Budgets on both sides of 512 candidates, where a gather of candidates
    in chunks would cut, on the 16-row GF(16) table."""
    gf16 = field_make(2, 4)
    d, projection = mult_table(gf16), truncation(gf16, field_make(*target))
    for budget in (1, 511, 512, 513, 1820):
        want, _ = reference_search(d, 4, projection, budget, seed)
        assert search_nested_rows(d, 4, projection, budget, seed) == want


def test_search_finds_an_answer_beyond_the_first_chunk():
    # no proper row subset of all 16 columns passes; three columns let one
    gf16 = field_make(2, 4)
    d, projection = subcols(mult_table(gf16), (1, 5, 11)), truncation(gf16, field_make(2, 2))
    found, count = reference_search(d, 4, projection, 1820, seed=0)
    assert found == (2, 6, 11, 15) and count == 663  # past the first 512 candidates
    for budget in (count, count + 1, 1820):
        assert search_nested_rows(d, 4, projection, budget, seed=0) == (found if budget > count else None)


def _count_dm_calls(monkeypatch):
    """Count ``check_dm`` calls in both modules that make them, as the
    benchmark's tracer does: the input gate's in ``arrays``, the candidates'
    in ``constructions``.  Returns the list of arrays checked."""
    calls = []
    real = arrays.check_dm

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(arrays, "check_dm", counted)
    monkeypatch.setattr(constructions, "check_dm", counted)
    return calls


def test_search_checks_each_candidate_with_one_check_dm_call(monkeypatch):
    # the benchmark proves that all 1820 subsets were tried by these calls
    gf16 = field_make(2, 4)
    calls = _count_dm_calls(monkeypatch)
    assert search_nested_rows(mult_table(gf16), 4, truncation(gf16, field_make(2, 2)), 1820) is None
    assert len(calls) == 1 + 1820  # the input gate, then every 4-row subset


def test_a_passing_search_stops_its_check_dm_calls_at_the_answer(monkeypatch, gf8, gf4):
    d1 = ndm_theorem1(2).parent
    d = LevelArray(d1.groups, d1.data)  # not yet gated, so the input check counts
    projection = truncation(gf8, gf4)
    found, count = reference_search(d, 4, projection, 70)
    calls = _count_dm_calls(monkeypatch)
    assert search_nested_rows(d, 4, projection, budget=70) == found == (0, 1, 6, 7)
    assert len(calls) == 1 + count + 1
    assert np.array_equal(calls[-1].data, collapse(subrows(d, found), projection).data)


def test_search_collapses_once(monkeypatch, gf8, gf4):
    calls = []
    real = constructions.collapse
    monkeypatch.setattr(constructions, "collapse", lambda *a: calls.append(a) or real(*a))
    d1 = ndm_theorem1(2).parent
    assert search_nested_rows(d1, 4, truncation(gf8, gf4), budget=70) == (0, 1, 6, 7)
    assert len(calls) == 1


def test_search_finds_published_subset(gf8, gf4):
    d1 = ndm_theorem1(2).parent
    found = search_nested_rows(d1, 4, truncation(gf8, gf4), budget=70)
    assert found == (0, 1, 6, 7)  # lexicographically first valid subset


def test_search_all_rows_identity(gf4):
    d = mult_table(gf4)
    from nestfill.algebra import identity_projection

    found = search_nested_rows(d, 4, identity_projection(GaloisGroup(gf4)), budget=5)
    assert found == (0, 1, 2, 3)


def test_search_impossible_size(gf8, gf4):
    d1 = ndm_theorem1(2).parent
    assert search_nested_rows(d1, 3, truncation(gf8, gf4), budget=10) is None


def test_search_budget_valided(gf8, gf4):
    with pytest.raises(ValueError, match="budget"):
        search_nested_rows(ndm_theorem1(2).parent, 4, truncation(gf8, gf4), budget=0)


def test_search_seeded_reverifies(gf8, gf4):
    d1 = ndm_theorem1(2).parent
    proj = truncation(gf8, gf4)
    found = search_nested_rows(d1, 4, proj, budget=500, seed=11)
    assert found is not None
    assert check_dm(collapse(subrows(d1, found), (proj,) * 4))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 8))
def test_partition_of_small_field_by_shifted_products(m):
    """The three pairs of shifted product sets are disjoint and cover all
    polynomials of degree below m (tested on raw coefficient tuples)."""
    r = [tuple() if i == 0 else _tuple_digits(i) for i in range(2 ** (m - 1))]
    everything = {_tuple_digits(i) for i in range(2**m)}
    x = (0, 1)
    x1 = (1, 1)
    xm1 = tuple([0] * (m - 1) + [1])  # x^(m-1)
    cases = [
        ([poly_mul(x1, e, 2) for e in r], [_padd(xm1, poly_mul(x1, e, 2)) for e in r]),
        (
            [poly_mul(x1, e, 2) for e in r],
            [_padd(_padd(xm1, x1), poly_mul(x1, e, 2)) for e in r],
        ),
        ([poly_mul(x, e, 2) for e in r], [_padd(x1, poly_mul(x, e, 2)) for e in r]),
    ]
    for first, second in cases:
        a, b = set(first), set(second)
        assert len(a) == len(b) == 2 ** (m - 1)
        assert not (a & b)
        assert (a | b) == everything


def _tuple_digits(i):
    out = []
    while i:
        out.append(i & 1)
        i >>= 1
    return tuple(out)


def _padd(a, b):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % 2 for i in range(n)]
    return poly_trim(out)


def test_constructions_are_deterministic(gf8, gf4):
    a = qtw_noa(gf8, gf4, 2)
    b = qtw_noa(gf8, gf4, 2)
    assert np.array_equal(a.parent.data, b.parent.data)
    assert a.child_rows == b.child_rows
    t1, t2 = ndm_theorem3(3), ndm_theorem3(3)
    assert np.array_equal(t1.parent.data, t2.parent.data)
