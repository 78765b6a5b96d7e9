"""Checkers, structural operations, and the CSV/JSON formats."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import randomize_array, reference_verdict

from nestfill.algebra import (
    GaloisGroup,
    ProductGroup,
    ResidueGroup,
    component,
    field_make,
    identity_projection,
    modulus,
    residue,
    truncation,
)
from nestfill.arrays import (
    FormatError,
    LevelArray,
    NestedPair,
    cast_group,
    check_dm,
    check_nested,
    check_oa,
    collapse,
    hstack,
    kronecker_add,
    load_bundle,
    normalize_dm,
    save_bundle,
    subcols,
    subrows,
)
from nestfill.catalog import catalog_derive, catalog_get
from nestfill.constructions import (
    full_factorial,
    mult_table,
    ndm_theorem1,
    noa_theorem4,
    rao_hamming_oa,
    trivial_oa,
    zero_sum_noa,
)
from nestfill.mixed import mixed_dm_lemma7, noa_theorem9


Z2 = ResidueGroup(2)


def test_full_factorial_is_oa():
    arr = full_factorial((Z2, Z2))
    assert check_oa(arr)


def test_repeated_row_fails_with_witness():
    arr = LevelArray((Z2, Z2), np.array([[0, 0], [0, 1], [1, 0], [0, 0]]))
    v = check_oa(arr)
    assert not v
    assert v.witness["columns"] == (0, 1)
    assert v.witness["count"] != v.witness["expected"]


def test_rao_hamming_9_4_3_passes():
    assert check_oa(rao_hamming_oa(field_make(3, 1), 2))


def test_check_oa_divisibility_is_a_fail_verdict():
    z3 = ResidueGroup(3)
    arr = LevelArray((Z2, z3), np.array([[0, 0], [1, 1], [0, 2], [1, 0]]))
    v = check_oa(arr)
    assert not v and "divisible" in v.reason


def test_check_oa_against_naive_recount_on_random_arrays():
    # fifty randomized arrays, mixing passing and corrupted ones
    rng = np.random.default_rng(20240917)
    bases = [
        full_factorial((Z2, Z2, Z2)),
        rao_hamming_oa(field_make(2, 2), 2),
        zero_sum_noa(6, 3).parent,
    ]
    for trial in range(50):
        arr = randomize_array(bases[trial % len(bases)], rng)
        if trial % 2:
            data = arr.data.copy()
            r = rng.integers(0, arr.n_rows)
            c = rng.integers(0, arr.n_cols)
            data[r, c] = (data[r, c] + 1) % arr.groups[c].order
            arr = LevelArray(arr.groups, data)
        assert check_oa(arr) == reference_verdict(arr, "oa")


def test_mult_table_is_dm(gf4):
    assert check_dm(mult_table(gf4))


def test_two_by_two_dm(gf2):
    arr = LevelArray.from_text(GaloisGroup(gf2), "0 0\n0 1")
    assert check_dm(arr)


def test_single_column_dm_passes(gf4):
    assert check_dm(subcols(mult_table(gf4), [1]))


_NO_COLUMNS = LevelArray((), np.zeros((4, 0), dtype=np.int32))


@pytest.mark.parametrize(
    "call",
    [
        lambda g: _NO_COLUMNS.uniform_group(),
        lambda g: hstack([]),
        lambda g: kronecker_add(_NO_COLUMNS, mult_table(g.field)),
        lambda g: cast_group(_NO_COLUMNS, g),
        lambda g: mixed_dm_lemma7(mult_table(g.field), mult_table(field_make(3, 1)), True),
        lambda g: mixed_dm_lemma7(mult_table(g.field), mult_table(field_make(3, 1)), 2.0),
        lambda g: noa_theorem9(_NO_COLUMNS, identity_projection(g), identity_projection(g)),
    ],
    ids=["uniform_group", "hstack", "kronecker_add", "cast_group", "lemma7_c0_bool", "lemma7_c0_float", "thm9"],
)
def test_usage_errors_are_value_errors(gf4, call):
    with pytest.raises(ValueError):
        call(GaloisGroup(gf4))


def test_check_dm_mixed_alphabets_is_an_error(gf4):
    arr = LevelArray((GaloisGroup(gf4), Z2), np.array([[0, 0], [1, 1]]))
    with pytest.raises(ValueError, match="single alphabet"):
        check_dm(arr)


def test_check_dm_against_naive(gf4, gf8):
    rng = np.random.default_rng(7)
    for base in [mult_table(gf4), mult_table(gf8), catalog_derive("d_12_6_6")]:
        arr = randomize_array(base, rng)
        assert check_dm(arr) == reference_verdict(arr, "dm")
        data = arr.data.copy()
        data[0, 1] = (data[0, 1] + 1) % arr.groups[0].order
        bad = LevelArray(arr.groups, data)
        v = check_dm(bad)
        assert not v and v == reference_verdict(bad, "dm")


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------


def test_collapse_identity_is_noop(gf8):
    arr = mult_table(gf8)
    out = collapse(arr, identity_projection(GaloisGroup(gf8)))
    assert np.array_equal(out.data, arr.data)


def test_collapse_preserves_dm_verdict(gf8, gf4):
    # a passing difference matrix stays passing after a balanced collapse
    out = collapse(mult_table(gf8), truncation(gf8, gf4))
    assert check_dm(out)


def test_collapse_any_balanced_projection_keeps_oa(gf4, gf8):
    cases = [
        (rao_hamming_oa(gf8, 2), truncation(gf8, gf4)),
        (rao_hamming_oa(gf8, 2), modulus(gf8, field_make(2, 1))),
        (zero_sum_noa(6, 3).parent, residue(6, 2)),
    ]
    for arr, proj in cases:
        assert check_oa(collapse(arr, proj))


def _collapse_per_column(a, projections):
    """The reference: one gather per column, stacked."""
    return np.column_stack([p.np_table()[a.data[:, j]] for j, p in enumerate(projections)])


def test_collapse_interleaved_and_equal_projections_match_per_column(gf8, gf4):
    """Columns of a mixed array collapse by interleaved projections, and by
    two equal but distinct projection objects, exactly as column by column."""
    g8, z6 = GaloisGroup(gf8), ResidueGroup(6)
    groups = (g8, z6, g8, z6, g8)
    arr = LevelArray(groups, np.random.default_rng(0).integers(0, [g.order for g in groups], size=(64, 5)))
    trunc, res = truncation(gf8, gf4), residue(6, 3)
    twin = dataclasses.replace(trunc)
    assert twin == trunc and twin is not trunc
    for projections in [
        (trunc, res, modulus(gf8, field_make(2, 1)), residue(6, 2), trunc),
        (trunc, identity_projection(z6), twin, res, twin),
        (identity_projection(g8), res, identity_projection(g8), res, identity_projection(g8)),
    ]:
        out = collapse(arr, projections)
        assert out.groups == tuple(p.target for p in projections)
        assert np.array_equal(out.data, _collapse_per_column(arr, projections))
    # one projection for every column, given once or per column
    rh = rao_hamming_oa(gf8, 2)
    ref = _collapse_per_column(rh, (trunc,) * rh.n_cols)
    for projections in [trunc, (trunc,) * rh.n_cols, (trunc, twin) * (rh.n_cols // 2) + (trunc,)]:
        assert np.array_equal(collapse(rh, projections).data, ref)


def test_collapse_source_mismatch(gf4, gf8):
    with pytest.raises(ValueError, match="does not match"):
        collapse(mult_table(gf4), truncation(gf8, gf4))


# ---------------------------------------------------------------------------
# kronecker_add
# ---------------------------------------------------------------------------


def test_kronecker_oa_times_dm_is_oa(gf2):
    a = cast_group(rao_hamming_oa(gf2, 2), GaloisGroup(gf2))
    d = LevelArray.from_text(GaloisGroup(gf2), "0 0\n0 1")
    h = kronecker_add(a, d)
    assert h.shape == (8, 6)
    assert check_oa(h)


def test_kronecker_zero_column_replicates(gf8):
    a = mult_table(gf8)
    zero = LevelArray((GaloisGroup(gf8),), np.zeros((1, 1), dtype=int))
    h = kronecker_add(a, zero)
    assert np.array_equal(h.data, a.data)


def test_kronecker_row_column_ordering(gf2):
    g = GaloisGroup(gf2)
    a = LevelArray.from_text(g, "0 1\n1 0")
    d = LevelArray.from_text(g, "0 0\n0 1")
    h = kronecker_add(a, d)
    # row i*2 + r, column j*2 + k
    assert h.texts() == [
        ["0", "0", "1", "1"],
        ["0", "1", "1", "0"],
        ["1", "1", "0", "0"],
        ["1", "0", "0", "1"],
    ]


def test_kronecker_alphabet_mismatch(gf2, gf4):
    with pytest.raises(ValueError, match="mismatch"):
        kronecker_add(mult_table(gf2), mult_table(gf4))


def test_kronecker_gf8_pair_is_oa(gf8):
    h = kronecker_add(rao_hamming_oa(gf8, 2), mult_table(gf8))
    assert h.shape == (512, 72)
    assert check_oa(h)


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda: (field_make(2, 3), field_make(2, 2), "truncation"),
        lambda: (field_make(2, 3), field_make(2, 1), "truncation"),
    ],
)
def test_collapse_commutes_with_kronecker(make_pair):
    f1, f2, _ = make_pair()
    proj = truncation(f1, f2)
    a = rao_hamming_oa(f1, 2)
    d = mult_table(f1)
    lhs = collapse(kronecker_add(a, d), proj)
    rhs = kronecker_add(collapse(a, proj), collapse(d, proj))
    assert np.array_equal(lhs.data, rhs.data)


def test_collapse_commutes_with_kronecker_residue():
    proj = residue(6, 3)
    pair = zero_sum_noa(6, 3)
    d = catalog_derive("d_12_6_6")
    lhs = collapse(kronecker_add(pair.parent, d), proj)
    rhs = kronecker_add(collapse(pair.parent, proj), collapse(d, proj))
    assert np.array_equal(lhs.data, rhs.data)


# ---------------------------------------------------------------------------
# normalize_dm
# ---------------------------------------------------------------------------


def test_normalize_already_normal(gf4):
    d = mult_table(gf4)
    out = normalize_dm(d)
    assert np.array_equal(out.data, d.data)


def test_normalize_seberry():
    d = catalog_get("seberry_12_12_4").payload
    out = normalize_dm(d)
    assert np.all(out.data[:, 0] == 0)
    assert check_dm(out)
    for j in range(1, out.n_cols):
        counts = np.bincount(out.data[:, j], minlength=4)
        assert counts.min() == counts.max()


def test_normalize_preserves_difference_multisets(gf8):
    from nestfill.algebra import sub_table

    d = mult_table(gf8)
    out = normalize_dm(d)
    sub = sub_table(GaloisGroup(gf8))
    for i, j in itertools.combinations(range(d.n_cols), 2):
        before = sorted(sub[d.data[:, i], d.data[:, j]].tolist())
        after = sorted(sub[out.data[:, i], out.data[:, j]].tolist())
        assert before == after


def test_normalize_rejects_non_dm(gf2):
    bad = LevelArray((GaloisGroup(gf2),) * 2, np.array([[0, 0], [0, 0]]))
    with pytest.raises(ValueError, match="not a difference matrix"):
        normalize_dm(bad)


# ---------------------------------------------------------------------------
# subrows / subcols / labels
# ---------------------------------------------------------------------------


def test_subrows_all_is_identity(gf4):
    d = mult_table(gf4)
    assert np.array_equal(subrows(d, range(4)).data, d.data)


def test_subrows_by_labels_reproduces_published_child(gf8, gf4):
    pair = ndm_theorem1(2)
    d2 = subrows(pair.parent, pair.child_rows)
    assert d2.label_texts() == ["0", "1", "x^2+x", "x^2+x+1"]
    phi_d2 = collapse(d2, truncation(gf8, gf4))
    assert phi_d2.texts() == catalog_get("ex3_phi_d2").payload.texts()


def test_subcols_of_seberry_matches_derived_entry():
    d = catalog_get("seberry_12_12_4").payload
    assert np.array_equal(subcols(d, (0, 2, 3, 4)).data, catalog_derive("d_12_4_4").data)


def test_subrows_rejects_duplicates(gf4):
    with pytest.raises(ValueError, match="duplicate"):
        subrows(mult_table(gf4), (0, 0))


def test_subcols_rejects_out_of_range(gf4):
    with pytest.raises(ValueError, match="out of range"):
        subcols(mult_table(gf4), (5,))


def test_indices_refuse_non_integral_values(gf4):
    d = mult_table(gf4)
    with pytest.raises(ValueError, match="non-integral row index"):
        subrows(d, (0.5, 1))
    with pytest.raises(ValueError, match="non-integral column index"):
        subcols(d, (np.float64(1.9),))
    assert subrows(d, (0.0, 3.0)) == subrows(d, (0, 3))
    ident = identity_projection(GaloisGroup(gf4))
    with pytest.raises(ValueError, match="non-integral child row index"):
        NestedPair(d, (0.5, 1.5), (ident,) * 4)


# ---------------------------------------------------------------------------
# nested pairs
# ---------------------------------------------------------------------------


def test_self_nesting_passes(gf4):
    arr = full_factorial((GaloisGroup(gf4),) * 2)
    ident = identity_projection(GaloisGroup(gf4))
    pair = NestedPair(arr, tuple(range(16)), (ident, ident))
    assert check_nested(pair, "noa")


def test_theorem1_nested_pass():
    assert check_nested(ndm_theorem1(2), "ndm")


def test_zero_sum_nested_pass():
    assert check_nested(zero_sum_noa(4, 2), "noa")


def test_nested_projection_source_mismatch(gf4, gf8):
    arr = mult_table(gf4)
    with pytest.raises(ValueError, match="source"):
        NestedPair(arr, (0, 1), (truncation(gf8, gf4),) * 4)


def test_nested_child_rows_validated(gf4):
    arr = mult_table(gf4)
    ident = identity_projection(GaloisGroup(gf4))
    with pytest.raises(ValueError, match="distinct"):
        NestedPair(arr, (0, 0), (ident,) * 4)
    with pytest.raises(ValueError, match="range"):
        NestedPair(arr, (0, 9), (ident,) * 4)


def test_check_nested_reports_failing_side(gf4):
    # corrupt the child rows so only the collapsed child fails
    pair = zero_sum_noa(4, 2)
    broken = NestedPair(pair.parent, (0, 1, 2, 3), pair.projections)
    v = check_nested(broken, "noa")
    assert not v and "child" in v.reason


# ---------------------------------------------------------------------------
# cast and io
# ---------------------------------------------------------------------------


def test_cast_gf4_to_z2_square(gf4):
    d = mult_table(gf4)
    z2sq = ProductGroup((Z2, Z2))
    out = cast_group(d, z2sq)
    assert check_dm(out)
    assert out.texts()[1] == ["00", "01", "10", "11"]


def test_cast_incompatible_rejected(gf4):
    with pytest.raises(ValueError, match="addition tables"):
        cast_group(mult_table(gf4), ResidueGroup(4))


def test_bundle_round_trip(tmp_path, gf8, gf4):
    pair = ndm_theorem1(2)
    prefix = str(tmp_path / "thm1")
    save_bundle(prefix, pair, "ndm")
    loaded, kind = load_bundle(prefix)
    assert kind == "ndm"
    assert isinstance(loaded, NestedPair)
    assert np.array_equal(loaded.parent.data, pair.parent.data)
    assert loaded.child_rows == pair.child_rows
    assert loaded.projections == pair.projections
    assert loaded.parent.row_labels == pair.parent.row_labels


def test_bundle_round_trip_mixed(tmp_path):
    entry = catalog_get("ex13_d")
    prefix = str(tmp_path / "mixed")
    save_bundle(prefix, entry.payload, None)
    loaded, _ = load_bundle(prefix)
    assert loaded.groups == entry.payload.groups
    assert np.array_equal(loaded.data, entry.payload.data)


def _distinct(objs) -> int:
    return len({id(o) for o in objs})


def test_bundle_columns_share_one_alphabet_and_one_projection(tmp_path, gf8):
    pair = noa_theorem4(rao_hamming_oa(gf8, 2), ndm_theorem1(2))
    prefix = str(tmp_path / "b")
    save_bundle(prefix, pair, "noa")
    loaded, _ = load_bundle(prefix)
    assert loaded == pair and loaded.parent.n_cols == 36
    assert _distinct(loaded.parent.groups) == 1 and _distinct(loaded.projections) == 1


def test_bundle_with_two_alphabets_loads_two_objects(tmp_path, gf4):
    gf, z6 = GaloisGroup(gf4), ResidueGroup(6)
    a = LevelArray((gf, z6, gf, z6, gf), np.arange(60).reshape(12, 5) % 4)
    prefix = str(tmp_path / "a")
    save_bundle(prefix, a)
    loaded, _ = load_bundle(prefix)
    assert loaded == a and _distinct(loaded.groups) == 2
    assert loaded.groups[0] is loaded.groups[2] is loaded.groups[4]
    assert loaded.groups[1] is loaded.groups[3]


@pytest.mark.parametrize("where", ["column", "projection"])
def test_bundle_validates_every_distinct_spec(tmp_path, gf8, where):
    """One column's (or one projection's) alphabet with a reducible
    polynomial among 35 good ones still fails the load."""
    pair = noa_theorem4(rao_hamming_oa(gf8, 2), ndm_theorem1(2))
    prefix = str(tmp_path / "b")
    save_bundle(prefix, pair, "noa")
    meta = json.loads((tmp_path / "b.json").read_text())
    if where == "column":
        spec = meta["columns"][17]
    else:
        spec = meta["nested"]["projections"][17]["source"]
    spec["irreducible"] = [1, 1, 1, 1]  # (x+1)^3
    (tmp_path / "b.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=r"x\^3\+x\^2\+x\+1 is reducible over Z_2"):
        load_bundle(prefix)


def test_hstack_requires_equal_rows(gf4):
    with pytest.raises(ValueError, match="row counts"):
        hstack([mult_table(gf4), trivial_oa(ResidueGroup(3))])


# ---------------------------------------------------------------------------
# degenerate inputs and equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows,width", [(0, 1), (0, 2), (8, 0)])
def test_empty_array_fails_oa_and_dm(gf8, rows, width):
    a = LevelArray((GaloisGroup(gf8),) * width, np.zeros((rows, width)))
    for verdict in (check_oa(a), check_dm(a)):
        assert not verdict
        assert verdict.reason == f"empty array: {rows} rows, {width} columns"


@pytest.mark.parametrize("kind", ["ndm", "noa"])
def test_nested_with_empty_child_fails(kind):
    pair = ndm_theorem1(2) if kind == "ndm" else zero_sum_noa(4, 2)
    verdict = check_nested(NestedPair(pair.parent, (), pair.projections), kind)
    assert not verdict
    assert verdict.reason.startswith("collapsed child fails: empty array: 0 rows")


def test_equal_arrays_and_pairs_compare_equal():
    a, b = ndm_theorem1(2), ndm_theorem1(2)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a.parent == b.parent and hash(a.parent) == hash(b.parent)
    assert len({a, b}) == 1
    assert a != ndm_theorem1(3) and a.parent != ndm_theorem1(3).parent


def test_level_array_equality_sees_cells_labels_and_alphabets(gf4):
    t = mult_table(gf4)
    assert t == mult_table(field_make(2, 2))
    assert t != LevelArray(t.groups, t.data)  # labels dropped
    assert t != subrows(t, [1, 0, 2, 3])  # same labels, other order
    assert t != cast_group(t, ProductGroup((ResidueGroup(2), ResidueGroup(2))))
    pair = ndm_theorem1(2)
    other = NestedPair(pair.parent, pair.child_rows[::-1], pair.projections)
    assert pair != other


# ---------------------------------------------------------------------------
# construction-time validation
# ---------------------------------------------------------------------------


def test_entry_outside_alphabet_names_first_column_then_first_row(gf4):
    g4 = GaloisGroup(gf4)
    data = np.zeros((5, 4), dtype=np.int64)
    data[4, 1] = 4  # column 1 holds the first bad entry, in row 4
    data[2, 1] = -1
    data[0, 3] = 7
    with pytest.raises(ValueError) as e:
        LevelArray((Z2, g4, g4, Z2), data.copy())
    assert str(e.value) == f"entry at row 2, column 1 is outside its alphabet {g4.describe()}"
    data[[2, 4], 1] = 0
    with pytest.raises(ValueError, match=r"^entry at row 0, column 3 is outside its alphabet Z_2$"):
        LevelArray((Z2, g4, g4, Z2), data.copy())


def test_row_label_outside_label_group_is_rejected(gf4):
    g4 = GaloisGroup(gf4)
    with pytest.raises(ValueError, match=r"^row label 99 is outside its alphabet"):
        LevelArray((g4,), [[0], [1]], row_labels=(99, -1), label_group=g4)
    with pytest.raises(ValueError, match=r"^row label -1 is outside its alphabet"):
        LevelArray((g4,), [[0], [1]], row_labels=(0, -1), label_group=g4)


def test_row_labels_go_through_the_index_check(gf4):
    g4 = GaloisGroup(gf4)
    with pytest.raises(ValueError, match="non-integral row label index"):
        LevelArray((g4,), [[0], [1]], row_labels=(0.5, 1.9), label_group=g4)
    with pytest.raises(ValueError, match="row label indices must be distinct"):
        LevelArray((g4,), [[0], [1]], row_labels=(1, 1), label_group=g4)
    assert LevelArray((g4,), [[0], [1]], row_labels=(np.int64(3), 2.0), label_group=g4).row_labels == (3, 2)


_ALPHABETS = [
    GaloisGroup(field_make(2, 1)),
    GaloisGroup(field_make(2, 2)),
    GaloisGroup(field_make(3, 1)),
    ResidueGroup(3),
    ResidueGroup(6),
    ProductGroup((ResidueGroup(2), ResidueGroup(3))),
    ProductGroup((GaloisGroup(field_make(2, 2)), ResidueGroup(2))),
]


def _first_outside(data, groups):
    """Per-column reference: the first column holding an entry outside its
    alphabet, and the first such row in it."""
    for j, g in enumerate(groups):
        for r in range(data.shape[0]):
            if not 0 <= data[r, j] < g.order:
                return r, j


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_intake_names_the_entry_a_per_column_search_finds(data):
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        groups = (data.draw(st.sampled_from(_ALPHABETS)),) * m
    else:
        groups = tuple(data.draw(st.lists(st.sampled_from(_ALPHABETS), min_size=m, max_size=m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    cells = np.column_stack([rng.integers(0, g.order, n) for g in groups])
    good = cells.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        r, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        low, high = st.integers(-(2**63), -1), st.integers(groups[j].order, 2**63 - 1)
        cells[r, j] = data.draw(st.one_of(low, high))
    r, j = _first_outside(cells, groups)
    with pytest.raises(ValueError) as e:
        LevelArray(groups, cells)
    assert str(e.value) == f"entry at row {r}, column {j} is outside its alphabet {groups[j].describe()}"
    assert np.array_equal(LevelArray(groups, good).data, good)
    frac = good.astype(float)
    frac[r, j] += 0.5
    with pytest.raises(ValueError, match="^data holds non-integral values$"):
        LevelArray(groups, frac)


def test_save_bundle_writes_no_lone_csv(tmp_path, gf4):
    arr = mult_table(gf4)
    object.__setattr__(arr, "row_labels", (99, 0, 1, 2))  # past the constructor's check
    prefix = str(tmp_path / "b")
    with pytest.raises(ValueError, match="out of range"):
        save_bundle(prefix, arr)
    assert list(tmp_path.iterdir()) == []
