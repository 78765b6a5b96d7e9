"""Mixed-level constructions: juxtaposed blocks and paired-level matrices."""

import numpy as np
import pytest

from nestfill.algebra import (
    GaloisGroup,
    ProductGroup,
    ResidueGroup,
    component,
    field_make,
    identity_projection,
    truncation,
)
from nestfill.arrays import (
    LevelArray,
    NestedPair,
    VerificationError,
    check_dm,
    check_nested,
    hstack,
    subcols,
)
from nestfill.catalog import catalog_derive, catalog_get
from nestfill.constructions import full_factorial, mult_table, trivial_oa
from nestfill.mixed import _require_paired, mixed_dm_lemma7, noa_theorem9, ww_from_ndms, ww_from_noas


def _ex12_inputs():
    noa = catalog_get("ex12_noa").payload
    return noa, [
        ((0,), catalog_derive("d_12_6_6")),
        ((1,), catalog_get("seberry_12_12_4").payload),
    ]


def _stacked_z2_ndm():
    g2 = GaloisGroup(field_make(2, 1))
    stacked = LevelArray((g2,) * 2, np.tile(np.array([[0, 0], [0, 1]]), (6, 1)))
    return NestedPair(stacked, tuple(range(6)), (identity_projection(g2),) * 2)


# ---------------------------------------------------------------------------
# juxtaposition of nested orthogonal array blocks
# ---------------------------------------------------------------------------


def test_block_juxtaposition_published_instance():
    noa, blocks = _ex12_inputs()
    pair = ww_from_noas(noa, blocks)
    assert pair.parent.shape == (288, 18)
    orders = sorted(g.order for g in pair.parent.groups)
    assert orders == [4] * 12 + [6] * 6
    child = pair.collapsed_child()
    assert child.shape == (72, 18)
    assert sorted(g.order for g in child.groups) == [2] * 12 + [3] * 6
    assert check_nested(pair, "noa")


def test_block_juxtaposition_with_run_index_column():
    noa, blocks = _ex12_inputs()
    pair = ww_from_noas(noa, blocks, include_b=True)
    assert pair.parent.shape == (288, 19)
    assert pair.parent.groups[-1].order == 12
    # the run-index column keeps its levels in the child
    assert pair.collapsed_child().groups[-1].order == 12
    assert check_nested(pair, "noa")


def test_single_block_reduces_to_kronecker(gf8, gf4):
    from nestfill.constructions import qtw_noa, noa_theorem5

    noa = qtw_noa(gf8, gf4, 2)
    d = mult_table(gf8)
    via_blocks = ww_from_noas(
        NestedPair(noa.parent, noa.child_rows, noa.projections),
        [(tuple(range(5)), d)],
    )
    direct = noa_theorem5(noa, d)
    assert np.array_equal(via_blocks.parent.data, direct.parent.data)
    assert via_blocks.child_rows == direct.child_rows


def test_shared_primes_rejected(gf4, gf8):
    # two blocks whose level counts share the prime 2
    a = full_factorial((GaloisGroup(gf4), GaloisGroup(gf8)))
    ident4 = identity_projection(GaloisGroup(gf4))
    ident8 = identity_projection(GaloisGroup(gf8))
    noa = NestedPair(a, tuple(range(32)), (ident4, ident8))
    with pytest.raises(ValueError, match="share the prime"):
        ww_from_noas(noa, [((0,), mult_table(gf4)), ((1,), mult_table(gf8))])


def test_block_columns_take_the_index_intake():
    """Block columns are read as other index sequences are: ``0.0`` is
    column 0, and text or None is a non-integral index, not a partition
    failure or a ``TypeError``."""
    noa, (six, twelve) = _ex12_inputs()
    assert ww_from_noas(noa, [((0.0,), six[1]), twelve]) == ww_from_noas(noa, [six, twelve])
    for bad in ("0", None):
        with pytest.raises(ValueError, match="^non-integral block column index$"):
            ww_from_noas(noa, [((bad,), six[1]), twelve])


def test_blocks_must_cover_columns():
    noa, blocks = _ex12_inputs()
    with pytest.raises(ValueError, match="partition"):
        ww_from_noas(noa, [blocks[0]])
    with pytest.raises(ValueError, match="partition"):  # an empty block is no part
        ww_from_noas(noa, blocks + [((), blocks[1][1])])


def test_row_count_mismatch_rejected(gf4):
    noa, blocks = _ex12_inputs()
    with pytest.raises(ValueError, match="row count"):
        ww_from_noas(noa, [blocks[0], ((1,), mult_table(gf4))])


def test_block_alphabet_mismatch_rejected():
    noa, (six, four) = _ex12_inputs()
    with pytest.raises(ValueError, match="alphabet"):
        ww_from_noas(noa, [((0,), four[1]), ((1,), six[1])])
    a = full_factorial((GaloisGroup(field_make(2, 1)), ResidueGroup(6)))
    ndm = catalog_get("ex11_ndm").payload
    with pytest.raises(ValueError, match="alphabet"):
        ww_from_ndms(a, [((0,), ndm), ((1,), ndm)])


# ---------------------------------------------------------------------------
# juxtaposition of nested difference matrix blocks
# ---------------------------------------------------------------------------


def test_ndm_blocks_two_alphabets():
    a = full_factorial((ResidueGroup(6), GaloisGroup(field_make(2, 1))))
    pair = ww_from_ndms(
        a, [((0,), catalog_get("ex11_ndm").payload), ((1,), _stacked_z2_ndm())]
    )
    assert pair.parent.shape == (144, 8)
    assert pair.child_size == 6 * 12  # b2 * n
    child = pair.collapsed_child()
    assert sorted(g.order for g in child.groups) == [2, 2, 3, 3, 3, 3, 3, 3]
    assert check_nested(pair, "noa")


def test_ndm_blocks_with_run_index():
    a = full_factorial((ResidueGroup(6), GaloisGroup(field_make(2, 1))))
    pair = ww_from_ndms(
        a,
        [((0,), catalog_get("ex11_ndm").payload), ((1,), _stacked_z2_ndm())],
        include_b=True,
    )
    assert pair.parent.groups[-1].order == 12
    assert pair.collapsed_child().groups[-1].order == 6
    assert check_nested(pair, "noa")


def test_ndm_blocks_single_block_plus_b():
    a = trivial_oa(ResidueGroup(6))
    pair = ww_from_ndms(a, [((0,), catalog_get("ex11_ndm").payload)], include_b=True)
    assert pair.parent.shape == (72, 7)
    assert pair.child_size == 36
    assert check_nested(pair, "noa")


def test_ndm_blocks_child_row_count():
    a = full_factorial((ResidueGroup(6), GaloisGroup(field_make(2, 1))))
    ndm = catalog_get("ex11_ndm").payload
    pair = ww_from_ndms(a, [((0,), ndm), ((1,), _stacked_z2_ndm())])
    assert pair.child_size == ndm.child_size * a.n_rows


def test_ndm_blocks_mismatched_sizes_rejected(gf4):
    a = full_factorial((ResidueGroup(6), GaloisGroup(gf4)))
    small = catalog_get("d_4_4_2_nested").payload  # (12, 4), not (12, 6)
    with pytest.raises(ValueError, match=r"\(b1, b2\)"):
        ww_from_ndms(a, [((0,), catalog_get("ex11_ndm").payload), ((1,), small)])


# ---------------------------------------------------------------------------
# paired-level difference matrices
# ---------------------------------------------------------------------------


def test_paired_dm_matches_published_matrix(gf4):
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(field_make(3, 1)), 2)
    golden = catalog_get("ex13_d").payload
    assert d.groups == golden.groups
    assert np.array_equal(d.data, golden.data)


def test_paired_dm_pure_product(gf4):
    # c0 = c1 = c2 leaves no trailing blocks
    d = mixed_dm_lemma7(
        subcols(mult_table(gf4), range(3)), mult_table(field_make(3, 1)), 3
    )
    assert d.n_cols == 3
    assert all(isinstance(g, ProductGroup) for g in d.groups)
    assert check_dm(d)


def test_paired_dm_c0_out_of_range(gf4):
    with pytest.raises(ValueError, match="c0"):
        mixed_dm_lemma7(mult_table(gf4), mult_table(field_make(3, 1)), 4)


def _lemma7_slices(d, c0, c1, c2):
    paired = subcols(d, range(c0))
    first_trailing = subcols(d, range(c0, c1)) if c1 > c0 else None
    second_trailing = subcols(d, range(c1, c1 + c2 - c0)) if c2 > c0 else None
    return paired, first_trailing, second_trailing


@pytest.mark.parametrize(
    "s1,s2,c0",
    [(4, 3, 2), (8, 3, 3)],
    ids=["gf4xgf3_c0=2", "gf8xgf3_c0=3"],
)
def test_paired_dm_sub_properties(s1, s2, c0):
    f1 = field_make(2, s1.bit_length() - 1) if s1 in (4, 8) else None
    f2 = field_make(3, 1)
    d1, d2 = mult_table(f1), mult_table(f2)
    d = mixed_dm_lemma7(d1, d2, c0)
    c1, c2 = d1.n_cols, d2.n_cols
    paired, t1, t2 = _lemma7_slices(d, c0, c1, c2)
    # (i) the paired block is a difference matrix over the product group
    assert check_dm(paired)
    # (ii) each trailing block is a difference matrix over its own alphabet
    for block in (t1, t2):
        if block is not None:
            assert check_dm(block)
    # (iii) component projection of the paired block plus the trailing block
    pg = d.groups[0]
    for which, block in ((0, t1), (1, t2)):
        sigma = component(pg, which)
        comp_cols = LevelArray(
            (pg.components[which],) * c0, sigma.np_table()[d.data[:, :c0]]
        )
        combined = hstack([comp_cols, block]) if block is not None else comp_cols
        assert check_dm(combined)


@pytest.mark.parametrize(
    "col,part",
    [(1, "paired block"), (2, "component 1 with trailing block"), (4, "component 2 with trailing block")],
)
def test_paired_gate_names_the_part_a_one_cell_change_breaks(gf4, col, part):
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(field_make(3, 1)), 2)
    _require_paired(d, 2, 2, "lemma7")
    data = d.data.copy()
    data[0, col] = (data[0, col] + 1) % d.groups[col].order
    with pytest.raises(VerificationError, match=f"lemma7: {part}"):
        _require_paired(LevelArray(d.groups, data), 2, 2, "lemma7")


def test_paired_dm_row_pairing(gf4):
    # row (i-1)*b2 + j pairs row i of the first input with row j of the second
    f3 = field_make(3, 1)
    d1, d2 = mult_table(gf4), mult_table(f3)
    d = mixed_dm_lemma7(d1, d2, 2)
    i, j = 2, 1
    row = d.data[i * 3 + j]
    assert d.groups[0] == ProductGroup((GaloisGroup(gf4), GaloisGroup(f3)))
    for k in range(2):
        # the product index, last component fastest
        assert divmod(int(row[k]), f3.order) == (int(d1.data[i, k]), int(d2.data[j, k]))


# ---------------------------------------------------------------------------
# paired-level nested orthogonal arrays
# ---------------------------------------------------------------------------


def _ex13_pipeline():
    gf4, gf3 = field_make(2, 2), field_make(3, 1)
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(gf3), 2)
    return noa_theorem9(
        d, truncation(gf4, field_make(2, 1)), identity_projection(GaloisGroup(gf3))
    )


def test_paired_noa_published_sizes():
    pair = _ex13_pipeline()
    assert pair.parent.shape == (144, 5)
    assert [g.order for g in pair.parent.groups] == [12, 12, 4, 4, 3]
    child = pair.collapsed_child()
    assert child.shape == (72, 5)
    assert [g.order for g in child.groups] == [6, 6, 2, 2, 3]


def test_paired_noa_collapse_maps():
    pair = _ex13_pipeline()
    # 4-level collapse is the truncation {0,x}->0, {1,x+1}->1
    delta1 = pair.projections[2]
    assert list(delta1.table) == [0, 1, 0, 1]
    # paired collapse sends {00, x0} to the same image
    delta0 = pair.projections[0]
    assert delta0.table[0] == delta0.table[6]  # indices of 00 and x0
    # 3-level factor keeps its levels
    assert pair.projections[4].kind == "identity"


def test_paired_noa_checker():
    assert check_nested(_ex13_pipeline(), "noa")


def test_paired_noa_rejects_wrong_projection_source(gf8):
    gf4, gf3 = field_make(2, 2), field_make(3, 1)
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(gf3), 2)
    with pytest.raises(ValueError, match="component alphabets"):
        noa_theorem9(
            d, truncation(gf8, gf4), identity_projection(GaloisGroup(gf3))
        )


def test_paired_noa_refuses_one_alphabet_with_trailing_columns(gf4):
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(gf4), 2)
    delta = identity_projection(GaloisGroup(gf4))
    with pytest.raises(ValueError, match=r"GF\(4\)"):
        noa_theorem9(d, delta, delta)


def test_paired_noa_rejects_child_rows_outside_d(gf4):
    gf3 = field_make(3, 1)
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(gf3), 2)
    assert d.n_rows == 12
    with pytest.raises(ValueError, match="inner row index out of range"):
        noa_theorem9(
            d,
            truncation(gf4, field_make(2, 1)),
            identity_projection(GaloisGroup(gf3)),
            child_rows=range(12, 24),
        )


def test_column_multiset_bookkeeping():
    # block column counts in the two juxtaposition routes
    noa, blocks = _ex12_inputs()
    pair = ww_from_noas(noa, blocks, include_b=True)
    orders = [g.order for g in pair.parent.groups]
    assert orders.count(6) == 6 and orders.count(4) == 12 and orders.count(12) == 1
    t9 = _ex13_pipeline()
    assert [g.order for g in t9.parent.groups].count(12) == 2
