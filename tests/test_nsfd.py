"""Relabeling, Latin hypercube expansion, and nested design extraction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestfill.algebra import GaloisGroup, field_make, identity_projection, truncation
from nestfill.arrays import NestedPair, check_oa
from nestfill.catalog import catalog_get
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
from nestfill.nsfd import (
    _strata,
    extract_nested,
    is_uniform,
    nested_design,
    oa_lhd,
    relabel,
    strat_counts,
    to_design,
)


@pytest.fixture(scope="module")
def ex8_pair():
    gf8 = field_make(2, 3)
    return noa_theorem4(trivial_oa(GaloisGroup(gf8)), ndm_theorem1(2))


# ---------------------------------------------------------------------------
# relabel
# ---------------------------------------------------------------------------


def test_relabel_fiber_labels(ex8_pair):
    r = relabel(ex8_pair)
    proj = ex8_pair.projections[0]
    table = proj.np_table()
    label_of = {}
    col = ex8_pair.parent.data[:, 0]
    for idx, lab in zip(col, r.labels[:, 0]):
        label_of[proj.source.text_at(int(idx))] = int(lab)
    assert label_of == {
        "0": 1, "x^2": 2, "1": 3, "x^2+1": 4, "x": 5, "x^2+x": 6, "x+1": 7, "x^2+x+1": 8,
    }
    assert r.group_sizes == (2, 2, 2, 2)


def test_relabel_matches_published_table(ex8_pair):
    r = relabel(ex8_pair)
    table4 = catalog_get("ex14_table4").payload.data + 1
    assert np.array_equal(r.labels, table4)


def test_relabel_identity_projection_gives_lex_labels():
    pair = zero_sum_noa(4, 4)
    r = relabel(pair)
    assert np.array_equal(r.labels, pair.parent.data + 1)


def test_relabel_group_consecutive_consistency(ex8_pair):
    # ceil(label / e) - 1 equals the collapsed level's index, entrywise
    r = relabel(ex8_pair)
    for j, proj in enumerate(ex8_pair.projections):
        e = r.group_sizes[j]
        collapsed = proj.np_table()[ex8_pair.parent.data[:, j]]
        assert np.array_equal((r.labels[:, j] - 1) // e, collapsed)


def test_relabel_rejects_failing_pair():
    pair = zero_sum_noa(6, 3)
    broken = NestedPair(pair.parent, tuple(range(9)), pair.projections)
    with pytest.raises(ValueError, match="does not verify"):
        relabel(broken)


# ---------------------------------------------------------------------------
# rank expansion
# ---------------------------------------------------------------------------


def test_ranks_equal_labels_when_q_is_one():
    # single column listing each level once: n = s, so ranks equal labels
    pair = NestedPair(
        trivial_oa(GaloisGroup(field_make(2, 2))),
        (0, 1, 2, 3),
        (identity_projection(GaloisGroup(field_make(2, 2))),),
    )
    r = relabel(pair)
    assert np.array_equal(oa_lhd(r), r.labels)


def test_deterministic_ranks_in_row_order():
    pair = zero_sum_noa(2, 2)
    r = relabel(pair)
    ranks = oa_lhd(r)
    # column 0 labels are (1,1,2,2): row-order ranking gives (1,2,3,4)
    assert r.labels[:, 0].tolist() == [1, 1, 2, 2]
    assert ranks[:, 0].tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("seed", range(100))
def test_seeded_ranks_stay_within_level_blocks(seed, ex8_pair):
    r = relabel(ex8_pair)
    ranks = oa_lhd(r, seed=seed)
    n = r.n_rows
    for j in range(r.n_cols):
        s = r.level_counts[j]
        q = n // s
        assert np.array_equal(np.sort(ranks[:, j]), np.arange(1, n + 1))
        blocks = (ranks[:, j] - 1) // q
        assert np.array_equal(blocks, r.labels[:, j] - 1)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


def _equal_level_pair():
    """512 x 36, eight levels collapsing to four in every column."""
    return noa_theorem4(rao_hamming_oa(field_make(2, 3), 2), ndm_theorem1(2))


def _mixed_level_pair():
    """144 x 5 with level counts (12, 12, 4, 4, 3) and group sizes
    (2, 2, 2, 2, 1)."""
    gf4, gf3 = field_make(2, 2), field_make(3, 1)
    d = mixed_dm_lemma7(mult_table(gf4), mult_table(gf3), 2)
    return noa_theorem9(d, truncation(gf4, field_make(2, 1)), identity_projection(GaloisGroup(gf3)))


# Recorded while relabel walked the fibers and oa_lhd the levels one at a time.
PINNED = {
    "equal": (
        _equal_level_pair,
        "d3fd542639c6fc483dc54dd10303dbde90070a5c",
        {
            None: "f3d1c15661391a442ecd3c4893baa2267d233b9f",
            0: "58354402cd38cd2d8b756ca4d85acb17b105eb67",
            1: "b75ef9c1b7cc541299b108b3de0c12c04867c90c",
            2: "03afe68e1978b4eecb06d5b6c10aea1b23f10a9d",
            3: "977f5b7cbd584cb77109ffd9471bbabfe86b1424",
            4: "ce71c1d346666f8bd60da241a729fad11beef66f",
        },
    ),
    "mixed": (
        _mixed_level_pair,
        "f5ceed54dbae7fa6c185817f9e8ede6d2c0f5d82",
        {
            None: "72946a10092266ff9de68aeedbe43d77acca41a6",
            0: "b12ca184bf672068aaca187410baf1854e9f1144",
            1: "a9928aac1cc7743b4889b531a07346465aca7a27",
            2: "b1eae49445c6bbe2f5b0a549048994ca4abd1260",
            3: "1dfb6cde6b0cf28109980c766b4dd22d8c358a5d",
            4: "8e2615796929ab5db31995a63a7768f821f66147",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_labels_and_ranks_digests(name):
    build, labels, ranks = PINNED[name]
    r = relabel(build())
    assert _sha(r.labels) == labels
    assert {seed: _sha(oa_lhd(r, seed=seed)) for seed in ranks} == ranks


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------


def test_midpoint_values():
    ranks = np.arange(1, 9)[:, None]
    d = to_design(ranks, midpoint=True)
    assert d.points[2, 0] == pytest.approx(0.3125)
    one = to_design(np.array([[1]]), midpoint=True)
    assert one.points[0, 0] == pytest.approx(0.5)


def test_design_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        to_design(np.array([[1], [1]]), midpoint=True)


def test_design_needs_seed_or_midpoint():
    ranks = np.arange(1, 5)[:, None]
    with pytest.raises(ValueError, match="seed"):
        to_design(ranks)
    with pytest.raises(ValueError, match="no seed"):
        to_design(ranks, seed=3, midpoint=True)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_jittered_points_stay_in_rank_cells(seed):
    ranks = np.arange(1, 9)[:, None]
    d = to_design(ranks, seed=seed)
    assert np.all(d.points >= (ranks - 1) / 8)
    assert np.all(d.points < ranks / 8)


def test_extract_nested_rows(ex8_pair):
    nd = nested_design(ex8_pair, midpoint=True)
    assert nd.child_points.shape == (32, 4)
    assert np.array_equal(nd.child_points, nd.full.points[list(ex8_pair.child_rows)])


@pytest.mark.parametrize("make", [_equal_level_pair, _mixed_level_pair], ids=["equal", "mixed"])
@pytest.mark.parametrize("kw", [{"seed": 7}, {"seed": 2**40 + 3}, {"midpoint": True}], ids=["seed", "big-seed", "midpoint"])
def test_child_points_are_the_full_points_at_the_child_rows(make, kw):
    # `nestfill lhd` writes D_h as D_l's formatted lines at the child rows
    p = make()
    nd = nested_design(p, **kw)
    want = nd.full.points[list(p.child_rows)]
    assert nd.child_points.dtype == want.dtype and nd.child_points.shape == want.shape
    assert nd.child_points.tobytes() == want.tobytes()


def test_extract_nested_child_all_rows():
    pair = zero_sum_noa(4, 4)
    nd = nested_design(pair, midpoint=True)
    assert np.array_equal(nd.child_points, nd.full.points)


def test_extract_requires_matching_pair(ex8_pair):
    nd = nested_design(ex8_pair, midpoint=True)
    other = zero_sum_noa(4, 2)
    with pytest.raises(ValueError, match="not generated"):
        extract_nested(nd.full, other)


def test_floor_invariance_across_seeds(ex8_pair):
    base = nested_design(ex8_pair, midpoint=True)
    n = base.full.n_rows
    for seed in (1, 2, 3):
        d = nested_design(ex8_pair, seed=seed)
        assert np.array_equal(
            np.floor(d.full.points * n), np.floor(base.full.points * n)
        )
        assert np.array_equal(d.full.ranks, base.full.ranks)


def test_seed_reproducibility(ex8_pair):
    a = nested_design(ex8_pair, seed=99)
    b = nested_design(ex8_pair, seed=99)
    assert np.array_equal(a.full.points, b.full.points)
    c = nested_design(ex8_pair, seed=100)
    assert not np.array_equal(c.full.points, a.full.points)


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def test_strat_counts_single_cell(ex8_pair):
    nd = nested_design(ex8_pair, midpoint=True)
    counts = strat_counts(nd.full.points, (0, 1), (1, 1))
    assert counts[0, 0] == 64


def test_strat_counts_published_grids(ex8_pair):
    nd = nested_design(ex8_pair, seed=4)
    for j in range(4):
        for k in range(j + 1, 4):
            assert is_uniform(strat_counts(nd.full.points, (j, k), (8, 8)))
            assert is_uniform(strat_counts(nd.child_points, (j, k), (4, 4)))


def test_strat_counts_empty_design_rejected():
    with pytest.raises(ValueError, match="empty"):
        strat_counts(np.empty((0, 2)), (0, 1), (2, 2))


@pytest.mark.parametrize(
    "value, says",
    [
        (np.nan, "nan"),
        (-0.1, "-0.1"),
        (1.5, "1.5"),
        (-0.5, "-0.5"),
    ],
)
def test_strat_counts_refuses_points_outside_the_unit_interval(value, says):
    """Named by the point's row and column in the design, not in ``cols``."""
    points = np.array([[0.2, 0.5, 0.3], [0.3, 0.6, value]])
    with pytest.raises(ValueError, match=rf"^point at row 1, column 2 is {says}, outside \[0, 1\]$"):
        strat_counts(points, (2, 1), (2, 2))


def test_one_dimensional_balance(ex8_pair):
    nd = nested_design(ex8_pair, seed=8)
    n = nd.full.n_rows
    for j in range(nd.full.n_cols):
        cells = np.floor(nd.full.points[:, j] * n).astype(int)
        assert np.array_equal(np.sort(cells), np.arange(n))


def test_extract_nested_accepts_an_equal_rebuilt_pair(ex8_pair):
    d = nested_design(ex8_pair, seed=5).full
    rebuilt = noa_theorem4(trivial_oa(GaloisGroup(field_make(2, 3))), ndm_theorem1(2))
    assert rebuilt is not ex8_pair and rebuilt == ex8_pair
    assert extract_nested(d, rebuilt) == extract_nested(d, ex8_pair)


def test_designs_compare_by_content(ex8_pair):
    a, b = nested_design(ex8_pair, seed=3), nested_design(ex8_pair, seed=3)
    assert a == b and hash(a) == hash(b)
    assert a.full == b.full and hash(a.full) == hash(b.full)
    assert relabel(ex8_pair) == a.full.relabeled
    assert hash(relabel(ex8_pair)) == hash(a.full.relabeled)
    assert nested_design(ex8_pair, seed=4) != a
    assert nested_design(ex8_pair, midpoint=True) != a


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_strat_counts_equal_scatter_add(n, g1, g2, seed):
    """The ``bincount`` occupancy equals the ``np.add.at`` scatter it replaced,
    points on the upper edge included."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 3))
    points[rng.random((n, 3)) < 0.1] = 1.0
    counts = strat_counts(points, (2, 0), (g1, g2))
    a = np.minimum((points[:, 2] * g1).astype(np.int64), g1 - 1)
    b = np.minimum((points[:, 0] * g2).astype(np.int64), g2 - 1)
    want = np.zeros((g1, g2), dtype=np.int64)
    np.add.at(want, (a, b), 1)
    assert counts.shape == (g1, g2) and counts.dtype == want.dtype
    assert np.array_equal(counts, want)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=4),
    st.booleans(),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_binned_check_oa_matches_strat_counts(orders, factorial, swaps, edge, seed):
    """``check_oa`` on the binned design passes exactly when every column
    pair is uniform under ``strat_counts``, and its witness is the first
    pair that is not.  Full factorials (jittered within their cells) pass
    until an in-column swap or a point moved to the upper edge breaks them;
    random points mostly fail."""
    rng = np.random.default_rng(seed)
    m = len(orders)
    if factorial:
        cells = np.indices(orders).reshape(m, -1).T
        points = (cells + rng.random(cells.shape)) / np.array(orders)
    else:
        points = rng.random((int(rng.integers(1, 40)), m))
    for _ in range(swaps):
        j = int(rng.integers(m))
        a, b = rng.integers(len(points), size=2)
        points[[a, b], j] = points[[b, a], j]
    if edge:
        points[rng.random(points.shape) < 0.05] = 1.0
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    uniform = [is_uniform(strat_counts(points, (j, k), (orders[j], orders[k]))) for j, k in pairs]
    verdict = check_oa(_strata(points, tuple(orders)))
    assert bool(verdict) == all(uniform)
    if not verdict:
        assert verdict.witness["columns"] == pairs[uniform.index(False)]
