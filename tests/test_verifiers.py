"""The counting kernels of ``check_oa``, ``check_dm`` and ``check_nested``
against the definition-level reference, ``bench/reference.py`` (through
``conftest.reference_verdict``).

The kernels must return the reference's verdict, reason and witness on
every input.  Most tests also shrink the block kernels' width, so that small
arrays cross block boundaries the way large arrays do, and run both of
``check_dm``'s kernels (pair by pair and in blocks) whatever the size.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nestfill import arrays
from nestfill.algebra import GaloisGroup, ProductGroup, ResidueGroup, field_make, truncation
from nestfill.arrays import (
    LevelArray,
    NestedPair,
    Verdict,
    cast_group,
    check_dm,
    check_nested,
    check_oa,
    collapse,
    kronecker_add,
    subcols,
)
from nestfill.catalog import catalog_get
from nestfill.constructions import full_factorial, mult_table, ndm_theorem1, qtw_noa, rao_hamming_oa

from conftest import reference_verdict


@contextlib.contextmanager
def dm_kernel(name: str | None):
    """Send every ``check_dm`` call to one kernel, ``"pairs"`` or
    ``"blocks"``; ``None`` keeps the library's size rule."""
    if name is None:
        yield
        return
    cells = 10**9 if name == "pairs" else 0
    with mock.patch.object(arrays, "_PAIRWISE_CELLS", cells), mock.patch.object(arrays, "_PAIRWISE_ORDER", 10**9):
        yield


def dm_outcome(check, a: LevelArray, *args):
    """``check``'s DM verdict of ``a``, or the text of the ``ValueError`` it
    raised."""
    try:
        return check(a, *args)
    except ValueError as e:
        return f"ValueError: {e}"


def assert_dm_same(a: LevelArray, want, kernels=(None, "pairs", "blocks")) -> None:
    """``check_dm`` under each kernel gives ``want``, the reference's outcome."""
    for kernel in kernels:
        with dm_kernel(kernel):
            assert dm_outcome(check_dm, a) == want, kernel


def assert_same(a: LevelArray, widths=(None,)) -> None:
    """The kernels agree with the reference at every block width given
    (``None`` is the library's own, with ``check_dm``'s own choice of
    kernel; any other width runs its block kernel).  ``check_dm``'s pair
    kernel is run as well, on alphabets small enough to convert its
    subtraction table."""
    want_oa, want_dm = reference_verdict(a, "oa"), dm_outcome(reference_verdict, a, "dm")
    for w in widths:
        with mock.patch.object(arrays, "_block_width", arrays._block_width if w is None else lambda n: w):
            assert check_oa(a) == want_oa, w
            assert_dm_same(a, want_dm, (None if w is None else "blocks",))
    if max((g.order for g in a.groups), default=0) <= 256:
        assert_dm_same(a, want_dm, ("pairs",))


WIDTHS = (1, 2, 3, 5, 16, None)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]

small_groups = st.one_of(
    st.integers(1, 6).map(ResidueGroup),
    st.sampled_from(SMALL_FIELDS).map(lambda pu: GaloisGroup(field_make(*pu))),
)
alphabets = st.one_of(
    small_groups,
    st.tuples(small_groups, small_groups).map(ProductGroup),
)


def _plant(data: np.ndarray, groups, draw) -> np.ndarray:
    """Swap two cells of a column, or set one cell to another level."""
    n, m = data.shape
    data = data.copy()
    j = draw(st.integers(0, m - 1))
    r1, r2 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        data[[r1, r2], j] = data[[r2, r1], j]
    else:
        data[r1, j] = draw(st.integers(0, groups[j].order - 1))
    return data


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_arrays_match_reference(data):
    groups = tuple(data.draw(st.lists(alphabets, min_size=1, max_size=8)))
    n = data.draw(st.integers(0, 40))
    cells = data.draw(
        st.lists(st.integers(0, 10**6), min_size=n * len(groups), max_size=n * len(groups))
    )
    orders = np.array([g.order for g in groups])
    grid = (np.array(cells, dtype=np.int64).reshape(n, len(groups)) % orders).astype(np.int64)
    assert_same(LevelArray(groups, grid), WIDTHS)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_near_orthogonal_arrays_match_reference(data):
    """Full factorials (which pass), cut to a prefix of their rows, with one
    planted change: balanced pairs, divisibility failures partway along a
    row of pairs, and count failures in any block."""
    groups = tuple(data.draw(st.lists(alphabets, min_size=2, max_size=5)))
    assume(np.prod([g.order for g in groups]) <= 2048)
    base = full_factorial(groups).data
    rows = data.draw(st.integers(1, base.shape[0]))
    grid = base[:rows]
    if data.draw(st.booleans()):
        grid = _plant(grid, groups, data.draw)
    assert_same(LevelArray(groups, grid), WIDTHS)


def _late_swap(data: np.ndarray, i: int, j: int) -> np.ndarray | None:
    """``data`` with two cells of column ``j`` swapped between rows that
    agree on columns ``0..i-1`` and differ on columns ``i`` and ``j``, or
    None if there are no such rows.  Swapping keeps every pair (i', j),
    i' < i, balanced, so on an array that passed, the first unbalanced pair
    is (i, j)."""
    for r1 in range(data.shape[0]):
        same = (data[:, :i] == data[r1, :i]).all(axis=1)
        rows = np.flatnonzero(same & (data[:, i] != data[r1, i]) & (data[:, j] != data[r1, j]))
        if rows.size:
            out = data.copy()
            out[[r1, rows[0]], j] = out[[rows[0], r1], j]
            return out
    return None


def _passing_dms():
    gf2, gf3, gf4, gf8 = (field_make(*pu) for pu in [(2, 1), (3, 1), (2, 2), (2, 3)])
    z3, z2z2 = ResidueGroup(3), ProductGroup((ResidueGroup(2), ResidueGroup(2)))
    mt4 = mult_table(gf4)
    return [
        mt4,
        mult_table(gf8),
        kronecker_add(mt4, mt4),
        kronecker_add(mult_table(gf3), subcols(mult_table(gf3), [1, 2])),
        cast_group(mult_table(gf3), z3),
        cast_group(kronecker_add(mt4, subcols(mt4, [0, 3])), z2z2),
        kronecker_add(mult_table(gf2), mult_table(gf2)),
    ]


def _alternating(a: LevelArray, targets) -> LevelArray:
    """``a`` over one Galois field, its columns truncated to each field of
    ``targets`` in turn: no two neighbouring columns share an order."""
    f = a.groups[0].field
    cuts = [truncation(f, t) for t in targets]
    return collapse(a, [cuts[j % len(cuts)] for j in range(a.n_cols)])


def _passing_oas():
    gf3, gf4 = field_make(3, 1), field_make(2, 2)
    rh4 = rao_hamming_oa(gf4, 2)
    return [
        rh4,
        rao_hamming_oa(gf3, 3),
        kronecker_add(rh4, mult_table(gf4)),
        full_factorial((ResidueGroup(6), ResidueGroup(2), GaloisGroup(gf3))),
        # 256 x 17 over GF(4) and GF(8) in turn
        _alternating(rao_hamming_oa(field_make(2, 4), 2), [gf4, field_make(2, 3)]),
    ]


PASSING = _passing_dms() + _passing_oas()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_planted_defects_match_reference(data):
    """Known OAs and DMs with one swapped pair or changed cell at a random
    position, counted at several block widths.  Some swaps are placed so
    that the only defect lies in pair (i, j) with i > 0, which at the
    narrow widths puts it in a later block of a later leading column."""
    a = data.draw(st.sampled_from(PASSING))
    m = a.n_cols
    if m >= 3 and data.draw(st.booleans()):
        i = data.draw(st.integers(1, m - 2))
        j = data.draw(st.integers(i + 1, m - 1))
        grid = _late_swap(a.data, i, j)
        assume(grid is not None)
        planted = LevelArray(a.groups, grid)
        if reference_verdict(a, "oa"):
            assert reference_verdict(planted, "oa").witness["columns"] == (i, j)
    else:
        planted = LevelArray(a.groups, _plant(a.data, a.groups, data.draw))
    assert_same(planted, WIDTHS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spans_cover_the_range_and_cut_at_widths_and_order_changes(data):
    """``_spans`` covers ``start..stop`` exactly, in order, with no block
    crossing a multiple of ``width`` and, given the runs of equal orders, no
    block holding two orders."""
    orders = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=40))
    m = len(orders)
    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    width = data.draw(st.integers(1, 20))
    runs = [next((k for k in range(j + 1, m) if orders[k] != orders[j]), m) for j in range(m)]
    for given_runs in (None, runs):
        spans = list(arrays._spans(start, stop, width, given_runs))
        assert [j for j0, j1 in spans for j in range(j0, j1)] == list(range(start, stop))
        for j0, j1 in spans:
            assert j0 < j1 and j0 // width == (j1 - 1) // width
            if given_runs is not None:
                assert len(set(orders[j0:j1])) == 1


def test_passing_objects_match_reference():
    for a in _passing_dms():
        assert check_dm(a)
    for a in _passing_oas():
        assert check_oa(a)
    for a in PASSING:
        assert_same(a, WIDTHS)


def test_defect_past_the_first_block_at_library_width():
    """At 4096 rows the library counts 16 columns a block; a swap in column
    20 is found in the second block with the reference's witness.  So are
    swaps whose only unbalanced pair has a later leading column: (1, 30),
    in the second block of column 1, and (2, 33), in the third block of
    column 2.  (Rows that agree on columns 0..2 agree everywhere.)"""
    gf16 = field_make(2, 4)
    big = kronecker_add(rao_hamming_oa(gf16, 2), subcols(mult_table(gf16), [0, 1]))
    assert arrays._block_width(big.n_rows) <= 20
    assert check_oa(big)
    col = big.data[:, 20]
    r1 = 5
    r2 = int(np.flatnonzero((col != col[r1]) & (big.data[:, 0] != big.data[r1, 0]))[0])
    data = big.data.copy()
    data[[r1, r2], 20] = data[[r2, r1], 20]
    planted = LevelArray(big.groups, data)
    v = check_oa(planted)
    assert not v and v.witness["columns"] == (0, 20)
    assert v == reference_verdict(planted, "oa")
    for i, j in [(1, 30), (2, 33)]:
        planted = LevelArray(big.groups, _late_swap(big.data, i, j))
        v = check_oa(planted)
        assert not v and v.witness["columns"] == (i, j)
        assert v == reference_verdict(planted, "oa")


def test_degenerate_shapes_match_reference():
    gf4 = GaloisGroup(field_make(2, 2))
    z6 = ResidueGroup(6)
    cases = [
        LevelArray((gf4, gf4), np.zeros((0, 2), dtype=np.int64)),
        LevelArray((), np.zeros((4, 0), dtype=np.int64)),
        LevelArray((), np.zeros((0, 0), dtype=np.int64)),
        LevelArray((gf4,), np.arange(4)[:, None]),
        LevelArray((gf4,), np.array([[0], [1], [1], [3]])),
        LevelArray((gf4,), np.arange(3)[:, None]),
        LevelArray((z6,), np.arange(12)[:, None] % 6),
        # one order throughout, rows divisible by s but not by s^2
        LevelArray((gf4,) * 3, rao_hamming_oa(field_make(2, 2), 2).data[:8, :3]),
        LevelArray((z6,) * 4, np.arange(48).reshape(12, 4) % 6),
        # pair (0, 1) unbalanced before pair (0, 2) fails divisibility
        LevelArray(tuple(map(ResidueGroup, (1, 2, 3))), np.array([[0, 0, 0], [0, 0, 1]])),
    ]
    for a in cases:
        assert_same(a, WIDTHS)


def test_check_oa_allocates_no_m_squared_temporary():
    """Over 3000 columns an m x m table of counts or orders would be 9M
    cells; the counting stays under 2 MiB, uniform and mixed orders alike."""
    gf2 = GaloisGroup(field_make(2, 1))
    uniform = LevelArray((gf2,) * 3000, np.tile([[0], [0], [1], [1]], (1, 3000)))
    # three orthogonal GF(2) columns and 2997 constant ones over Z_1: mixed
    # orders, and every pair balanced, so every leading column is counted
    cols = np.zeros((4, 3000), dtype=np.int64)
    cols[:, :3] = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    mixed = LevelArray((gf2,) * 3 + (ResidueGroup(1),) * 2997, cols)
    for a, passes in [(uniform, False), (mixed, True)]:
        tracemalloc.start()
        try:
            v = check_oa(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(v) == passes
        assert peak < 2 * 2**20, peak
    assert check_oa(uniform) == reference_verdict(uniform, "oa")


def test_dm_counts_only_one_ordering():
    """A failing ordered pair (j, i), j > i, is reported as (i, j): the
    kernel never counts (j, i), and the reference reaches (i, j) first."""
    gf4 = field_make(2, 2)
    d = mult_table(gf4).data.copy()
    d[0, 3] = d[1, 3]
    a = LevelArray((GaloisGroup(gf4),) * 4, d)
    v = check_dm(a)
    assert not v and v.witness["columns"][0] < v.witness["columns"][1]
    assert v == reference_verdict(a, "dm")


def test_wide_alphabets_use_int64_codes():
    """Pair codes past 2**31 switch the column-major copy to int64."""
    z1, wide = ResidueGroup(1), ResidueGroup(50000)
    grid = np.zeros((50000, 3), dtype=np.int64)
    grid[:, 1] = np.arange(50000)
    assert check_oa(LevelArray((z1, wide, z1), grid.copy()))
    grid[7, 1] = 8
    assert_same(LevelArray((z1, wide, z1), grid), (2, None))


def _one_cell_mutants(a: LevelArray):
    """Every array that differs from ``a`` in exactly one cell."""
    for (r, c), v in np.ndenumerate(a.data):
        for w in range(a.groups[c].order):
            if w != v:
                data = a.data.copy()
                data[r, c] = w
                yield LevelArray(a.groups, data)


def test_every_one_cell_mutant_of_a_tight_array_fails():
    """An index-1 OA and a multiplication-table DM have no slack: changing
    any one cell unbalances some pair.  This guards the verifiers without
    the reference."""
    count = 0
    for p, u in ((3, 1), (2, 2), (5, 1)):
        f = field_make(p, u)
        for a, check in ((rao_hamming_oa(f, 2), check_oa), (mult_table(f), check_dm)):
            assert check(a)
            for mutant in _one_cell_mutants(a):
                assert not check(mutant)
                count += 1
    assert count == 1078



def test_failing_nested_verdicts_match_reference():
    """Nested pairs with one parent cell changed, or one child row traded
    for one outside the child, get the reference's verdict: the parent
    fails, or only the collapsed child does."""
    pairs = [("ndm", catalog_get("ex11_ndm").payload), ("ndm", catalog_get("d_4_4_2_nested").payload)]
    pairs += [("noa", catalog_get("ex12_noa").payload), ("noa", qtw_noa(field_make(2, 2), field_make(2, 1), 2))]
    reasons = set()
    for kind, p in pairs:
        rows = set(p.child_rows)
        mutants = [NestedPair(a, p.child_rows, p.projections) for a in _one_cell_mutants(p.parent)]
        outside = [r for r in range(p.parent.n_rows) if r not in rows]
        mutants += [NestedPair(p.parent, sorted(rows - {c} | {r}), p.projections) for c in rows for r in outside]
        for q in [p] + mutants:
            v = check_nested(q, kind)
            assert v == reference_verdict(q, kind)
            reasons.add(v.reason.split(":")[0])
    assert reasons == {"", "parent fails", "collapsed child fails"}


class _ResidueSubTable:
    """The subtraction table of Z_s without its s**2 cells: each cell looked
    up is worked out, ``sub[a, b]`` as the reference reads it and flat cell
    ``a * s + b`` as ``check_dm`` reads it, with numpy's bounds and its
    wrap-around of negative indices.  With its ``order`` and ``sub`` it is
    also the reference's alphabet of Z_s."""

    def __init__(self, s: int):
        self.s = self.order = s
        self.sub = self

    def ravel(self):
        return self

    def __getitem__(self, key):
        if isinstance(key, tuple):
            a, b = (np.asarray(k, dtype=np.int64) for k in key)
            return ((a - b) % self.s).astype(np.int32)
        k = np.asarray(key, dtype=np.int64)
        cells = self.s * self.s
        if k.size and (k.min() < -cells or k.max() >= cells):
            raise IndexError("index out of bounds")
        k = k % cells
        return ((k // self.s - k % self.s) % self.s).astype(np.int32)


def test_dm_lookups_past_int32_match_reference(monkeypatch):
    """Over Z_50001, ``l_i * s + l_j`` reaches 2.5e9: the kernel must form
    its table lookups past 2**31 without wrapping.  Z_s's real table would
    hold 2.5e9 cells, so both sides look cells up in a stand-in."""
    s = 50001  # odd, so r -> 2r is a bijection of Z_s
    table = _ResidueSubTable(s)
    monkeypatch.setattr(arrays, "sub_table", lambda g: table)
    r = np.arange(s)
    grid = np.column_stack([r, np.zeros(s, dtype=np.int64), 2 * r % s])
    assert (s - 1) * s + s - 1 >= 2**31
    zs = (ResidueGroup(s),) * 3
    assert check_dm(LevelArray(zs, grid)) == reference_verdict(LevelArray(zs, grid), "dm", table) == Verdict(True, "dm")
    for r1, col in ((s - 1, 1), (s - 2, 2), (0, 0)):
        planted = grid.copy()
        planted[r1, col] = (planted[r1, col] + 1) % s
        a = LevelArray(zs, planted)
        v = check_dm(a)
        assert not v and v == reference_verdict(a, "dm", table)


def _is_fresh_copy(out: np.ndarray, data: np.ndarray) -> bool:
    return out.flags.writeable and out.flags.c_contiguous and not np.shares_memory(out, data)


def test_block_layout_copies_one_column_and_int32_input():
    """``_block_layout`` raises the copy in place, so it must never hand back
    its input: not a one-column block, whose transpose is already
    contiguous, nor int32 input, whose dtype needs no cast.  The copy is
    int16 while every code is below 2**15, int32 from there."""
    one = LevelArray((ResidueGroup(5),), np.arange(10)[:, None] % 5).data
    out, before = arrays._block_layout(one, np.array([5]), 16)
    assert _is_fresh_copy(out, one) and out.tolist() == [list(range(5)) * 2]
    assert before.tolist() == [0] and not one.flags.writeable
    data = full_factorial((ResidueGroup(3), ResidueGroup(2), ResidueGroup(4))).data
    assert data.dtype == np.int32
    s = np.array([3, 2, 4])
    out, before = arrays._block_layout(data, s, 2)
    assert _is_fresh_copy(out, data) and out.dtype == np.int16
    assert before.tolist() == [0, 3, 0]
    assert np.array_equal(out, data.T + before[:, None])
    s = np.array([200, 200, 2])  # top 200 * 402 = 80400
    out, before = arrays._block_layout(data, s, 3)
    assert _is_fresh_copy(out, data) and out.dtype == np.int32
    assert before.tolist() == [0, 200, 400]
    assert np.array_equal(out, data.T + before[:, None])


def _zero_sum(s: int) -> LevelArray:
    """The s² runs ``(i, j, -(i + j))`` over Z_s: an OA of strength two."""
    i, j = np.divmod(np.arange(s * s), s)
    return LevelArray((ResidueGroup(s),) * 3, np.column_stack([i, j, -(i + j) % s]))


def _mixed(orders: tuple[int, ...]) -> LevelArray:
    return full_factorial(tuple(map(ResidueGroup, orders)))


@pytest.mark.parametrize(
    "make, arg, dtype",
    [
        (_zero_sum, 104, np.int16),  # top 104 * 312 = 32448
        (_zero_sum, 105, np.int32),  # top 105 * 315 = 33075
        (_mixed, (127, 2, 127), np.int16),  # top 127 * 256 = 32512
        (_mixed, (128, 2, 127), np.int32),  # top 128 * 257 = 32896
    ],
    ids=["Z104", "Z105", "mixed-127", "mixed-128"],
)
def test_codes_on_each_side_of_the_int16_bound_match_reference(make, arg, dtype):
    """Arrays whose largest pair code is just below and just above 2**15
    pass at the library's width with the dtype of the rule, and a defect in
    their first pair or only in their last gets the reference's witness."""
    a = make(arg)
    dtypes = []
    layout = arrays._block_layout

    def spy(*args):
        out, before = layout(*args)
        dtypes.append(out.dtype)
        return out, before

    with mock.patch.object(arrays, "_block_layout", spy):
        first = a.data.copy()
        first[0, 1] = (first[0, 1] + 1) % a.groups[1].order
        last = _late_swap(a.data, 1, 2)
        for data, columns in ((a.data, None), (first, (0, 1)), (last, (1, 2))):
            planted = LevelArray(a.groups, data)
            v = check_oa(planted)
            assert v == reference_verdict(planted, "oa")
            assert (v.witness or {}).get("columns") == columns
    assert set(dtypes) == {np.dtype(dtype)}


# ---------------------------------------------------------------------------
# check_dm's two kernels and the size rule between them
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def kernels_run():
    """The names of the ``check_dm`` kernels called inside the block."""
    ran = []

    def spy(name):
        real = getattr(arrays, name)

        def counted(*args):
            ran.append(name)
            return real(*args)

        return mock.patch.object(arrays, name, counted)

    with spy("_dm_pairs"), spy("_dm_blocks"):
        yield ran


def _rule(a: LevelArray) -> str:
    small = a.n_rows * a.n_cols <= arrays._PAIRWISE_CELLS and a.groups[0].order <= arrays._PAIRWISE_ORDER
    return "_dm_pairs" if small else "_dm_blocks"


def _residue_dm(p: int) -> LevelArray:
    """The multiplication table of Z_p, p prime: a D(p, p, p) over Z_p."""
    r = np.arange(p)
    return LevelArray((ResidueGroup(p),) * p, r[:, None] * r[None, :] % p)


#: Passing square DMs to cut shapes from: orders on both sides of
#: ``_PAIRWISE_ORDER`` (16 and 17), fields and residue rings.
DM_BASES = [mult_table(field_make(*pu)) for pu in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)]] + [
    _residue_dm(p) for p in (5, 7, 13, 17, 19)
]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_dm_kernels_match_reference_around_the_size_rule(data):
    """Column subsets of passing DMs, stacked k times with their rows
    shuffled (still DMs, with b / g = k), with or without one planted change.
    The number of copies is drawn so that b * m falls below, on and above
    the cell limit; every kernel must give the reference's verdict."""
    base = data.draw(st.sampled_from(DM_BASES))
    q = base.n_rows
    m = data.draw(st.integers(1, q))
    cols = data.draw(st.permutations(range(q)))[:m]
    edge = arrays._PAIRWISE_CELLS // (q * m)
    k = data.draw(st.one_of(st.sampled_from(sorted({max(1, edge), edge + 1})), st.integers(1, max(2, 2 * edge + 1))))
    rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(q * k)
    grid = np.vstack([base.data[:, cols]] * k)[rows]
    if data.draw(st.booleans()):
        grid = _plant(grid, base.groups[:m], data.draw)
    a = LevelArray(base.groups[:m], grid)
    want = reference_verdict(a, "dm")
    with kernels_run() as ran:
        assert check_dm(a) == want
    assert ran == [_rule(a)]
    assert_dm_same(a, want, ("pairs", "blocks"))


def _dm_mutants_match_reference(a: LevelArray, kernels=(None, "pairs", "blocks")) -> int:
    assert check_dm(a)
    count = 0
    for mutant in _one_cell_mutants(a):
        want = reference_verdict(mutant, "dm")
        assert not want
        assert_dm_same(mutant, want, kernels)
        count += 1
    return count


def test_one_cell_mutants_of_small_dms_match_reference():
    """Every one-cell change of three small DMs fails, under both kernels,
    with the reference's witness."""
    dms = [mult_table(field_make(2, 2)), ndm_theorem1(2).parent, catalog_get("d_12_6_6").payload]
    assert [d.shape for d in dms] == [(4, 4), (8, 4), (12, 6)]
    assert [_dm_mutants_match_reference(d) for d in dms] == [48, 224, 360]


def test_boundary_shapes_of_each_kernel_match_reference():
    """16 x 8 over GF(16) is the largest shape the pair kernel takes (at
    both limits); 16 x 9 over GF(16) has one column too many and 17 x 2
    over Z_17 one element too many, so the block kernel takes them.  Each
    array and every one-cell mutant of it matches the reference."""
    assert (arrays._PAIRWISE_CELLS, arrays._PAIRWISE_ORDER) == (128, 16)
    gf16 = mult_table(field_make(2, 4))
    for a, kernel, mutants in (
        (subcols(gf16, range(8)), "_dm_pairs", 1920),
        (subcols(gf16, range(9)), "_dm_blocks", 2160),
        (subcols(_residue_dm(17), [1, 2]), "_dm_blocks", 544),
    ):
        with kernels_run() as ran:
            assert check_dm(a)
            assert _dm_mutants_match_reference(a, (None,)) == mutants
        assert set(ran) == {kernel}
