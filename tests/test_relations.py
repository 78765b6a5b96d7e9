"""Metamorphic relations of the verdicts: moves of an input that must keep
its verdict, whether it passes or fails.

Every relation is checked on drawn inputs, failing ones included: cut full
factorials over the mixed ``alphabets`` of ``test_verifiers``, the known
objects of ``PASSING`` and nested pairs, each with or without one defect
planted by ``_plant``.  The block width is drawn too, so that the moves
carry a defect across block boundaries and across the runs of equal
orders that ``check_oa`` counts together.  None of these tests reads the
reference: a kernel that miscounts some pairs and not others breaks a
relation on its own.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from nestfill import arrays
from nestfill.algebra import GaloisGroup, add_table, field_make, mul_table, neg_table
from nestfill.arrays import LevelArray, NestedPair, check_dm, check_nested, check_oa
from nestfill.catalog import catalog_get
from nestfill.constructions import full_factorial, qtw_noa

from test_verifiers import PASSING, WIDTHS, _plant, alphabets, dm_kernel


def _at_width(data):
    """Patch ``_block_width`` to a drawn width (``None`` is the library's)."""
    w = data.draw(st.sampled_from(WIDTHS))
    return mock.patch.object(arrays, "_block_width", arrays._block_width if w is None else lambda n: w)


def _planted(a: LevelArray, draw) -> LevelArray:
    return LevelArray(a.groups, _plant(a.data, a.groups, draw)) if draw(st.booleans()) else a


def _some_columns(a: LevelArray, data) -> LevelArray:
    """A drawn selection of ``a``'s columns in a drawn order, often few."""
    m = data.draw(st.one_of(st.integers(1, min(a.n_cols, 4)), st.integers(1, a.n_cols)))
    cols = data.draw(st.permutations(range(a.n_cols)))[:m]
    return LevelArray([a.groups[j] for j in cols], a.data[:, cols])


def _oa_input(data) -> LevelArray:
    """Some columns of a known object, or a full factorial, whole or cut to
    a prefix of its rows, over drawn runs of columns of one alphabet, with
    or without one planted defect."""
    if data.draw(st.booleans()):
        a = _some_columns(data.draw(st.sampled_from(PASSING)), data)
    else:
        runs = data.draw(st.lists(st.tuples(alphabets, st.integers(1, 3)), min_size=1, max_size=3))
        groups = tuple(g for g, length in runs for _ in range(length))
        assume(np.prod([g.order for g in groups]) <= 2048)
        base = full_factorial(groups)
        rows = base.n_rows if data.draw(st.integers(0, 3)) else data.draw(st.integers(1, base.n_rows))
        a = LevelArray(groups, base.data[:rows])
    return _planted(a, data.draw)


def _relabelled(a: LevelArray, data) -> LevelArray:
    """``a`` with each column's levels mapped by a drawn bijection."""
    maps = [np.array(data.draw(st.permutations(range(g.order)))) for g in a.groups]
    return LevelArray(a.groups, np.column_stack([f[a.data[:, j]] for j, f in enumerate(maps)]))


def _rows_shuffled(data, n: int) -> np.ndarray:
    return np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(n)


def _column_orders(data, m: int) -> list[list[int]]:
    """A drawn column order, and the columns rotated by one: the rotation
    moves the first column last, so that the pairs of every column change
    partners and positions."""
    return [list(data.draw(st.permutations(range(m)))), list(range(1, m)) + [0]]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_oa_verdicts_keep_under_row_column_and_level_moves(data):
    """A row permutation leaves the verdict identical, witness included; a
    column permutation or a bijection of each column's levels keeps pass
    or fail."""
    a = _oa_input(data)
    with _at_width(data):
        v = check_oa(a)
        assert check_oa(LevelArray(a.groups, a.data[_rows_shuffled(data, a.n_rows)])) == v
        for cols in _column_orders(data, a.n_cols):
            moved = LevelArray([a.groups[j] for j in cols], a.data[:, cols])
            assert bool(check_oa(moved)) == bool(v), cols
        assert bool(check_oa(_relabelled(a, data))) == bool(v)


def _dm_input(data) -> LevelArray:
    """Some columns of a known object over one alphabet, or drawn cells
    over one drawn alphabet, with or without one planted defect."""
    if data.draw(st.booleans()):
        a = _some_columns(data.draw(st.sampled_from([a for a in PASSING if len(set(a.groups)) == 1])), data)
    else:
        g = data.draw(alphabets)
        m = data.draw(st.integers(1, 5))
        n = g.order * data.draw(st.integers(1, 4))
        cells = data.draw(st.lists(st.integers(0, g.order - 1), min_size=n * m, max_size=n * m))
        a = LevelArray((g,) * m, np.array(cells, dtype=np.int64).reshape(n, m))
    return _planted(a, data.draw)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_dm_verdicts_keep_under_row_column_and_group_moves(data):
    """A row permutation leaves the verdict identical.  A column
    permutation, adding a constant to one column, negating every entry and,
    over a Galois field, multiplying every entry by a nonzero element keep
    pass or fail, under each kernel of ``check_dm``."""
    a = _dm_input(data)
    g = a.groups[0]
    j = data.draw(st.integers(0, a.n_cols - 1))
    c = data.draw(st.integers(0, g.order - 1))
    shifted = a.data.copy()
    shifted[:, j] = add_table(g)[shifted[:, j], c]
    moves = [a.data[:, cols] for cols in _column_orders(data, a.n_cols)] + [shifted, neg_table(g)[a.data]]
    if isinstance(g, GaloisGroup):
        moves.append(mul_table(g.field)[data.draw(st.integers(1, g.order - 1)), a.data])
    rows = _rows_shuffled(data, a.n_rows)
    for kernel in (None, "pairs", "blocks"):
        with _at_width(data), dm_kernel(kernel):
            v = check_dm(a)
            assert check_dm(LevelArray(a.groups, a.data[rows])) == v, kernel
            for moved in moves:
                assert bool(check_dm(LevelArray(a.groups, moved))) == bool(v), kernel


NESTED = [
    ("ndm", catalog_get("ex11_ndm").payload),
    ("ndm", catalog_get("d_4_4_2_nested").payload),
    ("noa", catalog_get("ex12_noa").payload),
    ("noa", qtw_noa(field_make(2, 2), field_make(2, 1), 2)),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nested_verdicts_keep_under_row_permutations_that_carry_the_child(data):
    """Permuting the parent's rows, with ``child_rows`` renamed to follow
    them, leaves the nested verdict identical: a parent cell may be
    planted, or a child row traded for one outside the child."""
    kind, p = data.draw(st.sampled_from(NESTED))
    parent, rows = _planted(p.parent, data.draw), list(p.child_rows)
    outside = sorted(set(range(parent.n_rows)) - set(rows))
    if outside and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(st.sampled_from(outside))
    q = NestedPair(parent, rows, p.projections)
    perm = _rows_shuffled(data, parent.n_rows)
    where = np.argsort(perm)  # old row r is new row where[r]
    moved = NestedPair(LevelArray(parent.groups, parent.data[perm]), [int(where[r]) for r in rows], p.projections)
    with _at_width(data):
        assert check_nested(moved, kind) == check_nested(q, kind)
