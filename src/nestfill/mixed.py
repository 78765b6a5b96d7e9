"""Mixed-level nested orthogonal arrays.

Three routes, all keeping the nesting intact while juxtaposing Kronecker
blocks over different alphabets:

* :func:`ww_from_noas` crosses the column blocks of a mixed nested
  orthogonal array with one difference matrix per block (Wang-Wu style).
* :func:`ww_from_ndms` crosses a plain mixed orthogonal array with one
  nested difference matrix per block.
* :func:`mixed_dm_lemma7` builds a mixed difference matrix with paired-level
  columns out of two ordinary difference matrices (Lemma 7), and
  :func:`noa_theorem9` turns it into a mixed nested orthogonal array.

Lemma 7's rule is one gate, ``_require_paired``, for ``mixed_dm_lemma7``'s
output and the catalog's printed Example 13 matrix alike.

The crossing is ``constructions._crossed``, the one Kronecker core: parent
row ``i * b + r`` combines row ``i`` of every orthogonal-array block with
row ``r`` of every difference-matrix block.  The optional run-index column
is one more crossed block, a zero column crossed with all of Z_b, so it
lists ``r``.  Each constructor gates its inputs through ``arrays.require``;
``_crossed`` gates the output.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import (
    INDEX_DTYPE,
    Group,
    Projection,
    ProductGroup,
    ResidueGroup,
    _grid,
    _integer,
    component,
    identity_projection,
    prime_power,
    product_projection,
    residue,
)
from .arrays import (
    LevelArray,
    NestedPair,
    _check_indices,
    _Owned,
    require,
    subcols,
    subrows,
)
from .constructions import _crossed, trivial_oa

__all__ = [
    "ww_from_noas",
    "ww_from_ndms",
    "mixed_dm_lemma7",
    "noa_theorem9",
]


def _validate_blocks(parent: LevelArray, blocks, kind: str, what: str) -> list:
    """``blocks`` as ``(column tuple, block)`` pairs, once they partition the
    columns of ``parent`` in order, their alphabets' primes are distinct (Z_6
    and the like carry none and are left to the gates), and every block
    passes as ``kind``."""
    blocks = [(_check_indices(cols, parent.n_cols, "block column"), block) for cols, block in blocks]
    cells = [c for cols, _ in blocks for c in cols]
    if cells != list(range(parent.n_cols)) or not all(cols for cols, _ in blocks):
        raise ValueError("blocks must partition the parent columns in order without overlap")
    seen: dict[int, int] = {}
    for order in (parent.groups[cols[0]].order for cols, _ in blocks):
        pp = prime_power(order)
        if pp is None:
            continue
        p = pp[0]
        if p in seen:
            raise ValueError(
                f"blocks with levels {seen[p]} and {order} share the prime {p}"
            )
        seen[p] = order
    for _, block in blocks:
        require(block, kind, what)
    return blocks


def ww_from_noas(
    noa: NestedPair,
    blocks: Sequence[tuple[Sequence[int], LevelArray]],
    include_b: bool = False,
) -> NestedPair:
    """Mixed nested orthogonal array from a mixed nested OA and one
    difference matrix per column block.

    ``blocks`` lists ``(column_indices, dm)`` pairs covering the parent's
    columns in order; every difference matrix must share one row count and
    match its block's alphabet.  With ``include_b`` a ``b``-level run-index
    column is appended (its levels survive uncollapsed in the child).
    """
    require(noa, "noa", "ww_from_noas: input nested array")
    blocks = _validate_blocks(noa.parent, blocks, "dm", "ww_from_noas: block difference matrix")
    b = blocks[0][1].n_rows
    crossed = []
    for cols, dm in blocks:
        projections = tuple(noa.projections[c] for c in cols for _ in range(dm.n_cols))
        crossed.append((subcols(noa.parent, cols), dm, projections))
    if include_b:  # a zero column crossed with Z_b lists r in row i*b + r
        zb = ResidueGroup(b)
        zero = LevelArray((zb,), _Owned(np.zeros((noa.parent.n_rows, 1), dtype=INDEX_DTYPE)))
        crossed.append((zero, trivial_oa(zb), (identity_projection(zb),)))
    return _crossed(crossed, noa.child_rows, range(b), "ww_from_noas")


def _child_first(ndm: NestedPair) -> LevelArray:
    """The parent rows of ``ndm`` reordered so its child occupies rows
    0..b2-1, the rest following in their order.

    A difference matrix is row-permutation invariant, so this changes
    nothing checkable; it aligns the child row positions across blocks and
    makes the child run-index values literally 0..b2-1.
    """
    # a row mask, as np.setdiff1d would import numpy.ma
    in_rest = np.ones(ndm.parent.n_rows, dtype=bool)
    in_rest[list(ndm.child_rows)] = False
    rest = np.flatnonzero(in_rest)
    return subrows(ndm.parent, list(ndm.child_rows) + rest.tolist())


def ww_from_ndms(
    a: LevelArray,
    blocks: Sequence[tuple[Sequence[int], NestedPair]],
    include_b: bool = False,
) -> NestedPair:
    """Mixed nested orthogonal array from a plain mixed OA and one nested
    difference matrix per column block.

    All nested difference matrices must share the parent and child row
    counts (b1, b2).  Each is rearranged child-first, so the child of the
    result keeps rows ``i*b1 .. i*b1 + b2 - 1`` of every block of rows.  The
    optional run-index column is b1-level in the parent and b2-level in the
    child; that needs b2 to divide b1.
    """
    require(a, "oa", "ww_from_ndms: input array")
    blocks = _validate_blocks(a, blocks, "ndm", "ww_from_ndms: input nested pair")
    b1 = blocks[0][1].parent.n_rows
    b2 = blocks[0][1].child_size
    crossed = []
    for cols, ndm in blocks:
        if (ndm.parent.n_rows, ndm.child_size) != (b1, b2):
            raise ValueError("all nested difference matrices must share (b1, b2)")
        crossed.append((subcols(a, cols), _child_first(ndm), ndm.projections * len(cols)))
    if include_b:
        if b1 % b2:
            raise ValueError(
                f"run-index column needs the child row count {b2} to divide {b1}"
            )
        zb = ResidueGroup(b1)
        zero = LevelArray((zb,), _Owned(np.zeros((a.n_rows, 1), dtype=INDEX_DTYPE)))
        crossed.append((zero, trivial_oa(zb), (residue(b1, b2),)))
    return _crossed(crossed, range(a.n_rows), range(b2), "ww_from_ndms")


def _require_paired(d: LevelArray, k0: int, k1: int, what: str) -> None:
    """Gate ``d`` as Lemma 7's paired-level difference matrix: ``k0`` columns
    over G1 x G2, ``k1`` over G1, the rest over G2.  The paired block is one
    difference matrix, and each component of it beside the trailing columns
    over its alphabet another; a trailing block alone is a column subset of
    the latter, so it is not counted on its own."""
    paired = d.groups[0]
    require(subcols(d, range(k0)), "dm", f"{what}: paired block")
    for j, (g, lo, hi) in enumerate(zip(paired.components, (k0, k0 + k1), (k0 + k1, d.n_cols))):
        cells = component(paired, j).np_table()[d.data[:, :k0]]
        data = np.hstack([cells, d.data[:, lo:hi]], dtype=INDEX_DTYPE)
        part = LevelArray((g,) * (k0 + hi - lo), _Owned(data))
        require(part, "dm", f"{what}: component {j + 1} with trailing block")


def mixed_dm_lemma7(d1: LevelArray, d2: LevelArray, c0: int) -> LevelArray:
    """Mixed difference matrix with paired-level columns.

    Rows are all (i, j) pairs of input rows, ordered j-fastest.  The first
    ``c0`` columns pair up the leading columns of the inputs entrywise over
    the product alphabet; the remaining columns replicate the trailing
    columns of the first input (constant over j) and of the second (cycling
    over j).  The output passes one gate, Lemma 7's: the paired block, and
    each component of it beside its trailing columns, are difference
    matrices.  Both inputs may share one alphabet, but then
    :func:`noa_theorem9` cannot split the trailing columns.
    """
    require(d1, "dm", "mixed_dm_lemma7: input d1")
    require(d2, "dm", "mixed_dm_lemma7: input d2")
    c0 = _integer(c0, "c0")
    c1, c2 = d1.n_cols, d2.n_cols
    if not 1 <= c0 <= min(c1, c2):
        raise ValueError(f"c0 must lie in 1..{min(c1, c2)}, got {c0}")
    g1, g2 = d1.uniform_group(), d2.uniform_group()
    b1, b2 = d1.n_rows, d2.n_rows
    i_idx, j_idx = _grid((b1, b2)).T
    pair_block = np.ravel_multi_index((d1.data[i_idx, :c0], d2.data[j_idx, :c0]), (g1.order, g2.order))
    data = np.hstack([pair_block, d1.data[i_idx, c0:], d2.data[j_idx, c0:]], dtype=INDEX_DTYPE)
    groups = (ProductGroup((g1, g2)),) * c0 + (g1,) * (c1 - c0) + (g2,) * (c2 - c0)
    out = LevelArray(groups, _Owned(data))
    _require_paired(out, c0, c1 - c0, "mixed_dm_lemma7")
    return out


def _lemma7_structure(d: LevelArray) -> tuple[int, int, int, Group, Group]:
    """Recover (k0, k1, k2, g1, g2) from a lemma7-shaped array; with one
    alphabet for both components only an array with no trailing columns."""
    first = d.groups[0] if d.n_cols else None
    if not isinstance(first, ProductGroup) or len(first.components) != 2:
        raise ValueError("expected leading paired-level columns")
    g1, g2 = first.components
    k0 = d.groups.count(first)
    if g1 == g2 and k0 < d.n_cols:
        raise ValueError(f"both components are {g1.describe()}: the trailing columns cannot be split")
    k1 = d.groups.count(g1)
    k2 = d.n_cols - k0 - k1
    if d.groups != (first,) * k0 + (g1,) * k1 + (g2,) * k2:
        raise ValueError("columns do not follow the paired/first/second layout")
    return k0, k1, k2, g1, g2


def noa_theorem9(
    d: LevelArray,
    delta1: Projection,
    delta2: Projection,
    child_rows: Sequence[int] | None = None,
) -> NestedPair:
    """Mixed nested orthogonal array from a paired-level difference matrix.

    ``d`` is a lemma7-shaped array over [(G1 x G2)^k0, G1^k1, G2^k2].  The
    parent crosses every (G1, G2) level pair with ``d``; the child keeps the
    pairs whose components are among the lexicographically first
    ``delta1.target.order`` (resp. ``delta2.target.order``) elements, and the
    given ``child_rows`` of ``d`` (all rows by default).  Paired columns
    collapse componentwise, single-alphabet columns by their own delta.
    """
    k0, k1, k2, g1, g2 = _lemma7_structure(d)
    if delta1.source != g1 or delta2.source != g2:
        raise ValueError("projection sources must match the two component alphabets")
    delta0 = product_projection([delta1, delta2])
    if child_rows is None:
        child_rows = range(d.n_rows)

    grid = _grid((g1.order, g2.order))
    c_pairs = trivial_oa(delta0.source)
    c_first = LevelArray((g1,), grid[:, :1])
    c_second = LevelArray((g2,), grid[:, 1:])
    spans = [
        (c_pairs, range(k0), delta0),
        (c_first, range(k0, k0 + k1), delta1),
        (c_second, range(k0 + k1, k0 + k1 + k2), delta2),
    ]
    blocks = [(c, subcols(d, cols), (delta,) * len(cols)) for c, cols, delta in spans if len(cols)]
    c2_rows = np.flatnonzero((grid < (delta1.target.order, delta2.target.order)).all(axis=1))
    return _crossed(blocks, c2_rows, child_rows, "noa_theorem9")
