"""Mixed-level nested orthogonal arrays.

Three routes, all keeping the nesting intact while juxtaposing Kronecker
blocks over different alphabets:

* :func:`ww_from_noas` crosses the column blocks of a mixed nested
  orthogonal array with one difference matrix per block (Wang-Wu style).
* :func:`ww_from_ndms` crosses a plain mixed orthogonal array with one
  nested difference matrix per block.
* :func:`mixed_dm_lemma7` builds a mixed difference matrix with paired-level
  columns out of two ordinary difference matrices, and
  :func:`noa_theorem9` turns it into a mixed nested orthogonal array.

Blocks are synchronized by a shared Kronecker row index, so the parent row
``i * b + r`` combines row ``i`` of every orthogonal-array block with row
``r`` of every difference-matrix block.  The optional run-index column is
the ``b``-level factor listing ``r``.

As everywhere else, each constructor gates its inputs and its output
through ``arrays.require`` before returning.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import (
    Group,
    Projection,
    ProductGroup,
    ResidueGroup,
    component,
    identity_projection,
    prime_power,
    product_projection,
    residue,
)
from .arrays import (
    LevelArray,
    NestedPair,
    _Owned,
    hstack,
    kronecker_add,
    require,
    subcols,
    subrows,
)
from .constructions import trivial_oa

__all__ = [
    "ww_from_noas",
    "ww_from_ndms",
    "mixed_dm_lemma7",
    "noa_theorem9",
]


def _check_distinct_primes(orders: Sequence[int]) -> None:
    """Distinct-prime requirement across blocks.

    Only blocks whose level count is a prime power carry a prime; alphabets
    like Z_6 fall outside the hypothesis and are left to the verification
    gate.
    """
    seen: dict[int, int] = {}
    for order in orders:
        pp = prime_power(order)
        if pp is None:
            continue
        p = pp[0]
        if p in seen:
            raise ValueError(
                f"blocks with levels {seen[p]} and {order} share the prime {p}"
            )
        seen[p] = order


def _validate_blocks(parent: LevelArray, blocks) -> None:
    covered = [c for cols, _ in blocks for c in cols]
    if sorted(covered) != list(range(parent.n_cols)) or covered != sorted(covered):
        raise ValueError(
            "blocks must partition the parent columns in order without overlap"
        )


def _run_index_column(b: int, n: int) -> LevelArray:
    return LevelArray((ResidueGroup(b),), np.tile(np.arange(b), n)[:, None])


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
    blocks = [(tuple(cols), dm) for cols, dm in blocks]
    _validate_blocks(noa.parent, blocks)
    _check_distinct_primes([noa.parent.groups[cols[0]].order for cols, _ in blocks])
    b = blocks[0][1].n_rows
    parts, projections = [], []
    for cols, dm in blocks:
        require(dm, "dm", "ww_from_noas: block difference matrix")
        if dm.n_rows != b:
            raise ValueError("all block difference matrices must share one row count")
        sub = subcols(noa.parent, cols)
        if dm.uniform_group() != sub.uniform_group():
            raise ValueError("difference matrix alphabet differs from its block")
        parts.append(kronecker_add(sub, dm))
        projections.extend(
            noa.projections[c] for c in cols for _ in range(dm.n_cols)
        )
    n1 = noa.parent.n_rows
    if include_b:
        parts.append(_run_index_column(b, n1))
        projections.append(identity_projection(ResidueGroup(b)))
    parent = hstack(parts)
    child_rows = tuple(ci * b + r for ci in noa.child_rows for r in range(b))
    pair = NestedPair(parent, child_rows, tuple(projections))
    require(pair, "noa", "ww_from_noas")
    return pair


def _child_first(ndm: NestedPair) -> NestedPair:
    """Permute parent rows so the child occupies rows 0..b2-1.

    A difference matrix is row-permutation invariant, so this changes
    nothing checkable; it aligns the child row positions across blocks and
    makes the child run-index values literally 0..b2-1.
    """
    b = ndm.parent.n_rows
    rest = [r for r in range(b) if r not in set(ndm.child_rows)]
    order = list(ndm.child_rows) + rest
    return NestedPair(
        subrows(ndm.parent, order),
        tuple(range(len(ndm.child_rows))),
        ndm.projections,
    )


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
    blocks = [(tuple(cols), ndm) for cols, ndm in blocks]
    _validate_blocks(a, blocks)
    _check_distinct_primes([a.groups[cols[0]].order for cols, _ in blocks])
    b1 = blocks[0][1].parent.n_rows
    b2 = blocks[0][1].child_size
    parts, projections = [], []
    for cols, ndm in blocks:
        require(ndm, "ndm", "ww_from_ndms: input nested pair")
        if (ndm.parent.n_rows, ndm.child_size) != (b1, b2):
            raise ValueError("all nested difference matrices must share (b1, b2)")
        ndm = _child_first(ndm)
        sub = subcols(a, cols)
        if ndm.parent.uniform_group() != sub.uniform_group():
            raise ValueError("nested difference matrix alphabet differs from its block")
        parts.append(kronecker_add(sub, ndm.parent))
        projections.extend(
            ndm.projections[k] for _ in cols for k in range(ndm.parent.n_cols)
        )
    n = a.n_rows
    if include_b:
        if b1 % b2:
            raise ValueError(
                f"run-index column needs the child row count {b2} to divide {b1}"
            )
        parts.append(_run_index_column(b1, n))
        projections.append(residue(b1, b2))
    parent = hstack(parts)
    child_rows = tuple(i * b1 + r for i in range(n) for r in range(b2))
    pair = NestedPair(parent, child_rows, tuple(projections))
    require(pair, "noa", "ww_from_ndms")
    return pair


def mixed_dm_lemma7(d1: LevelArray, d2: LevelArray, c0: int) -> LevelArray:
    """Mixed difference matrix with paired-level columns.

    Rows are all (i, j) pairs of input rows, ordered j-fastest.  The first
    ``c0`` columns pair up the leading columns of the inputs entrywise over
    the product alphabet; the remaining columns replicate the trailing
    columns of the first input (constant over j) and of the second (cycling
    over j).  The paired block, each trailing block, and each
    component-plus-trailing combination are verified as difference matrices.
    """
    require(d1, "dm", "mixed_dm_lemma7: input d1")
    require(d2, "dm", "mixed_dm_lemma7: input d2")
    c1, c2 = d1.n_cols, d2.n_cols
    if not 1 <= c0 <= min(c1, c2):
        raise ValueError(f"c0 must lie in 1..{min(c1, c2)}, got {c0}")
    g1, g2 = d1.uniform_group(), d2.uniform_group()
    paired = ProductGroup((g1, g2))
    b1, b2 = d1.n_rows, d2.n_rows
    i_idx = np.repeat(np.arange(b1), b2)
    j_idx = np.tile(np.arange(b2), b1)
    pair_block = d1.data[i_idx, :c0] * g2.order + d2.data[j_idx, :c0]
    data = np.hstack([pair_block, d1.data[i_idx, c0:], d2.data[j_idx, c0:]])
    groups = (paired,) * c0 + (g1,) * (c1 - c0) + (g2,) * (c2 - c0)
    out = LevelArray(groups, _Owned(data))
    require(subcols(out, range(c0)), "dm", "mixed_dm_lemma7: paired block")
    for j, (g, lo, hi) in enumerate(
        [(g1, c0, c1), (g2, c1, c1 + c2 - c0)], start=1
    ):
        trailing = list(range(lo, hi))
        if trailing:
            require(subcols(out, trailing), "dm", f"mixed_dm_lemma7: trailing block {j}")
        sigma = component(paired, j - 1)
        sigma_cols = LevelArray((g,) * c0, _Owned(sigma.np_table()[out.data[:, :c0]]))
        combined = hstack([sigma_cols, subcols(out, trailing)]) if trailing else sigma_cols
        require(combined, "dm", f"mixed_dm_lemma7: component {j} with trailing block")
    return out


def _lemma7_structure(d: LevelArray) -> tuple[int, int, int, Group, Group]:
    """Recover (k0, k1, k2, g1, g2) from a lemma7-shaped array."""
    first = d.groups[0]
    if not isinstance(first, ProductGroup) or len(first.components) != 2:
        raise ValueError("expected leading paired-level columns")
    g1, g2 = first.components
    k0 = 0
    while k0 < d.n_cols and d.groups[k0] == first:
        k0 += 1
    k1 = 0
    while k0 + k1 < d.n_cols and d.groups[k0 + k1] == g1:
        k1 += 1
    k2 = d.n_cols - k0 - k1
    if any(d.groups[k0 + k1 + t] != g2 for t in range(k2)):
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
    paired = ProductGroup((g1, g2))
    s11, s21 = g1.order, g2.order
    s12, s22 = delta1.target.order, delta2.target.order
    n1 = d.n_rows
    if child_rows is None:
        child_rows = range(n1)
    d_child = tuple(int(r) for r in child_rows)

    c_pairs = trivial_oa(paired)
    c_first = LevelArray((g1,), (np.arange(s11 * s21) // s21)[:, None])
    c_second = LevelArray((g2,), (np.arange(s11 * s21) % s21)[:, None])
    spans = [
        (c_pairs, range(k0)),
        (c_first, range(k0, k0 + k1)),
        (c_second, range(k0 + k1, k0 + k1 + k2)),
    ]
    parent = hstack(
        [kronecker_add(c, subcols(d, cols)) for c, cols in spans if len(cols)]
    )
    c2_rows = [i1 * s21 + i2 for i1 in range(s12) for i2 in range(s22)]
    rows = tuple(ci * n1 + r for ci in c2_rows for r in d_child)
    projections = (delta0,) * k0 + (delta1,) * k1 + (delta2,) * k2
    pair = NestedPair(parent, rows, projections)
    require(pair, "noa", "noa_theorem9")
    return pair
