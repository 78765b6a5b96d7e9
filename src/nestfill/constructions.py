"""Construction families for nested difference matrices and nested
orthogonal arrays with equal levels.

The families implemented here follow Qian, Ai and Wu (2009), Ann. Statist.
37(6A) 3616-3643: multiplication-table difference matrices over Galois
fields with nested row subsets, Kronecker-product compositions with
orthogonal arrays, the zero-sum family over residue rings, the Rao-Hamming
orthogonal arrays, and the modulus-projection family of Qian, Tang and Wu
(2009).  Every constructor gates its inputs and its output through
``arrays.require`` before returning; a failure raises
:class:`ConstructionError` (the same class as ``arrays.VerificationError``),
so no unverified object ever escapes.  An input that has already passed the
same gate is not counted again.  The plain tables (``mult_table``,
``trivial_oa``, ``full_factorial``) are gated where they are used.  The
Kronecker compositions here and in ``mixed`` all go through ``_crossed``,
which builds the parent, the child rows and the output gate.

Two conventions are fixed so results are reproducible cell for cell:

* Multiplication-table rows selected by label keep the listed label order;
  the theorem constructors arrange parent rows in the cluster order used in
  the source article, and child rows are positions within that arrangement.
* All constructions are deterministic; only ``search_nested_rows`` accepts a
  seed, for its randomized search mode.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .algebra import (
    Field,
    GaloisGroup,
    GfElem,
    Group,
    Projection,
    ResidueGroup,
    _grid,
    _vectors,
    add_table,
    field_make,
    modulus,
    mul_table,
    residue,
    truncation,
)
from .arrays import (
    LevelArray,
    NestedPair,
    VerificationError,
    _Owned,
    _check_indices,
    check_dm,
    collapse,
    hstack,
    kronecker_add,
    require,
    subcols,
)

__all__ = [
    "ConstructionError",
    "label_sequence",
    "mult_table",
    "trivial_oa",
    "full_factorial",
    "ndm_theorem1",
    "ndm_theorem2",
    "ndm_theorem3",
    "ndm_sec34",
    "ndm_p3",
    "rao_hamming_oa",
    "qtw_noa",
    "noa_theorem4",
    "noa_theorem5",
    "zero_sum_noa",
    "validation_pair",
    "search_nested_rows",
]


#: Raised by a failing gate, whether on an input or on a constructor's own
#: output; kept under this name for existing callers.
ConstructionError = VerificationError


# ---------------------------------------------------------------------------
# Field element bookkeeping, on element indices.
# ---------------------------------------------------------------------------


def _labels(f: Field, m: int) -> np.ndarray:
    """Indices of the sequence r_m: the elements of degree at most ``m``."""
    if m < -1 or m >= f.u:
        raise ValueError(f"degree bound {m} out of range for GF({f.order})")
    return np.arange(f.p ** (m + 1))


def label_sequence(f: Field, m: int) -> list[GfElem]:
    """All elements of ``f`` of polynomial degree at most ``m``, in
    lexicographic order: the sequence r_m, with p^(m+1) entries.  ``m = -1``
    gives just the zero element."""
    return [f.element(int(i)) for i in _labels(f, m)]


def _offsets_sum(f: Field, ks: Sequence[int]) -> int:
    """Index of the sum of the distinct monomials x^k, k in ``ks``."""
    if len(set(ks)) != len(ks) or any(not 0 <= k < f.u for k in ks):
        raise ValueError(f"x^k for k in {list(ks)} are not distinct reduced elements of GF({f.order})")
    return sum(f.p**k for k in ks)


def _shift(f: Field, base: int, seq: np.ndarray) -> np.ndarray:
    return add_table(GaloisGroup(f))[base, seq]


def mult_table(f: Field) -> LevelArray:
    """The s x s multiplication table of GF(s), rows and columns labelled by
    all field elements in lexicographic order.  It is a D(s, s, s)."""
    elems = np.arange(f.order)
    return _table_columns(f, elems, elems)


def _table_columns(f: Field, cols: np.ndarray, rows: np.ndarray) -> LevelArray:
    """Selected columns of the multiplication table, rows in the given order."""
    g = GaloisGroup(f)
    return LevelArray(
        (g,) * len(cols),
        _Owned(mul_table(f)[np.ix_(rows, cols)]),
        row_labels=tuple(rows),
        label_group=g,
    )


def trivial_oa(group: Group) -> LevelArray:
    """The single-column array listing every element of the alphabet once."""
    return LevelArray((group,), np.arange(group.order)[:, None])


def full_factorial(groups: Sequence[Group]) -> LevelArray:
    """All level combinations, first column varying slowest."""
    groups = tuple(groups)
    return LevelArray(groups, _Owned(_grid([g.order for g in groups])))


# ---------------------------------------------------------------------------
# Multiplication-table nested difference matrices (characteristic 2).
# ---------------------------------------------------------------------------


def _ndm_from_labels(
    f: Field,
    target: Field,
    col_elems: np.ndarray,
    row_order: np.ndarray,
    child_elems: np.ndarray,
    what: str,
) -> NestedPair:
    d1 = _table_columns(f, col_elems, row_order)
    pos = np.full(f.order, -1)
    pos[row_order] = np.arange(len(row_order))
    proj = truncation(f, target)
    pair = NestedPair(d1, tuple(pos[child_elems]), (proj,) * len(col_elems))
    require(pair, "ndm", what)
    return pair


def ndm_theorem1(m: int) -> NestedPair:
    """A D(2^(m+1), 2^2, 2^(m+1)) containing a D(2^m, 2^2, 2^m), m >= 2.

    Columns r_1 of the GF(2^(m+1)) multiplication table; parent rows in the
    two-cluster arrangement; child rows are those labelled r_(m-2) and
    x^m + x^(m-1) + r_(m-2); the collapse is truncation onto GF(2^m).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return _clustered_ndm(field_make(2, m + 1), m, 4, [0, 3], 1, f"ndm_theorem1(m={m})")


def _clustered_ndm(
    f: Field, m: int, clusters: int, child_clusters: list[int], col_degree: int, what: str
) -> NestedPair:
    """Multiplication-table NDM with parent rows r_(m-2) shifted by each
    cluster offset in turn, in the source article's cluster order; the
    child takes the listed clusters and collapses onto GF(2^m)."""
    specs = [[], [m], [m - 1], [m, m - 1]]
    specs += [[m + 1] + ks for ks in specs]
    offs = np.array([_offsets_sum(f, ks) for ks in specs[:clusters]])
    r = _labels(f, m - 2)
    row_order = _shift(f, offs[:, None], r).ravel()
    child = _shift(f, offs[child_clusters, None], r).ravel()
    return _ndm_from_labels(f, field_make(2, m), _labels(f, col_degree), row_order, child, what)


def ndm_theorem2(m: int) -> NestedPair:
    """A D(2^(m+2), 2^2, 2^(m+2)) containing a D(2^m, 2^2, 2^m), m >= 2.

    Columns r_1 over GF(2^(m+2)), rows in the four-cluster arrangement;
    child rows carry labels r_(m-2) and x^(m+1) + x^m + x^(m-1) + r_(m-2).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return _clustered_ndm(field_make(2, m + 2), m, 8, [0, 7], 1, f"ndm_theorem2(m={m})")


#: Defining polynomials for the eight-column family where the catalog
#: default makes the listed child rows collapse unevenly.  Which irreducible
#: is in force changes the reduced products in the wide columns, so the
#: family is polynomial-sensitive; these choices pass the verification gate.
THEOREM3_POLYS = {3: "x^5+x^4+x^3+x^2+1", 4: "x^6+x^3+1"}


def ndm_theorem3(m: int) -> NestedPair:
    """A D(2^(m+2), 2^3, 2^(m+2)) containing a D(2^(m+1), 2^3, 2^m), m >= 2.

    Columns r_2 over GF(2^(m+2)); child rows carry labels r_(m-2),
    x^m + x^(m-1) + r_(m-2), x^(m+1) + r_(m-2) and
    x^(m+1) + x^m + x^(m-1) + r_(m-2).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    f = field_make(2, m + 2, THEOREM3_POLYS.get(m))
    return _clustered_ndm(f, m, 8, [0, 3, 4, 7], 2, f"ndm_theorem3(m={m})")


#: GF(32) polynomial used by the wide nested families below.  The defining
#: polynomial matters here: with several of the irreducible quintics the row
#: subsets listed for these families stop being uniform after collapse, so
#: the choice is pinned to the one quintic that works for both variants.
SEC34_GF32_POLY = "x^5+x^4+x^3+x^2+1"


def ndm_sec34(variant: str) -> NestedPair:
    """The two wide GF(32) families at their published size.

    ``variant="a8cols"`` builds a D(2^5, 2^3, 2^5) whose 8-row child
    collapses onto GF(4); ``variant="b16cols"`` builds a D(2^5, 2^4, 2^5)
    with a 16-row child, also collapsing onto GF(4).
    """
    if variant not in ("a8cols", "b16cols"):
        raise ValueError(f"unknown variant {variant!r}; use 'a8cols' or 'b16cols'")
    f, g = field_make(2, 5, SEC34_GF32_POLY), field_make(2, 2)
    r0 = _labels(f, 0)
    g1_degrees = [(), (1,), (3,), (3, 1), (4,), (4, 1), (4, 3), (4, 3, 1)]
    x2 = _offsets_sum(f, [2])
    g1_rows = _shift(f, np.array([_offsets_sum(f, ks) for ks in g1_degrees])[:, None], r0).ravel()
    row_order = np.concatenate([g1_rows, _shift(f, x2, g1_rows)])
    if variant == "a8cols":
        cols = _labels(f, 2)
        bases = [_offsets_sum(f, ks) for ks in [(), (3, 1), (4,), (4, 3, 1)]]
    else:
        cols = _labels(f, 3)
        shifted = [(1,), (3,), (4,), (4, 3, 1)]
        bases = [_offsets_sum(f, ks + ((2,) if ks in shifted else ())) for ks in g1_degrees]
    child = _shift(f, np.array(bases)[:, None], r0).ravel()
    return _ndm_from_labels(f, g, cols, row_order, child, f"ndm_sec34({variant})")


def ndm_p3(instance: str) -> NestedPair:
    """The characteristic-3 families: a D(3^(m+1), 3^2, 3^(m+1)) containing
    a D(3^m, 3^2, 3^m), at the two published instances.

    ``"gf27_to_gf9"`` uses GF(27) with x^3+2x+1 and child rows r_0,
    2x^2+x+r_0, x^2+2x+r_0; ``"gf81_to_gf27"`` uses GF(81) with x^4+x+2 and
    child rows r_1, 2x^3+x^2+r_1, x^3+2x^2+r_1.  Rows stay in lexicographic
    order (the three-cluster arrangement coincides with it).
    """
    if instance == "gf27_to_gf9":
        f, g = field_make(3, 3), field_make(3, 2)
        r = _labels(f, 0)
        shifts = ["0", "2x^2+x", "x^2+2x"]
    elif instance == "gf81_to_gf27":
        f, g = field_make(3, 4), field_make(3, 3)
        r = _labels(f, 1)
        shifts = ["0", "2x^3+x^2", "x^3+2x^2"]
    else:
        raise ValueError(f"unknown instance {instance!r}")
    bases = np.array([f.index(f.parse(s)) for s in shifts])
    child = _shift(f, bases[:, None], r).ravel()
    return _ndm_from_labels(
        f, g, _labels(f, 1), np.arange(f.order), child, f"ndm_p3({instance})"
    )


# ---------------------------------------------------------------------------
# Rao-Hamming orthogonal arrays and the modulus-projection nested family.
# ---------------------------------------------------------------------------


def _canonical_directions(size: int, k: int) -> np.ndarray:
    """Vectors whose last nonzero coordinate is the element of index 1,
    enumerated first-coordinate-fastest.  There are (size^k - 1)/(size - 1)."""
    v = _vectors(size, k)
    last_is_one = [(v[:, j] == 1) & ~v[:, j + 1 :].any(axis=1) for j in range(k)]
    return v[np.logical_or.reduce(last_is_one)]


def _linear_entries(f: Field, rows: np.ndarray, dirs: np.ndarray) -> LevelArray:
    """Entry (a, b) is the linear form ``sum_i dirs[b, i] * rows[a, i]``."""
    g = GaloisGroup(f)
    add, mul = add_table(g), mul_table(f)
    data = np.zeros((len(rows), len(dirs)), dtype=np.int64)
    for i in range(rows.shape[1]):
        data = add[data, mul[rows[:, i, None], dirs[None, :, i]]]
    return LevelArray((g,) * len(dirs), _Owned(data))


def rao_hamming_oa(f: Field, k: int) -> LevelArray:
    """The linear OA(s^k, (s^k - 1)/(s - 1), s) over GF(s).

    Rows are all vectors of GF(s)^k, columns are the canonical direction
    vectors (last nonzero coordinate equal to one), and each entry is the
    linear form ``sum c_i x_i``.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    s = f.order
    out = _linear_entries(f, _vectors(s, k), _canonical_directions(s, k))
    require(out, "oa", f"rao_hamming_oa(GF({s}), k={k})")
    return out


def qtw_noa(f1: Field, f2: Field, k: int) -> NestedPair:
    """Nested orthogonal array with the modulus collapse, after Qian, Tang
    and Wu (2009).

    The parent is the linear array over GF(s1) restricted to direction
    vectors whose coordinates all have polynomial degree below u2; the child
    rows are those indexed by vectors with every coordinate of degree below
    u2.  Requires matching characteristic and ``2 u2 <= u1 + 1``, which keeps
    the child's products free of reduction so the modulus map acts
    multiplicatively there.
    """
    if f1.p != f2.p:
        raise ValueError("fields must share one characteristic")
    if f2.u >= f1.u:
        raise ValueError("target field must be strictly smaller")
    if 2 * f2.u > f1.u + 1:
        raise ValueError(
            f"family requires 2*u2 <= u1 + 1; got u1={f1.u}, u2={f2.u}"
        )
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    s1, s2 = f1.order, f2.order
    # coordinates < s2 are exactly the degree-<u2 elements of f1
    dirs = _canonical_directions(s2, k)
    rows = _vectors(s1, k)
    parent = _linear_entries(f1, rows, dirs)
    child_rows = tuple(np.flatnonzero((rows < s2).all(axis=1)))
    proj = modulus(f1, f2)
    pair = NestedPair(parent, child_rows, (proj,) * len(dirs))
    require(pair, "noa", f"qtw_noa(GF({s1}), GF({s2}), k={k})")
    return pair


# ---------------------------------------------------------------------------
# Kronecker compositions.
# ---------------------------------------------------------------------------


def _crossed(
    blocks: Sequence[tuple[LevelArray, LevelArray, Sequence[Projection]]],
    outer_rows: Sequence[int],
    inner_rows: Sequence[int],
    what: str,
) -> NestedPair:
    """The one Kronecker core of the compositions here and in ``mixed``.

    Each block ``(a, d, projections)`` contributes the columns of
    ``a (+) d``, with one projection per column; the blocks stand side by
    side.  All ``a`` share one row count and all ``d`` share one, ``b``, so
    parent row ``i * b + r`` crosses row ``i`` of every ``a`` with row ``r``
    of every ``d``.  The child keeps the rows with ``i`` in ``outer_rows``
    and ``r`` in ``inner_rows``, ``i`` slowest; the pair is gated as a
    nested orthogonal array under ``what``.
    """
    n, b = blocks[0][0].n_rows, blocks[0][1].n_rows
    if any((a.n_rows, d.n_rows) != (n, b) for a, d, _ in blocks):
        raise ValueError(f"{what}: crossed blocks must share one row count on each side")
    outer = np.array(_check_indices(outer_rows, n, f"{what}: outer row"), dtype=np.int64)
    inner = np.array(_check_indices(inner_rows, b, f"{what}: inner row"), dtype=np.int64)
    parts = [kronecker_add(a, d) for a, d, _ in blocks]
    parent = parts[0] if len(parts) == 1 else hstack(parts)
    projections = tuple(p for _, _, ps in blocks for p in ps)
    child_rows = np.add.outer(outer * b, inner).ravel().tolist()
    pair = NestedPair(parent, tuple(child_rows), projections)
    require(pair, "noa", what)
    return pair


def noa_theorem4(a: LevelArray, ndm: NestedPair) -> NestedPair:
    """Nested orthogonal array from an orthogonal array and a nested
    difference matrix: parent ``A (+) D1``, child rows the D-child rows
    inside every block, collapse inherited from the difference matrix."""
    require(a, "oa", "noa_theorem4: input array")
    require(ndm, "ndm", "noa_theorem4: input nested pair")
    block = (a, ndm.parent, ndm.projections * a.n_cols)
    return _crossed([block], range(a.n_rows), ndm.child_rows, "noa_theorem4")


def noa_theorem5(noa: NestedPair, d: LevelArray) -> NestedPair:
    """New nested orthogonal array from an existing one and a difference
    matrix: parent ``A1 (+) D``, child rows all Kronecker rows spawned by the
    existing child rows, collapse inherited from the orthogonal array."""
    require(noa, "noa", "noa_theorem5: input nested pair")
    require(d, "dm", "noa_theorem5: input difference matrix")
    block = (noa.parent, d, tuple(p for p in noa.projections for _ in range(d.n_cols)))
    return _crossed([block], noa.child_rows, range(d.n_rows), "noa_theorem5")


def zero_sum_noa(s1: int, s2: int) -> NestedPair:
    """The zero-sum nested family over residue rings, for s2 dividing s1.

    Parent rows are (i, j, -(i+j) mod s1) over Z_s1; the child keeps rows
    with both i and j below s2, and all three columns collapse by the
    residue map onto Z_s2.
    """
    if s1 < 2:
        raise ValueError(f"s1 must be >= 2, got {s1}")
    if s2 < 1 or s1 % s2:
        raise ValueError(f"s2 must divide s1; got s1={s1}, s2={s2}")
    g = ResidueGroup(s1)
    ij = _grid((s1, s1))
    parent = LevelArray((g,) * 3, _Owned(np.column_stack([ij, -ij.sum(axis=1) % s1])))
    child_rows = tuple(np.flatnonzero((ij < s2).all(axis=1)))
    proj = residue(g, s2)
    pair = NestedPair(parent, child_rows, (proj,) * 3)
    require(pair, "noa", f"zero_sum_noa({s1}, {s2})")
    return pair


def validation_pair(
    m: int, a: LevelArray
) -> tuple[LevelArray, NestedPair, tuple[int, ...]]:
    """Nested pair for computer-model validation: the calibration design
    keeps every multiplication-table column, the field design lives on the
    shared r_1 columns.

    Returns ``(full_parent, shared_pair, shared_columns)`` where
    ``full_parent = A (+) D0`` is an OA(n 2^(m+1), 2^(m+1) c, 2^(m+1)),
    ``shared_columns`` are the Kronecker columns spawned by columns r_1, and
    ``shared_pair`` restricts the parent to those columns with the usual
    truncation-collapsed child.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    require(a, "oa", "validation_pair: input array")
    group = a.uniform_group()
    if not isinstance(group, GaloisGroup) or (group.field.p, group.field.u) != (2, m + 1):
        raise ValueError(f"array must be over GF(2^{m + 1})")
    f = group.field
    d0 = mult_table(f)
    s1 = f.order
    full = kronecker_add(a, d0)
    require(full, "oa", "validation_pair: full parent")
    shared = tuple(j * s1 + t for j in range(a.n_cols) for t in range(4))
    r = _labels(f, m - 2)
    d2_rows = np.union1d(r, _shift(f, _offsets_sum(f, [m, m - 1]), r))
    proj = truncation(f, field_make(2, m))
    # A (+) (the r_1 columns of D0) is subcols(full, shared) cell for cell
    block = (a, subcols(d0, range(4)), (proj,) * len(shared))
    pair = _crossed([block], range(a.n_rows), d2_rows, f"validation_pair(m={m})")
    return full, pair, shared


# ---------------------------------------------------------------------------
# Budgeted search for nested row subsets.
# ---------------------------------------------------------------------------


def search_nested_rows(
    d: LevelArray,
    child_size: int,
    projection: Projection,
    budget: int,
    seed: int | None = None,
) -> tuple[int, ...] | None:
    """Look for a row subset of a difference matrix whose collapse is again
    a difference matrix.

    Subsets are tried in lexicographic order (or uniformly at random when a
    seed is given), at most ``budget`` of them.  Returns the first subset
    that passes ``check_dm`` after collapsing, or None.  Random draws are
    with replacement: a repeated draw counts against the budget but is not
    checked again, and the draws stop once every distinct subset has been
    checked.

    ``d`` is collapsed once; each candidate is then a row gather of the
    collapsed entries, checked by one ``check_dm`` call on a ``LevelArray``
    without row labels.  One call per candidate keeps every candidate under
    the same counting verifier as everything else, and makes the number of
    candidates examined visible to a tracer that counts ``check_dm`` calls
    (the benchmark proves this way that all 1820 subsets of the 16-row GF(16)
    table were tried).  Counting many candidates in one batched ``bincount``
    would be cheaper; it waits until the benchmark reads an
    examined-candidate count instead of counting these calls.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    require(d, "dm", "input is not a difference matrix")
    if projection.source != d.uniform_group():
        raise ValueError("projection source does not match the array alphabet")
    if child_size < 1 or child_size > d.n_rows:
        return None
    if child_size % projection.target.order:
        return None  # child rows must split evenly over the target alphabet
    b = d.n_rows
    if seed is None:
        candidates = itertools.combinations(range(b), child_size)
    else:
        rng = np.random.default_rng(seed)

        def _random_subsets():
            # None marks a repeated draw: it spends budget and is not checked
            seen, total = set(), math.comb(b, child_size)
            while len(seen) < total:
                subset = tuple(sorted(rng.choice(b, size=child_size, replace=False).tolist()))
                if subset in seen:
                    yield None
                else:
                    seen.add(subset)
                    yield subset

        candidates = _random_subsets()
    collapsed = collapse(d, projection)  # collapsing commutes with row selection
    groups, cells = collapsed.groups, collapsed.data
    for subset in itertools.islice(candidates, budget):
        if subset is not None and check_dm(LevelArray(groups, _Owned(cells.take(subset, axis=0)))):
            return subset
    return None
