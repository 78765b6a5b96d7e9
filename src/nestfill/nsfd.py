"""From nested orthogonal arrays to nested space-filling point sets.

The pipeline: relabel the levels of a verified nested pair with
group-consecutive integers, expand each level into a block of Latin
hypercube ranks, jitter the ranks into the unit cube, and read off the
child design as the rows belonging to the nested subarray.

Bivariate stratification is the strength-two OA property of the binned
design (Owen 1992, Tang 1993): every column pair of a design is uniform on
its ``s_j x s_k`` grid exactly when the design binned into its level grid
passes ``check_oa``.  ``nestfill lhd`` checks the full design and the child
that way; :func:`strat_counts` is the per-pair view of the same counts.

Labeling is canonical: within each column the level groups (the fibers of
that column's projection) are ordered by the target element's lexicographic
index, sources within a group by their own index, and group ``i`` receives
labels ``(i-1)e + 1 .. ie``.  This makes the relabeled array reproducible
cell for cell.

Randomness contract: one 64-bit seed drives everything through
``numpy.random.SeedSequence`` spawn keys, so results are bit-reproducible
and independent of evaluation order.  The design pipeline in
:func:`nested_design` assigns ranks deterministically (occurrences take
ranks in row order) and spends the seed on the jitter only; consequently
designs from different seeds floor back to the identical rank matrix.
Seeded within-level rank permutation is available separately through
``oa_lhd``.

:class:`RelabeledArray`, :class:`Design` and :class:`NestedDesign` are
immutable values like the arrays and nested pairs of ``arrays``: each copies
any buffer handed to it from outside into a read-only array (the pipeline's
own fresh buffers are taken over), and they compare and hash by content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import INDEX_DTYPE, ResidueGroup, _integer
from .arrays import LevelArray, NestedPair, _frozen, _Owned, _Value, require

__all__ = [
    "RelabeledArray",
    "Design",
    "NestedDesign",
    "relabel",
    "oa_lhd",
    "to_design",
    "extract_nested",
    "nested_design",
    "strat_counts",
    "is_uniform",
]

_PERM_KEY = 1  # spawn-key namespaces under the master seed
_JITTER_KEY = 2


@dataclass(frozen=True, eq=False)
class RelabeledArray(_Value):
    """Integer-relabeled parent array of a nested pair.

    ``labels`` holds values ``1..s_j`` per column; ``group_sizes[j]`` is the
    fiber size ``e_j = s_j1 / s_j2`` of column j's projection.
    """

    labels: np.ndarray
    level_counts: tuple[int, ...]
    group_sizes: tuple[int, ...]
    pair: NestedPair

    _arrays = {"labels": np.int64}

    @property
    def n_rows(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.labels.shape[1])


def relabel(p: NestedPair) -> RelabeledArray:
    """Relabel parent levels 1..s_j so that each projection fiber occupies a
    consecutive label block.

    Levels collapsing to the same child level form one group; groups are
    ordered by collapsed-level index, levels inside a group by their own
    index, and group i takes labels ``(i-1)e_j + 1 .. i e_j``.
    """
    require(p, "noa", "input does not verify as nested")
    cols, sizes, counts = [], [], []
    for j, proj in enumerate(p.projections):
        s1 = proj.source.order
        label_of = np.empty(s1, dtype=np.int64)
        label_of[np.argsort(proj.np_table(), kind="stable")] = np.arange(1, s1 + 1)
        cols.append(label_of[p.parent.data[:, j]])
        sizes.append(s1 // proj.target.order)
        counts.append(s1)
    return RelabeledArray(_Owned(np.column_stack(cols)), tuple(counts), tuple(sizes), p)


def oa_lhd(r: RelabeledArray, seed: int | None = None) -> np.ndarray:
    """Expand labels into Latin hypercube ranks, one permutation of 1..n per
    column.

    The ``q = n / s_j`` occurrences of level ``l`` receive the ranks
    ``(l-1)q + 1 .. lq``: one stable sort of the column lists the rows level
    by level, in row order within a level, and sorted position ``t`` takes
    rank ``1 + t``.  A seed permutes these offsets within each level block,
    in an order drawn from the per-(column, level) stream of the seed.
    """
    n, m = r.labels.shape
    if seed is not None:
        seed = _integer(seed, "seed", 0)
    ranks = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        offsets = np.arange(n)
        if seed is not None:
            s = r.level_counts[j]
            for level, block in enumerate(offsets.reshape(s, n // s), start=1):
                ss = np.random.SeedSequence(seed, spawn_key=(_PERM_KEY, j, level))
                block[:] = block[np.random.default_rng(ss).permutation(block.size)]
        ranks[np.argsort(r.labels[:, j], kind="stable"), j] = 1 + offsets
    return ranks


@dataclass(frozen=True, eq=False)
class Design(_Value):
    """Points in the unit cube obtained from a rank matrix.

    ``points[i, j]`` lies in ``[(ranks[i,j]-1)/n, ranks[i,j]/n)``, so the
    one-dimensional Latin hypercube property holds by construction.
    """

    points: np.ndarray
    ranks: np.ndarray
    seed: int | None
    midpoint: bool
    relabeled: RelabeledArray | None = None

    _arrays = {"points": np.float64, "ranks": np.int64}

    @property
    def n_rows(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.points.shape[1])


@dataclass(frozen=True, eq=False)
class NestedDesign(_Value):
    """A full design together with the nested child point set."""

    full: Design
    child_points: np.ndarray
    child_rows: tuple[int, ...]

    _arrays = {"child_points": np.float64}


def to_design(
    ranks: np.ndarray,
    *,
    seed: int | None = None,
    midpoint: bool = False,
    relabeled: RelabeledArray | None = None,
) -> Design:
    """Map ranks to points via ``x = (rank - u) / n``.

    ``midpoint`` uses u = 1/2; otherwise ``u`` is drawn uniformly from (0, 1]
    using the seed's jitter stream, keeping every point inside its own rank
    cell and hence inside [0, 1).  ``ranks`` is copied.
    """
    ranks = _frozen(ranks, np.int64, "ranks")
    n, m = ranks.shape
    bad = (np.sort(ranks, axis=0) != np.arange(1, n + 1)[:, None]).any(axis=0)
    if bad.any():
        raise ValueError(f"column {int(bad.argmax())} is not a permutation of 1..{n}")
    if midpoint:
        if seed is not None:
            raise ValueError("midpoint designs take no seed")
        u = 0.5
    else:
        if seed is None:
            raise ValueError("jittered designs need a seed (or pass midpoint=True)")
        seed = _integer(seed, "seed", 0)
        ss = np.random.SeedSequence(seed, spawn_key=(_JITTER_KEY,))
        u = 1.0 - np.random.default_rng(ss).random((n, m))  # in (0, 1]
    points = (ranks - u) / n
    return Design(_Owned(points), _Owned(ranks), seed, midpoint, relabeled)


def extract_nested(d: Design, p: NestedPair) -> NestedDesign:
    """Child point set: the rows of the design at the pair's child rows."""
    if d.relabeled is None or d.relabeled.pair != p:
        raise ValueError("design was not generated from this nested pair")
    return NestedDesign(d, _Owned(d.points[list(p.child_rows)]), p.child_rows)


def nested_design(
    p: NestedPair, *, seed: int | None = None, midpoint: bool = False
) -> NestedDesign:
    """Full pipeline: relabel, rank deterministically, jitter, extract.

    Ranks are assigned in row order regardless of the seed (the seed feeds
    only the jitter), so designs from different seeds occupy the same rank
    cells and differ only within them.
    """
    r = relabel(p)
    d = to_design(_Owned(oa_lhd(r)), seed=seed, midpoint=midpoint, relabeled=r)
    return extract_nested(d, p)


def strat_counts(
    points: np.ndarray, cols: tuple[int, int], grid: tuple[int, int]
) -> np.ndarray:
    """Occupancy counts of the bivariate projection on a g1 x g2 grid."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise ValueError("empty design")
    g1, g2 = grid
    if g1 < 1 or g2 < 1:
        raise ValueError("grid dimensions must be at least 1")
    j, k = cols
    a = np.minimum((points[:, j] * g1).astype(np.int64), g1 - 1)
    b = np.minimum((points[:, k] * g2).astype(np.int64), g2 - 1)
    return np.bincount(a * g2 + b, minlength=g1 * g2).reshape(g1, g2)


def is_uniform(counts: np.ndarray) -> bool:
    return int(counts.min()) == int(counts.max())


def _strata(points: np.ndarray, orders: Sequence[int]) -> LevelArray:
    """The design binned into its level grid: column ``j`` over Z_{s_j},
    cell ``min(floor(x * s_j), s_j - 1)`` as :func:`strat_counts` bins it."""
    s = np.asarray(orders, dtype=INDEX_DTYPE)
    cells = np.minimum((points * s).astype(INDEX_DTYPE), s - 1)
    return LevelArray(tuple(ResidueGroup(int(k)) for k in s), _Owned(cells))
