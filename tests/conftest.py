"""Shared test helpers: independent oracles and randomized inputs.

The oracles here deliberately avoid the library's checker code paths: pair
counting is redone with plain dictionaries, and uniformity is judged by
sorting multisets.  Tests that compare library verdicts against these keep
the two routes honest.  The published inputs of the mixed-level
constructions are built here once for the tests that pin their outputs.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from nestfill.algebra import (
    GaloisGroup,
    ResidueGroup,
    add_table,
    field_make,
    identity_projection,
    neg_table,
    truncation,
)
from nestfill.arrays import LevelArray, NestedPair
from nestfill.catalog import catalog_derive, catalog_get
from nestfill.constructions import full_factorial, mult_table
from nestfill.mixed import mixed_dm_lemma7, noa_theorem9


def naive_pair_counts(data, i, j):
    """Definition-level recount of ordered level pairs in columns (i, j)."""
    counts = {}
    for row in data:
        key = (int(row[i]), int(row[j]))
        counts[key] = counts.get(key, 0) + 1
    return counts


def naive_is_oa(arr: LevelArray) -> bool:
    n, m = arr.shape
    for i in range(m):
        for j in range(i + 1, m):
            si, sj = arr.groups[i].order, arr.groups[j].order
            if n % (si * sj):
                return False
            counts = naive_pair_counts(arr.data, i, j)
            want = n // (si * sj)
            for a in range(si):
                for b in range(sj):
                    if counts.get((a, b), 0) != want:
                        return False
    return True


def naive_is_dm(arr: LevelArray) -> bool:
    g = arr.groups[0]
    add, neg = add_table(g), neg_table(g)
    b, m = arr.shape
    if b % g.order:
        return False
    expected = sorted(list(range(g.order)) * (b // g.order))
    for i, j in itertools.permutations(range(m), 2):
        diffs = sorted(
            int(add[arr.data[r, i], neg[arr.data[r, j]]]) for r in range(b)
        )
        if diffs != expected:
            return False
    return True


def randomize_array(arr: LevelArray, rng: np.random.Generator) -> LevelArray:
    """Row/column permutations plus a random constant per column; all three
    moves preserve both the orthogonal-array and difference-matrix
    properties."""
    tab = add_table(arr.groups[0])
    data = arr.data[rng.permutation(arr.n_rows), :]
    data = data[:, rng.permutation(arr.n_cols)]
    shifts = rng.integers(0, arr.groups[0].order, size=arr.n_cols)
    data = tab[data, shifts[None, :]]
    return LevelArray(arr.groups, data)


def ex12_inputs():
    """The default ``construct thm7`` inputs: Example 12's nested array and
    one difference matrix per column block."""
    noa = catalog_get("ex12_noa").payload
    return noa, [((0,), catalog_derive("d_12_6_6")), ((1,), catalog_get("seberry_12_12_4").payload)]


def thm8_inputs():
    """The default ``construct thm8`` inputs: the Z_6 x GF(2) full factorial,
    Example 11's nested difference matrix and a stacked GF(2) one."""
    g2 = GaloisGroup(field_make(2, 1))
    stacked = LevelArray((g2,) * 2, np.tile(np.array([[0, 0], [0, 1]]), (6, 1)))
    ndm_z2 = NestedPair(stacked, tuple(range(6)), (identity_projection(g2),) * 2)
    a = full_factorial((ResidueGroup(6), g2))
    return a, [((0,), catalog_get("ex11_ndm").payload), ((1,), ndm_z2)]


def ex13_dm() -> LevelArray:
    """Example 13's paired-level difference matrix over GF(4) x GF(3)."""
    return mixed_dm_lemma7(mult_table(field_make(2, 2)), mult_table(field_make(3, 1)), 2)


def ex13_noa(d: LevelArray) -> NestedPair:
    """``noa_theorem9`` on ``d`` with the ``construct thm9`` collapses: GF(4)
    truncated onto GF(2), GF(3) kept."""
    gf4, gf3 = field_make(2, 2), field_make(3, 1)
    return noa_theorem9(d, truncation(gf4, field_make(2, 1)), identity_projection(GaloisGroup(gf3)))


@pytest.fixture(scope="session")
def gf2():
    return field_make(2, 1)


@pytest.fixture(scope="session")
def gf4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return field_make(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return field_make(3, 2)
