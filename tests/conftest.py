"""Shared test helpers: the counting reference and randomized inputs.

Every verdict the tests compare against is ``bench/reference.py``'s, loaded
here by file path.  It imports nothing from nestfill and builds its own
tables and element texts, so a wrong table, codec or kernel cannot be wrong
on both sides of a comparison.  The published inputs of the mixed-level
constructions are built here once for the tests that pin their outputs.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from nestfill.algebra import (
    GaloisGroup,
    ResidueGroup,
    add_table,
    field_make,
    group_to_dict,
    identity_projection,
    truncation,
)
from nestfill.arrays import LevelArray, NestedPair, Verdict
from nestfill.catalog import catalog_derive, catalog_get
from nestfill.constructions import full_factorial, mult_table
from nestfill.mixed import mixed_dm_lemma7, noa_theorem9


_SPEC = importlib.util.spec_from_file_location("reference", Path(__file__).parents[1] / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)


def _text(g, index: int) -> str:
    spec = group_to_dict(g)  # a residue ring's text is its value: no Z_s table is built
    return str(index) if spec["kind"] == "zmod" else reference.alphabet(spec).text(index)


def _oa_failure(data, groups):
    n, m = data.shape
    s = [g.order for g in groups]
    if m == 1:
        v = reference.oa_violation(data, s)
        if v and n % s[0]:
            return f"{n} rows not divisible by {s[0]} levels", None
        if v:
            return "single column is not level-balanced", {"level": _text(groups[0], v[2]), "count": v[4], "expected": v[5]}
    # pair by pair: on the whole array, oa_violation tests a leading column's
    # divisibility by every later column before it counts any of its pairs
    for i, j in itertools.combinations(range(m), 2):
        v = reference.oa_violation(data[:, [i, j]], [s[i], s[j]])
        if v and v[2] is None:
            return f"{n} rows not divisible by {s[i]}*{s[j]} level combinations", {"columns": (i, j)}
        if v:
            levels = (_text(groups[i], v[2]), _text(groups[j], v[3]))
            return "unbalanced level pair", {"columns": (i, j), "levels": levels, "count": v[4], "expected": v[5]}


def _dm_failure(data, groups, alphabet):
    specs = [group_to_dict(g) for g in groups]
    if any(spec != specs[0] for spec in specs):
        raise ValueError("columns do not share a single alphabet; this operation needs one")
    alphabet = alphabet or reference.alphabet(specs[0])
    v = reference.dm_violation(data, alphabet)
    if v and v[2] is None:
        return f"{len(data)} rows not divisible by group order {alphabet.order}", None
    if v:
        witness = {"columns": v[:2], "element": _text(groups[0], v[2]), "count": v[3], "expected": v[4]}
        return "unbalanced column difference", witness


def reference_verdict(obj, kind: str, alphabet=None) -> Verdict:
    """The verdict of ``obj`` as ``kind`` (oa, dm, noa or ndm), counted by
    ``bench/reference.py``.  ``alphabet`` stands in for a DM's reference
    alphabet, with its ``order`` and ``sub``.  A nested pair's child is
    collapsed by the projection tables, once the reference accepts each."""
    if kind in ("oa", "dm"):
        n, m = obj.data.shape
        if n == 0 or m == 0:
            return Verdict(False, kind, f"empty array: {n} rows, {m} columns")
        failure = _oa_failure(obj.data, obj.groups) if kind == "oa" else _dm_failure(obj.data, obj.groups, alphabet)
        return Verdict(False, kind, *failure) if failure else Verdict(True, kind)
    inner = {"noa": "oa", "ndm": "dm"}[kind]
    parent = reference_verdict(obj.parent, inner)
    if not parent:
        return Verdict(False, kind, f"parent fails: {parent.reason}", parent.witness)
    tables = [np.asarray(p.table) for p in obj.projections]
    for p, table in zip(obj.projections, tables):
        assert reference.is_projection(table, *(reference.alphabet(group_to_dict(g)) for g in (p.source, p.target)))
    child = reference.collapse(obj.parent.data[list(obj.child_rows)], tables)
    child = reference_verdict(LevelArray([p.target for p in obj.projections], child), inner)
    if not child:
        return Verdict(False, kind, f"collapsed child fails: {child.reason}", child.witness)
    return Verdict(True, kind)


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
