"""Catalog entries: load-time verification, derivations, round trips."""

import numpy as np
import pytest

from nestfill.algebra import field_make
from nestfill.arrays import NestedPair, check_dm, load_bundle, save_bundle
from nestfill.catalog import (
    CatalogEntry,
    catalog_derive,
    catalog_get,
    catalog_names,
)


def test_all_entries_load_and_validate():
    for name in catalog_names():
        entry = catalog_get(name)
        assert isinstance(entry, CatalogEntry)
        assert entry.provenance


def test_unknown_entry():
    with pytest.raises(KeyError, match="unknown catalog entry"):
        catalog_get("no_such_matrix")


def test_seberry_row_two():
    arr = catalog_get("seberry_12_12_4").payload
    assert arr.texts()[1] == "00 00 00 01 01 01 11 11 11 10 10 10".split()


def test_dulmage_row_three():
    arr = catalog_get("dulmage_12_6_12").payload
    assert arr.texts()[2] == "00 02 10 01 15 12".split()


def test_ex10_a2_shape_and_first_rows():
    arr = catalog_get("ex10_a2").payload
    assert arr.shape == (16, 5)
    assert arr.texts()[1] == ["1", "0", "1", "x", "x+1"]


def test_derived_d_12_6_6():
    arr = catalog_derive("d_12_6_6")
    assert arr.groups[0].order == 6
    assert check_dm(arr)


def test_derived_rho3():
    arr = catalog_derive("rho3_d_6_6_3")
    assert arr.shape == (6, 6) and arr.groups[0].order == 3
    assert check_dm(arr)


def test_derived_nested_pair():
    pair = catalog_derive("d_4_4_2_nested")
    assert isinstance(pair, NestedPair)
    assert pair.child_rows == (0, 1, 3, 4)


def test_derive_rejects_base_entries():
    with pytest.raises(KeyError, match="derivation rule"):
        catalog_derive("seberry_12_12_4")


def test_default_irreducibles_known():
    assert field_make(2, 3).irreducible == (1, 1, 0, 1)
    with pytest.raises(ValueError, match="^no default defining polynomial for GF\\(11\\^3\\)$"):
        field_make(11, 3)


def test_entries_round_trip_through_files(tmp_path):
    for name in catalog_names():
        payload = catalog_get(name).payload
        prefix = str(tmp_path / name)
        save_bundle(prefix, payload)
        loaded, _ = load_bundle(prefix)
        arr = payload.parent if isinstance(payload, NestedPair) else payload
        got = loaded.parent if isinstance(loaded, NestedPair) else loaded
        assert got.groups == arr.groups
        assert np.array_equal(got.data, arr.data)
        if isinstance(payload, NestedPair):
            assert loaded.child_rows == payload.child_rows


def test_corrupted_data_fails_fast(monkeypatch):
    # a corrupted resource must be rejected at load time
    src = catalog_get("dulmage_12_6_12").payload  # cached original
    text = "\n".join(" ".join(r) for r in src.texts())
    text = text.replace("15", "14", 1)
    import nestfill.catalog as cat

    real = cat._data_text
    monkeypatch.setattr(cat, "_data_text", lambda name: text + "\n" if name == "dulmage_12_6_12.txt" else real(name))
    cat.catalog_get.cache_clear()
    with pytest.raises(ValueError, match="dulmage_12_6_12"):
        cat.catalog_get("dulmage_12_6_12")
    monkeypatch.undo()
    cat.catalog_get.cache_clear()
    assert cat.catalog_get("dulmage_12_6_12").payload is not None


@pytest.mark.parametrize(
    "col,new,part",
    [(1, "01", "paired block"), (2, "1", "component 1 with trailing block"), (4, "1", "component 2 with trailing block")],
)
def test_ex13_d_one_cell_slip_fails_naming_the_part(monkeypatch, col, new, part):
    # a change to row 1 of the printed Example 13 matrix, in each of its parts
    import nestfill.catalog as cat

    real = cat._data_text
    lines = real("ex13_d.txt").splitlines()
    cells = lines[0].split()
    cells[col] = new
    text = "\n".join([" ".join(cells)] + lines[1:]) + "\n"
    monkeypatch.setattr(cat, "_data_text", lambda name: text if name == "ex13_d.txt" else real(name))
    cat.catalog_get.cache_clear()
    with pytest.raises(ValueError, match=f"'ex13_d' failed validation: {part}"):
        cat.catalog_get("ex13_d")
    monkeypatch.undo()
    cat.catalog_get.cache_clear()
    assert cat.catalog_get("ex13_d").payload is not None
