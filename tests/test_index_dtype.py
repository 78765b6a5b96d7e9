"""Element indices are stored as ``INDEX_DTYPE`` (int32) on every path.

Every path that makes an array or a table is listed here: the catalog, each
``nestfill construct`` verb, the structural operations, the readers, the
alphabet tables and the projection tables.  Each output must be int32 and
read-only, so that no path can go back to int64 unnoticed.  The intake
tests pin how outside data of any dtype comes in, and the alphabet order
bound that keeps every index inside int32.
"""

import numpy as np
import pytest

from nestfill import catalog, cli
from nestfill.algebra import (
    INDEX_DTYPE,
    MAX_ORDER,
    GaloisGroup,
    ProductGroup,
    ResidueGroup,
    add_table,
    component,
    field_make,
    identity_projection,
    modulus,
    mul_table,
    neg_table,
    product_projection,
    residue,
    sub_table,
    truncation,
)
from nestfill.arrays import (
    LevelArray,
    NestedPair,
    _Owned,
    cast_group,
    collapse,
    hstack,
    kronecker_add,
    load_bundle,
    normalize_dm,
    read_array_csv,
    save_bundle,
    subcols,
    subrows,
    write_array_csv,
)
from nestfill.constructions import full_factorial, mult_table as mult_table_array, search_nested_rows, trivial_oa
from nestfill.nsfd import _strata


def assert_index_array(a: np.ndarray) -> None:
    assert a.dtype == INDEX_DTYPE and not a.flags.writeable


def index_arrays(obj) -> list:
    """The data of every LevelArray in ``obj``: a nested pair's parent, child
    and collapsed child, and each array of a tuple of outputs."""
    if isinstance(obj, NestedPair):
        return [obj.parent.data, obj.child().data, obj.collapsed_child().data]
    if isinstance(obj, LevelArray):
        return [obj.data]
    if isinstance(obj, tuple):
        return [d for part in obj for d in index_arrays(part)]
    return []


def test_index_dtype_is_int32():
    assert INDEX_DTYPE == np.int32 and MAX_ORDER == 2**31 - 1


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_catalog_entries_are_int32(name):
    found = index_arrays(catalog.catalog_get(name).payload)
    assert found
    for data in found:
        assert_index_array(data)


#: the smallest values of the keys that have no default
REQUIRED = {
    "theorem1": ["m=2"],
    "theorem2": ["m=2"],
    "theorem3": ["m=2"],
    "raohamming": ["s=4", "k=2"],
    "qtw": ["s1=8", "s2=4"],
    "zerosum": ["s1=6", "s2=3"],
    "trivial": ["s=4"],
    "multtable": ["s=4"],
}


@pytest.mark.parametrize("name", cli.CONSTRUCTIONS)
def test_construct_verbs_at_their_defaults_are_int32(name):
    keys = cli.CONSTRUCTIONS[name][1]
    required = sorted(k for k, (_, default) in keys.items() if default is ...)
    assert sorted(p.split("=")[0] for p in REQUIRED.get(name, [])) == required
    obj, _ = cli._build(name, REQUIRED.get(name, []))
    found = index_arrays(obj)
    assert found
    for data in found:
        assert_index_array(data)


@pytest.fixture(scope="module")
def gf4():
    return field_make(2, 2)


def test_structural_ops_are_int32(gf4):
    g4 = GaloisGroup(gf4)
    mt = mult_table_array(gf4)
    z2z2 = ProductGroup((ResidueGroup(2), ResidueGroup(2)))
    outputs = [
        mt,
        trivial_oa(g4),
        full_factorial((g4, ResidueGroup(3))),
        collapse(mt, truncation(gf4, field_make(2, 1))),
        kronecker_add(mt, subcols(mt, [1, 2])),
        normalize_dm(mt),
        subrows(mt, [3, 0]),
        subcols(mt, [2, 0]),
        hstack([mt, mt]),
        cast_group(mt, z2z2),
        _strata(np.array([[0.1, 0.9], [0.6, 0.4]]), [2, 2]),
    ]
    for a in outputs:
        assert_index_array(a.data)


def test_readers_are_int32(tmp_path, gf4):
    mt = mult_table_array(gf4)
    write_array_csv(str(tmp_path / "a.csv"), mt)
    assert_index_array(read_array_csv(str(tmp_path / "a.csv"), mt.groups).data)
    save_bundle(str(tmp_path / "b"), mt, "dm")
    loaded, _ = load_bundle(str(tmp_path / "b"))
    assert_index_array(loaded.data)
    assert_index_array(LevelArray.from_text(GaloisGroup(gf4), "0 1\nx x+1\n").data)


ALPHABETS = [
    GaloisGroup(field_make(2, 1)),
    GaloisGroup(field_make(2, 3)),
    GaloisGroup(field_make(3, 2)),
    ResidueGroup(1),
    ResidueGroup(6),
    ProductGroup((ResidueGroup(2), GaloisGroup(field_make(3, 1)))),
]


@pytest.mark.parametrize("g", ALPHABETS, ids=lambda g: g.describe())
def test_alphabet_tables_are_int32(g):
    for table in (add_table(g), neg_table(g), sub_table(g)):
        assert_index_array(table)
    if isinstance(g, GaloisGroup):
        assert_index_array(mul_table(g.field))


def test_projection_tables_are_int32(gf4):
    gf2 = field_make(2, 1)
    pg = ProductGroup((GaloisGroup(gf4), ResidueGroup(6)))
    projections = [
        identity_projection(GaloisGroup(gf4)),
        truncation(gf4, gf2),
        modulus(gf4, gf2),
        residue(6, 3),
        component(pg, 1),
        product_projection([truncation(gf4, gf2), residue(6, 2)]),
    ]
    for p in projections:
        assert_index_array(p.np_table())


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int16, np.int32, np.uint32, np.int64, np.uint64, float])
def test_outside_data_of_any_dtype_is_copied_to_int32(dtype):
    buf = np.array([[0, 1], [1, 0]], dtype=dtype)
    a = LevelArray((ResidueGroup(2),) * 2, buf)
    assert_index_array(a.data)
    assert not np.shares_memory(a.data, buf)
    assert a.data.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_negative_entries_of_narrow_dtypes_are_refused(dtype):
    # a negative int8 read as unsigned is 255, inside an alphabet of order 256
    buf = np.zeros((1, 2), dtype=dtype)
    buf[0, 1] = -1
    g256 = GaloisGroup(field_make(2, 8))
    with pytest.raises(ValueError, match="^entry at row 0, column 1 is outside its alphabet GF"):
        LevelArray((g256, g256), buf)


@pytest.mark.parametrize("value", [2**31, 2**32 + 1, 2**63 - 1, 2**64 - 1, -(2**63), -(2**32)])
def test_entries_that_int32_would_wrap_are_refused(value):
    # 2**32 + 1 wraps to 1 and -(2**32) to 0, both inside Z_2
    buf = np.zeros((2, 1), dtype=np.uint64 if value >= 2**63 else np.int64)
    buf[1, 0] = value
    says = "^entry at row 1, column 0 is outside its alphabet Z_2$"
    with pytest.raises(ValueError, match=says):
        LevelArray((ResidueGroup(2),), buf)
    if abs(value) < 2**53:  # a float that holds the value exactly
        with pytest.raises(ValueError, match=says):
            LevelArray((ResidueGroup(2),), buf.astype(float))


def test_owned_buffer_of_another_dtype_is_refused():
    with pytest.raises(TypeError, match="owned buffer must be int32"):
        LevelArray((ResidueGroup(2),), _Owned(np.zeros((2, 1), dtype=np.int64)))


def test_row_and_column_selections_skip_a_second_admission(monkeypatch):
    """Entries taken from an admitted array under the same alphabets are
    not checked again; every other owned buffer still is."""
    gf4, gf16 = field_make(2, 2), field_make(2, 4)
    d = mult_table_array(gf16)
    seen = []
    real = LevelArray._admit
    monkeypatch.setattr(LevelArray, "_admit", lambda self, name, data: seen.append(data.shape) or real(self, name, data))
    out = [subrows(d, [3, 1]), subcols(d, [5, 0, 2])]
    assert search_nested_rows(d, 4, truncation(gf16, gf4), budget=50) is None
    assert seen == [(16, 16)]  # the collapse, not the 50 candidates
    assert out[0].data.tolist() == d.data[[3, 1]].tolist() and out[1].data.tolist() == d.data[:, [5, 0, 2]].tolist()
    with pytest.raises(ValueError, match="^entry at row 1, column 0 is outside its alphabet Z_2$"):
        LevelArray((ResidueGroup(2),), _Owned(np.array([[0], [2]], dtype=INDEX_DTYPE)))


def test_a_labelled_bundle_admits_its_data_once(tmp_path, monkeypatch):
    """The row labels are attached to the data read from the CSV without a
    second admission of that data."""
    prefix = str(tmp_path / "m")
    assert cli.main(["construct", "multtable", "s=16", "--out", prefix]) == 0
    seen = []
    real = LevelArray._admit
    monkeypatch.setattr(LevelArray, "_admit", lambda self, name, data: seen.append(data.shape) or real(self, name, data))
    loaded, _ = load_bundle(prefix)
    assert seen == [(16, 16)]
    assert loaded == mult_table_array(field_make(2, 4))


def test_alphabet_orders_are_bounded_by_the_index_dtype():
    assert ResidueGroup(MAX_ORDER).order == MAX_ORDER
    assert ProductGroup((ResidueGroup(2**15), ResidueGroup(2**16 - 1))).order < MAX_ORDER
    for s in (MAX_ORDER + 1, 2**40, 10**18):
        with pytest.raises(ValueError, match="exceeds the largest alphabet order"):
            ResidueGroup(s)
    with pytest.raises(ValueError, match="^product order 2147483648 exceeds the largest alphabet order"):
        ProductGroup((ResidueGroup(2**16), ResidueGroup(2**15)))
