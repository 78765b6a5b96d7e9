"""The per-alphabet text codec and the file formats built on it.

The element path (``text(element(i))`` and ``index(parse(text))``) stays the
reference: every answer of the reader ``arrays._parse_grid`` (the codec
lookup of ``parse_indices``, then ``parse_index`` for the rest) is compared
with it, canonical texts for every index of every alphabet here, and random
spellings drawn by Hypothesis.
Written files are pinned by SHA-1 digests taken before the codec existed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestfill import algebra
from nestfill.algebra import (
    DEFAULT_IRREDUCIBLES,
    MAX_ORDER,
    GaloisGroup,
    ProductGroup,
    ResidueGroup,
    field_make,
    text_codec,
)
from nestfill.arrays import FormatError, LevelArray, _parse_grid, read_array_csv, write_array_csv
from nestfill.cli import main

FIELDS = [GaloisGroup(field_make(p, u)) for p, u in sorted(DEFAULT_IRREDUCIBLES)]
RESIDUES = [ResidueGroup(s) for s in (1, 2, 3, 6, 10, 12, 17)]
GF4, GF9 = GaloisGroup(field_make(2, 2)), GaloisGroup(field_make(3, 2))
Z2, Z3, Z6, Z12 = (ResidueGroup(s) for s in (2, 3, 6, 12))
PRODUCTS = [
    ProductGroup((Z2, Z6)),
    ProductGroup((Z2, Z2)),
    ProductGroup((GF4, Z3)),
    ProductGroup((GF9, Z12)),
    ProductGroup((ProductGroup((Z2, Z2)), Z3)),
]
GROUPS = FIELDS + RESIDUES + PRODUCTS


def _ids(groups):
    return [g.describe() for g in groups]


def _read(g, texts):
    """The indices the reader gives ``texts``, read as one column over ``g``."""
    return _parse_grid((g,), [[t] for t in texts], "cell")[:, 0].tolist()


@pytest.mark.parametrize("g", GROUPS, ids=_ids(GROUPS))
def test_codec_matches_element_path(g):
    texts, index = text_codec(g)
    assert len(texts) == len(index) == g.order
    for i in range(g.order):
        t = g.text(g.element(i))
        assert texts[i] == g.text_at(i) == t
        assert g.index(g.parse(t)) == i
    assert _read(g, texts) == list(range(g.order))


SOME = [FIELDS[0], RESIDUES[2], PRODUCTS[0]]


@pytest.mark.parametrize("g", SOME, ids=_ids(SOME))
def test_text_at_out_of_range_raises(g):
    for bad in (-1, g.order):
        with pytest.raises(ValueError, match="out of range"):
            g.text_at(bad)


def _reference_parse(g, text):
    try:
        return g.index(g.parse(text))
    except ValueError:
        return ValueError


def _codec_parse(g, text):
    """The reader's index for one cell, or ``ValueError`` if it refuses the
    cell (its ``FormatError`` is a ``ValueError``)."""
    try:
        return _read(g, [text])[0]
    except ValueError:
        return ValueError


@pytest.mark.parametrize(
    "g, text",
    [
        (GF4, "1+x"),
        (GF4, "x^1"),
        (GF4, " x + 1"),
        (GF4, "x+x"),
        (GF4, "3x"),
        (FIELDS[2], "x^3"),
        (FIELDS[2], "x^99999999999"),
        (FIELDS[2], "x^2+x^2+x^2"),
        (GF9, "x+x+x"),
        (Z12, "07"),
        (Z12, " 7"),
        (Z12, "12"),
        (Z12, "-1"),
        (PRODUCTS[0], "(1)(5)"),
        (PRODUCTS[0], "16"),
        (PRODUCTS[2], "(x+1)2"),
        (PRODUCTS[2], "(1+x)2"),
        (PRODUCTS[2], "(x+1"),
        (PRODUCTS[3], "(2x+1)(11)"),
        (PRODUCTS[3], "x11"),
        (PRODUCTS[4], "(01)2"),
        (PRODUCTS[4], "012"),
        (Z2, ""),
    ],
)
def test_non_canonical_and_invalid_spellings(g, text):
    assert _codec_parse(g, text) == _reference_parse(g, text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_spellings_agree_with_element_path(data):
    g = data.draw(st.sampled_from(GROUPS))
    canonical = st.integers(0, g.order - 1).map(g.text_at)
    text = data.draw(st.one_of(st.text(alphabet="0123456789x^+() -", max_size=9), canonical))
    assert _codec_parse(g, text) == _reference_parse(g, text)


@st.composite
def level_arrays(draw):
    groups = tuple(draw(st.lists(st.sampled_from(GROUPS), min_size=1, max_size=5)))
    n = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = np.column_stack([rng.integers(0, g.order, size=n) for g in groups])
    return LevelArray(groups, data.reshape(n, len(groups)))


@settings(max_examples=100, deadline=None)
@given(level_arrays())
def test_csv_round_trip(a):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.csv")
        write_array_csv(path, a)
        assert read_array_csv(path, a.groups) == a


def test_texts_match_entry_texts():
    a = LevelArray(PRODUCTS[3:4] + FIELDS[3:4], [[0, 1], [107, 15], [50, 7]])
    want = [[g.text_at(v) for g, v in zip(a.groups, row)] for row in a.data.tolist()]
    assert a.texts() == want


def test_reader_accepts_non_canonical_cells(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("c1,c2\n1+x,(1)(5)\n x^1 ,00\n")
    a = read_array_csv(str(path), (GF4, PRODUCTS[0]))
    assert a.texts() == [["x+1", "15"], ["x", "00"]]


@pytest.mark.parametrize(
    "text, match",
    [
        ("c1,c2\nx,00\nx,0?\n", r"row 2, column 2"),
        ("c1,c2\nx,00,1\n", r"row 1 has 3 cells, expected 2"),
        ("c1\nx\n", r"header has 1 columns, expected 2"),
    ],
)
def test_reader_format_errors(tmp_path, text, match):
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=match):
        read_array_csv(str(path), (GF4, PRODUCTS[0]))


@pytest.mark.parametrize(
    "text, match",
    [
        # bad cells at (row 3, column 1) and (row 1, column 2)
        ("c1,c2,c3\nx,?,1\n1,2,x\n?,3,0\n", r"row 3, column 1: "),
        # column 3 shares column 1's alphabet, column 2 does not
        ("c1,c2,c3\nx,0,?\n1,?,x\n", r"row 2, column 2: "),
        ("c1,c2,c3\nx,0,1\n1,5,?\n?,0,?\n", r"row 3, column 1: "),
    ],
)
def test_reader_names_the_first_bad_cell_across_alphabets(tmp_path, text, match):
    """The lowest column, then the lowest row, whichever alphabet is read first."""
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=match):
        read_array_csv(str(path), (GF4, Z6, GF4))


def test_reader_accepts_non_canonical_cells_in_a_shared_alphabet(tmp_path):
    canonical, spelled = tmp_path / "a.csv", tmp_path / "b.csv"
    canonical.write_text("c1,c2,c3\nx+1,5,x\nx,0,x+1\n")
    spelled.write_text("c1,c2,c3\nx+1,5,x^1\nx,0,1+x\n")
    want = read_array_csv(str(canonical), (GF4, Z6, GF4))
    assert read_array_csv(str(spelled), (GF4, Z6, GF4)) == want
    assert want.texts() == [["x+1", "5", "x"], ["x", "0", "x+1"]]


# ---------------------------------------------------------------------------
# residue rings are read and written as decimal integers, never listed
# ---------------------------------------------------------------------------

ZMAX = ResidueGroup(MAX_ORDER)


@pytest.fixture
def no_residue_codec(monkeypatch):
    """Fail any attempt to list the texts of a residue ring."""
    real = algebra.text_codec

    def guarded(g):
        assert not isinstance(g, ResidueGroup), f"listed {g.describe()}"
        return real(g)

    monkeypatch.setattr(algebra, "text_codec", guarded)


def test_largest_residue_ring_round_trips_without_listing(tmp_path, no_residue_codec):
    a = LevelArray((ZMAX, GF4, Z6), [[0, 1, 5], [MAX_ORDER - 1, 3, 0], [2**30, 2, 3]])
    want = [["0", "1", "5"], [str(MAX_ORDER - 1), "x+1", "0"], [str(2**30), "x", "3"]]
    assert a.texts() == want
    assert [ZMAX.text_at(v) for v in a.data[:, 0].tolist()] == [row[0] for row in want]
    assert ZMAX.text_at(MAX_ORDER - 1) == str(MAX_ORDER - 1)
    with pytest.raises(ValueError, match="out of range"):
        ZMAX.text_at(MAX_ORDER)
    path = str(tmp_path / "a.csv")
    write_array_csv(path, a)
    assert read_array_csv(path, a.groups) == a
    assert ZMAX.parse_index(" 0007") == 7
    for bad, says in ((str(MAX_ORDER), "is not an element of"), ("7x", "invalid literal"), (7, "is not element text")):
        with pytest.raises(ValueError, match=says):
            ZMAX.parse_index(bad)


def _reference_grid(groups, rows, where):
    """Cell by cell through the element path, in column-major order."""
    for j, g in enumerate(groups):
        for r, row in enumerate(rows):
            try:
                g.index(g.parse(row[j]))
            except ValueError as e:
                return f"{where}: row {r + 1}, column {j + 1}: {e}"
    return [[g.index(g.parse(t)) for g, t in zip(groups, row)] for row in rows]


RESIDUE_SPELLINGS = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from([str(MAX_ORDER - 1), str(MAX_ORDER), "10" * 12, "1_0", " 7", "07", "+3", "\u0661", "", "x", "1e1"]),
    st.text(alphabet="0123456789 +-_x", max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residue_cells_parse_as_the_element_path_does(data):
    """Any spelling ``int`` reads into range parses; anything else fails with
    the element path's message, and of several bad cells the lowest column,
    then the lowest row, is named, across a field column between them."""
    groups = (data.draw(st.sampled_from([ZMAX, Z12, ResidueGroup(1)])), GF4, ZMAX)
    n = data.draw(st.integers(1, 4))
    gf4_cell = st.sampled_from(["0", "1", "x", "x+1", "1+x", "?"])
    rows = [[data.draw(RESIDUE_SPELLINGS), data.draw(gf4_cell), data.draw(RESIDUE_SPELLINGS)] for _ in range(n)]
    want = _reference_grid(groups, rows, "grid")
    try:
        got = _parse_grid(groups, rows, "grid").tolist()
    except FormatError as e:
        got = str(e)
    assert got == want


@pytest.mark.parametrize("text", ["", "\n  \n", "00 01\n11"])
def test_from_text_format_errors(text):
    with pytest.raises(FormatError, match="grid"):
        LevelArray.from_text(PRODUCTS[1], text, where="grid")


# ---------------------------------------------------------------------------
# golden bytes of written files (digests recorded before the codec existed)
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@pytest.mark.parametrize(
    "argv, files",
    [
        (
            ["construct", "theorem4", "a=raohamming:s=8,k=2", "ndm=theorem1:m=2"],
            {
                "b.csv": "6bbeb6c0ead6a8cfa53128c50b6a35a88ee90d60",
                "b.json": "3beddbbf71ce68ea6e4938dbd70efa4241be5b87",
            },
        ),
        (
            ["construct", "theorem1", "m=2"],  # a sidecar with row labels
            {
                "b.csv": "059f1a4e4791823fd6e56b453a813c7b23e1dee4",
                "b.json": "56491bb42b7b6964f9450d010f77645a404063e4",
            },
        ),
        (
            ["export", "dulmage_12_6_12"],  # a product alphabet
            {
                "b.csv": "6627f3556bd702a44e1df2e30dd470b88ec728cb",
                "b.json": "d949ee2958d094653d5d12fe8db1069a6d08e261",
            },
        ),
    ],
)
def test_written_bundle_digests(tmp_path, capsys, argv, files):
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert {name: _sha((tmp_path / name).read_bytes()) for name in files} == files


@pytest.mark.parametrize(
    "flags, files",
    [
        (
            ["--seed", "7"],
            {
                "d_dl.csv": "aabc3cf27d51c416feacfef0ee67b07da4d8274d",
                "d_dh.csv": "ba42f6938480f236eeb4c2bb50fd8dcbbf20e3e8",
                "d_meta.json": "185d6156e692108c2139bb00853618b1b74a0515",
            },
        ),
        (
            ["--midpoint"],
            {
                "d_dl.csv": "9569582a736260b6d4a83c25d189ae973cf374dc",
                "d_dh.csv": "d4dc61508cc4666e7cf3e1fd9da431e9a74deed4",
                "d_meta.json": "5fda174648d3630a38adf4485ff6e5d75c276169",
            },
        ),
    ],
)
def test_written_design_digests(tmp_path, monkeypatch, capsys, flags, files):
    """``lhd`` output, digests recorded before the row-at-a-time writer."""
    monkeypatch.chdir(tmp_path)  # the metadata records the bundle prefix as given
    assert main(["construct", "theorem4", "a=raohamming:s=8,k=2", "ndm=theorem1:m=2", "--out", "b"]) == 0
    assert main(["lhd", "b", *flags, "--out", "d"]) == 0
    assert {name: _sha((tmp_path / name).read_bytes()) for name in files} == files


@pytest.mark.parametrize("flags", [["--seed", "7"], ["--midpoint"]])
def test_lhd_stdout_digest(tmp_path, monkeypatch, flags):
    """``lhd`` stdout (the per-pair stratification lines), digest recorded
    while each pair was still counted on its own grid."""
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "theorem4", "a=raohamming:s=8,k=2", "ndm=theorem1:m=2", "--out", "b"]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["lhd", "b", *flags, "--out", "d"]) == 0
    assert _sha(out.getvalue().encode()) == "0ba03834eabe475506d7ca02bd9ca716020010a3"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("dulmage_12_6_12", "e335035fa145e000ba67c445230f69a21627ecb0"),
        ("ex13_d", "a61b2d69ef4134dce0e01a9f95f348f0c5f4b15c"),
        ("seberry_12_12_4", "fd2a59f2c0798c6e290326483d042c158301e07e"),
    ],
)
def test_catalog_show_digest(name, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", "show", name]) == 0
    assert _sha(out.getvalue().encode()) == digest
