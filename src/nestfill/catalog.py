"""Built-in data: published matrices and the entries derived from them.

The matrix entries are stored as text resources in the notation of their
sources (Seberry 1979; Dulmage, Johnson and Mendelsohn 1961; Qian, Ai and
Wu 2009) and read by ``arrays._parse_grid``, so any transcription slip
surfaces as a checker failure at load time rather than a silently wrong
answer.  The difference matrices stored exactly as printed are the rows of
one table, ``_PRINTED_DMS``, read by one loader.  Every entry is verified
by its declared checker the first time it is requested, then cached.  The
default defining polynomials live next to ``algebra.field_make``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Callable

from .algebra import GaloisGroup, Group, ProductGroup, ResidueGroup, component, field_make, modulus, residue
from .arrays import FormatError, LevelArray, NestedPair, _Owned, collapse, require, subcols, subrows
from .constructions import full_factorial
from .mixed import _require_paired


@dataclass(frozen=True)
class CatalogEntry:
    """A named, validated payload plus a one-line source citation.  ``kind``
    is what the payload was verified as, or None when it was checked in
    parts."""

    name: str
    payload: object
    provenance: str
    kind: str | None = None


def _data_text(filename: str) -> str:
    return resources.files(__package__).joinpath("_data").joinpath(filename).read_text()


def _read_grid(groups, filename: str):
    """The data file ``filename`` as a LevelArray; malformed text raises
    ``arrays.FormatError``."""
    return LevelArray.from_text(groups, _data_text(filename), where=filename)


def _failed(name: str) -> str:
    """Head of the error raised when entry ``name`` fails its checker."""
    return f"catalog entry {name!r} failed validation"


def _gf(p: int, u: int) -> GaloisGroup:
    return GaloisGroup(field_make(p, u))


def _entry(name: str, kind: str, obj, cite: str) -> CatalogEntry:
    """Entry ``name`` holding ``obj``, once ``obj`` passes as ``kind``."""
    require(obj, kind, _failed(name))
    return CatalogEntry(name, obj, cite, kind)


#: The difference matrices stored exactly as printed, each in the data file
#: named after it: name -> (alphabet of every column, as a thunk so that no
#: field is built before the entry is requested; citation).
_PRINTED_DMS: dict[str, tuple[Callable[[], Group], str]] = {
    "seberry_12_12_4": (
        lambda: ProductGroup((ResidueGroup(2), ResidueGroup(2))),
        "Seberry (1979), generalized Hadamard matrix GH(12; Z2 x Z2)",
    ),
    "dulmage_12_6_12": (
        lambda: ProductGroup((ResidueGroup(2), ResidueGroup(6))),
        "Dulmage, Johnson and Mendelsohn (1961), over Z2 + Z6",
    ),
    "ex3_d1": (lambda: _gf(2, 3), "Qian, Ai and Wu (2009), Example 3 parent table"),
    "ex3_phi_d2": (lambda: _gf(2, 2), "Qian, Ai and Wu (2009), Example 3 collapsed child"),
    "ex4_phi_d2": (lambda: _gf(2, 2), "Qian, Ai and Wu (2009), Example 4 collapsed child"),
    "ex6_block": (lambda: _gf(3, 2), "Qian, Ai and Wu (2009), Example 6 printed columns"),
}


def _printed_dm(name: str) -> CatalogEntry:
    group, cite = _PRINTED_DMS[name]
    return _entry(name, "dm", _read_grid(group(), name + ".txt"), cite)


# Builders are registered as thunks so that entries are parsed and verified
# on first request; this also keeps module import free of heavy work.
_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {name: partial(_printed_dm, name) for name in _PRINTED_DMS}
_DERIVED: set[str] = set()


def _register(name: str, derived: bool = False):
    def wrap(fn: Callable[[], CatalogEntry]):
        _BUILDERS[name] = fn
        if derived:
            _DERIVED.add(name)
        return fn

    return wrap


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CatalogEntry:
    """Return the validated entry called ``name``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; known: {', '.join(sorted(_BUILDERS))}"
        ) from None
    return builder()


def catalog_derive(name: str):
    """Payload of a derived entry (digit drops, row and column selections)."""
    if name not in _DERIVED:
        raise KeyError(f"no derivation rule registered for {name!r}")
    return catalog_get(name).payload


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


# ---------------------------------------------------------------------------
# Base entries.
# ---------------------------------------------------------------------------


@_register("ex10_a2")
def _ex10_a2() -> CatalogEntry:
    arr = _read_grid(_gf(2, 3), "ex10_a2.txt")
    proj = modulus(field_make(2, 3), field_make(2, 2))
    require(collapse(arr, proj), "oa", _failed("ex10_a2"))
    return CatalogEntry("ex10_a2", arr, "Qian, Ai and Wu (2009), Example 10 child array")


@_register("ex13_d")
def _ex13_d() -> CatalogEntry:
    g3, g4 = _gf(3, 1), _gf(2, 2)
    paired = ProductGroup((g4, g3))
    arr = _read_grid((paired, paired, g4, g4, g3), "ex13_d.txt")
    _require_paired(arr, 2, 2, _failed("ex13_d"))
    return CatalogEntry("ex13_d", arr, "Qian, Ai and Wu (2009), Example 13 mixed matrix")


@_register("ex14_table4")
def _ex14_table4() -> CatalogEntry:
    printed = _read_grid((ResidueGroup(9),) * 4, "ex14_table4.txt")  # levels 1..8
    if not printed.data.all():
        raise FormatError("ex14_table4.txt: level 0; the printed levels run 1..8")
    arr = LevelArray((ResidueGroup(8),) * 4, _Owned(printed.data - 1))
    return _entry(
        "ex14_table4", "oa", arr, "Qian, Ai and Wu (2009), Table 4 relabeled array (levels shifted to 0..7)"
    )


# ---------------------------------------------------------------------------
# Derived entries.
# ---------------------------------------------------------------------------


@_register("d_12_6_6", derived=True)
def _d_12_6_6() -> CatalogEntry:
    base = catalog_get("dulmage_12_6_12").payload
    arr = collapse(base, component(base.groups[0], 1))
    return _entry("d_12_6_6", "dm", arr, "first digits suppressed from dulmage_12_6_12")


@_register("d_12_4_4", derived=True)
def _d_12_4_4() -> CatalogEntry:
    arr = subcols(catalog_get("seberry_12_12_4").payload, (0, 2, 3, 4))
    return _entry("d_12_4_4", "dm", arr, "columns 1, 3, 4, 5 of seberry_12_12_4")


@_register("d_4_4_2_nested", derived=True)
def _d_4_4_2_nested() -> CatalogEntry:
    parent = catalog_get("d_12_4_4").payload
    pair = NestedPair(parent, (0, 1, 3, 4), (component(parent.groups[0], 1),) * 4)
    return _entry("d_4_4_2_nested", "ndm", pair, "rows 1, 2, 4, 5 of d_12_4_4 with the first digit deleted")


@_register("rho3_d_6_6_3", derived=True)
def _rho3_d_6_6_3() -> CatalogEntry:
    base = catalog_get("d_12_6_6").payload
    arr = collapse(subrows(base, (0, 3, 4, 5, 7, 11)), residue(6, 3))
    return _entry("rho3_d_6_6_3", "dm", arr, "rows 1, 4, 5, 6, 8, 12 of d_12_6_6 reduced mod 3")


@_register("ex11_ndm", derived=True)
def _ex11_ndm() -> CatalogEntry:
    parent = catalog_get("d_12_6_6").payload
    pair = NestedPair(parent, (0, 3, 4, 5, 7, 11), (residue(6, 3),) * 6)
    return _entry("ex11_ndm", "ndm", pair, "Qian, Ai and Wu (2009), Example 11 nesting of d_12_6_6")


@_register("ex12_noa", derived=True)
def _ex12_noa() -> CatalogEntry:
    four = ProductGroup((ResidueGroup(2), ResidueGroup(2)))
    parent = full_factorial((ResidueGroup(6), four))
    child_rows = tuple(i * 4 + j for i in range(3) for j in range(2))
    pair = NestedPair(parent, child_rows, (residue(6, 3), component(four, 1)))
    return _entry(
        "ex12_noa", "noa", pair, "Qian, Ai and Wu (2009), Example 12 input: 6x4 full factorial nested in 3x2"
    )
