"""Built-in data: published matrices, default polynomials, derived entries.

The matrix entries are stored as text resources in the notation of their
sources (Seberry 1979; Dulmage, Johnson and Mendelsohn 1961; Qian, Ai and
Wu 2009) and parsed by the element parsers, so any transcription slip
surfaces as a checker failure at load time rather than a silently wrong
answer.  Every entry is verified by its declared checker the first time it
is requested, then cached.

The resource directory can be overridden with the ``NESTFILL_CATALOG``
environment variable, which is mainly useful for testing corrupted data
handling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable

#: Default defining polynomials, constant term first.  The x^u + x + 1
#: convention is used wherever that trinomial is irreducible; the remaining
#: entries are standard choices, and every one is re-verified by trial
#: division when the field is built.
DEFAULT_IRREDUCIBLES: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),  # x+1
    (2, 2): (1, 1, 1),  # x^2+x+1
    (2, 3): (1, 1, 0, 1),  # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),  # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5+x^2+1 (x^5+x+1 is reducible)
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6+x+1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),  # x^7+x+1
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),  # x^8+x^4+x^3+x+1
    (3, 1): (1, 1),  # x+1
    (3, 2): (2, 1, 1),  # x^2+x+2
    (3, 3): (1, 2, 0, 1),  # x^3+2x+1
    (3, 4): (2, 1, 0, 0, 1),  # x^4+x+2
    (5, 1): (1, 1),
    (7, 1): (1, 1),
}


def default_irreducible(p: int, u: int) -> tuple[int, ...]:
    try:
        return DEFAULT_IRREDUCIBLES[(p, u)]
    except KeyError:
        raise ValueError(f"no default defining polynomial for GF({p}^{u})") from None


@dataclass(frozen=True)
class CatalogEntry:
    """A named, validated payload plus a one-line source citation."""

    name: str
    payload: object
    provenance: str


def _data_text(filename: str) -> str:
    override = os.environ.get("NESTFILL_CATALOG")
    if override:
        with open(os.path.join(override, filename)) as fh:
            return fh.read()
    return resources.files(__package__).joinpath("_data").joinpath(filename).read_text()


def _read_grid(groups, filename: str):
    """The data file ``filename`` as a LevelArray; malformed text raises
    ``arrays.FormatError``."""
    from .arrays import LevelArray

    return LevelArray.from_text(groups, _data_text(filename), where=filename)


def _require(verdict, name: str) -> None:
    from .arrays import VerificationError

    if not verdict:
        raise VerificationError(f"catalog entry {name!r} failed validation: {verdict.describe()}")


# Builders are registered as thunks so that entries are parsed and verified
# on first request; this also keeps module import free of heavy work.
_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {}
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


def _groups():
    # local import keeps module import cheap and cycle-free
    from .algebra import GaloisGroup, ProductGroup, ResidueGroup, field_make

    z2, z6 = ResidueGroup(2), ResidueGroup(6)
    g4 = GaloisGroup(field_make(2, 2))
    g8 = GaloisGroup(field_make(2, 3))
    g9 = GaloisGroup(field_make(3, 2))
    g3 = GaloisGroup(field_make(3, 1))
    return z2, z6, g3, g4, g8, g9, ProductGroup


@_register("seberry_12_12_4")
def _seberry() -> CatalogEntry:
    from .arrays import check_dm

    z2, _, _, _, _, _, Product = _groups()
    arr = _read_grid(Product((z2, z2)), "seberry_12_12_4.txt")
    _require(check_dm(arr), "seberry_12_12_4")
    return CatalogEntry("seberry_12_12_4", arr, "Seberry (1979), generalized Hadamard matrix GH(12; Z2 x Z2)")


@_register("dulmage_12_6_12")
def _dulmage() -> CatalogEntry:
    from .arrays import check_dm

    z2, z6, *_ , Product = _groups()
    arr = _read_grid(Product((z2, z6)), "dulmage_12_6_12.txt")
    _require(check_dm(arr), "dulmage_12_6_12")
    return CatalogEntry(
        "dulmage_12_6_12", arr, "Dulmage, Johnson and Mendelsohn (1961), over Z2 + Z6"
    )


@_register("ex10_a2")
def _ex10_a2() -> CatalogEntry:
    from .algebra import field_make, modulus
    from .arrays import check_oa, collapse

    *_, g8, _, _ = _groups()
    arr = _read_grid(g8, "ex10_a2.txt")
    proj = modulus(field_make(2, 3), field_make(2, 2))
    _require(check_oa(collapse(arr, proj)), "ex10_a2")
    return CatalogEntry("ex10_a2", arr, "Qian, Ai and Wu (2009), Example 10 child array")


@_register("ex3_d1")
def _ex3_d1() -> CatalogEntry:
    from .arrays import check_dm

    *_, g8, _, _ = _groups()
    arr = _read_grid(g8, "ex3_d1.txt")
    _require(check_dm(arr), "ex3_d1")
    return CatalogEntry("ex3_d1", arr, "Qian, Ai and Wu (2009), Example 3 parent table")


def _small_dm_fixture(name: str, filename: str, group, cite: str) -> CatalogEntry:
    from .arrays import check_dm

    arr = _read_grid(group, filename)
    _require(check_dm(arr), name)
    return CatalogEntry(name, arr, cite)


@_register("ex3_phi_d2")
def _ex3_phi_d2() -> CatalogEntry:
    _, _, _, g4, _, _, _ = _groups()
    return _small_dm_fixture(
        "ex3_phi_d2", "ex3_phi_d2.txt", g4, "Qian, Ai and Wu (2009), Example 3 collapsed child"
    )


@_register("ex4_phi_d2")
def _ex4_phi_d2() -> CatalogEntry:
    _, _, _, g4, _, _, _ = _groups()
    return _small_dm_fixture(
        "ex4_phi_d2", "ex4_phi_d2.txt", g4, "Qian, Ai and Wu (2009), Example 4 collapsed child"
    )


@_register("ex6_block")
def _ex6_block() -> CatalogEntry:
    _, _, _, _, _, g9, _ = _groups()
    return _small_dm_fixture(
        "ex6_block", "ex6_block.txt", g9, "Qian, Ai and Wu (2009), Example 6 printed columns"
    )


@_register("ex13_d")
def _ex13_d() -> CatalogEntry:
    from .arrays import check_dm, subcols

    _, _, g3, g4, _, _, Product = _groups()
    paired = Product((g4, g3))
    groups = (paired, paired, g4, g4, g3)
    arr = _read_grid(groups, "ex13_d.txt")
    _require(check_dm(subcols(arr, (0, 1))), "ex13_d (paired block)")
    _require(check_dm(subcols(arr, (2, 3))), "ex13_d (4-level block)")
    return CatalogEntry("ex13_d", arr, "Qian, Ai and Wu (2009), Example 13 mixed matrix")


@_register("ex14_table4")
def _ex14_table4() -> CatalogEntry:
    from .arrays import FormatError, LevelArray, check_oa
    from .algebra import ResidueGroup

    printed = _read_grid((ResidueGroup(9),) * 4, "ex14_table4.txt")  # levels 1..8
    if not printed.data.all():
        raise FormatError("ex14_table4.txt: level 0; the printed levels run 1..8")
    arr = LevelArray((ResidueGroup(8),) * 4, printed.data - 1)
    _require(check_oa(arr), "ex14_table4")
    return CatalogEntry(
        "ex14_table4", arr, "Qian, Ai and Wu (2009), Table 4 relabeled array (levels shifted to 0..7)"
    )


# ---------------------------------------------------------------------------
# Derived entries.
# ---------------------------------------------------------------------------


@_register("d_12_6_6", derived=True)
def _d_12_6_6() -> CatalogEntry:
    from .algebra import component
    from .arrays import check_dm, collapse

    base = catalog_get("dulmage_12_6_12").payload
    proj = component(base.groups[0], 1)
    arr = collapse(base, proj)
    _require(check_dm(arr), "d_12_6_6")
    return CatalogEntry("d_12_6_6", arr, "first digits suppressed from dulmage_12_6_12")


@_register("d_12_4_4", derived=True)
def _d_12_4_4() -> CatalogEntry:
    from .arrays import check_dm, subcols

    base = catalog_get("seberry_12_12_4").payload
    arr = subcols(base, (0, 2, 3, 4))
    _require(check_dm(arr), "d_12_4_4")
    return CatalogEntry("d_12_4_4", arr, "columns 1, 3, 4, 5 of seberry_12_12_4")


@_register("d_4_4_2_nested", derived=True)
def _d_4_4_2_nested() -> CatalogEntry:
    from .algebra import component
    from .arrays import NestedPair, check_nested

    parent = catalog_get("d_12_4_4").payload
    proj = component(parent.groups[0], 1)
    pair = NestedPair(parent, (0, 1, 3, 4), (proj,) * 4)
    _require(check_nested(pair, "ndm"), "d_4_4_2_nested")
    return CatalogEntry(
        "d_4_4_2_nested", pair, "rows 1, 2, 4, 5 of d_12_4_4 with the first digit deleted"
    )


@_register("rho3_d_6_6_3", derived=True)
def _rho3_d_6_6_3() -> CatalogEntry:
    from .algebra import residue
    from .arrays import check_dm, collapse, subrows

    base = catalog_get("d_12_6_6").payload
    arr = collapse(subrows(base, (0, 3, 4, 5, 7, 11)), residue(6, 3))
    _require(check_dm(arr), "rho3_d_6_6_3")
    return CatalogEntry(
        "rho3_d_6_6_3", arr, "rows 1, 4, 5, 6, 8, 12 of d_12_6_6 reduced mod 3"
    )


@_register("ex11_ndm", derived=True)
def _ex11_ndm() -> CatalogEntry:
    from .algebra import residue
    from .arrays import NestedPair, check_nested

    parent = catalog_get("d_12_6_6").payload
    pair = NestedPair(parent, (0, 3, 4, 5, 7, 11), (residue(6, 3),) * 6)
    _require(check_nested(pair, "ndm"), "ex11_ndm")
    return CatalogEntry(
        "ex11_ndm", pair, "Qian, Ai and Wu (2009), Example 11 nesting of d_12_6_6"
    )


@_register("ex12_noa", derived=True)
def _ex12_noa() -> CatalogEntry:
    from .algebra import component, residue
    from .arrays import NestedPair, check_nested
    from .constructions import full_factorial

    z2, z6, *_ , Product = _groups()
    four = Product((z2, z2))
    parent = full_factorial((z6, four))
    child_rows = tuple(i * 4 + j for i in range(3) for j in range(2))
    pair = NestedPair(parent, child_rows, (residue(6, 3), component(four, 1)))
    _require(check_nested(pair, "noa"), "ex12_noa")
    return CatalogEntry(
        "ex12_noa",
        pair,
        "Qian, Ai and Wu (2009), Example 12 input: 6x4 full factorial nested in 3x2",
    )
