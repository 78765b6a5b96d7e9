"""The public surface: one entry point and one argument spelling per operation."""

import subprocess
import sys
import types

import pytest

import nestfill
from nestfill import algebra, arrays, catalog, cli, constructions, mixed, nsfd
from nestfill.algebra import truncation
from nestfill.arrays import load_bundle

MODULES = [algebra, arrays, catalog, constructions, mixed, nsfd]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_only_public_names_of_its_modules():
    exported = {n: v for n, v in vars(nestfill).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported
    for name, value in exported.items():
        homes = [m for m in MODULES if getattr(m, name, None) is value and name in getattr(m, "__all__", [name])]
        assert homes, name


# wrappers of a method or of an operator, helpers that only tests called,
# and aliases of a class
REMOVED = [
    *[(algebra, n) for n in ("gf_add", "gf_sub", "gf_mul", "group_add", "group_sub", "project", "rho", "poly_divmod")],
    (algebra.Field, "sub"),
    *[(arrays.LevelArray, n) for n in ("entry", "entry_text", "row_texts")],
    *[(catalog, n) for n in ("default_irreducible", "_small_dm")],
    (algebra.ResidueGroup, "parse_index"),
    # second names of the exit-3 and exit-4 classes
    (constructions, "ConstructionError"),
    (arrays, "BundleFormatError"),
]


@pytest.mark.parametrize("owner, name", REMOVED, ids=[n for _, n in REMOVED])
def test_second_entry_points_are_gone(owner, name):
    # an inherited method is gone from the class that no longer defines it
    assert not (name in vars(owner) if isinstance(owner, type) else hasattr(owner, name))
    assert not hasattr(nestfill, name)


def test_a_built_then_loaded_projection_is_validated_once(tmp_path):
    """The constructors and the bundle loader spell a truncation alike, so
    the loader is answered from the constructor's cache entry."""
    truncation.cache_clear()
    prefix = str(tmp_path / "b")
    assert cli.main(["construct", "theorem1", "m=2", "--out", prefix]) == 0
    built = truncation.cache_info().misses
    pair, _ = load_bundle(prefix)
    assert (built, truncation.cache_info().misses) == (1, 1)
    assert all(p is truncation(p.source.field, p.target.field) for p in pair.projections)


def test_algebra_builds_a_default_field_without_the_rest_of_the_package():
    """``algebra`` holds the default polynomials it reads: loaded from its
    file alone in a fresh process, it builds GF(8), and no other module of
    the package is loaded."""
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('algebra', {algebra.__file__!r})\n"
        "m = sys.modules['algebra'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(m)\n"
        "assert m.field_make(2, 3).irreducible == (1, 1, 0, 1)\n"
        "print(sorted(n for n in sys.modules if n.startswith('nestfill')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
