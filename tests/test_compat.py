"""Bundles written by an earlier nestfill, kept as they were written.

``tests/data/compat`` holds one small bundle of each alphabet kind (gf,
zmod, product), each projection kind (identity, truncation, modulus,
residue, component, product) and a multiplication table with row labels.
These files are never edited: a reader that stops loading one of them, or
loads it to other cells, breaks bundles that users already hold.
"""

from pathlib import Path

import numpy as np
import pytest

from nestfill import cli
from nestfill.arrays import NestedPair, load_bundle
from nestfill.catalog import catalog_get

CORPUS = Path(__file__).parent / "data" / "compat"

# bundle name -> (kind, how the bundle was made: a construct call or an entry)
BUNDLES = {
    "theorem1_m2": ("ndm", ("theorem1", ["m=2"])),
    "qtw_s1_8_s2_4_k2": ("noa", ("qtw", ["s1=8", "s2=4", "k=2"])),
    "zerosum_s1_6_s2_3": ("noa", ("zerosum", ["s1=6", "s2=3"])),
    "d_4_4_2_nested": ("ndm", "d_4_4_2_nested"),
    "thm9": ("noa", ("thm9", [])),
    "multtable_s8": ("dm", ("multtable", ["s=8"])),
}


def _fresh(how):
    if isinstance(how, str):
        return catalog_get(how).payload
    return cli._build(*how)[0]


def test_the_corpus_is_every_bundle_listed():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(BUNDLES)
    assert sorted(p.stem for p in CORPUS.glob("*.csv")) == sorted(BUNDLES)


@pytest.mark.parametrize("name", BUNDLES)
def test_old_bundle_loads_to_a_fresh_build_and_verifies(name, capsys):
    kind, how = BUNDLES[name]
    obj, saved = load_bundle(str(CORPUS / name))
    fresh = _fresh(how)
    assert saved == kind
    assert obj == fresh
    old, new = (x.parent if isinstance(x, NestedPair) else x for x in (obj, fresh))
    assert np.array_equal(old.data, new.data) and old.groups == new.groups
    assert old.row_labels == new.row_labels
    if isinstance(fresh, NestedPair):
        assert obj.child_rows == fresh.child_rows and obj.projections == fresh.projections
    assert cli.main(["verify", kind, str(CORPUS / name)]) == 0
    assert capsys.readouterr().out == f"{kind.upper()}: PASS\n"
