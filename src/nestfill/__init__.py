"""Nested orthogonal arrays, nested difference matrices, and nested
space-filling designs, built exactly and verified by brute-force counting.

The construction families follow Qian, Ai and Wu (2009), The Annals of
Statistics 37(6A) 3616-3643, and the modulus-projection family of Qian,
Tang and Wu (2009).  Every constructed object is checked against the
definitions before it is returned.
"""

from .algebra import (
    Field,
    GaloisGroup,
    GfElem,
    Group,
    ProductGroup,
    Projection,
    ResidueGroup,
    component,
    field_make,
    identity_projection,
    modulus,
    product_projection,
    residue,
    truncation,
)
from .arrays import (
    LevelArray,
    NestedPair,
    Verdict,
    VerificationError,
    cast_group,
    check_dm,
    check_nested,
    check_oa,
    collapse,
    hstack,
    kronecker_add,
    load_bundle,
    normalize_dm,
    require,
    save_bundle,
    subcols,
    subrows,
)
from .catalog import CatalogEntry, catalog_derive, catalog_get, catalog_names
from .constructions import (
    full_factorial,
    label_sequence,
    mult_table,
    ndm_p3,
    ndm_sec34,
    ndm_theorem1,
    ndm_theorem2,
    ndm_theorem3,
    noa_theorem4,
    noa_theorem5,
    qtw_noa,
    rao_hamming_oa,
    search_nested_rows,
    trivial_oa,
    validation_pair,
    zero_sum_noa,
)
from .mixed import mixed_dm_lemma7, noa_theorem9, ww_from_ndms, ww_from_noas
from .nsfd import (
    Design,
    NestedDesign,
    RelabeledArray,
    extract_nested,
    is_uniform,
    nested_design,
    oa_lhd,
    relabel,
    strat_counts,
    to_design,
)

__version__ = "0.1.0"
