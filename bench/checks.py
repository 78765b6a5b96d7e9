"""Output checks of each workload, made by the parent process with the
reference in ``reference.py``.  Each check returns a list of problems; an
empty list means the outputs are correct.

The worker dumps the cold-pass outputs of its operations (``<op>/meta.json``
plus one ``.npy`` file per array) and the workload inputs
(``input_<name>``); the ``cli-bundle`` check reads the files the ``nestfill``
verbs wrote.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

import reference as ref

GF = {
    4: ref.gf_spec(2, 2, "x^2+x+1"),
    8: ref.gf_spec(2, 3, "x^3+x+1"),
    9: ref.gf_spec(3, 2, "x^2+x+2"),
    16: ref.gf_spec(2, 4, "x^4+x+1"),
    27: ref.gf_spec(3, 3, "x^3+2x+1"),
    32: ref.gf_spec(2, 5, "x^5+x^2+1"),
    64: ref.gf_spec(2, 6, "x^6+x+1"),
    81: ref.gf_spec(3, 4, "x^4+x+2"),
    128: ref.gf_spec(2, 7, "x^7+x+1"),
}
# the wide families pin their own defining polynomials
GF32_SEC34 = GF32_THM3 = ref.gf_spec(2, 5, "x^5+x^4+x^3+x^2+1")
GF64_THM3 = ref.gf_spec(2, 6, "x^6+x^3+1")


# ---------------------------------------------------------------------------
# Decoding the worker's dumps.
# ---------------------------------------------------------------------------


class Arr:
    """An array of element indices with one alphabet spec per column."""

    def __init__(self, data, specs: list[dict], labels=None):
        self.data = np.asarray(data, dtype=np.int64)
        self.specs = specs
        self.alph = [ref.alphabet(s) for s in specs]
        self.orders = [a.order for a in self.alph]
        self.labels = labels
        self.shape = self.data.shape


class Nested:
    def __init__(self, meta: dict, arrays):
        self.parent = decode(meta["parent"], arrays)
        self.rows = np.asarray(arrays[meta["rows"]], dtype=np.int64)
        self.projections = meta["projections"]
        self.tables = [np.asarray(p["table"], dtype=np.int64) for p in self.projections]
        self.targets = [ref.alphabet(p["target"]) for p in self.projections]
        self.child = self.parent.data[self.rows]
        self.collapsed = ref.collapse(self.child, self.tables)


def decode(meta, arrays):
    if not isinstance(meta, dict):
        return meta
    kind = meta["type"]
    if kind == "array":
        return Arr(arrays[meta["data"]], meta["groups"], meta["row_labels"])
    if kind == "nested":
        return Nested(meta, arrays)
    if kind == "seq":
        return [decode(m, arrays) for m in meta["items"]]
    if kind == "entry":
        return decode(meta["payload"], arrays)
    if kind == "design":
        return {"points": arrays[meta["points"]], "child_points": arrays[meta["child_points"]],
                "child_rows": meta["child_rows"]}
    return meta  # verdicts stay plain dicts


def load(directory: str, name: str):
    path = os.path.join(directory, name)
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    arrays = {f[:-4]: np.load(os.path.join(path, f)) for f in os.listdir(path) if f.endswith(".npy")}
    return decode(meta, arrays)


# ---------------------------------------------------------------------------
# Definition-level checks of the object kinds.
# ---------------------------------------------------------------------------


def _uniform(a: Arr, what: str, probs: list) -> ref.Alphabet | None:
    if any(s != a.specs[0] for s in a.specs):
        probs.append(f"{what}: columns do not share one alphabet")
        return None
    return a.alph[0]


def oa(a: Arr, what: str, shape=None) -> list[str]:
    probs = []
    if shape and a.shape != tuple(shape):
        probs.append(f"{what}: shape {a.shape}, claimed {tuple(shape)}")
    v = ref.oa_violation(a.data, a.orders)
    if v is not None:
        probs.append(f"{what}: not an orthogonal array of strength two, first violation {v}")
    return probs


def dm(a: Arr, what: str, shape=None) -> list[str]:
    probs = []
    if shape and a.shape != tuple(shape):
        probs.append(f"{what}: shape {a.shape}, claimed {tuple(shape)}")
    g = _uniform(a, what, probs)
    if g is not None and ref.dm_violation(a.data, g) is not None:
        probs.append(f"{what}: not a difference matrix, first violation {ref.dm_violation(a.data, g)}")
    return probs


def nested(p: Nested, kind: str, what: str, shape=None, child=None) -> list[str]:
    """Parent and collapsed child both pass ``kind`` ("oa" or "dm"), and every
    column's collapse is a balanced, additive map onto its target."""
    probs = []
    if shape and p.parent.shape != tuple(shape):
        probs.append(f"{what}: parent shape {p.parent.shape}, claimed {tuple(shape)}")
    if child is not None and len(p.rows) != child:
        probs.append(f"{what}: {len(p.rows)} child rows, claimed {child}")
    if len(set(p.rows.tolist())) != len(p.rows):
        probs.append(f"{what}: repeated child rows")
    for j, (pr, src) in enumerate(zip(p.projections, p.parent.specs)):
        if pr["source"] != src or not ref.is_projection(p.tables[j], p.parent.alph[j], p.targets[j]):
            probs.append(f"{what}: projection of column {j} is not a level collapse of its alphabet")
            break
    probs += (oa if kind == "oa" else dm)(p.parent, what + " parent")
    child_arr = Arr(p.collapsed, [t.spec for t in p.targets])
    probs += (oa if kind == "oa" else dm)(child_arr, what + " collapsed child")
    return probs


def table_cells(a: Arr, field: dict, what: str) -> list[str]:
    """A multiplication-table array: cell (r, c) is label_r * element_c."""
    g = ref.alphabet(field)
    if any(s != field for s in a.specs) or a.labels is None:
        return [f"{what}: not labelled columns over the expected field"]
    want = g.mul[np.asarray(a.labels)[:, None], np.arange(a.shape[1])[None, :]]
    return [] if np.array_equal(a.data, want) else [f"{what}: cells differ from the field products"]


def truncates_to(p: Nested, field: dict, target: dict, what: str) -> list[str]:
    src, tgt = ref.alphabet(field), ref.alphabet(target)
    want = ref.truncation_table(src, tgt)
    if any(pr["target"] != target or not np.array_equal(t, want) for pr, t in zip(p.projections, p.tables)):
        return [f"{what}: collapse is not truncation onto GF({tgt.order})"]
    return []


def linear_form(field: dict, k: int, dir_size: int) -> np.ndarray:
    """Rao-Hamming entries: rows are all of GF(s)^k and columns the direction
    vectors over the first ``dir_size`` elements whose last nonzero
    coordinate is the unit; both enumerate the first coordinate fastest."""
    g = ref.alphabet(field)
    s = g.order
    rows = (np.arange(s**k)[:, None] // s ** np.arange(k)) % s
    cand = (np.arange(dir_size**k)[:, None] // dir_size ** np.arange(k)) % dir_size
    last = np.array([next((c for c in reversed(v) if c), 0) for v in cand.tolist()])
    dirs = cand[last == 1]
    out = np.zeros((s**k, len(dirs)), dtype=np.int64)
    for i in range(k):
        out = g.add[out, g.mul[rows[:, i][:, None], dirs[:, i][None, :]]]
    return out


def rao_hamming(a: Arr, field: dict, k: int, what: str) -> list[str]:
    s = ref.alphabet(field).order
    probs = oa(a, what, (s**k, (s**k - 1) // (s - 1)))
    if any(sp != field for sp in a.specs) or not np.array_equal(a.data, linear_form(field, k, s)):
        probs.append(f"{what}: cells differ from the linear forms")
    return probs


def qtw(p: Nested, f1: dict, f2: dict, k: int, what: str) -> list[str]:
    g1, g2 = ref.alphabet(f1), ref.alphabet(f2)
    s1, s2 = g1.order, g2.order
    probs = nested(p, "oa", what, (s1**k, (s2**k - 1) // (s2 - 1)), s2**k)
    if not np.array_equal(p.parent.data, linear_form(f1, k, s2)):
        probs.append(f"{what}: parent cells differ from the linear forms")
    coords = (np.arange(s1**k)[:, None] // s1 ** np.arange(k)) % s1
    if not np.array_equal(p.rows, np.flatnonzero(np.all(coords < s2, axis=1))):
        probs.append(f"{what}: child rows are not the vectors over the small field")
    want = ref.modulus_table(g1, g2)
    if any(not np.array_equal(t, want) for t in p.tables):
        probs.append(f"{what}: collapse is not reduction modulo the small field's polynomial")
    return probs


def ndm_table(p: Nested, field: dict, target: dict, what: str, shape, child) -> list[str]:
    return (nested(p, "dm", what, shape, child) + table_cells(p.parent, field, what)
            + truncates_to(p, field, target, what))


def design(d: dict, p: Nested, what: str) -> list[str]:
    """An OA-based Latin hypercube: one point per rank cell in every column,
    child points are the child rows, and both stratify evenly on the level
    grids of the parent and of the collapsed child."""
    probs = []
    pts, child = d["points"], d["child_points"]
    if pts.shape != p.parent.shape or not ref.latin_hypercube(pts):
        probs.append(f"{what}: not a Latin hypercube of the parent's size")
    if list(d["child_rows"]) != p.rows.tolist() or not np.array_equal(child, pts[p.rows]):
        probs.append(f"{what}: child points are not the child rows of the design")
    if not ref.stratified(pts, p.parent.orders):
        probs.append(f"{what}: full design does not stratify on the parent level grids")
    if not ref.stratified(child, [t.order for t in p.targets]):
        probs.append(f"{what}: child design does not stratify on the collapsed level grids")
    return probs


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def gf_construct(d: str) -> list[str]:
    return (
        rao_hamming(load(d, "rao_hamming_gf16_k2"), GF[16], 2, "rao_hamming_oa(GF(16), 2)")
        + rao_hamming(load(d, "rao_hamming_gf27_k2"), GF[27], 2, "rao_hamming_oa(GF(27), 2)")
        + qtw(load(d, "qtw_gf32_gf8_k2"), GF[32], GF[8], 2, "qtw_noa(GF(32), GF(8), 2)")
        + qtw(load(d, "qtw_gf8_gf4_k3"), GF[8], GF[4], 3, "qtw_noa(GF(8), GF(4), 3)")
        + dm(load(d, "mult_table_gf128"), "mult_table(GF(128))", (128, 128))
        + table_cells(load(d, "mult_table_gf128"), GF[128], "mult_table(GF(128))")
        + ndm_table(load(d, "ndm_p3_gf81_to_gf27"), GF[81], GF[27], "ndm_p3(gf81_to_gf27)", (81, 9), 27)
        + ndm_table(load(d, "ndm_theorem3_m4"), GF64_THM3, GF[16], "ndm_theorem3(4)", (64, 8), 32)
    )


def _verdict(v: dict, ok: bool, what: str) -> list[str]:
    return [] if v.get("type") == "verdict" and v["ok"] is ok else [f"{what}: verdict {v}, reference says ok={ok}"]


def verify_large(d: str, defect_rows) -> list[str]:
    big, dmx, defect = load(d, "input_big"), load(d, "input_dm"), load(d, "input_defect")
    rh, ndm = load(d, "input_rh"), load(d, "input_ndm")
    probs = []
    if not np.array_equal(np.sort(defect.data[:, -1]), np.sort(big.data[:, -1])) or \
            int((defect.data != big.data).sum()) != 2:
        probs.append("the planted defect is not one swapped pair in the last column")
    probs += _verdict(load(d, "check_oa_4096x136"), ref.oa_violation(big.data, big.orders) is None,
                      "check_oa(4096x136)")
    probs += oa(big, "RH(GF(16),2) (+) 8 columns of mult_table(GF(16))", (4096, 136))
    probs += _verdict(load(d, "check_dm_256x128"), True, "check_dm(256x128)")
    probs += dm(dmx, "mult_table(GF(16)) (+) 8 columns of mult_table(GF(16))", (256, 128))
    noa = load(d, "noa_theorem4_4096x68")
    probs += nested(noa, "oa", "noa_theorem4", (4096, 68), 2048)
    g = ref.alphabet(GF[16])
    want = g.add[rh.data[:, None, :, None], ndm.parent.data[None, :, None, :]].reshape(4096, 68)
    if not np.array_equal(noa.parent.data, want):
        probs.append("noa_theorem4: parent differs from the additive Kronecker product")
    rows = (np.arange(256)[:, None] * 16 + ndm.rows[None, :]).ravel()
    if not np.array_equal(noa.rows, rows):
        probs.append("noa_theorem4: child rows are not the NDM child rows in every block")
    probs += _verdict(load(d, "check_nested_4096x68"), True, "check_nested(4096x68)")
    # the failing verdict must carry the reference's first violation
    v = load(d, "check_oa_defect")
    want = ref.oa_violation(defect.data, defect.orders)
    if want is None or want[2] is None:
        probs.append(f"planted defect at rows {defect_rows} is not caught by the reference")
    else:
        i, j, li, lj, count, expected = want
        witness = {"columns": [i, j], "levels": [g.text(li), g.text(lj)], "count": count, "expected": expected}
        if v.get("ok") is not False or v.get("witness") != witness:
            probs.append(f"check_oa(defect): verdict {v}, reference first violation {witness}")
    return probs


CLAIMS = {
    # catalog entries: kind, shape, child rows (nested only)
    "catalog_seberry_12_12_4": ("dm", (12, 12)),
    "catalog_dulmage_12_6_12": ("dm", (12, 6)),
    "catalog_ex3_d1": ("dm", (8, 4)),
    "catalog_ex3_phi_d2": ("dm", (4, 4)),
    "catalog_ex4_phi_d2": ("dm", (4, 4)),
    "catalog_ex6_block": ("dm", (9, 6)),
    "catalog_ex14_table4": ("oa", (64, 4)),
    "catalog_d_12_6_6": ("dm", (12, 6)),
    "catalog_d_12_4_4": ("dm", (12, 4)),
    "catalog_rho3_d_6_6_3": ("dm", (6, 6)),
    "catalog_d_4_4_2_nested": ("ndm", (12, 4), 4),
    "catalog_ex11_ndm": ("ndm", (12, 6), 6),
    "catalog_ex12_noa": ("noa", (24, 2), 6),
    "zero_sum_6_3": ("noa", (36, 3), 9),
    "ex8": ("noa", (64, 4), 32),
    "ex10": ("noa", (512, 40), 128),
    "thm7": ("noa", (288, 18), 72),
    "thm7_b": ("noa", (288, 19), 72),
    "thm8": ("noa", (144, 8), 72),
    "thm8_b": ("noa", (144, 9), 72),
    "thm9": ("noa", (144, 5), 72),
}

# theorem NDMs: field, target, shape, child rows
THEOREM_NDMS = {
    "ndm_theorem1_m2": (GF[8], GF[4], (8, 4), 4),
    "ndm_theorem1_m3": (GF[16], GF[8], (16, 4), 8),
    "ndm_theorem2_m2": (GF[16], GF[4], (16, 4), 4),
    "ndm_theorem2_m3": (GF[32], GF[8], (32, 4), 8),
    "ndm_theorem3_m2": (GF[16], GF[4], (16, 8), 8),
    "ndm_theorem3_m3": (GF32_THM3, GF[8], (32, 8), 16),
    "ndm_sec34_a8cols": (GF32_SEC34, GF[4], (32, 8), 8),
    "ndm_sec34_b16cols": (GF32_SEC34, GF[4], (32, 16), 16),
    "ndm_p3_gf27_to_gf9": (GF[27], GF[9], (27, 9), 9),
    "ndm_p3_gf81_to_gf27": (GF[81], GF[27], (81, 9), 27),
}

DESIGNS = {"design_ex8": "ex8", "design_ex10": "ex10", "design_zero_sum_6_3": "zero_sum_6_3",
           "design_thm7": "thm7", "design_thm8_b": "thm8_b", "design_thm9": "thm9"}


def _claimed(obj, claim, what):
    kind, shape = claim[0], claim[1]
    if kind in ("dm", "oa"):
        return (dm if kind == "dm" else oa)(obj, what, shape)
    return nested(obj, kind[1:], what, shape, claim[2])


def _blocks(a: Arr, what: str) -> list[str]:
    """A mixed difference matrix: each run of equal-alphabet columns is one."""
    probs = []
    for _, cols in itertools.groupby(range(a.shape[1]), key=lambda j: json.dumps(a.specs[j])):
        cols = list(cols)
        probs += dm(Arr(a.data[:, cols], [a.specs[c] for c in cols]), f"{what} columns {cols}")
    return probs


def small_families(d: str) -> list[str]:
    probs = []
    for name, claim in CLAIMS.items():
        probs += _claimed(load(d, name), claim, name)
    for name, (field, target, shape, child) in THEOREM_NDMS.items():
        probs += ndm_table(load(d, name), field, target, name, shape, child)
    ex10_a2 = load(d, "catalog_ex10_a2")
    probs += oa(Arr(ref.modulus_table(ref.alphabet(GF[8]), ref.alphabet(GF[4]))[ex10_a2.data],
                    [GF[4]] * ex10_a2.shape[1]), "catalog_ex10_a2 collapsed", (16, 5))
    ex13 = load(d, "catalog_ex13_d")
    probs += _blocks(Arr(ex13.data[:, :4], ex13.specs[:4]), "catalog_ex13_d")
    probs += _blocks(load(d, "lemma7"), "lemma7")
    full, pair, shared = load(d, "validation")
    probs += oa(full, "validation full", (64, 8)) + nested(pair, "oa", "validation shared", (64, 4), 32)
    if not np.array_equal(pair.parent.data, full.data[:, shared]):
        probs.append("validation: shared pair is not the shared columns of the full array")
    if load(d, "search_gf16_to_gf4") is not None:
        probs.append("search_nested_rows found a D(4, 16, 4), which cannot exist")
    g16 = ref.alphabet(GF[16])
    trunc = ref.truncation_table(g16, ref.alphabet(GF[4]))
    found = [rows for rows in itertools.combinations(range(16), 4)
             if ref.dm_violation(trunc[g16.mul[list(rows)]], ref.alphabet(GF[4])) is None]
    if found:
        probs.append(f"reference finds nested rows {found[0]} that the search missed")
    for name, source in DESIGNS.items():
        probs += design(load(d, name), load(d, source), name)
    probs += design(load(d, "design_validation"), pair, "design_validation")
    return probs


def read_csv(path: str, alph: list) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    if header != [f"c{j + 1}" for j in range(len(alph))]:
        raise ValueError(f"{path}: unexpected header")
    return np.array([[a.parse(t) for a, t in zip(alph, ln.split(","))] for ln in lines[1:]], dtype=np.int64)


def read_points(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[1:], np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _projection_table(spec: dict):
    src = ref.alphabet(spec["source"])
    if spec["kind"] == "truncation":
        tgt = ref.alphabet(spec["target"])
        return ref.truncation_table(src, tgt), tgt
    raise ValueError(f"unexpected projection kind {spec['kind']!r} in the bundle")


# the bundle that worker.cli_argv constructs: shape, child rows, and levels
# before and after the collapse
CLI_SHAPE, CLI_CHILD, CLI_LEVELS = (512, 36), 256, (8, 4)


def cli_bundle(work: str, shape=CLI_SHAPE, child=CLI_CHILD, levels=CLI_LEVELS) -> list[str]:
    probs = []
    with open(os.path.join(work, "b.json")) as fh:
        meta = json.load(fh)
    alph = [ref.alphabet(s) for s in meta["columns"]]
    data = read_csv(os.path.join(work, "b.csv"), alph)
    rows = np.asarray(meta["nested"]["child_rows"], dtype=np.int64)
    tabs = [_projection_table(p) for p in meta["nested"]["projections"]]
    if data.shape != shape or len(rows) != child:
        probs.append(f"bundle: {data.shape} with {len(rows)} child rows, expected {shape} with {child}")
    if ref.oa_violation(data, [a.order for a in alph]) is not None:
        probs.append("bundle: does not re-count as an orthogonal array")
    collapsed = ref.collapse(data[rows], [t for t, _ in tabs])
    if ref.oa_violation(collapsed, [g.order for _, g in tabs]) is not None:
        probs.append("bundle: collapsed child rows do not re-count as an orthogonal array")
    if {a.order for a in alph} != {levels[0]} or {g.order for _, g in tabs} != {levels[1]}:
        probs.append(f"bundle: levels are not {levels[0]} collapsing to {levels[1]}")
    with open(os.path.join(work, "verify.out")) as fh:
        if fh.read() != "NOA: PASS\n":
            probs.append("verify noa: did not print a single PASS")
    with open(os.path.join(work, "info.out")) as fh:
        info = fh.read().splitlines()
    dm_ok = ref.dm_violation(data, alph[0]) is None
    want = [f"b: {shape[0]} runs x {shape[1]} columns",
            f"as difference matrix: DM: {'PASS' if dm_ok else 'FAIL'}",
            "as orthogonal array: OA: PASS"]
    have = [info[0]] + [ln[: len(w)] for ln, w in zip(info[-2:], want[1:])]
    if have != want:
        probs.append(f"info: {have}, reference says {want}")
    dl_lines, dl = read_points(os.path.join(work, "d_dl.csv"))
    dh_lines, dh = read_points(os.path.join(work, "d_dh.csv"))
    if dl.shape != shape or not ref.latin_hypercube(dl):
        probs.append("lhd: D_l is not a Latin hypercube of the bundle's size")
    if dh_lines != [dl_lines[r] for r in rows]:
        probs.append("lhd: D_h is not exactly the child rows of D_l")
    if not ref.stratified(dl, [levels[0]] * shape[1]) or not ref.stratified(dh, [levels[1]] * shape[1]):
        probs.append("lhd: a design does not stratify evenly on its level grid")
    return probs
