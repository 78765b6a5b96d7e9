"""Command line front end.

Verbs: construct, verify, lhd, export, catalog, info.  Exit codes are part
of the contract: 0 success, 2 usage or parameter errors, 3 verification
failure (of the output or of any input), 4 I/O or file-format errors.
Every construct invocation verifies its output before anything reaches
disk, and jitter randomness only ever comes from an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import catalog as cat
from .algebra import (
    MAX_FIELD_ORDER,
    GaloisGroup,
    ResidueGroup,
    field_make,
    identity_projection,
    prime_power,
    truncation,
)
from .arrays import (
    FormatError,
    LevelArray,
    NestedPair,
    VerificationError,
    check_dm,
    check_nested,
    check_oa,
    load_bundle,
    require,
    save_bundle,
    _atomic_write,
)
from .constructions import (
    full_factorial,
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
    trivial_oa,
    validation_pair,
    zero_sum_noa,
)
from .mixed import mixed_dm_lemma7, noa_theorem9, ww_from_ndms, ww_from_noas
from .nsfd import _strata, nested_design


def _order(text: str):
    """The Galois field of a prime-power order; too large an order is refused unfactored."""
    if int(text) > MAX_FIELD_ORDER:
        raise ValueError(f"field order {text} exceeds the supported maximum {MAX_FIELD_ORDER}")
    pp = prime_power(int(text))
    if pp is None:
        raise ValueError(f"{text} is not a prime power")
    return field_make(*pp)


def _entry(name: str):
    """The catalog entry ``name``; an unknown name is a usage error."""
    try:
        return cat.catalog_get(name)
    except KeyError as e:
        raise ValueError(e.args[0]) from None


def _ref(text: str):
    """A catalog entry name, or an inline construction call like
    ``theorem1:m=2`` or ``multtable:s=8``."""
    if ":" not in text:
        return _entry(text).payload
    name, _, argstr = text.partition(":")
    if name == "validation":
        raise ValueError("validation builds an array and a nested pair, so it cannot be a reference")
    return _build(name, argstr.split(",") if argstr else [])[0]


def _default_thm7_blocks():
    return cat.catalog_get("ex12_noa").payload, [
        ((0,), cat.catalog_derive("d_12_6_6")),
        ((1,), cat.catalog_get("seberry_12_12_4").payload),
    ]


def _default_thm8_blocks():
    g2 = GaloisGroup(field_make(2, 1))
    stacked = LevelArray((g2,) * 2, np.tile(np.array([[0, 0], [0, 1]]), (6, 1)))
    ndm_z2 = NestedPair(stacked, tuple(range(6)), (identity_projection(g2),) * 2)
    ndm_z6 = cat.catalog_get("ex11_ndm").payload
    a = full_factorial((ResidueGroup(6), g2))
    return a, [((0,), ndm_z6), ((1,), ndm_z2)]


def _load_plan(path: str):
    try:
        with open(path) as fh:
            plan = json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read plan file: {e}") from None
    except ValueError as e:  # bad JSON, or bytes that are not UTF-8
        raise FormatError(f"plan file is not valid JSON: {e}") from None
    try:
        refs = [plan["parent"]] + [b["ref"] for b in plan["blocks"]]
        cols = [tuple(b["cols"]) for b in plan["blocks"]]
        use_b = plan.get("b", False)
        if not all(isinstance(r, str) for r in refs):
            raise TypeError("references must be strings")
        if not isinstance(use_b, bool):
            raise TypeError(f"b must be true or false, got {use_b!r}")
    except (LookupError, TypeError) as e:
        raise FormatError(f"malformed plan file {path}: {type(e).__name__}: {e}") from None
    parent, *blocks = map(_ref, refs)
    return parent, list(zip(cols, blocks)), use_b


def _planned(build, plan, b, default_blocks):
    """thm7/thm8 on a plan file or on the default blocks; ``b=`` overrides
    the plan's ``b``."""
    parent, blocks, use_b = _load_plan(plan) if plan is not None else (*default_blocks(), False)
    return build(parent, blocks, include_b=use_b if b is None else b)


def _thm9(d1, d2, c0):
    d = mixed_dm_lemma7(d1, d2, c0)
    g1, g2 = d.groups[0].components
    if not isinstance(g1, GaloisGroup):
        raise ValueError(f"thm9: d1= needs a Galois field alphabet to truncate, got {g1.describe()}")
    delta1 = truncation(g1.field, field_make(g1.field.p, max(1, g1.field.u - 1)))
    return noa_theorem9(d, delta1, identity_projection(g2))


# a key's type: the pattern its text must match, and the call that reads it
DECIMAL = ("[0-9]+", int)
FLAG = ("[01]", lambda text: text == "1")
ORDER = ("[0-9]+", _order)
TEXT = (".*", str)
REF = (".*", _ref)

_LEMMA7_KEYS = {"d1": (REF, "multtable:s=4"), "d2": (REF, "multtable:s=3"), "c0": (DECIMAL, "2")}
_PLAN_KEYS = {"plan": (TEXT, None), "b": (FLAG, None)}

# name -> (kind, keys, build).  ``kind`` is what cmd_construct gates and
# writes; ``keys`` maps each key to (type, default), where ``...`` marks a
# required key and ``None`` a default that ``build`` works out.  ``build``
# gets every key by name and must reach the constructors through this
# module's globals when it runs, so that a wrapper bound there sees the call.
CONSTRUCTIONS = {
    "theorem1": ("ndm", {"m": (DECIMAL, ...)}, lambda m: ndm_theorem1(m)),
    "theorem2": ("ndm", {"m": (DECIMAL, ...)}, lambda m: ndm_theorem2(m)),
    "theorem3": ("ndm", {"m": (DECIMAL, ...)}, lambda m: ndm_theorem3(m)),
    "sec34": ("ndm", {"variant": (TEXT, "a8cols")}, lambda variant: ndm_sec34(variant)),
    "p3": ("ndm", {"instance": (TEXT, "gf27_to_gf9")}, lambda instance: ndm_p3(instance)),
    "raohamming": ("oa", {"s": (ORDER, ...), "k": (DECIMAL, ...)}, lambda s, k: rao_hamming_oa(s, k)),
    "qtw": ("noa", {"s1": (ORDER, ...), "s2": (ORDER, ...), "k": (DECIMAL, "2")},
            lambda s1, s2, k: qtw_noa(s1, s2, k)),
    "zerosum": ("noa", {"s1": (DECIMAL, ...), "s2": (DECIMAL, ...)}, lambda s1, s2: zero_sum_noa(s1, s2)),
    "trivial": ("oa", {"s": (ORDER, ...)}, lambda s: trivial_oa(GaloisGroup(s))),
    "multtable": ("dm", {"s": (ORDER, ...)}, lambda s: mult_table(s)),
    "theorem4": ("noa", {"a": (REF, "trivial:s=8"), "ndm": (REF, "theorem1:m=2")},
                 lambda a, ndm: noa_theorem4(a, ndm)),
    "theorem5": ("noa", {"noa": (REF, "qtw:s1=8,s2=4,k=2"), "dm": (REF, "multtable:s=8")},
                 lambda noa, dm: noa_theorem5(noa, dm)),
    "validation": ("validation", {"m": (DECIMAL, "2"), "a": (REF, None)},
                   lambda m, a: validation_pair(m, _ref(f"trivial:s={2 ** (m + 1)}") if a is None else a)),
    "thm7": ("noa", _PLAN_KEYS, lambda plan, b: _planned(ww_from_noas, plan, b, _default_thm7_blocks)),
    "thm8": ("noa", _PLAN_KEYS, lambda plan, b: _planned(ww_from_ndms, plan, b, _default_thm8_blocks)),
    "lemma7": ("mixed-dm", _LEMMA7_KEYS, lambda d1, d2, c0: mixed_dm_lemma7(d1, d2, c0)),
    "thm9": ("noa", _LEMMA7_KEYS, _thm9),
}


def _build(name: str, pieces) -> tuple:
    """Read ``key=value`` pieces by ``name``'s entry in :data:`CONSTRUCTIONS`
    and build it; returns (object, kind).  The command line and inline
    references both come through here."""
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}; known: {', '.join(CONSTRUCTIONS)}")
    kind, keys, build = CONSTRUCTIONS[name]
    known = f"known keys of {name}: {', '.join(keys)}"
    given = {}
    for piece in pieces:
        k, sep, v = piece.partition("=")
        if not sep:
            raise ValueError(f"{name}: parameters look like key=value, got {piece!r}; {known}")
        if k not in keys:
            raise ValueError(f"{name}: unknown parameter {k}=; {known}")
        if k in given:
            raise ValueError(f"{name}: repeated parameter {k}=; {known}")
        given[k] = v
    values = {}
    for k, ((pattern, read), default) in keys.items():
        text = given.get(k, default)
        if text is ...:
            raise ValueError(f"{name}: missing parameter {k}=; {known}")
        if text is not None and not re.fullmatch(pattern, text, re.DOTALL):
            raise ValueError(f"{name}: {k}={text!r} does not match {pattern}; {known}")
        values[k] = text if text is None else read(text)
    return build(**values), kind


def cmd_construct(args) -> int:
    obj, kind = _build(args.name, args.params)
    # the constructors gate their outputs, so these return the carried verdict
    if kind == "validation":
        full, pair, shared = obj
        msg = require(pair, "noa", args.name).describe()
        save_bundle(args.out + "_full", full, "oa")
        save_bundle(args.out, pair, "noa")
        print(f"{args.name}: full array {full.shape}, shared columns {list(shared)}")
        print(msg)
        return 0
    if kind == "mixed-dm":  # mixed_dm_lemma7 raises unless every block passes
        msg = "DM: PASS"
    else:
        msg = require(obj, kind, args.name).describe()
    save_bundle(args.out, obj, kind)
    arr = obj.parent if isinstance(obj, NestedPair) else obj
    print(f"{args.name}: {arr.n_rows} runs x {arr.n_cols} columns -> {args.out}.csv")
    if isinstance(obj, NestedPair):
        print(f"child rows: {len(obj.child_rows)}")
    print(msg)
    return 0


def cmd_verify(args) -> int:
    obj = _load(args.prefix)
    kind = args.kind
    if kind in ("noa", "ndm"):
        if not isinstance(obj, NestedPair):
            raise ValueError(f"{args.prefix} carries no nesting metadata")
        v = check_nested(obj, kind)
    else:
        arr = obj.parent if isinstance(obj, NestedPair) else obj
        v = check_oa(arr) if kind == "oa" else check_dm(arr)
    print(v.describe())
    if not v:
        return 3
    return 0


def _load(prefix: str):
    try:
        obj, _kind = load_bundle(prefix)
    except OSError as e:
        raise OSError(f"cannot read {prefix}.csv/.json: {e}") from None
    return obj


def _design_lines(points) -> list[str]:
    """The lines of a design CSV: header ``x1,...,xm``, then one per point."""
    m = points.shape[1]
    fmt = ",".join(["%.12g"] * m)
    return [",".join(f"x{j + 1}" for j in range(m))] + [fmt % tuple(row) for row in points.tolist()]


def cmd_lhd(args) -> int:
    if args.midpoint == (args.seed is not None):
        raise ValueError("pass exactly one of --seed N or --midpoint")
    obj = _load(args.prefix)
    if not isinstance(obj, NestedPair):
        raise ValueError(f"{args.prefix} carries no nesting metadata")
    nd = nested_design(obj, seed=args.seed, midpoint=args.midpoint)
    gl = [p.source.order for p in obj.projections]
    gh = [p.target.order for p in obj.projections]
    require(_strata(nd.full.points, gl), "oa", "stratification of the full design")
    require(_strata(nd.child_points, gh), "oa", "stratification of the subset design")
    # D_h is D_l at the child rows (child_points is full.points[child_rows]),
    # so its lines are D_l's lines, formatted once
    dl = _design_lines(nd.full.points)
    meta = {
        "seed": args.seed,
        "midpoint": args.midpoint,
        "source": args.prefix,
        "child_rows": list(obj.child_rows),
        "runs": nd.full.n_rows,
        "columns": nd.full.n_cols,
    }
    # one write for the set, _dl.csv last, so that its old bytes are never held
    files = {
        args.out + "_dh.csv": "\n".join([dl[0]] + [dl[1 + r] for r in nd.child_rows]) + "\n",
        args.out + "_meta.json": json.dumps(meta, indent=1) + "\n",
        args.out + "_dl.csv": "\n".join(dl) + "\n",
    }
    _atomic_write(files)
    print(f"wrote {nd.full.n_rows}-point design and {len(obj.child_rows)}-point subset")
    for j in range(nd.full.n_cols):
        for k in range(j + 1, nd.full.n_cols):
            print(
                f"columns ({j + 1},{k + 1}): full {gl[j]}x{gl[k]} uniform; "
                f"subset {gh[j]}x{gh[k]} uniform"
            )
    return 0


def cmd_export(args) -> int:
    entry = _entry(args.name)
    save_bundle(args.out, entry.payload, entry.kind)
    print(f"{args.name} -> {args.out}.csv ({entry.provenance})")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in cat.catalog_names():
            print(name)
        return 0
    if not args.name:
        raise ValueError("catalog show needs an entry name")
    entry = _entry(args.name)
    payload = entry.payload
    arr = payload.parent if isinstance(payload, NestedPair) else payload
    print(f"{entry.name}: {arr.n_rows} x {arr.n_cols} ({entry.provenance})")
    print("alphabets:", ", ".join(g.describe() for g in arr.groups))
    if isinstance(payload, NestedPair):
        print("child rows:", list(payload.child_rows))
    for row in arr.texts():
        print(" ".join(f"{t:>8}" for t in row))
    return 0


def cmd_info(args) -> int:
    obj = _load(args.prefix)
    arr = obj.parent if isinstance(obj, NestedPair) else obj
    print(f"{args.prefix}: {arr.n_rows} runs x {arr.n_cols} columns")
    print("alphabets:", ", ".join(g.describe() for g in arr.groups))
    if isinstance(obj, NestedPair):
        print(f"child rows ({len(obj.child_rows)}):", list(obj.child_rows))
        print("projections:", ", ".join(p.describe() for p in obj.projections))
    uniform = len(set(arr.groups)) == 1
    if uniform:
        print("as difference matrix:", check_dm(arr).describe())
    print("as orthogonal array:", check_oa(arr).describe())
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nestfill",
        description="Construct and verify nested orthogonal arrays, nested "
        "difference matrices and nested space-filling designs.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="run a named construction and write CSV + JSON")
    c.add_argument("name", choices=CONSTRUCTIONS)
    c.add_argument("params", nargs="*", help="key=value construction parameters")
    c.add_argument("--out", required=True, help="output path prefix")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a written bundle")
    v.add_argument("kind", choices=["oa", "dm", "noa", "ndm"])
    v.add_argument("prefix", help="path prefix of the .csv/.json bundle")
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("lhd", help="generate the nested space-filling design")
    l.add_argument("prefix", help="construct output to read")
    l.add_argument("--seed", type=int, default=None)
    l.add_argument("--midpoint", action="store_true")
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_lhd)

    e = sub.add_parser("export", help="write a catalog entry as CSV + JSON")
    e.add_argument("name")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export)

    g = sub.add_parser("catalog", help="list or show built-in entries")
    g.add_argument("action", choices=["list", "show"])
    g.add_argument("name", nargs="?")
    g.set_defaults(func=cmd_catalog)

    i = sub.add_parser("info", help="describe a written bundle")
    i.add_argument("prefix")
    i.set_defaults(func=cmd_info)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
