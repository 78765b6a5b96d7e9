"""Per-layer tracing from outside the program.

The tracer wraps public functions of each nestfill module and a few methods
of the alphabet classes.  A wrapped function is replaced in every nestfill
module that bound it at import (``constructions`` imports ``check_oa`` by
name, so wrapping ``nestfill.arrays`` alone would miss the gates), and
methods are replaced on their class.  Each call becomes a span; a span's
self time is its duration minus that of its direct child spans.

Spans of the hot scalar and parsing paths (millions per pass) are only
counted and timed in aggregate; every other span is kept in memory with its
parent and the benchmark operation that caused it, and written out at the
end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import nestfill.algebra as algebra
import nestfill.arrays as arrays
import nestfill.catalog as catalog
import nestfill.cli as cli
import nestfill.constructions as constructions
import nestfill.mixed as mixed
import nestfill.nsfd as nsfd

SCALAR = [(algebra.Field, m) for m in ("add", "neg", "mul", "index", "element")]
PARSE_METHODS = [(algebra.GaloisGroup, "parse"), (algebra.ResidueGroup, "parse"),
                 (algebra.ProductGroup, "parse"), (algebra.Group, "parse_index")]
TABLES = ["add_table", "neg_table", "sub_table"]
PROJECTIONS = ["truncation", "modulus", "residue", "component", "product_projection",
               "identity_projection", "projection_from_dict"]
VERIFIERS = ["check_oa", "check_dm", "check_nested"]
STRUCTURAL = ["kronecker_add", "collapse", "subrows", "subcols", "hstack", "normalize_dm", "cast_group"]
BUNDLE_IO = ["save_bundle", "load_bundle"]
NSFD = ["relabel", "oa_lhd", "to_design", "extract_nested", "nested_design", "strat_counts", "is_uniform"]
CATALOG = ["catalog_get", "catalog_derive", "catalog_names"]
CLI = ["main", "cmd_construct", "cmd_verify", "cmd_lhd", "cmd_info", "cmd_catalog", "cmd_export"]

#: (module, function names, layer, keep spans)
FUNCTIONS = [
    (algebra, TABLES + PROJECTIONS + ["field_make"], "algebra", True),
    (algebra, ["poly_parse"], "algebra", False),
    (constructions, list(constructions.__all__[1:]), "constructions", True),
    (arrays, VERIFIERS + STRUCTURAL + BUNDLE_IO, "arrays", True),
    (mixed, list(mixed.__all__), "mixed", True),
    (nsfd, NSFD, "nsfd", True),
    (catalog, CATALOG, "catalog", True),
    (cli, CLI, "cli", True),
]


def _pairs(args, ordered: bool) -> int:
    m = args[0].n_cols
    return m * (m - 1) if ordered else m * (m - 1) // 2


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.verifier_calls: dict[str, dict[str, dict[str, int]]] = {}
        self.op_name = ""
        self.pass_name = ""
        self.outputs = 0
        self._caches = {"table": [algebra.add_table, algebra.neg_table, algebra.sub_table],
                        "catalog": [catalog.catalog_get]}
        self._misses0 = self._misses()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str, keep: bool, after=None):
        tr = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tr.stack
            frame = [0.0, len(tr.spans) if keep else -1]
            parent = stack[-1][1] if stack else -1
            if keep:
                tr.spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                a = tr.agg.setdefault(name, [0, 0.0])
                a[0] += 1
                a[1] += dur - frame[0]
                if keep:
                    tr.spans[frame[1]] = (name, round(t0, 7), round(t1, 7), parent, tr.op_name, tr.pass_name)
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _verifier(self, which: str, ordered: bool | None):
        def after(args, result):
            per_op = self.verifier_calls.setdefault(self.op_name, {}).setdefault(self.pass_name, {})
            per_op[which] = per_op.get(which, 0) + 1
            if ordered is not None:
                self._count(which + "_pairs", _pairs(args, ordered))

        return after

    def _io(self, direction: str):
        def after(args, result):
            obj = result[0] if direction == "read" else args[1]
            arr = obj.parent if hasattr(obj, "child_rows") else obj
            self._count("cells_" + direction, arr.n_rows * arr.n_cols)
            self._count("bytes_" + direction,
                        sum(os.path.getsize(args[0] + ext) for ext in (".csv", ".json")))

        return after

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "nestfill" or n.startswith("nestfill.")]
        after = {"check_oa": self._verifier("check_oa", False),
                 "check_dm": self._verifier("check_dm", True),
                 "check_nested": self._verifier("check_nested", None),
                 "save_bundle": self._io("written"), "load_bundle": self._io("read")}
        for module, names, layer, keep in FUNCTIONS:
            for name in names:
                orig = getattr(module, name)
                w = self._wrap(orig, f"{layer}.{name}", keep, after.get(name))
                for m in mods:
                    if m.__dict__.get(name) is orig:
                        setattr(m, name, w)
        for cls, meth in SCALAR + PARSE_METHODS + [(algebra.Field, "__post_init__")]:
            orig = cls.__dict__[meth]
            keep = meth == "__post_init__"
            setattr(cls, meth, self._wrap(orig, f"algebra.{cls.__name__}.{meth}", keep))

    # -- passes ----------------------------------------------------------

    def op(self, name: str) -> None:
        """Attribute the following spans to benchmark operation ``name``."""
        self.op_name = name
        self.outputs += 1

    # -- results ---------------------------------------------------------

    def _misses(self) -> dict[str, int]:
        return {k: sum(f.cache_info().misses for f in fs) for k, fs in self._caches.items()}

    def verifier_counts(self) -> dict[str, int]:
        return {v: self.agg.get(f"arrays.{v}", [0])[0] for v in VERIFIERS}

    def layer_metrics(self) -> dict[str, float]:
        agg = self.agg

        def calls(*names):
            return sum(agg.get(n, [0, 0.0])[0] for n in names)

        def self_s(*names):
            return sum(agg.get(n, [0, 0.0])[1] for n in names)

        def layer(prefix):
            return [n for n in agg if n.startswith(prefix)]

        scalar = [f"algebra.Field.{m}" for _, m in SCALAR]
        parse = [f"algebra.{c.__name__}.{m}" for c, m in PARSE_METHODS] + ["algebra.poly_parse"]
        misses = self._misses()
        checks = calls("arrays.check_oa", "arrays.check_dm", "arrays.check_nested")
        return {
            "algebra.scalar_calls": calls(*scalar),
            "algebra.scalar_s": self_s(*scalar),
            "algebra.table_s": self_s(*[f"algebra.{t}" for t in TABLES]),
            "algebra.table_misses": misses["table"] - self._misses0["table"],
            "algebra.field_make_calls": calls("algebra.Field.__post_init__"),
            "algebra.field_make_s": self_s("algebra.field_make", "algebra.Field.__post_init__"),
            "algebra.projection_calls": calls(*[f"algebra.{p}" for p in PROJECTIONS]),
            "algebra.projection_s": self_s(*[f"algebra.{p}" for p in PROJECTIONS]),
            "algebra.parse_calls": calls(*parse),
            "algebra.parse_s": self_s(*parse),
            "constructions.calls": calls(*layer("constructions.")),
            "constructions.self_s": self_s(*layer("constructions.")),
            "arrays.check_oa_calls": calls("arrays.check_oa"),
            "arrays.check_oa_s": self_s("arrays.check_oa"),
            "arrays.check_oa_pairs": self.counters.get("check_oa_pairs", 0),
            "arrays.check_dm_calls": calls("arrays.check_dm"),
            "arrays.check_dm_s": self_s("arrays.check_dm"),
            "arrays.check_dm_pairs": self.counters.get("check_dm_pairs", 0),
            "arrays.check_nested_calls": calls("arrays.check_nested"),
            "arrays.check_nested_s": self_s("arrays.check_nested"),
            "arrays.checks_per_output": checks / max(self.outputs, 1),
            "arrays.kronecker_s": self_s("arrays.kronecker_add"),
            "arrays.collapse_s": self_s("arrays.collapse"),
            "arrays.subrows_s": self_s("arrays.subrows"),
            "arrays.save_bundle_s": self_s("arrays.save_bundle"),
            "arrays.load_bundle_s": self_s("arrays.load_bundle"),
            "arrays.cells_written": self.counters.get("cells_written", 0),
            "arrays.cells_read": self.counters.get("cells_read", 0),
            "arrays.bytes_written": self.counters.get("bytes_written", 0),
            "arrays.bytes_read": self.counters.get("bytes_read", 0),
            "mixed.self_s": self_s(*layer("mixed.")),
            "nsfd.relabel_s": self_s("nsfd.relabel"),
            "nsfd.oa_lhd_s": self_s("nsfd.oa_lhd"),
            "nsfd.to_design_s": self_s("nsfd.to_design"),
            "nsfd.strat_counts_s": self_s("nsfd.strat_counts"),
            "nsfd.strat_counts_calls": calls("nsfd.strat_counts"),
            "catalog.get_s": self_s("catalog.catalog_get"),
            "catalog.misses": misses["catalog"] - self._misses0["catalog"],
        }

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump({"layers": self.layer_metrics(), "calls_and_self_s": self.agg, "verifier_calls": self.verifier_calls,
                       "span_fields": ["name", "start", "end", "parent", "operation", "pass"],
                       "spans": self.spans}, fh)
        return path
