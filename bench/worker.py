"""One fresh interpreter of the benchmark: set up a workload, run its
operation list, report per-operation times and output digests.

Started by ``run.py``, never imported by it.  The protocol is line based on
standard output: ``READY`` once set-up is done, then one JSON object per
pass.  The roles are:

* ``setup``: set up, say ``READY``, exit (``setup_s`` samples);
* ``measure``: set up, then a cold pass and a warm pass, both timed (for
  ``cli-bundle``: the verbs as processes, then twice through
  ``nestfill.cli.main``, the first of which only warms the interpreter);
* ``traced``: set up, install the tracer, then two traced passes in this
  interpreter, and print the per-layer figures;
* ``thm7``: count the verifier calls of one ``construct thm7`` in a fresh
  interpreter.

With ``--dump DIR`` the outputs of the cold pass are written there for the
parent's reference checks; every pass reports a digest of every output, so
outputs that were not dumped are still compared with ones that were.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

import nestfill as nf
from nestfill import cli

# ---------------------------------------------------------------------------
# Output encoding: plain JSON metadata plus named numpy arrays.
# ---------------------------------------------------------------------------


def group_spec(g) -> dict:
    if hasattr(g, "field"):
        f = g.field
        return {"kind": "gf", "p": f.p, "u": f.u, "irreducible": list(f.irreducible)}
    if hasattr(g, "components"):
        return {"kind": "product", "components": [group_spec(c) for c in g.components]}
    return {"kind": "zmod", "s": g.modulus}


def _plain(v):
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    return v


def encode(obj, arrays: dict, path: str = "o"):
    """JSON-able description of a program output; arrays go to ``arrays``."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return {"type": "seq", "items": [encode(x, arrays, f"{path}.{k}") for k, x in enumerate(obj)]}
    if hasattr(obj, "payload"):
        return {"type": "entry", "name": obj.name, "payload": encode(obj.payload, arrays, path)}
    if hasattr(obj, "ok") and hasattr(obj, "witness"):
        return {"type": "verdict", "ok": obj.ok, "kind": obj.kind, "witness": _plain(obj.witness)}
    if hasattr(obj, "child_points"):
        arrays[path + ".points"] = obj.full.points
        arrays[path + ".child_points"] = obj.child_points
        return {"type": "design", "points": path + ".points", "child_points": path + ".child_points",
                "child_rows": list(obj.child_rows)}
    if hasattr(obj, "child_rows"):
        projections = []
        for pr in obj.projections:
            projections.append({"kind": pr.kind, "source": group_spec(pr.source),
                                "target": group_spec(pr.target), "table": list(pr.table)})
        arrays[path + ".rows"] = np.asarray(obj.child_rows, dtype=np.int64)
        return {"type": "nested", "parent": encode(obj.parent, arrays, path + ".parent"),
                "rows": path + ".rows", "projections": projections}
    if hasattr(obj, "groups") and hasattr(obj, "data"):
        arrays[path] = obj.data
        labels = None if obj.row_labels is None else list(obj.row_labels)
        return {"type": "array", "groups": [group_spec(g) for g in obj.groups], "data": path,
                "row_labels": labels,
                "label_group": None if obj.label_group is None else group_spec(obj.label_group)}
    raise TypeError(f"cannot encode {type(obj).__name__}")


def digest(meta, arrays: dict) -> str:
    h = hashlib.sha1(json.dumps(meta, sort_keys=True).encode())
    for k in sorted(arrays):
        a = np.ascontiguousarray(arrays[k])
        h.update(f"{k}{a.dtype}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def save(directory: str, name: str, meta, arrays: dict) -> None:
    """One ``.npy`` file per array (written without a copy, so dumping adds
    nothing to the interpreter's peak memory) and the metadata as JSON."""
    os.makedirs(os.path.join(directory, name))
    for key, a in arrays.items():
        np.save(os.path.join(directory, name, key + ".npy"), a)
    with open(os.path.join(directory, name, "meta.json"), "w") as fh:
        json.dump(meta, fh)


def dump(directory: str, name: str, obj) -> None:
    arrays: dict = {}
    save(directory, name, encode(obj, arrays), arrays)


def file_digest(paths: list[str], extra: str = "") -> str:
    h = hashlib.sha1(extra.encode())
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  Each setup returns the untimed inputs; each operation takes
# them and returns the program's output.  Operations call through the
# ``nf`` namespace at call time so that the tracer's wrappers are seen.
# ---------------------------------------------------------------------------


def gf_construct_setup(seed: int):
    F = nf.field_make
    return {"gf4": F(2, 2), "gf8": F(2, 3), "gf16": F(2, 4), "gf27": F(3, 3), "gf32": F(2, 5),
            "gf128": F(2, 7)}


GF_CONSTRUCT = [
    ("rao_hamming_gf16_k2", lambda x: nf.rao_hamming_oa(x["gf16"], 2)),
    ("rao_hamming_gf27_k2", lambda x: nf.rao_hamming_oa(x["gf27"], 2)),
    ("qtw_gf32_gf8_k2", lambda x: nf.qtw_noa(x["gf32"], x["gf8"], 2)),
    ("qtw_gf8_gf4_k3", lambda x: nf.qtw_noa(x["gf8"], x["gf4"], 3)),
    ("mult_table_gf128", lambda x: nf.mult_table(x["gf128"])),
    ("ndm_p3_gf81_to_gf27", lambda x: nf.ndm_p3("gf81_to_gf27")),
    ("ndm_theorem3_m4", lambda x: nf.ndm_theorem3(4)),
]


def verify_large_setup(seed: int):
    gf16 = nf.field_make(2, 4)
    rh = nf.rao_hamming_oa(gf16, 2)
    mt = nf.mult_table(gf16)
    half = nf.subcols(mt, range(8))  # columns of a difference matrix are one too
    big = nf.kronecker_add(rh, half)
    rng = np.random.default_rng(seed)
    last = big.data[:, -1]
    r1 = int(rng.integers(big.n_rows))
    others = np.flatnonzero(last != last[r1])
    r2 = int(others[rng.integers(others.size)])
    data = big.data.copy()
    data[[r1, r2], -1] = data[[r2, r1], -1]
    return {"rh": rh, "ndm": nf.ndm_theorem1(3), "big": big,
            "dm": nf.kronecker_add(mt, half),
            "defect": nf.LevelArray(big.groups, data), "defect_rows": (r1, r2)}


VERIFY_LARGE = [
    ("check_oa_4096x136", lambda x: nf.check_oa(x["big"])),
    ("check_dm_256x128", lambda x: nf.check_dm(x["dm"])),
    ("noa_theorem4_4096x68", lambda x: nf.noa_theorem4(x["rh"], x["ndm"])),
    ("check_nested_4096x68", lambda x: nf.check_nested(x["noa"], "noa")),
    ("check_oa_defect", lambda x: nf.check_oa(x["defect"])),
]


def small_families_setup(seed: int):
    F = nf.field_make
    gf2, gf3, gf4, gf8, gf16 = F(2, 1), F(3, 1), F(2, 2), F(2, 3), F(2, 4)
    z2 = nf.GaloisGroup(gf2)
    stacked = nf.LevelArray((z2,) * 2, np.tile(np.array([[0, 0], [0, 1]]), (6, 1)))
    return {"gf2": gf2, "gf3": gf3, "gf4": gf4, "gf8": gf8, "gf16": gf16, "seed": seed,
            "thm8_a": nf.full_factorial((nf.ResidueGroup(6), z2)),
            "z2_ndm": nf.NestedPair(stacked, tuple(range(6)), (nf.identity_projection(z2),) * 2)}


def _thm7(x, include_b):
    cat = nf.catalog_get
    blocks = [((0,), cat("d_12_6_6").payload), ((1,), cat("seberry_12_12_4").payload)]
    return nf.ww_from_noas(cat("ex12_noa").payload, blocks, include_b=include_b)


def _thm8(x, include_b):
    blocks = [((0,), nf.catalog_get("ex11_ndm").payload), ((1,), x["z2_ndm"])]
    return nf.ww_from_ndms(x["thm8_a"], blocks, include_b=include_b)


def _lemma7(x):
    return nf.mixed_dm_lemma7(nf.mult_table(x["gf4"]), nf.mult_table(x["gf3"]), 2)


def _thm9(x):
    return nf.noa_theorem9(_lemma7(x), nf.truncation(x["gf4"], x["gf2"]),
                           nf.identity_projection(nf.GaloisGroup(x["gf3"])))


def _ex8(x):
    return nf.noa_theorem4(nf.trivial_oa(nf.GaloisGroup(x["gf8"])), nf.ndm_theorem1(2))


def _ex10(x):
    return nf.noa_theorem5(nf.qtw_noa(x["gf8"], x["gf4"], 2), nf.mult_table(x["gf8"]))


def _validation(x):
    return nf.validation_pair(2, nf.trivial_oa(nf.GaloisGroup(x["gf8"])))


CATALOG_NAMES = ["seberry_12_12_4", "dulmage_12_6_12", "ex10_a2", "ex3_d1", "ex3_phi_d2", "ex4_phi_d2",
                 "ex6_block", "ex13_d", "ex14_table4", "d_12_6_6", "d_12_4_4", "d_4_4_2_nested",
                 "rho3_d_6_6_3", "ex11_ndm", "ex12_noa"]

SMALL_FAMILIES = (
    [(f"catalog_{n}", (lambda n: lambda x: nf.catalog_get(n))(n)) for n in CATALOG_NAMES]
    + [(f"ndm_theorem{t}_m{m}", (lambda t, m: lambda x: getattr(nf, f"ndm_theorem{t}")(m))(t, m))
       for t in (1, 2, 3) for m in (2, 3)]
    + [("ndm_sec34_a8cols", lambda x: nf.ndm_sec34("a8cols")),
       ("ndm_sec34_b16cols", lambda x: nf.ndm_sec34("b16cols")),
       ("ndm_p3_gf27_to_gf9", lambda x: nf.ndm_p3("gf27_to_gf9")),
       ("ndm_p3_gf81_to_gf27", lambda x: nf.ndm_p3("gf81_to_gf27")),
       ("zero_sum_6_3", lambda x: nf.zero_sum_noa(6, 3)),
       ("ex8", _ex8),
       ("ex10", _ex10),
       ("validation", _validation),
       ("thm7", lambda x: _thm7(x, False)),
       ("thm7_b", lambda x: _thm7(x, True)),
       ("thm8", lambda x: _thm8(x, False)),
       ("thm8_b", lambda x: _thm8(x, True)),
       ("lemma7", _lemma7),
       ("thm9", _thm9),
       ("search_gf16_to_gf4", lambda x: nf.search_nested_rows(
           nf.mult_table(x["gf16"]), 4, nf.truncation(x["gf16"], x["gf4"]), budget=1820))]
    # designs of the nested orthogonal arrays built earlier in the same pass
    + [(f"design_{k}", (lambda k: lambda x: nf.nested_design(x["out"][k], seed=x["seed"]))(k))
       for k in ("ex8", "ex10", "zero_sum_6_3", "thm7", "thm8_b", "thm9")]
    + [("design_validation", lambda x: nf.nested_design(x["out"]["validation"][1], seed=x["seed"]))]
)

CLI_BUNDLE = ["construct", "verify", "lhd", "info"]


def cli_argv(seed: int) -> dict:
    return {
        "construct": ["construct", "theorem4", "a=raohamming:s=8,k=2", "ndm=theorem1:m=2", "--out", "b"],
        "verify": ["verify", "noa", "b"],
        "lhd": ["lhd", "b", "--seed", str(seed), "--out", "d"],
        "info": ["info", "b"],
    }


CLI_FILES = {"construct": ["b.csv", "b.json"], "verify": [], "lhd": ["d_dl.csv", "d_dh.csv", "d_meta.json"],
             "info": []}

WORKLOADS = {
    "gf-construct": (gf_construct_setup, GF_CONSTRUCT),
    "verify-large": (verify_large_setup, VERIFY_LARGE),
    "small-families": (small_families_setup, SMALL_FAMILIES),
}


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


def api_pass(ops, inputs, dump: str | None = None, on_op=None) -> dict:
    """Run every operation once; time each, digest each output."""
    times, digests, errors = {}, {}, {}
    outputs = inputs.setdefault("out", {})
    for name, fn in ops:
        if on_op:
            on_op(name)
        outputs.pop(name, None)  # the previous pass's output is not kept alive
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = fn(inputs)
        except Exception as e:  # an operation that raises is counted as failed
            errors[name] = f"{type(e).__name__}: {e}"
            continue
        finally:
            times[name] = time.perf_counter() - t0
        outputs[name] = out
        if name == "noa_theorem4_4096x68":
            inputs["noa"] = out
        arrays: dict = {}
        meta = encode(out, arrays)
        digests[name] = digest(meta, arrays)
        if dump:
            save(dump, name, meta, arrays)
    return {"times": times, "digests": digests, "errors": errors}


def cli_pass(argvs: dict, work: str, in_process: bool, on_op=None) -> dict:
    """Run the four verbs, as processes or through ``cli.main``."""
    times, digests, errors = {}, {}, {}
    for verb in CLI_BUNDLE:
        argv = argvs[verb]
        if on_op:
            on_op(verb)
        gc.collect()
        t0 = time.perf_counter()
        if in_process:
            buf = io.StringIO()
            cwd = os.getcwd()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(list(argv))
            except Exception as e:  # counted as failed, like a nonzero exit
                rc = f"{type(e).__name__}: {e}"
            finally:
                os.chdir(cwd)
            out = buf.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "nestfill.cli", *argv], cwd=work,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            rc, out = proc.returncode, proc.stdout
        times[verb] = time.perf_counter() - t0
        if rc != 0:
            errors[verb] = rc if isinstance(rc, str) else f"exit {rc}"
            continue
        digests[verb] = file_digest([os.path.join(work, f) for f in CLI_FILES[verb]], out)
        with open(os.path.join(work, verb + ".out"), "w") as fh:
            fh.write(out)
    return {"times": times, "digests": digests, "errors": errors}


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=["setup", "measure", "traced", "thm7"], required=True)
    ap.add_argument("--work", required=True, help="scratch directory of this interpreter")
    ap.add_argument("--dump", default=None, help="directory for the cold pass outputs")
    args = ap.parse_args()
    os.makedirs(args.work, exist_ok=True)
    is_cli = args.workload == "cli-bundle"

    if args.role == "thm7":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["construct", "thm7", "--out", os.path.join(args.work, "thm7")])
        emit({"rc": rc, "verifier_calls": tracer.verifier_counts()})
        return 0

    if is_cli:
        inputs, ops = cli_argv(args.seed), None
    else:
        setup, ops = WORKLOADS[args.workload]
        inputs = setup(args.seed)
    print("READY", flush=True)
    if args.role == "setup":
        return 0
    if args.role == "measure" and args.dump and not is_cli:
        for name, value in inputs.items():
            if hasattr(value, "n_rows") or hasattr(value, "child_rows"):
                dump(args.dump, "input_" + name, value)

    if args.role == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        for label in ("cold", "warm"):
            tracer.pass_name = label
            if is_cli:
                res = cli_pass(inputs, args.work, True, tracer.op)
            else:
                res = api_pass(ops, inputs, on_op=tracer.op)
            emit({"pass": label, **res})
        if args.dump:
            tracer.write(os.path.join(args.dump, "trace.json"))
        emit({"layers": tracer.layer_metrics()})
        return 0

    if is_cli:
        # the in-process verbs are cheap next to the processes: two warm passes
        emit({"pass": "cold", **cli_pass(inputs, args.work, False)})
        emit({"pass": "prewarm", **cli_pass(inputs, args.work, True)})
        for _ in range(2):
            emit({"pass": "warm", **cli_pass(inputs, args.work, True)})
    else:
        emit({"pass": "cold", **api_pass(ops, inputs, args.dump)})
        emit({"pass": "warm", **api_pass(ops, inputs, None)})
    if args.workload == "verify-large":
        emit({"defect_rows": list(inputs["defect_rows"])})
    return 0


if __name__ == "__main__":
    sys.exit(main())
