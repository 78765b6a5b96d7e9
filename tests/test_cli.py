"""Command line contract: verbs, files, exit codes."""

import contextlib
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nestfill
from nestfill import cli
from nestfill.cli import main

SRC = os.path.dirname(os.path.dirname(nestfill.__file__))


def run(*argv):
    return main(list(argv))


def test_construct_writes_and_passes(tmp_path, capsys):
    prefix = str(tmp_path / "ex3")
    assert run("construct", "theorem1", "m=2", "--out", prefix) == 0
    out = capsys.readouterr().out
    assert "8 runs x 4 columns" in out and "PASS" in out
    assert (tmp_path / "ex3.csv").exists() and (tmp_path / "ex3.json").exists()


def test_construct_bad_params_exit_2(tmp_path):
    assert run("construct", "theorem1", "m=1", "--out", str(tmp_path / "x")) == 2
    assert run("construct", "theorem1", "m=psi", "--out", str(tmp_path / "x")) == 2
    assert not (tmp_path / "x.csv").exists()  # nothing written on failure


def test_construct_zerosum(tmp_path, capsys):
    prefix = str(tmp_path / "zs")
    assert run("construct", "zerosum", "s1=6", "s2=3", "--out", prefix) == 0
    assert "36 runs x 3 columns" in capsys.readouterr().out


def test_verify_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "q")
    assert run("construct", "qtw", "s1=8", "s2=4", "k=2", "--out", prefix) == 0
    assert run("verify", "noa", prefix) == 0
    assert run("verify", "oa", prefix) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_corrupted_cell_exit_3(tmp_path, capsys):
    prefix = str(tmp_path / "arr")
    assert run("construct", "theorem4", "--out", prefix) == 0
    csv = (tmp_path / "arr.csv").read_text().splitlines()
    cell = csv[1].split(",")
    cell[0] = "x^2+x+1" if cell[0] != "x^2+x+1" else "0"
    csv[1] = ",".join(cell)
    (tmp_path / "arr.csv").write_text("\n".join(csv) + "\n")
    assert run("verify", "oa", prefix) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "columns" in out


def test_verify_missing_file_exit_4(tmp_path):
    assert run("verify", "oa", str(tmp_path / "missing")) == 4


def test_verify_ndm_on_theorem3(tmp_path):
    prefix = str(tmp_path / "t3")
    assert run("construct", "theorem3", "m=3", "--out", prefix) == 0
    assert run("verify", "ndm", prefix) == 0


def test_lhd_midpoint_and_seeds(tmp_path, capsys):
    prefix = str(tmp_path / "ex8")
    assert run("construct", "theorem4", "--out", prefix) == 0
    out8 = str(tmp_path / "mid")
    assert run("lhd", prefix, "--midpoint", "--out", out8) == 0
    text = capsys.readouterr().out
    assert "uniform" in text and "NOT" not in text
    dl = (tmp_path / "mid_dl.csv").read_text().splitlines()
    assert dl[0] == "x1,x2,x3,x4" and len(dl) == 65
    dh = (tmp_path / "mid_dh.csv").read_text().splitlines()
    assert len(dh) == 33
    meta = json.loads((tmp_path / "mid_meta.json").read_text())
    assert meta["midpoint"] is True and len(meta["child_rows"]) == 32

    s1 = str(tmp_path / "s1")
    s1b = str(tmp_path / "s1b")
    assert run("lhd", prefix, "--seed", "7", "--out", s1) == 0
    assert run("lhd", prefix, "--seed", "7", "--out", s1b) == 0
    assert (tmp_path / "s1_dl.csv").read_bytes() == (tmp_path / "s1b_dl.csv").read_bytes()

    # different seeds share the rank matrix after flooring
    s2 = str(tmp_path / "s2")
    assert run("lhd", prefix, "--seed", "8", "--out", s2) == 0
    a = np.loadtxt(tmp_path / "s1_dl.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(tmp_path / "s2_dl.csv", delimiter=",", skiprows=1)
    assert np.array_equal(np.floor(a * 64), np.floor(b * 64))


@pytest.mark.parametrize("flags", [["--midpoint"], ["--seed", "3"]])
def test_lhd_dh_lines_are_dl_lines_at_the_child_rows(tmp_path, flags):
    prefix = str(tmp_path / "cb")
    assert run("construct", "theorem4", "a=raohamming:s=8,k=2", "ndm=theorem1:m=2", "--out", prefix) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("lhd", prefix, *flags, "--out", str(tmp_path / "d")) == 0
    dl = (tmp_path / "d_dl.csv").read_bytes().split(b"\n")
    dh = (tmp_path / "d_dh.csv").read_bytes().split(b"\n")
    rows = json.loads((tmp_path / "d_meta.json").read_text())["child_rows"]
    assert len(rows) == 256 and len(dl) == 512 + 2  # header, rows, final newline
    assert dh == [dl[0]] + [dl[1 + r] for r in rows] + [b""]


def test_lhd_requires_seed_or_midpoint(tmp_path):
    prefix = str(tmp_path / "zs")
    assert run("construct", "zerosum", "s1=4", "s2=2", "--out", prefix) == 0
    assert run("lhd", prefix, "--out", str(tmp_path / "no")) == 2
    assert run("lhd", prefix, "--seed", "1", "--midpoint", "--out", str(tmp_path / "no")) == 2


def test_lhd_needs_nesting_metadata(tmp_path, capsys):
    prefix = str(tmp_path / "plain")
    assert run("construct", "raohamming", "s=4", "k=2", "--out", prefix) == 0
    for argv in (["lhd", prefix, "--midpoint", "--out", str(tmp_path / "o")], ["verify", "noa", prefix]):
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {prefix} carries no nesting metadata\n"


def test_export_and_verify_published_table(tmp_path):
    prefix = str(tmp_path / "t4")
    assert run("export", "ex14_table4", "--out", prefix) == 0
    assert run("verify", "oa", prefix) == 0


def test_export_writes_the_kind_each_entry_was_verified_as(tmp_path, capsys):
    """Every entry verified whole is exported with its kind, which ``verify``
    then passes; the two checked block by block carry none."""
    from nestfill.catalog import catalog_names

    names = catalog_names()
    kinds = {}
    for name in names:
        prefix = str(tmp_path / name)
        assert run("export", name, "--out", prefix) == 0
        kinds[name] = json.loads((tmp_path / f"{name}.json").read_text())["kind"]
        if kinds[name] is not None:
            assert run("verify", kinds[name], prefix) == 0, name
    assert len(names) == 15
    assert {name for name, kind in kinds.items() if kind is None} == {"ex10_a2", "ex13_d"}
    assert kinds["ex11_ndm"] == kinds["d_4_4_2_nested"] == "ndm" and kinds["ex12_noa"] == "noa"


def test_export_unknown_entry(tmp_path):
    assert run("export", "nope", "--out", str(tmp_path / "x")) == 2


def test_catalog_list_and_show(capsys):
    assert run("catalog", "list") == 0
    names = capsys.readouterr().out.split()
    assert "seberry_12_12_4" in names
    assert run("catalog", "show", "ex3_phi_d2") == 0
    out = capsys.readouterr().out
    assert "4 x 4" in out and "child rows" not in out
    assert run("catalog", "show", "ex11_ndm") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "ex11_ndm: 12 x 6 (Qian, Ai and Wu (2009), Example 11 nesting of d_12_6_6)",
        "alphabets: Z_6, Z_6, Z_6, Z_6, Z_6, Z_6",
        "child rows: [0, 3, 4, 5, 7, 11]",
    ]
    assert len(out) == 3 + 12
    assert run("catalog", "show") == 2
    assert capsys.readouterr().err == "error: catalog show needs an entry name\n"


def test_info(tmp_path, capsys):
    prefix = str(tmp_path / "t1")
    assert run("construct", "theorem1", "m=2", "--out", prefix) == 0
    assert run("info", prefix) == 0
    out = capsys.readouterr().out
    assert "8 runs x 4 columns" in out and "GF(8)" in out


def test_mixed_construct_verbs(tmp_path):
    assert run("construct", "thm7", "--out", str(tmp_path / "a")) == 0
    assert run("construct", "thm8", "b=1", "--out", str(tmp_path / "b")) == 0
    assert run("construct", "thm9", "--out", str(tmp_path / "c")) == 0
    assert run("construct", "lemma7", "c0=2", "--out", str(tmp_path / "d")) == 0
    assert run("verify", "noa", str(tmp_path / "a")) == 0


def test_thm9_refuses_one_alphabet_for_both_components(tmp_path, capsys):
    # with trailing columns over one alphabet, the layout cannot be split
    tables = ("d1=multtable:s=4", "d2=multtable:s=4")
    assert run("construct", "thm9", *tables, "--out", str(tmp_path / "a")) == 2
    assert "GF(4)" in capsys.readouterr().err
    assert run("construct", "lemma7", *tables, "--out", str(tmp_path / "b")) == 0
    assert run("construct", "thm9", *tables, "c0=4", "--out", str(tmp_path / "c")) == 0


def test_thm7_plan_file(tmp_path):
    plan = {
        "parent": "ex12_noa",
        "blocks": [
            {"cols": [0], "ref": "d_12_6_6"},
            {"cols": [1], "ref": "seberry_12_12_4"},
        ],
        "b": True,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert run("construct", "thm7", f"plan={path}", "--out", str(tmp_path / "p")) == 0


def test_validation_writes_full_and_shared(tmp_path):
    prefix = str(tmp_path / "vp")
    assert run("construct", "validation", "m=2", "--out", prefix) == 0
    assert (tmp_path / "vp_full.csv").exists()
    assert run("verify", "noa", prefix) == 0
    assert run("verify", "oa", prefix + "_full") == 0


def _bundle(tmp_path):
    prefix = str(tmp_path / "b")
    assert run("construct", "theorem1", "m=2", "--out", prefix) == 0
    return prefix


def test_verify_empty_csv_exit_4(tmp_path, capsys):
    prefix = _bundle(tmp_path)
    (tmp_path / "b.csv").write_text("")
    capsys.readouterr()
    assert run("verify", "ndm", prefix) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed bundle") and "empty file" in err


@pytest.mark.parametrize("sidecar", [[1, 2], {"kind": "ndm"}, {"columns": 5}])
def test_verify_malformed_sidecar_exit_4(tmp_path, capsys, sidecar):
    prefix = _bundle(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run("verify", "ndm", prefix) == 4
    assert capsys.readouterr().err.startswith("error: malformed bundle")


@pytest.mark.parametrize("label", [5, None, ["0"]])
def test_verify_non_text_row_label_exit_4(tmp_path, capsys, label):
    prefix = _bundle(tmp_path)
    meta = json.loads((tmp_path / "b.json").read_text())
    meta["row_labels"][0] = label
    (tmp_path / "b.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", "ndm", prefix) == 4
    assert capsys.readouterr().err.startswith("error: malformed bundle")


@pytest.mark.parametrize("label", [5, 5.0, True])
def test_non_text_label_of_a_residue_label_group_exit_4(tmp_path, capsys, label):
    """A number in place of a Z_s label text is refused like any other
    non-text label, not read as the value it holds."""
    z6 = nestfill.ResidueGroup(6)
    prefix = str(tmp_path / "b")
    nestfill.save_bundle(prefix, nestfill.LevelArray((z6,), [[0], [1]], row_labels=(4, 3), label_group=z6))
    assert nestfill.load_bundle(prefix)[0].row_labels == (4, 3)
    meta = json.loads((tmp_path / "b.json").read_text())
    meta["row_labels"][0] = label
    (tmp_path / "b.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("info", prefix) == 4
    assert "is not element text" in capsys.readouterr().err


@pytest.mark.parametrize("argv, kinds", [(["thm9"], {"identity", "truncation", "product"}), (["thm8", "b=1"], {"identity", "residue"})])
def test_kronecker_bundle_projections_round_trip(tmp_path, capsys, argv, kinds):
    """Every projection kind a Kronecker bundle carries, the parts of a
    product included, loads back equal to the built one."""
    prefix = str(tmp_path / "k")
    assert run("construct", *argv, "--out", prefix) == 0
    built, _ = cli._build(argv[0], argv[1:])
    loaded, kind = nestfill.load_bundle(prefix)
    assert kind == "noa" and loaded == built
    assert {p.kind for p in loaded.projections} == kinds
    assert run("verify", "noa", prefix) == 0
    assert capsys.readouterr().out.endswith("NOA: PASS\n")


def test_product_part_with_a_target_of_the_wrong_kind_exit_4(tmp_path, capsys):
    prefix = str(tmp_path / "k")
    assert run("construct", "thm9", "--out", prefix) == 0
    meta = json.loads((tmp_path / "k.json").read_text())
    part = meta["nested"]["projections"][0]["parts"][0]
    assert part["kind"] == "truncation"
    part["target"] = {"kind": "zmod", "s": 2}
    (tmp_path / "k.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", "noa", prefix) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed bundle") and "needs a Galois field alphabet, not Z_2" in err


def test_failed_replace_leaves_no_temporary_and_the_old_bundle(tmp_path, capsys, monkeypatch):
    """A write that cannot be moved into place removes its temporary files
    and leaves the bundle it would have replaced as it was, whether every
    replace fails or only the second: then the CSV cannot replace the old
    one, and the sidecar already moved into place gets its old bytes back."""
    prefix = str(tmp_path / "b")
    assert run("construct", "theorem1", "m=2", "--out", prefix) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replace = os.replace
    for failing in ("every", "second"):
        calls = []

        def refuse(src, dst):
            calls.append(dst)
            if failing == "every" or len(calls) == 2:
                raise OSError(f"cannot replace {dst}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        capsys.readouterr()
        assert run("construct", "theorem1", "m=3", "--out", prefix) == 4, failing
        assert capsys.readouterr().err.startswith("error: cannot replace")
        assert list(tmp_path.glob("*.tmp")) == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert calls[:2] == [prefix + ".json", prefix + ".csv"]


def test_failed_replace_of_a_new_bundle_leaves_no_file(tmp_path, capsys, monkeypatch):
    """When the CSV of a bundle that did not exist cannot be moved into
    place, the sidecar already moved there is removed again."""
    replace, calls = os.replace, []

    def refuse_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(f"cannot replace {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_second)
    assert run("construct", "theorem1", "m=2", "--out", str(tmp_path / "b")) == 4
    assert capsys.readouterr().err.startswith("error: cannot replace")
    assert list(tmp_path.iterdir()) == []


def test_existing_temporary_name_is_refused_and_left_alone(tmp_path, capsys, monkeypatch):
    """A temporary file name that exists already is not written over or
    removed: the write exits 4 and puts no bundle file in place."""
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    taken = tmp_path / f"tmp{bytes(6).hex()}.tmp"
    taken.write_bytes(b"not a bundle")
    assert run("construct", "theorem1", "m=2", "--out", str(tmp_path / "b")) == 4
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_bytes() == b"not a bundle"


WRITERS = [
    (["construct", "theorem1", "m=2", "--out", "t1"], ["t1.csv", "t1.json"]),
    (["construct", "validation", "--out", "v"], ["v.csv", "v.json", "v_full.csv", "v_full.json"]),
    (["export", "seberry_12_12_4", "--out", "s"], ["s.csv", "s.json"]),
    (["construct", "qtw", "s1=8", "s2=4", "k=2", "--out", "q"], ["q.csv", "q.json"]),
    (["lhd", "q", "--seed", "1", "--out", "d"], ["d_dl.csv", "d_dh.csv", "d_meta.json"]),
]


@pytest.mark.parametrize("umask, mode", [(0o022, "-rw-r--r--"), (0o077, "-rw-------")], ids=["022", "077"])
def test_written_files_get_the_mode_of_the_umask(tmp_path, monkeypatch, umask, mode):
    """Every file ``construct``, ``export`` and ``lhd`` write gets the mode
    any new file gets under the umask of the process."""
    monkeypatch.chdir(tmp_path)
    for argv, _ in WRITERS:
        assert _process(*argv, umask=umask).returncode == 0, argv
    modes = {p.name: stat.filemode(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {name: mode for _, names in WRITERS for name in names}


@pytest.mark.parametrize("over", [True, False], ids=["old-set", "new-set"])
@pytest.mark.parametrize("failing", [1, 2, 3])
def test_failed_lhd_replace_leaves_no_temporary_and_the_old_set(tmp_path, capsys, monkeypatch, failing, over):
    """``lhd`` replaces its three files together: when its first, second or
    third replace fails, it exits 4 and leaves the set it would have
    replaced byte for byte, or no file if there was none."""
    prefix, out = str(tmp_path / "b"), str(tmp_path / "d")
    assert run("construct", "zerosum", "s1=4", "s2=2", "--out", prefix) == 0
    if over:
        assert run("lhd", prefix, "--seed", "1", "--out", out) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replace, calls = os.replace, []

    def refuse(src, dst):
        calls.append(dst)
        if len(calls) == failing:
            raise OSError(f"cannot replace {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    assert run("lhd", prefix, "--seed", "2", "--out", out) == 4
    assert capsys.readouterr().err.startswith("error: cannot replace")
    assert list(tmp_path.glob("*.tmp")) == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert calls[:failing] == [out + "_dh.csv", out + "_meta.json", out + "_dl.csv"][:failing]


@pytest.mark.parametrize("where", ["columns", "projection source", "residue target"])
def test_non_integral_residue_modulus_exit_4(tmp_path, capsys, where):
    """A column over Z_6.0 used to load and then crash the counting with a
    TypeError, exit 1."""
    prefix = str(tmp_path / "b")
    assert run("construct", "zerosum", "s1=6", "s2=3", "--out", prefix) == 0
    meta = json.loads((tmp_path / "b.json").read_text())
    for column, proj in zip(meta["columns"], meta["nested"]["projections"]):
        if where == "columns":
            column["s"] = 6.0
        elif where == "projection source":
            proj["source"]["s"] = 6.0
        else:
            proj["a"] = 3.0
    (tmp_path / "b.json").write_text(json.dumps(meta))
    capsys.readouterr()
    for argv in (["info", prefix], ["verify", "noa", prefix]):
        assert run(*argv) == 4
        assert capsys.readouterr().err.startswith("error: malformed bundle")


def _set(where, **fields):
    """A sidecar edit that updates every column, or every projection, with ``fields``."""

    def edit(meta):
        for d in meta["columns"] if where == "columns" else meta["nested"]["projections"]:
            d.update(fields)

    return edit


ZMOD = [{"kind": "zmod", "s": s} for s in (2, 4, 8)]
WRONG_KIND = [
    ("modulus-zmod-target", _set("projections", target=ZMOD[1]), "modulus projection needs a Galois field alphabet, not Z_4"),
    ("modulus-zmod-source", _set("projections", source=ZMOD[2]), "modulus projection needs a Galois field alphabet, not Z_8"),
    ("modulus-product-source", _set("projections", source={"kind": "product", "components": ZMOD[:2]}),
     "modulus projection needs a Galois field alphabet, not Z_2xZ_4"),
    ("component-over-gf", _set("projections", kind="component", which=0), "component projection needs a product alphabet, not GF(8)"),
    ("residue-over-gf", _set("projections", kind="residue", a=4), "residue projection needs a residue ring alphabet, not GF(8)"),
    ("coefficient-1.5", _set("columns", irreducible=[1.5, 1, 0, 1]), "polynomial coefficient must be an integer, got 1.5"),
]


@pytest.mark.parametrize("edit, says", [c[1:] for c in WRONG_KIND], ids=[c[0] for c in WRONG_KIND])
@pytest.mark.parametrize(
    "argv", [["info", "{b}"], ["verify", "noa", "{b}"], ["lhd", "{b}", "--midpoint", "--out", "{b}_design"]],
    ids=["info", "verify", "lhd"],
)
def test_wrong_kind_sidecar_alphabet_exit_4(tmp_path, capsys, edit, says, argv):
    """A projection over the wrong kind of alphabet used to crash with an
    AttributeError (exit 1), or, for a residue over a field, exit 4 saying
    that the modulus must be an integer; a coefficient 1.5 was read as 1 and
    the bundle loaded."""
    prefix = str(tmp_path / "b")
    assert run("construct", "qtw", "s1=8", "s2=4", "k=2", "--out", prefix) == 0
    meta = json.loads((tmp_path / "b.json").read_text())
    edit(meta)
    (tmp_path / "b.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(*(a.format(b=prefix) for a in argv)) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed bundle") and says in err


def _process(*argv, timeout=None, memory_mib=None, umask=-1):
    """``nestfill.cli`` run as a process; a run past ``timeout`` seconds
    raises ``subprocess.TimeoutExpired``, with ``memory_mib`` its address
    space is capped at that size, and with ``umask`` it runs under that
    umask."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    def cap():
        limit = memory_mib * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "nestfill.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=cap if memory_mib else None, umask=umask,
    )


def test_verify_malformed_bundle_subprocess_has_no_traceback(tmp_path):
    prefix = _bundle(tmp_path)
    (tmp_path / "b.json").write_text("[]")
    proc = _process("verify", "ndm", prefix)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


BIG_PRIME = 1000000000000000003


def test_huge_field_order_refused_before_factoring(tmp_path):
    # factoring an order this large takes about 10^9 trial divisions
    proc = _process("construct", "trivial", f"s={BIG_PRIME}", "--out", str(tmp_path / "x"), timeout=5)
    assert proc.returncode == 2 and "maximum" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("fields", [{"p": BIG_PRIME, "u": 1}, {"p": BIG_PRIME, "u": 10**12}, {"u": 10**9}])
def test_huge_sidecar_field_refused_before_factoring(tmp_path, fields):
    prefix = _bundle(tmp_path)
    meta = json.loads((tmp_path / "b.json").read_text())
    for column in meta["columns"]:
        column.update(fields)
    (tmp_path / "b.json").write_text(json.dumps(meta))
    proc = _process("info", prefix, timeout=5)
    assert proc.returncode == 4 and "maximum" in proc.stderr


HUGE_ZMOD = {"kind": "zmod", "s": 10**18}


@pytest.mark.parametrize(
    "column, argv",
    [
        (HUGE_ZMOD, ["info", "{b}"]),
        (HUGE_ZMOD, ["verify", "noa", "{b}"]),
        (HUGE_ZMOD, ["lhd", "{b}", "--midpoint", "--out", "{b}_design"]),
        ({"kind": "zmod", "s": 2**40}, ["info", "{b}"]),
        ({"kind": "zmod", "s": 2**31}, ["info", "{b}"]),
        ({"kind": "product", "components": [{"kind": "zmod", "s": 2**20}] * 2}, ["info", "{b}"]),
    ],
)
def test_huge_sidecar_alphabet_refused_before_enumerating(tmp_path, column, argv):
    # reading the cells once built the text of every element of the alphabet
    prefix = str(tmp_path / "b")
    assert run("construct", "zerosum", "s1=6", "s2=3", "--out", prefix) == 0
    meta = json.loads((tmp_path / "b.json").read_text())
    meta["columns"] = [column] * len(meta["columns"])
    (tmp_path / "b.json").write_text(json.dumps(meta))
    proc = _process(*(a.format(b=prefix) for a in argv), timeout=5)
    assert proc.returncode == 4 and "exceeds the largest alphabet order" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_largest_residue_alphabet_read_without_listing(tmp_path):
    """Z_s cells are read and written as decimal integers: at s = 2**31 - 1,
    listing the texts of every element took minutes and gigabytes."""
    zmax = {"kind": "zmod", "s": 2**31 - 1}
    prefix = str(tmp_path / "b")
    assert run("construct", "zerosum", "s1=6", "s2=3", "--out", prefix) == 0
    meta = json.loads((tmp_path / "b.json").read_text())
    meta["columns"] = [zmax] * len(meta["columns"])
    (tmp_path / "b.json").write_text(json.dumps(meta))
    proc = _process("info", prefix, timeout=5, memory_mib=2000)
    assert proc.returncode == 4 and "projection for column 0 has source Z_6" in proc.stderr
    # a plain array over the same ring reads, is described, and fails both checks
    plain = str(tmp_path / "p")
    (tmp_path / "p.csv").write_text("c1,c2\n0,2147483646\n07,5\n")
    (tmp_path / "p.json").write_text(json.dumps({"columns": [zmax, zmax]}))
    proc = _process("info", plain, timeout=5, memory_mib=2000)
    assert proc.returncode == 0, proc.stderr
    assert "alphabets: Z_2147483647, Z_2147483647" in proc.stdout
    assert "DM: FAIL - 2 rows not divisible by group order 2147483647" in proc.stdout


@pytest.mark.parametrize("s", ["6", "1", "0"])
def test_non_prime_power_order_exit_2(tmp_path, s):
    assert run("construct", "multtable", f"s={s}", "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("argv", [["theorem5", "dm=ex10_a2"], ["lemma7", "d1=ex10_a2"], ["thm7", "plan"]])
def test_failing_input_dm_exit_3(tmp_path, capsys, argv):
    # ex10_a2 passes as an OA after collapse but is not a difference matrix
    if argv[-1] == "plan":
        plan = {"parent": "ex12_noa", "blocks": [{"cols": [0], "ref": "d_12_6_6"}, {"cols": [1], "ref": "ex10_a2"}]}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        argv = [argv[0], f"plan={tmp_path / 'plan.json'}"]
    capsys.readouterr()
    assert run("construct", *argv, "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failed:") and "DM: FAIL" in err
    assert not (tmp_path / "x.csv").exists()


def test_lhd_on_failing_nested_pair_exit_3(tmp_path, capsys):
    prefix = str(tmp_path / "t4")
    assert run("construct", "theorem4", "--out", prefix) == 0
    meta = json.loads((tmp_path / "t4.json").read_text())
    meta["nested"]["child_rows"].pop()
    (tmp_path / "t4.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", "noa", prefix) == 3
    assert run("lhd", prefix, "--midpoint", "--out", str(tmp_path / "d")) == 3
    err = capsys.readouterr().err
    assert "does not verify as nested" in err and "Traceback" not in err
    assert not (tmp_path / "d_dl.csv").exists()


def test_lhd_stratification_failure_exit_3_writes_nothing(tmp_path, monkeypatch, capsys):
    from nestfill import cli
    from nestfill.nsfd import Design, NestedDesign

    def swapped(pair, **kw):
        nd = real(pair, **kw)
        pts = nd.full.points.copy()
        cells = np.floor(pts[:, :2] * 8)
        # a row in another cell of the 8x8 grid of columns 1 and 2, in both
        r = int(np.flatnonzero((cells != cells[0]).all(axis=1))[0])
        pts[[0, r], 0] = pts[[r, 0], 0]  # moves two points out of their cells
        full = Design(pts, nd.full.ranks, nd.full.seed, nd.full.midpoint, nd.full.relabeled)
        return NestedDesign(full, pts[list(nd.child_rows)], nd.child_rows)

    real = cli.nested_design
    monkeypatch.setattr(cli, "nested_design", swapped)
    prefix = str(tmp_path / "t4")
    assert run("construct", "theorem4", "--out", prefix) == 0
    capsys.readouterr()
    assert run("lhd", prefix, "--seed", "3", "--out", str(tmp_path / "d")) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: stratification of the full design: OA: FAIL")
    assert "columns=(0, 1)" in captured.err and "Traceback" not in captured.err
    assert not any((tmp_path / f"d{end}").exists() for end in ("_dl.csv", "_dh.csv", "_meta.json"))


def _seberry_text():
    from nestfill.catalog import _data_text

    return _data_text("seberry_12_12_4.txt")


@pytest.mark.parametrize(
    "garble, code, head",
    [
        (lambda t: "", 4, "error: seberry_12_12_4.txt"),
        (lambda t: "?" + t[1:], 4, "error: seberry_12_12_4.txt"),
        (lambda t: t.replace("01", "11", 1), 3, "verification failed: catalog entry"),
    ],
    ids=["empty", "garbled", "fails-check"],
)
def test_catalog_data_errors_exit_codes(tmp_path, monkeypatch, capsys, garble, code, head):
    import nestfill.catalog as cat

    text, real = garble(_seberry_text()), cat._data_text
    monkeypatch.setattr(cat, "_data_text", lambda name: text if name == "seberry_12_12_4.txt" else real(name))
    cat.catalog_get.cache_clear()
    try:
        capsys.readouterr()
        assert run("catalog", "show", "seberry_12_12_4") == code
        assert run("export", "seberry_12_12_4", "--out", str(tmp_path / "x")) == code
        err = capsys.readouterr().err
        assert err.startswith(head) and "Traceback" not in err
    finally:
        monkeypatch.undo()
        cat.catalog_get.cache_clear()


# ---------------------------------------------------------------------------
# fuzzing the file-format boundary
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noa_bundle(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("fuzz") / "b")
    assert run("construct", "theorem4", "--out", prefix) == 0
    with open(prefix + ".csv", "rb") as fh, open(prefix + ".json", "rb") as fj:
        return fh.read(), fj.read()


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` truncated, with bytes garbled, or with a span deleted.  A
    garbled byte is mostly one the file already holds, so that many damaged
    files still parse and reach the verifiers."""
    how = draw(st.sampled_from(["truncate", "garble", "delete"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "delete":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + data[i + draw(st.integers(1, 8)):]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        byte = st.one_of(st.sampled_from(sorted(set(data))), st.integers(0, 255))
        out[draw(st.integers(0, len(out) - 1))] = draw(byte)
    return bytes(out)


def _has_nesting(sidecar: bytes) -> bool:
    try:
        return bool(json.loads(sidecar).get("nested"))
    except Exception:
        return True  # unreadable: the loader must report a format error


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.sampled_from(["csv", "json"]))
def test_damaged_bundle_exit_codes(noa_bundle, data, which):
    csv, sidecar = noa_bundle
    if which == "csv":
        csv = data.draw(damaged(csv))
    else:
        sidecar = data.draw(damaged(sidecar))
    # a sidecar that still parses but has lost its nesting block is a plain
    # array, which verify noa and lhd reject as a usage error
    allowed = {0, 3, 4} if _has_nesting(sidecar) else {0, 2, 3, 4}
    with tempfile.TemporaryDirectory() as d:
        prefix = os.path.join(d, "b")
        with open(prefix + ".csv", "wb") as fh:
            fh.write(csv)
        with open(prefix + ".json", "wb") as fh:
            fh.write(sidecar)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes = [
                run("verify", "noa", prefix),
                run("lhd", prefix, "--seed", "1", "--out", os.path.join(d, "d")),
                run("info", prefix),
            ]
    assert set(codes) <= allowed, (codes, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "plan",
    [
        {"blocks": []},
        [1, 2],
        {"parent": "ex12_noa", "blocks": [{"cols": [0]}, {"cols": [1], "ref": "d_12_6_6"}]},
        {"parent": "ex12_noa", "blocks": [{"cols": [0], "ref": "d_12_6_6"}, {"cols": [1], "ref": "seberry_12_12_4"}],
         "b": "no"},
        {"parent": "ex12_noa", "blocks": [{"cols": [0], "ref": 12}]},
    ],
    ids=["no-parent", "not-an-object", "block-without-ref", "non-boolean-b", "numeric-ref"],
)
@pytest.mark.parametrize("verb", ["thm7", "thm8"])
def test_malformed_plan_exit_4(tmp_path, capsys, plan, verb):
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    capsys.readouterr()
    assert run("construct", verb, f"plan={tmp_path / 'plan.json'}", "--out", str(tmp_path / "x")) == 4
    assert capsys.readouterr().err.startswith("error: malformed plan file")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "text, says",
    [
        (None, "error: cannot read plan file: [Errno 2] No such file or directory"),
        ("{parent", "error: plan file is not valid JSON: Expecting property name enclosed in double quotes"),
        (b"\xff\xfe{", "error: plan file is not valid JSON: 'utf-8' codec can't decode"),
    ],
    ids=["missing", "not-json", "not-utf8"],
)
@pytest.mark.parametrize("verb", ["thm7", "thm8"])
def test_unreadable_plan_exit_4(tmp_path, capsys, verb, text, says):
    if isinstance(text, bytes):
        (tmp_path / "plan.json").write_bytes(text)
    elif text is not None:
        (tmp_path / "plan.json").write_text(text)
    capsys.readouterr()
    assert run("construct", verb, f"plan={tmp_path / 'plan.json'}", "--out", str(tmp_path / "x")) == 4
    assert capsys.readouterr().err.startswith(says)
    assert list(tmp_path.glob("x*")) == []


@pytest.mark.parametrize(
    "verb, plan",
    [
        ("thm7", {"parent": "ex12_noa", "blocks": [{"cols": [0], "ref": "ex11_ndm"}, {"cols": [1], "ref": "seberry_12_12_4"}]}),
        ("thm8", {"parent": "trivial:s=2", "blocks": [{"cols": [0], "ref": "multtable:s=2"}]}),
    ],
    ids=["thm7-first-block-nested", "thm8-block-not-nested"],
)
def test_plan_block_of_the_wrong_kind_exit_2(tmp_path, capsys, verb, plan):
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    capsys.readouterr()
    assert run("construct", verb, f"plan={tmp_path / 'plan.json'}", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and " needs a " in err
    assert not (tmp_path / "x.csv").exists()


def test_plan_with_unknown_entry_exit_2(tmp_path):
    plan = {"parent": "ex12_noa", "blocks": [{"cols": [0], "ref": "no_such_entry"}]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert run("construct", "thm7", f"plan={tmp_path / 'plan.json'}", "--out", str(tmp_path / "x")) == 2


WRONG_KIND_REFS = [
    ["theorem4", "ndm=multtable:s=8"],
    ["theorem4", "a=theorem1:m=2"],
    ["theorem5", "noa=multtable:s=8"],
    ["lemma7", "d1=qtw:s1=8,s2=4"],
    ["thm9", "d1=theorem1:m=2"],
    ["validation", "a=theorem1:m=2"],
    ["thm9", "d1=d_12_6_6"],
    ["thm9", "d1=seberry_12_12_4"],
]


def test_reference_of_the_wrong_kind_exit_2(tmp_path, capsys):
    for argv in WRONG_KIND_REFS:
        capsys.readouterr()
        assert run("construct", *argv, "--out", str(tmp_path / "x")) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and " needs a " in err, argv
    assert list(tmp_path.iterdir()) == []


def test_non_integral_child_rows_exit_4(tmp_path, capsys):
    prefix = _bundle(tmp_path)
    meta = json.loads((tmp_path / "b.json").read_text())
    assert meta["nested"]["child_rows"] == [0, 1, 6, 7]
    meta["nested"]["child_rows"] = [0.5, 1.5, 6.5, 7.5]
    (tmp_path / "b.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run("verify", "ndm", prefix) == 4
    captured = capsys.readouterr()
    assert "non-integral child row index" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [["export", "nosuch", "--out", "x"], ["catalog", "show", "nosuch"], ["construct", "theorem4", "a=nosuch", "--out", "x"]],
    ids=["export", "catalog-show", "construct-reference"],
)
def test_unknown_catalog_entry_message_is_not_quoted(capsys, argv):
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: unknown catalog entry")


# ---------------------------------------------------------------------------
# the construction table: one grammar for the command line and references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, says",
    [
        (["theorem1", "m=2", "q=5"], "theorem1: unknown parameter q=; known keys of theorem1: m"),
        (["theorem1", "m=2", "m=3"], "theorem1: repeated parameter m="),
        (["thm7", "b=-1"], "thm7: b='-1' does not match [01]; known keys of thm7: plan, b"),
        (["theorem4", "a=raohamming:s=8,k=2,zz=1", "ndm=theorem1:m=2"], "raohamming: unknown parameter zz="),
        (["theorem1", "m= 2"], "m=' 2' does not match"),
        (["theorem1", "m=+2"], "m='+2' does not match"),
        (["theorem1", "m=1_0"], "m='1_0' does not match"),
        (["theorem4", "a=validation:m=2"], "validation builds an array and a nested pair"),
        (["theorem4", "a=nosuch:k=1"], "unknown construction 'nosuch'; known: theorem1, theorem2,"),
        (["trivial", "s=512"], "field order 512 exceeds the supported maximum 256"),
    ],
    ids=["unknown-key", "repeated-key", "flag-out-of-range", "unknown-key-in-reference",
         "space-in-integer", "signed-integer", "underscore-in-integer", "validation-as-reference",
         "unknown-construction-in-reference", "field-order-too-large"],
)
def test_grammar_refusals_exit_2_and_write_nothing(tmp_path, capsys, argv, says):
    capsys.readouterr()
    assert run("construct", *argv, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert list(tmp_path.iterdir()) == []


def test_readme_lists_every_key_of_every_construction():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    para = readme[readme.index("Construction names:"):readme.index("Block plans")]
    listed = {}  # each code span there that starts with table names: its keys
    for span in re.findall(r"`([^`]*)`", para):
        names = span.split()[0].split("|")
        if set(names) <= set(cli.CONSTRUCTIONS):
            for name in names:
                listed.setdefault(name, set()).update(re.findall(r"(\w+)=", span))
    assert set(listed) == set(cli.CONSTRUCTIONS)
    for name, (_kind, keys, _build) in cli.CONSTRUCTIONS.items():
        assert listed[name] == set(keys), name


# integers stay in -1..3, so that every drawn construction is small
INTEGERS = st.one_of(st.sampled_from(["2", "3"]), st.integers(-1, 3).map(str))
MALFORMED = st.sampled_from(["", " 2", "+2", "1_0", "2.0", "0x2", "\u0663", "x"])
TEXTS = st.sampled_from(["a8cols", "b16cols", "gf27_to_gf9", "gf81_to_gf27", "zz", "missing_plan.json"])
CATALOG_REFS = st.sampled_from(["ex11_ndm", "ex12_noa", "d_12_6_6", "seberry_12_12_4", "ex10_a2", "nosuch"])


def _pieces(name, depth):
    """``key=value`` pieces for ``name``: its required keys (mostly) and
    some optional ones with values of their type (integers mostly well
    formed, references ``depth`` deep), then perhaps one more piece: a
    repeated or unknown key, a value of another type or no ``=``."""
    keys = cli.CONSTRUCTIONS[name][1]
    required = [k for k, (_type, default) in keys.items() if default is ...]
    optional = st.lists(st.sampled_from([k for k in keys if k not in required] or ["zz"]), unique=True)

    def piece(k):
        kind = keys[k][0] if k in keys else None
        values = _refs(depth) if kind is cli.REF else TEXTS if kind is cli.TEXT else INTEGERS
        return st.one_of(values, values, values, MALFORMED, TEXTS).map(lambda v: f"{k}={v}")

    # one draw in four leaves out the first required key
    chosen = st.tuples(st.integers(0, 3), optional).flatmap(
        lambda t: st.tuples(*map(piece, (required if t[0] else required[1:]) + t[1]))
    )
    extra = st.one_of(st.sampled_from([*keys, "zz"]).flatmap(piece), st.sampled_from(["", "m", "=2"]))
    return st.tuples(chosen, st.one_of(st.just([]), st.just([]), extra.map(lambda p: [p]))).map(
        lambda t: [*t[0], *t[1]]
    )


def _refs(depth):
    if depth == 0:
        return CATALOG_REFS
    inline = st.sampled_from([*cli.CONSTRUCTIONS, "nosuch"]).flatmap(
        lambda name: _pieces(name if name in cli.CONSTRUCTIONS else "theorem1", depth - 1).map(
            lambda ps: f"{name}:{','.join(ps)}"
        )
    )
    return st.one_of(CATALOG_REFS, inline)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(cli.CONSTRUCTIONS)))
def test_drawn_construct_calls_exit_0_2_3_or_4(data, name):
    pieces = data.draw(_pieces(name, 1))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        cwd = os.getcwd()
        os.chdir(d)  # a drawn relative plan path stays inside the directory
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run("construct", name, *pieces, "--out", os.path.join(d, "x"))
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), (pieces, err.getvalue())
    assert "Traceback" not in err.getvalue()
