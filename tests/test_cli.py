"""Command line contract: verbs, files, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nestfill
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


def test_lhd_requires_seed_or_midpoint(tmp_path):
    prefix = str(tmp_path / "zs")
    assert run("construct", "zerosum", "s1=4", "s2=2", "--out", prefix) == 0
    assert run("lhd", prefix, "--out", str(tmp_path / "no")) == 2
    assert run("lhd", prefix, "--seed", "1", "--midpoint", "--out", str(tmp_path / "no")) == 2


def test_lhd_needs_nesting_metadata(tmp_path):
    prefix = str(tmp_path / "plain")
    assert run("construct", "raohamming", "s=4", "k=2", "--out", prefix) == 0
    assert run("lhd", prefix, "--midpoint", "--out", str(tmp_path / "o")) == 2


def test_export_and_verify_published_table(tmp_path):
    prefix = str(tmp_path / "t4")
    assert run("export", "ex14_table4", "--out", prefix) == 0
    assert run("verify", "oa", prefix) == 0


def test_export_unknown_entry(tmp_path):
    assert run("export", "nope", "--out", str(tmp_path / "x")) == 2


def test_catalog_list_and_show(capsys):
    assert run("catalog", "list") == 0
    names = capsys.readouterr().out.split()
    assert "seberry_12_12_4" in names
    assert run("catalog", "show", "ex3_phi_d2") == 0
    out = capsys.readouterr().out
    assert "4 x 4" in out
    assert run("catalog", "show") == 2


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


def test_verify_malformed_bundle_subprocess_has_no_traceback(tmp_path):
    prefix = _bundle(tmp_path)
    (tmp_path / "b.json").write_text("[]")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "nestfill.cli", "verify", "ndm", prefix],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("s", ["6", "1", "0"])
def test_non_prime_power_order_exit_2(tmp_path, s):
    assert run("construct", "multtable", f"s={s}", "--out", str(tmp_path / "x")) == 2
