"""The single verification gate ``arrays.require``, its carried verdicts,
and the immutability of ``LevelArray`` that makes a carried pass sound."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ex12_inputs, ex13_dm, ex13_noa, thm8_inputs

import nestfill
from nestfill import arrays, cli, nsfd
from nestfill.algebra import GaloisGroup, ResidueGroup, field_make, identity_projection, truncation
from nestfill.arrays import (
    LevelArray,
    NestedPair,
    VerificationError,
    check_dm,
    check_nested,
    check_oa,
    normalize_dm,
    require,
)
from nestfill.catalog import catalog_get
from nestfill.constructions import (
    mult_table,
    ndm_theorem1,
    noa_theorem4,
    noa_theorem5,
    qtw_noa,
    rao_hamming_oa,
    search_nested_rows,
    trivial_oa,
    validation_pair,
)
from nestfill.mixed import mixed_dm_lemma7, ww_from_ndms, ww_from_noas

SRC = os.path.dirname(os.path.dirname(nestfill.__file__))
Z2 = ResidueGroup(2)


def _grid():
    return np.array([[0, 0], [0, 1], [1, 0], [1, 1]])


def _counting(monkeypatch, name):
    """Replace ``arrays.<name>`` by a wrapper; returns the list of first
    arguments it was called with."""
    calls = []
    orig = getattr(arrays, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(arrays, name, counted)
    return calls


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------


def _views(grid):
    """Ways of reaching ``grid``'s buffer, all taken before construction."""
    n, m = grid.shape
    return [grid, grid[:], grid.view(), grid.T.T, grid.reshape(n, m), np.asarray(grid), grid[::1, ::1]]


@st.composite
def _grids(draw):
    s = draw(st.integers(2, 5))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, s - 1), min_size=n * m, max_size=n * m))
    return s, np.array(cells, dtype=np.int64).reshape(n, m)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), sg=_grids())
def test_no_view_taken_before_construction_changes_an_array(data, sg):
    s, grid = sg
    before = grid.copy()
    views = _views(grid)
    given_ = data.draw(st.sampled_from(views))
    if data.draw(st.booleans()):  # a read-only view of a buffer that is still writeable
        given_ = given_.view()
        given_.setflags(write=False)
    a = LevelArray((ResidueGroup(s),) * grid.shape[1], given_)
    verdict = check_oa(a)
    writer = data.draw(st.sampled_from(views))
    r = data.draw(st.integers(0, grid.shape[0] - 1))
    c = data.draw(st.integers(0, grid.shape[1] - 1))
    writer[r, c] = (writer[r, c] + 1) % s
    assert np.array_equal(a.data, before)
    assert check_oa(a) == verdict
    assert not a.data.flags.writeable and grid.flags.writeable


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sg=_grids())
def test_failed_construction_leaves_the_buffer_writeable(data, sg):
    s, grid = sg
    r = data.draw(st.integers(0, grid.shape[0] - 1))
    grid[r, data.draw(st.integers(0, grid.shape[1] - 1))] = s  # outside the alphabet
    given_ = data.draw(st.sampled_from(_views(grid)))
    with pytest.raises(ValueError, match="outside its alphabet"):
        LevelArray((ResidueGroup(s),) * grid.shape[1], given_)
    assert grid.flags.writeable and given_.flags.writeable


def test_public_input_is_copied():
    grid = _grid()
    a = LevelArray((Z2, Z2), grid)
    b = LevelArray(a.groups, a.data)
    assert not np.shares_memory(a.data, grid) and not np.shares_memory(b.data, a.data)


_PAIR = NestedPair(LevelArray((Z2, Z2), _grid()), (0, 1, 2, 3), (identity_projection(Z2),) * 2)


def _relabeled(labels):
    n, m = labels.shape
    return nsfd.RelabeledArray(labels, (n,) * m, (1,) * m, _PAIR)


_FULL = nsfd.Design(np.array([[0.25], [0.75]]), np.array([[1], [2]]), None, True)

#: name -> (dtype of the caller's buffer, the value built from it, the
#: array field that holds the buffer's content)
DESIGN_INTAKES = {
    "RelabeledArray.labels": (np.int64, _relabeled, "labels"),
    "Design.points": (np.float64, lambda b: nsfd.Design(b, np.ones(b.shape, dtype=int), 3, False), "points"),
    "Design.ranks": (np.int64, lambda b: nsfd.Design(np.zeros(b.shape), b, None, True), "ranks"),
    "to_design": (np.int64, lambda b: nsfd.to_design(b, seed=3), "ranks"),
    "NestedDesign.child_points": (np.float64, lambda b: nsfd.NestedDesign(_FULL, b, (0,)), "child_points"),
}


@st.composite
def _rank_grids(draw):
    """Columns that each hold a permutation of 1..n, which ``to_design``
    takes as ranks."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cols = [draw(st.permutations(range(1, n + 1))) for _ in range(m)]
    return np.array(cols, dtype=np.int64).T.copy()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ranks=_rank_grids(), name=st.sampled_from(sorted(DESIGN_INTAKES)))
def test_no_view_taken_before_construction_changes_a_design(data, ranks, name):
    dtype, build, field = DESIGN_INTAKES[name]
    grid = ranks.astype(dtype)
    before = grid.copy()
    views = _views(grid)
    value = build(data.draw(st.sampled_from(views)))
    key = hash(value)
    writer = data.draw(st.sampled_from(views))
    r = data.draw(st.integers(0, grid.shape[0] - 1))
    c = data.draw(st.integers(0, grid.shape[1] - 1))
    writer[r, c] += 1
    held = getattr(value, field)
    assert np.array_equal(held, before) and hash(value) == key
    assert not held.flags.writeable and grid.flags.writeable


def test_values_refuse_non_integral_entries():
    with pytest.raises(ValueError, match="data holds non-integral values"):
        LevelArray((Z2, Z2), [[0.2, 0], [0, 1.9], [1, 0], [1, 1]])
    with pytest.raises(ValueError, match="labels holds non-integral values"):
        nsfd.RelabeledArray(np.array([[1.5]]), (1,), (1,), _PAIR)
    with pytest.raises(ValueError, match="ranks holds non-integral values"):
        nsfd.to_design(np.array([[1.0], [2.5]]), midpoint=True)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-integral"):
            LevelArray((Z2,), [[bad]])
    # integral floats are entries: mixed.py builds its zero column with np.zeros
    assert LevelArray((Z2, Z2), _grid().astype(float)) == LevelArray((Z2, Z2), _grid())


def test_equal_values_short_cut_on_identity(monkeypatch):
    a = LevelArray((Z2, Z2), _grid())
    shared = LevelArray(a.groups, arrays._Owned(a.data))
    monkeypatch.setattr(arrays, "_key", lambda v: pytest.fail("content compared"))
    assert a == a and a == shared and _PAIR == _PAIR


# ---------------------------------------------------------------------------
# the gate and its carried verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["oa", "dm", "noa", "ndm"])
def test_require_refuses_the_wrong_type_as_a_usage_error(kind):
    wrong = LevelArray((Z2, Z2), _grid()) if kind in ("noa", "ndm") else _PAIR
    with pytest.raises(ValueError, match=f"^x: checking as {kind} needs a ") as info:
        require(wrong, kind, "x")
    assert not isinstance(info.value, VerificationError)


def test_second_require_is_not_counted(monkeypatch):
    calls = _counting(monkeypatch, "check_oa")
    a = LevelArray((Z2, Z2), _grid())
    assert require(a, "oa", "grid") == require(a, "oa", "grid")
    assert calls == [a]


def test_rebuilt_equal_object_is_counted_again(monkeypatch):
    calls = _counting(monkeypatch, "check_oa")
    a = LevelArray((Z2, Z2), _grid())
    b = LevelArray(a.groups, a.data)
    assert a == b and a is not b
    require(a, "oa", "a")
    require(b, "oa", "b")
    assert len(calls) == 2 and calls[0] is a and calls[1] is b


def test_kinds_are_carried_separately(monkeypatch):
    oa = _counting(monkeypatch, "check_oa")
    dm = _counting(monkeypatch, "check_dm")
    d = LevelArray((Z2, Z2), _grid())  # an OA and a difference matrix
    require(d, "dm", "d")
    require(d, "oa", "d")
    require(d, "dm", "d")
    assert (len(oa), len(dm)) == (1, 1)


def test_checkers_count_after_a_carried_pass(monkeypatch):
    gf4 = field_make(2, 2)
    a = rao_hamming_oa(gf4, 2)  # gated by its constructor
    require(a, "oa", "a")
    layouts = _counting(monkeypatch, "_block_layout")
    assert check_oa(a) and check_oa(a)
    assert len(layouts) == 2
    d = mult_table(gf4)
    require(d, "dm", "d")
    tables = _counting(monkeypatch, "sub_table")
    assert check_dm(d) and check_dm(d)
    assert len(tables) == 2
    pair = ndm_theorem1(2)  # gated by its constructor
    dms = _counting(monkeypatch, "check_dm")
    assert check_nested(pair, "ndm") and check_nested(pair, "ndm")
    assert len(dms) == 4  # parent and collapsed child, twice


def test_failing_require_raises_and_records_nothing(monkeypatch):
    calls = _counting(monkeypatch, "check_oa")
    bad = LevelArray((Z2, Z2), [[0, 0], [0, 1], [1, 0], [1, 0]])
    for _ in range(2):
        with pytest.raises(VerificationError, match=r"^grid: OA: FAIL - unbalanced level pair"):
            require(bad, "oa", "grid")
    assert len(calls) == 2


def test_construction_error_is_the_verification_error():
    """A constructor's failing gate raises ``VerificationError`` itself (a
    ``ValueError``): exit 3 has one class."""
    one_run = LevelArray((GaloisGroup(field_make(2, 3)),), [[3]])
    with pytest.raises(VerificationError, match="input array") as e:
        noa_theorem4(one_run, ndm_theorem1(2))
    assert type(e.value) is VerificationError
    assert issubclass(VerificationError, ValueError)


@pytest.fixture(scope="module")
def failing_dm():
    """Example 10's child array: an OA after collapse, not a difference matrix."""
    d = catalog_get("ex10_a2").payload
    assert not check_dm(d)
    return d


def test_failing_input_dm_raises_verification_error(failing_dm):
    gf3, gf4, gf8 = field_make(3, 1), field_make(2, 2), field_make(2, 3)
    blocks = [((0,), catalog_get("d_12_6_6").payload), ((1,), failing_dm)]
    calls = [
        lambda: normalize_dm(failing_dm),
        lambda: search_nested_rows(failing_dm, 4, truncation(gf8, gf4), budget=1),
        lambda: ww_from_noas(catalog_get("ex12_noa").payload, blocks),
        lambda: mixed_dm_lemma7(failing_dm, mult_table(gf3), 1),
    ]
    for call in calls:
        with pytest.raises(VerificationError, match="DM: FAIL"):
            call()


# Every gated constructor, run once in a fresh interpreter, with the three
# checkers replaced by wrappers that keep every object they are handed.
# Kept alive, the objects cannot free an id for a later output to reuse.
_FRESH = r"""
import json
import nestfill as nf
from nestfill import arrays

seen = []
for name in ("check_oa", "check_dm", "check_nested"):
    def counted(obj, *rest, _orig=getattr(arrays, name)):
        seen.append(obj)
        return _orig(obj, *rest)
    setattr(arrays, name, counted)

F = nf.field_make
gf2, gf3, gf4, gf8 = F(2, 1), F(3, 1), F(2, 2), F(2, 3)
g2, g3, g8 = nf.GaloisGroup(gf2), nf.GaloisGroup(gf3), nf.GaloisGroup(gf8)
stacked = nf.LevelArray((g2,) * 2, [[0, 0], [0, 1]] * 6)
z2_ndm = nf.NestedPair(stacked, tuple(range(6)), (nf.identity_projection(g2),) * 2)
out = {n: nf.catalog_get(n).payload for n in nf.catalog_names()}
out.update({
    "ndm_theorem1": nf.ndm_theorem1(2),
    "ndm_theorem2": nf.ndm_theorem2(2),
    "ndm_theorem3": nf.ndm_theorem3(2),
    "ndm_sec34_a8cols": nf.ndm_sec34("a8cols"),
    "ndm_sec34_b16cols": nf.ndm_sec34("b16cols"),
    "ndm_p3": nf.ndm_p3("gf27_to_gf9"),
    "rao_hamming_oa": nf.rao_hamming_oa(gf3, 2),
    "qtw_noa": nf.qtw_noa(gf8, gf4, 2),
    "zero_sum_noa": nf.zero_sum_noa(6, 3),
    "noa_theorem4": nf.noa_theorem4(nf.trivial_oa(g8), nf.ndm_theorem1(2)),
    "noa_theorem5": nf.noa_theorem5(nf.qtw_noa(gf8, gf4, 2), nf.mult_table(gf8)),
    "ww_from_noas": nf.ww_from_noas(out["ex12_noa"], [((0,), out["d_12_6_6"]), ((1,), out["seberry_12_12_4"])]),
    "ww_from_ndms": nf.ww_from_ndms(nf.full_factorial((nf.ResidueGroup(6), g2)),
                                    [((0,), out["ex11_ndm"]), ((1,), z2_ndm)]),
    "noa_theorem9": nf.noa_theorem9(nf.mixed_dm_lemma7(nf.mult_table(gf4), nf.mult_table(gf3), 2),
                                    nf.truncation(gf4, gf2), nf.identity_projection(g3)),
})
full, pair, _ = nf.validation_pair(2, nf.trivial_oa(g8))
out.update({"validation_pair(full)": full, "validation_pair(pair)": pair})
print(json.dumps(sorted(k for k, v in out.items() if not any(o is v for o in seen))))
"""


def test_every_gated_output_is_counted_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # these two catalog entries are checked through arrays derived from them:
    # ex10_a2 through its collapse, ex13_d through its paired block and its
    # two component-plus-trailing combinations
    assert json.loads(proc.stdout) == ["ex10_a2", "ex13_d"]


def test_construct_lemma7_counts_each_dm_once(monkeypatch, tmp_path, capsys):
    calls = _counting(monkeypatch, "check_dm")
    assert cli.main(["construct", "lemma7", "--out", str(tmp_path / "l7")]) == 0
    # the two input tables, then the paired block and the two
    # component-plus-trailing combinations
    assert len(calls) == 5
    assert capsys.readouterr().out.splitlines()[-1] == "DM: PASS"


def test_lhd_checks_stratification_with_check_oa(monkeypatch, tmp_path, capsys):
    prefix = str(tmp_path / "b")
    assert cli.main(["construct", "theorem4", "--out", prefix]) == 0
    oa = _counting(monkeypatch, "check_oa")
    strat = []
    monkeypatch.setattr(nsfd, "strat_counts", lambda *a: strat.append(a))
    assert cli.main(["lhd", prefix, "--midpoint", "--out", str(tmp_path / "d")]) == 0
    # parent and collapsed child of the input, then the two binned designs
    assert len(oa) == 4 and strat == []
    assert [a.shape for a in oa[2:]] == [(64, 4), (32, 4)]


_GF8 = GaloisGroup(field_make(2, 3))

#: name -> (inputs, constructor, (check_oa, check_dm, check_nested) calls
#: made by the constructor alone on those inputs)
KRONECKER_GATES = {
    "noa_theorem4": (
        lambda: (trivial_oa(_GF8), ndm_theorem1(2)),
        lambda x: noa_theorem4(*x),
        (3, 0, 1),  # the plain input array, then the output's parent and child
    ),
    "noa_theorem5": (
        lambda: (qtw_noa(_GF8.field, field_make(2, 2), 2), mult_table(_GF8.field)),
        lambda x: noa_theorem5(*x),
        (2, 1, 1),
    ),
    "validation_pair": (
        lambda: trivial_oa(_GF8),
        lambda a: validation_pair(2, a),
        (4, 0, 1),  # the input, the full array, the pair's parent and child
    ),
    "ww_from_noas": (ex12_inputs, lambda x: ww_from_noas(*x), (2, 0, 1)),
    "ww_from_noas(include_b)": (ex12_inputs, lambda x: ww_from_noas(*x, include_b=True), (2, 0, 1)),
    # the hand-built Z2 block and the plain full factorial are counted too
    "ww_from_ndms": (thm8_inputs, lambda x: ww_from_ndms(*x), (3, 2, 2)),
    "ww_from_ndms(include_b)": (thm8_inputs, lambda x: ww_from_ndms(*x, include_b=True), (3, 2, 2)),
    "noa_theorem9": (ex13_dm, ex13_noa, (2, 0, 1)),
}


@pytest.mark.parametrize("name", list(KRONECKER_GATES))
def test_kronecker_constructors_make_the_recorded_verifier_calls(monkeypatch, name):
    inputs, build, want = KRONECKER_GATES[name]
    x = inputs()
    counted = [_counting(monkeypatch, n) for n in ("check_oa", "check_dm", "check_nested")]
    build(x)
    assert tuple(len(c) for c in counted) == want
