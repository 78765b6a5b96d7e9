"""Array types over group alphabets, and the brute-force verifiers.

The two central types are :class:`LevelArray` (an n x m matrix whose column
``j`` takes values in its own alphabet) and :class:`NestedPair` (a parent
array, an ordered list of child row indices, and one level-collapsing
projection per column).  Orthogonal arrays and difference matrices are
LevelArrays in particular roles; nested orthogonal arrays and nested
difference matrices are NestedPairs.

Verification is deliberately definition-level counting: ``check_oa`` counts
every ordered level pair in every column pair, ``check_dm`` counts every
group element in the difference of every column pair i < j (the differences
of j and i are their negatives, so that ordering passes or fails with it).
Both count the pairs of a leading column a block of later columns at a time,
in one ``bincount`` over a column-major copy of the array made once per call
(``check_oa`` puts the leading level in the major digit of each slot), and
no step of either allocates m^2 cells for m columns; ``check_dm`` counts a
small array (at most 128 cells over at most 16 elements) pair by pair in
plain Python instead.  Both judge counts by one rule, the least-count rule:
the counts of a column pair sum to its rows, so when they all expect one
whole number, none is below it only if all equal it, and a pair, or a block
of pairs expecting one count, passes when its least count is the expected
one.  Only a failing block is searched for the witness.  The checkers are
pure: every call counts.

:func:`require` is the one gate on them.  It raises
:class:`VerificationError` on a failing verdict and records a passing kind
on the object it checked, so a later ``require`` of that kind on the same
object returns without counting again.  The record is sound because values
are immutable: arrays, nested pairs and the designs of ``nsfd`` share one
base, ``_Value``, that copies any outside buffer into a read-only array, so
no view taken before construction can reach it, and compares by content.
The constructions elsewhere are gated through ``require``, never the other
way round.

Entries are stored as int32 element indices (``algebra.INDEX_DTYPE``), so an
alphabet has at most 2^31 - 1 elements (``algebra.MAX_ORDER``); the element
objects and their text forms are recovered through the column alphabets.
Outside data is checked against its alphabets in its own dtype before it is
narrowed, so no entry can wrap into range.
Apart from that record every function here is pure.  Checkers report the
first violation in lexicographic column-pair order, so verdicts are
deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from itertools import chain
from typing import Sequence

import numpy as np

from .algebra import (
    INDEX_DTYPE,
    Group,
    Projection,
    _of_kind,
    add_table,
    group_from_dict,
    group_to_dict,
    parse_indices,
    projection_from_dict,
    projection_to_dict,
    sub_table,
    texts_at,
)

__all__ = [
    "FormatError",
    "VerificationError",
    "Verdict",
    "LevelArray",
    "NestedPair",
    "check_oa",
    "check_dm",
    "check_nested",
    "require",
    "collapse",
    "kronecker_add",
    "normalize_dm",
    "subrows",
    "subcols",
    "hstack",
    "cast_group",
    "write_array_csv",
    "read_array_csv",
    "save_bundle",
    "load_bundle",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification, with a witness when it fails.

    ``witness`` carries enough structure for a command line tool to explain
    the first violation: typically the offending column pair, the level
    combination or difference, and the observed versus expected count.
    """

    ok: bool
    kind: str
    reason: str = ""
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        head = f"{self.kind.upper()}: {'PASS' if self.ok else 'FAIL'}"
        if self.ok:
            return head
        parts = [head]
        if self.reason:
            parts.append(self.reason)
        if self.witness:
            parts.append(", ".join(f"{k}={v}" for k, v in self.witness.items()))
        return " - ".join(parts)


class VerificationError(ValueError):
    """An input failed the verification that an operation requires of it."""


class FormatError(ValueError):
    """Text that should hold an array (a bundle CSV, a catalog data file)
    does not."""


#: The unsigned dtype of each signed integer width that reaches ``_admit``.
_UNSIGNED = {4: np.uint32, 8: np.uint64}


class _Owned:
    """A buffer that nestfill has just allocated, or an array field of an
    existing value, already of the field's dtype: a :class:`_Value` takes it
    over as it is.  Any other data is copied.

    ``admitted`` marks a buffer whose every entry was taken from a value
    that admitted it under the same column alphabet (a row or column
    selection, or the same data given row labels): it is not admitted again."""

    __slots__ = ("buf", "admitted")

    def __init__(self, buf: np.ndarray, admitted: bool = False) -> None:
        self.buf = buf
        self.admitted = admitted


def _frozen(value, dtype, name: str, admit=None) -> np.ndarray:
    """A read-only matrix of ``dtype`` holding ``value``: an :class:`_Owned`
    matrix as it is (one of another dtype is a ``TypeError``), anything else
    as a copy.  For an integer ``dtype``, non-integral values are refused,
    naming ``name``; then ``admit(name, data)``, if given (and the buffer is
    not ``admitted``), sees the integers in their own dtype (or ``dtype``, if
    that is wider) before they are narrowed, so that it can refuse a value
    the cast would wrap."""
    dtype = np.dtype(dtype)
    if isinstance(value, _Owned):
        out = value.buf
        if out.dtype != dtype:
            raise TypeError(f"{name}: an owned buffer must be {dtype}, got {out.dtype}")
        if admit is not None and dtype.kind == "i" and not value.admitted:
            admit(name, out)
    else:
        src, fresh = np.asarray(value), False
        if src.ndim < 2:
            src = np.atleast_2d(src)
        if dtype.kind == "i":
            if src.dtype.kind not in "biu":
                with np.errstate(invalid="ignore"):  # NaN and inf are refused below
                    wide = src.astype(np.int64)
                if not np.array_equal(wide, src):
                    raise ValueError(f"{name} holds non-integral values")
                src, fresh = wide, True
            elif src.dtype.itemsize < dtype.itemsize:
                src, fresh = src.astype(dtype), True  # widening changes no value
            if admit is not None:
                admit(name, src)
        out = src.astype(dtype, copy=not fresh)
    out.setflags(write=False)
    return out


def _key(v):
    """Hashable content of a field: dtype, shape and bytes of an array."""
    return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v


class _Value:
    """Base of the frozen value dataclasses (declared ``eq=False``): each
    field named in ``_arrays`` comes in through :func:`_frozen` with the
    dtype given there; equality and hashing are by the content of all fields.
    A field that is the same object on both sides is equal without being
    read, so a value equals itself, or one sharing its arrays, at no cost."""

    _arrays: dict = {}  # field name -> dtype

    def __post_init__(self) -> None:
        for name, dtype in self._arrays.items():
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, name, self._admit))

    def _admit(self, name: str, data: np.ndarray) -> None:
        """Check integer field ``name`` as it comes in, before any cast
        narrows it; see :func:`_frozen`.  The base admits everything."""

    def _values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or _key(a) == _key(b) for a, b in zip(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(tuple(map(_key, self._values())))


@dataclass(frozen=True, eq=False)
class LevelArray(_Value):
    """An n x m matrix of group elements with a per-column alphabet.

    ``data`` holds element indices, as ``INDEX_DTYPE``.  ``row_labels``
    (indices into ``label_group``) record provenance such as the field
    elements labelling the rows of a multiplication table; they ride along
    through row and column selection.
    """

    groups: tuple[Group, ...]
    data: np.ndarray
    row_labels: tuple[int, ...] | None = None
    label_group: Group | None = None

    _arrays = {"data": INDEX_DTYPE}

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        super().__post_init__()
        object.__setattr__(self, "_passed", set())
        if self.label_group is not None:
            _of_kind(self.label_group, Group, "label_group")
        if self.row_labels is not None:
            if self.label_group is None:
                raise ValueError("row_labels given without a label_group")
            labels = _check_indices(self.row_labels, self.label_group.order, "row label", self.label_group)
            if len(labels) != self.data.shape[0]:
                raise ValueError("row_labels length does not match the row count")
            object.__setattr__(self, "row_labels", labels)

    def _admit(self, name: str, data: np.ndarray) -> None:
        """One column per alphabet, every entry inside its column's alphabet;
        of several bad entries, the one in the lowest column, then the lowest
        row, is named."""
        groups = self.groups
        for j, g in enumerate(groups):
            if not isinstance(g, Group):  # formats no name per column
                _of_kind(g, Group, f"column {j}")
        if data.ndim != 2 or data.shape[1] != len(groups):
            raise ValueError(
                f"data shape {data.shape} does not match {len(groups)} column alphabets"
            )
        if data.size:
            # read as unsigned, a negative entry is above every order (all are
            # below 2**31), so one maximum per alphabet tests both ends
            unsigned = data.view(_UNSIGNED[data.itemsize]) if data.dtype.kind == "i" else data
            if groups.count(groups[0]) == len(groups):
                outside = unsigned.max() >= groups[0].order
            else:
                orders = np.array([g.order for g in groups], dtype=np.uint64)
                outside = np.count_nonzero(unsigned.max(axis=0) >= orders)
            if outside:
                for j, g in enumerate(groups):
                    bad = np.flatnonzero((data[:, j] < 0) | (data[:, j] >= g.order))
                    if bad.size:
                        raise ValueError(
                            f"entry at row {bad[0]}, column {j} is outside its alphabet {g.describe()}"
                        )

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def texts(self) -> list[list[str]]:
        """Canonical text of every entry, rendered one column at a time."""
        grid = np.empty(self.shape, dtype=object)
        for j, g in enumerate(self.groups):
            grid[:, j] = texts_at(g, self.data[:, j])
        return grid.tolist()

    def uniform_group(self) -> Group:
        """The single shared alphabet, or raise if there are no columns or
        they differ."""
        if not self.groups or self.groups.count(self.groups[0]) != len(self.groups):
            raise ValueError(
                "columns do not share a single alphabet; this operation needs one"
            )
        return self.groups[0]

    def label_texts(self) -> list[str] | None:
        if self.row_labels is None:
            return None
        return [self.label_group.text_at(i) for i in self.row_labels]

    @classmethod
    def from_text(cls, groups: Sequence[Group] | Group, text: str, where: str = "text") -> "LevelArray":
        """Parse a whitespace grid of element texts, one row per line.  A
        single alphabet takes its width from the first row.  Malformed text
        raises :class:`FormatError` naming ``where``."""
        rows = [cells for cells in (ln.split() for ln in text.splitlines()) if cells]
        if not rows:
            raise FormatError(f"{where}: no rows")
        if isinstance(groups, Group):
            groups = (groups,) * len(rows[0])
        return cls(tuple(groups), _Owned(_parse_grid(groups, rows, where)))


@dataclass(frozen=True, eq=False)
class NestedPair(_Value):
    """A parent array plus the data singling out its nested child.

    ``child_rows`` are ordered, distinct indices into the parent; the child
    preserves parent row order.  ``projections[j]`` collapses the levels of
    parent column ``j``; its source alphabet must equal that column's.
    """

    parent: LevelArray
    child_rows: tuple[int, ...]
    projections: tuple[Projection, ...]

    def __post_init__(self) -> None:
        rows = _check_indices(self.child_rows, self.parent.n_rows, "child row")
        object.__setattr__(self, "child_rows", rows)
        object.__setattr__(self, "projections", tuple(self.projections))
        if len(self.projections) != self.parent.n_cols:
            raise ValueError("need exactly one projection per parent column")
        for j, (proj, g) in enumerate(zip(self.projections, self.parent.groups)):
            if proj.source != g:
                raise ValueError(
                    f"projection for column {j} has source {proj.source.describe()}, "
                    f"column alphabet is {g.describe()}"
                )
        object.__setattr__(self, "_passed", set())

    @property
    def child_size(self) -> int:
        return len(self.child_rows)

    def child(self) -> LevelArray:
        return subrows(self.parent, self.child_rows)

    def collapsed_child(self) -> LevelArray:
        return collapse(self.child(), self.projections)


# ---------------------------------------------------------------------------
# Verifiers.
# ---------------------------------------------------------------------------


def _spans(start: int, stop: int, width: int, runs=None):
    """Consecutive column ranges ``[j0, j1)`` covering ``start..stop``, cut
    at the multiples of ``width`` and, given ``runs``, where the column
    order changes: ``runs[j]`` ends the run of equal orders holding ``j``."""
    while start < stop:
        end = min(stop, (start // width + 1) * width)
        if runs is not None:
            end = min(end, runs[start])
        yield start, end
        start = end


def _block_width(n: int) -> int:
    """Columns counted in one block: at least 16, and about 64k cells."""
    return max(16, (1 << 16) // n)


def _block_layout(data: np.ndarray, s: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A column-major copy of ``data``, each column raised by ``P[j]``, the
    orders of the columns before ``j`` in its block, and ``P`` itself.
    A column of the copy is one contiguous read.  Every pair code of a block
    is below ``top = max(s) * max(P + s)``, and the copy takes the narrowest
    dtype that holds it: int16 when ``top < 2**15``, int32 when ``top <
    2**31``, int64 otherwise.  It is always a new, writeable array:
    ``np.ascontiguousarray`` would hand back a one-column ``data`` itself."""
    before = np.cumsum(s) - s
    before -= before[np.arange(len(s)) // width * width]
    top = int(s.max()) * int((before + s).max())
    dtype = np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64
    out = np.array(data.T, dtype=dtype, order="C")
    out += before[:, None]
    return out, before


def check_oa(a: LevelArray) -> Verdict:
    """Strength-two verdict by exhaustive pair counting.

    PASS iff for every unordered column pair every ordered level combination
    occurs exactly ``n / (s_i * s_j)`` times.  A single-column array is
    checked for level balance instead.  The first violation, in lexicographic
    (i, j) then combination order, is returned as the witness.

    The pairs of a leading column ``i`` are counted a block of later columns
    at a time, with one ``bincount`` over a column-major copy of the array
    made once per call (:func:`_block_layout`).  A block ends at a multiple
    of the block width and wherever the column order changes, so its columns
    share one order ``s_j``: it is tested for divisibility once, with
    ``n % (s_i * s_j)``, and passes by the least-count rule.  The leading
    level is a slot's major digit: in a block ``j0..j1-1`` with ``w = (j1 -
    j0) * s_j``, the level pair (l_i, l_j) of pair (i, j) is slot ``l_i * w
    + l_j + P[j] - P[j0]``, where ``P[j]`` sums the orders of the columns
    before ``j`` in its width block.  Read as ``(s_i, j1 - j0, s_j)``, the
    counts of pair (i, j0 + k) are ``[:, k, :]``, in lexicographic level
    order.  The copy, the leading column and the codes share the narrowest
    dtype that holds every code, which is below ``s_i * (P[j0] + w) <=
    top``.  No step allocates m^2 cells: a block holds about 64k cells, and
    the rest is O(m).
    """
    n, m = a.shape
    if n == 0 or m == 0:
        return Verdict(False, "oa", f"empty array: {n} rows, {m} columns")
    if m == 1:
        s = a.groups[0].order
        if n % s:
            return Verdict(False, "oa", f"{n} rows not divisible by {s} levels")
        counts = np.bincount(a.data[:, 0], minlength=s)
        if counts.min() != n // s:
            lvl = int(np.argmin(counts))
            return Verdict(
                False,
                "oa",
                "single column is not level-balanced",
                {"level": a.groups[0].text_at(lvl), "count": int(counts[lvl]), "expected": n // s},
            )
        return Verdict(True, "oa")
    s = np.array([g.order for g in a.groups], dtype=np.int64)
    width = _block_width(n)
    runs = [m] * m
    for j in range(m - 2, -1, -1):
        runs[j] = runs[j + 1] if s[j] == s[j + 1] else j + 1
    layout = None
    for i in range(m - 1):
        si = int(s[i])
        col = None
        for j0, j1 in _spans(i + 1, m, width, runs):
            sj = int(s[j0])
            want, rem = divmod(n, si * sj)
            if rem:
                return Verdict(
                    False,
                    "oa",
                    f"{n} rows not divisible by {si}*{sj} level combinations",
                    {"columns": (i, j0)},
                )
            if layout is None:
                layout, before = _block_layout(a.data, s, width)
            if col is None:
                col = a.data[:, i].astype(layout.dtype)
            w = (j1 - j0) * sj
            codes = layout[j0:j1] + col * w
            counts = np.bincount(codes.ravel(), minlength=before[j0] + si * w)[before[j0]:]
            if counts.min() == want:
                continue
            k = int(np.argmax((counts.reshape(si, -1, sj) != want).any(axis=(0, 2))))
            cell = counts.reshape(si, -1, sj)[:, k].ravel()
            code = int(np.argmax(cell != want))
            return Verdict(
                False,
                "oa",
                "unbalanced level pair",
                {
                    "columns": (i, j0 + k),
                    "levels": (a.groups[i].text_at(code // sj), a.groups[j0 + k].text_at(code % sj)),
                    "count": int(cell[code]),
                    "expected": want,
                },
            )
    return Verdict(True, "oa")


#: ``check_dm`` counts an array of at most ``_PAIRWISE_CELLS`` cells over an
#: alphabet of at most ``_PAIRWISE_ORDER`` elements pair by pair in Python
#: (:func:`_dm_pairs`), and anything larger in numpy blocks
#: (:func:`_dm_blocks`).  On passing arrays (2 vCPU, Python 3.11, numpy 2.4)
#: the pair kernel takes 0.52-0.93 of the block kernel's time up to 128
#: cells at orders 2-16, 0.65-1.14 at 160-192 cells, and 1.13-1.35 at 256;
#: above order 16, where converting the order**2-cell table each call
#: dominates, it is no faster at any size.
_PAIRWISE_CELLS = 128
_PAIRWISE_ORDER = 16


def _dm_pairs(data: np.ndarray, diff: np.ndarray, order: int, want: int):
    """First unbalanced column pair, by one pass over the rows per pair.

    Returns ``(i, j, e, count)`` for the first pair (i, j), i < j, whose
    differences hold element ``e`` a number of times ``count`` other than
    ``want``, with ``e`` the lowest such element; None if every pair is
    balanced.  ``diff`` is the (order, order) subtraction table.  Plain
    lists and no numpy call per pair: on a small array numpy's fixed cost
    per call is most of the work, and most failing arrays fail on the
    first pair.
    """
    cols = data.T.tolist()
    rows = diff.tolist()  # rows[l_i][l_j] is l_i - l_j
    m = len(cols)
    for i in range(m - 1):
        lead = [rows[x] for x in cols[i]]
        for j in range(i + 1, m):
            counts = [0] * order
            for row, y in zip(lead, cols[j]):
                counts[row[y]] += 1
            # all counts equal want exactly when the least does (they sum to
            # b); ``list.count`` costs about a sixth of ``min`` here
            if counts.count(want) != order:
                for e, c in enumerate(counts):
                    if c != want:
                        return i, j, e, c
    return None


def _dm_blocks(data: np.ndarray, diff: np.ndarray, order: int, want: int):
    """:func:`_dm_pairs`' answer, counted a block of later columns at a
    time: the pairs of a leading column ``i`` with columns ``j0..j1-1`` are
    one table gather and one ``bincount``, pair (i, j0 + k) owning the
    ``order`` slots from ``k * order`` on."""
    b, m = data.shape
    width = _block_width(b)
    diff = diff.ravel()  # cell l_i * order + l_j holds l_i - l_j
    # intp: l_i * order + l_j indexes diff, passes 2**31 above order 46340,
    # and numpy would convert narrower indices on every gather
    cols = np.array(data.T, dtype=np.intp, order="C")
    # column k of a block counts its differences from slot k * order
    slots = np.arange(0, min(width, m) * order, order, dtype=INDEX_DTYPE)[:, None]
    for i in range(m - 1):
        lead = cols[i] * order
        for j0, j1 in _spans(i + 1, m, width):
            diffs = diff[cols[j0:j1] + lead]
            diffs += slots[: j1 - j0]
            counts = np.bincount(diffs.ravel(), minlength=(j1 - j0) * order)
            if counts.min() != want:
                first = int(np.argmax(counts != want))
                k, e = divmod(first, order)
                return i, j0 + k, e, int(counts[first])
    return None


def check_dm(d: LevelArray) -> Verdict:
    """Difference-matrix verdict by exhaustive difference counting.

    All columns must share one alphabet (mixed alphabets raise, they are a
    usage error rather than a verification failure).  PASS iff for every
    ordered column pair the elementwise difference contains each group
    element exactly ``b / g`` times.  Only the pairs i < j are counted: the
    differences of (j, i) are the negatives of those of (i, j), so its counts
    are those of (i, j) permuted by negation.  (j, i) fails exactly when
    (i, j) does, and (i, j) comes first in the order witnesses are reported
    in.

    Two kernels count, both through ``sub_table``, and both report the
    same witness: the first unbalanced pair in lexicographic (i, j) order,
    and in it the lowest element whose count is off.  An array of at most
    ``_PAIRWISE_CELLS`` (128) cells over an alphabet of at most
    ``_PAIRWISE_ORDER`` (16) elements is counted pair by pair in plain
    Python (:func:`_dm_pairs`), stopping at the first unbalanced pair; every
    other array a block of later columns at a time in numpy, as in
    :func:`check_oa` (:func:`_dm_blocks`).  Both pass a pair by the
    least-count rule, as :func:`check_oa` does: its ``order`` counts sum to
    ``b``.
    """
    b, m = d.data.shape
    if b == 0 or m == 0:
        return Verdict(False, "dm", f"empty array: {b} rows, {m} columns")
    g = d.uniform_group()
    order = g.order
    if b % order:
        return Verdict(False, "dm", f"{b} rows not divisible by group order {order}")
    want = b // order
    small = b * m <= _PAIRWISE_CELLS and order <= _PAIRWISE_ORDER
    bad = (_dm_pairs if small else _dm_blocks)(d.data, sub_table(g), order, want)
    if bad is None:
        return Verdict(True, "dm")
    i, j, e, count = bad
    return Verdict(
        False,
        "dm",
        "unbalanced column difference",
        {"columns": (i, j), "element": g.text_at(e), "count": count, "expected": want},
    )


def check_nested(p: NestedPair, kind: str) -> Verdict:
    """Verify a nested pair: the parent and the collapsed child must both pass.

    ``kind`` is ``"noa"`` (orthogonal-array mode) or ``"ndm"`` (difference
    matrix mode).  The verdict carries the failing side's witness.
    """
    if kind not in ("noa", "ndm"):
        raise ValueError(f"kind must be 'noa' or 'ndm', got {kind!r}")
    inner = check_oa if kind == "noa" else check_dm
    parent = inner(p.parent)
    if not parent:
        return Verdict(False, kind, f"parent fails: {parent.reason}", parent.witness)
    child = inner(p.collapsed_child())
    if not child:
        return Verdict(False, kind, f"collapsed child fails: {child.reason}", child.witness)
    return Verdict(True, kind)


def require(obj: LevelArray | NestedPair, kind: str, what: str) -> Verdict:
    """Check ``obj`` as ``kind`` (``"oa"``, ``"dm"``, ``"noa"`` or
    ``"ndm"``) and return the passing verdict; a failing one raises
    :class:`VerificationError` headed by ``what``.

    A pass is recorded on ``obj`` itself, so a later ``require`` of the same
    kind on the same object returns without counting.  An equal object built
    anew is counted again.  The checkers are looked up by name at each call.
    An object of the wrong type for ``kind`` is a usage error
    (``ValueError``), not a failed verification.
    """
    want = NestedPair if kind in ("noa", "ndm") else LevelArray
    if not isinstance(obj, want):
        raise ValueError(f"{what}: checking as {kind} needs a {want.__name__}, got {type(obj).__name__}")
    if kind in obj._passed:
        return Verdict(True, kind)
    if kind == "oa":
        verdict = check_oa(obj)
    elif kind == "dm":
        verdict = check_dm(obj)
    else:
        verdict = check_nested(obj, kind)
    if not verdict:
        raise VerificationError(f"{what}: {verdict.describe()}")
    obj._passed.add(kind)
    return verdict


# ---------------------------------------------------------------------------
# Structural operations.
# ---------------------------------------------------------------------------


def collapse(a: LevelArray, projections: Sequence[Projection] | Projection) -> LevelArray:
    """Apply one projection per column; shape is preserved, alphabets change.

    One gather per distinct projection object: a projection serving every
    column maps the whole array at once, and otherwise the columns of each
    projection are mapped together."""
    if isinstance(projections, Projection):
        projections = (projections,) * a.n_cols
    projections = tuple(projections)
    if len(projections) != a.n_cols:
        raise ValueError("need exactly one projection per column")
    columns: dict[int, list[int]] = {}
    for j, proj in enumerate(projections):
        if proj.source != a.groups[j]:
            raise ValueError(
                f"projection source {proj.source.describe()} does not match "
                f"column {j} alphabet {a.groups[j].describe()}"
            )
        columns.setdefault(id(proj), []).append(j)
    if len(columns) == 1:
        data = projections[0].np_table().take(a.data)
    else:
        data = np.empty(a.shape, dtype=INDEX_DTYPE)
        for js in columns.values():
            data[:, js] = projections[js[0]].np_table().take(a.data[:, js])
    return LevelArray(
        tuple(p.target for p in projections),
        _Owned(data),
        row_labels=a.row_labels,
        label_group=a.label_group,
    )


def kronecker_add(a: LevelArray, d: LevelArray) -> LevelArray:
    """Additive Kronecker product: block (i, j) is ``a[i, j] + d``.

    Both arrays must share a single common alphabet.  Output row
    ``i * d.n_rows + r`` pairs row ``i`` of ``a`` with row ``r`` of ``d``,
    and output column ``j * d.n_cols + k`` pairs the respective columns.
    """
    ga, gd = a.uniform_group(), d.uniform_group()
    if ga != gd:
        raise ValueError(
            f"alphabet mismatch: {ga.describe()} versus {gd.describe()}"
        )
    tab = add_table(ga)
    na, ma = a.shape
    nd, md = d.shape
    out = tab[a.data[:, None, :, None], d.data[None, :, None, :]]
    return LevelArray((ga,) * (ma * md), _Owned(out.reshape(na * nd, ma * md)))


def normalize_dm(d: LevelArray) -> LevelArray:
    """Subtract column one from every column, giving the [0 | uniform] form."""
    require(d, "dm", "input is not a difference matrix")
    data = sub_table(d.uniform_group())[d.data, d.data[:, [0]]]
    return LevelArray(d.groups, _Owned(data), row_labels=d.row_labels, label_group=d.label_group)


def _check_indices(
    idx: Sequence[int], bound: int, what: str, alphabet: Group | None = None
) -> tuple[int, ...]:
    """``idx`` as a tuple of distinct ints in ``0..bound-1``; values that
    ``int`` would change are refused.  Indices into the elements of an
    ``alphabet`` name the first one out of range and the alphabet."""
    idx = tuple(idx)
    try:
        out = tuple(map(int, idx))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != idx:
        raise ValueError(f"non-integral {what} index")
    if out and (min(out) < 0 or max(out) >= bound):
        if alphabet is None:
            raise ValueError(f"{what} index out of range")
        bad = next(v for v in out if not 0 <= v < bound)
        raise ValueError(f"{what} {bad} is outside its alphabet {alphabet.describe()}")
    if len(set(out)) != len(out):
        raise ValueError(f"{what} indices must be distinct, got a duplicate")
    return out


def subrows(a: LevelArray, rows: Sequence[int]) -> LevelArray:
    rows = _check_indices(rows, a.n_rows, "row")
    labels = None
    if a.row_labels is not None:
        labels = tuple(a.row_labels[i] for i in rows)
    return LevelArray(a.groups, _Owned(a.data[list(rows), :], admitted=True), row_labels=labels, label_group=a.label_group)


def subcols(a: LevelArray, cols: Sequence[int]) -> LevelArray:
    cols = _check_indices(cols, a.n_cols, "column")
    return LevelArray(
        tuple(a.groups[j] for j in cols),
        _Owned(a.data[:, list(cols)], admitted=True),
        row_labels=a.row_labels,
        label_group=a.label_group,
    )


def hstack(arrays: Sequence[LevelArray]) -> LevelArray:
    """Juxtapose arrays with equal row counts; labels are dropped."""
    if not arrays:
        raise ValueError("hstack needs at least one array")
    n = arrays[0].n_rows
    if any(a.n_rows != n for a in arrays):
        raise ValueError("row counts differ")
    groups = tuple(g for a in arrays for g in a.groups)
    return LevelArray(groups, _Owned(np.hstack([a.data for a in arrays])))


def cast_group(a: LevelArray, group: Group) -> LevelArray:
    """Reinterpret all columns over ``group``.

    Allowed only when the index-level addition tables agree, i.e. the two
    alphabets are the same abelian group under the canonical enumeration
    (for example GF(4) and Z_2 x Z_2).
    """
    old = a.uniform_group()
    if old.order != group.order or not np.array_equal(add_table(old), add_table(group)):
        raise ValueError(
            f"cannot cast {old.describe()} to {group.describe()}: addition tables differ"
        )
    return LevelArray((group,) * a.n_cols, _Owned(a.data), row_labels=a.row_labels, label_group=a.label_group)


# ---------------------------------------------------------------------------
# CSV and JSON sidecar formats.
# ---------------------------------------------------------------------------


def _temporary(path: str, content: str | bytes) -> str:
    """A new temporary file beside ``path`` holding ``content``.  The
    exclusive open gives it the mode any new file gets under the umask and
    leaves a name that exists alone; the name is short so that a long
    ``path`` cannot push it past the file-name limit."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb" if isinstance(content, bytes) else "x")
    try:
        with fh:
            fh.write(content)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _atomic_write(files: dict[str, str | bytes]) -> None:
    """Write each ``path: content`` of ``files``, all of them or none.

    Every temporary file is written before any file is replaced.  If a
    write or a replace raises, the temporary files are removed and the files
    already replaced get their old bytes back (or are removed, if they are
    new), so a failure leaves no new file beside an old one unless putting
    one back fails too.
    """
    temps: dict[str, str] = {}
    replaced: list[tuple[str, bytes | None]] = []  # each replaced file and its old bytes
    try:
        for path, content in files.items():
            temps[path] = _temporary(path, content)
        *first, last = temps
        for path in first:
            try:
                with open(path, "rb") as fh:
                    old = fh.read()
            except FileNotFoundError:
                old = None
            os.replace(temps[path], path)
            del temps[path]
            replaced.append((path, old))
        # nothing can fail once the last file is in place: its old bytes
        # are never put back, so they are not read
        os.replace(temps[last], last)
        del temps[last]
    except BaseException:
        for tmp in temps.values():
            os.unlink(tmp)
        for path, old in replaced:
            if old is None:
                os.unlink(path)
            else:
                _atomic_write({path: old})
        raise


def _parse_grid(groups: Sequence[Group], rows: list[list[str]], where: str) -> np.ndarray:
    """Element indices of a grid of cell texts: the one reader of bundle
    CSVs, catalog data files and sidecar row labels.

    The cells of all the columns that share an alphabet are read in one
    pass of ``parse_indices``; the rest go through ``parse_index`` in
    column-major order, and the first that does not parse raises
    :class:`FormatError` with its position: of several, the one in the
    lowest column, then the lowest row, whatever the alphabets.
    """
    m = len(groups)
    for r, cells in enumerate(rows):
        if len(cells) != m:
            raise FormatError(f"{where}: row {r + 1} has {len(cells)} cells, expected {m}")
    data = np.empty((len(rows), m), dtype=INDEX_DTYPE)
    columns: dict[Group, list[int]] = {}
    for j, g in enumerate(groups):
        columns.setdefault(g, []).append(j)
    for g, js in columns.items():
        cells = list(chain.from_iterable(rows)) if len(js) == m else [row[j] for row in rows for j in js]
        data[:, js] = parse_indices(g, cells).reshape(len(rows), len(js))
    for j, r in np.argwhere(data.T < 0).tolist():
        try:
            data[r, j] = groups[j].parse_index(rows[r][j])
        except ValueError as e:
            raise FormatError(f"{where}: row {r + 1}, column {j + 1}: {e}") from None
    return data


def _csv_text(a: LevelArray) -> str:
    """The run matrix as CSV text: header ``c1,...,cm``, canonical element text."""
    lines = [",".join(f"c{j + 1}" for j in range(a.n_cols))]
    lines.extend(",".join(row) for row in a.texts())
    return "\n".join(lines) + "\n"


def write_array_csv(path: str, a: LevelArray) -> None:
    """Write the run matrix: header ``c1,...,cm``, canonical element text."""
    _atomic_write({path: _csv_text(a)})


def read_array_csv(path: str, groups: Sequence[Group]) -> LevelArray:
    """Inverse of :func:`write_array_csv`; malformed text raises
    :class:`FormatError`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file, expected a header line")
    header = lines[0].split(",")
    if len(header) != len(groups):
        raise FormatError(f"{path}: header has {len(header)} columns, expected {len(groups)}")
    return LevelArray(tuple(groups), _Owned(_parse_grid(groups, [ln.split(",") for ln in lines[1:]], path)))


def _sidecar_dict(obj: LevelArray | NestedPair, kind: str | None) -> dict:
    arr = obj.parent if isinstance(obj, NestedPair) else obj
    d: dict = {
        "columns": [group_to_dict(g) for g in arr.groups],
        "row_labels": arr.label_texts(),
        "label_group": group_to_dict(arr.label_group) if arr.label_group else None,
        "kind": kind,
        "nested": None,
    }
    if isinstance(obj, NestedPair):
        d["nested"] = {
            "child_rows": list(obj.child_rows),
            "projections": [projection_to_dict(p) for p in obj.projections],
        }
    return d


def save_bundle(prefix: str, obj: LevelArray | NestedPair, kind: str | None = None) -> tuple[str, str]:
    """Write ``prefix.csv`` plus the ``prefix.json`` sidecar; returns the paths.
    Both are rendered before either is written, and they replace the old
    pair together: a failure leaves the old pair (or no file) in place.  The
    sidecar goes first, so only its old bytes, not the CSV's, are held."""
    arr = obj.parent if isinstance(obj, NestedPair) else obj
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    sidecar = json.dumps(_sidecar_dict(obj, kind), indent=1) + "\n"
    _atomic_write({json_path: sidecar, csv_path: _csv_text(arr)})
    return csv_path, json_path


def _once_per_spec(build):
    """``build`` wrapped to run once per distinct sidecar dict, keyed on the
    dict's exact text (its ``repr``), so that equal specs share one
    validated object while ``2``, ``2.0`` and ``true`` stay distinct keys."""
    made: dict = {}

    def get(spec):
        key = repr(spec)
        if key not in made:
            made[key] = build(spec)
        return made[key]

    return get


def load_bundle(prefix: str) -> tuple[LevelArray | NestedPair, str | None]:
    """Inverse of :func:`save_bundle`.

    Each distinct column alphabet and projection spec of the sidecar is
    built and validated once per load; the columns that repeat a spec share
    its object.  The sidecar's row labels are read as a one-column grid, and
    the data admitted with the CSV is not admitted again when they are
    attached.  A missing or unreadable file raises ``OSError``; any
    malformed content (bad JSON, wrong sidecar structure, bad CSV text, an
    object that fails its own validation) raises :class:`FormatError`.
    """
    try:
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict) or not isinstance(meta.get("columns"), list):
            raise ValueError("sidecar is not a JSON object with a 'columns' list")
        groups = list(map(_once_per_spec(group_from_dict), meta["columns"]))
        arr = read_array_csv(prefix + ".csv", groups)
        if meta.get("label_group"):
            label_group = group_from_dict(meta["label_group"])
            labels = _parse_grid((label_group,), [[t] for t in meta["row_labels"]], "row_labels")
            arr = LevelArray(arr.groups, _Owned(arr.data, admitted=True), row_labels=labels[:, 0], label_group=label_group)
        nested = meta.get("nested")
        if nested:
            projections = tuple(map(_once_per_spec(projection_from_dict), nested["projections"]))
            return NestedPair(arr, tuple(nested["child_rows"]), projections), meta.get("kind")
        return arr, meta.get("kind")
    except (LookupError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise FormatError(f"malformed bundle {prefix}: {detail}") from e
