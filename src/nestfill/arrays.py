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
in one ``bincount`` over a column-major copy of the array.  The checkers
are pure: every call counts.

:func:`require` is the one gate on them.  It raises
:class:`VerificationError` on a failing verdict and records a passing kind
on the object it checked, so a later ``require`` of that kind on the same
object returns without counting again.  The record is sound because values
are immutable: arrays, nested pairs and the designs of ``nsfd`` share one
base, ``_Value``, that copies any outside buffer into a read-only array, so
no view taken before construction can reach it, and compares by content.
The constructions elsewhere are gated through ``require``, never the other
way round.

Entries are stored as integer element indices (see ``algebra``); the element
objects and their text forms are recovered through the column alphabets.
Apart from that record every function here is pure.  Checkers report the
first violation in lexicographic column-pair order, so verdicts are
deterministic.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    Group,
    Projection,
    add_table,
    group_from_dict,
    group_to_dict,
    projection_from_dict,
    projection_to_dict,
    sub_table,
    text_codec,
)

__all__ = [
    "FormatError",
    "BundleFormatError",
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


class _Owned:
    """A buffer that nestfill has just allocated, or an array field of an
    existing value: a :class:`_Value` takes it over as it is.  Any other
    data is copied."""

    __slots__ = ("buf",)

    def __init__(self, buf: np.ndarray) -> None:
        self.buf = buf


def _frozen(value, dtype, name: str) -> np.ndarray:
    """A read-only matrix of ``dtype`` holding ``value``: an :class:`_Owned`
    buffer as it is (cast if its dtype differs), anything else as a copy.
    Values that an integer cast would change are refused, naming ``name``."""
    owned = isinstance(value, _Owned)
    src = np.asarray(value.buf if owned else value)
    if src.dtype.kind not in "biu" and np.dtype(dtype).kind == "i":
        with np.errstate(invalid="ignore"):  # NaN and inf are refused below
            out = src.astype(dtype)
        if not np.array_equal(out, src):
            raise ValueError(f"{name} holds non-integral values")
    else:
        out = src.astype(dtype, copy=not owned)
    if out.ndim < 2:
        out = np.atleast_2d(out)
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
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, name))

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

    ``data`` holds element indices.  ``row_labels`` (indices into
    ``label_group``) record provenance such as the field elements labelling
    the rows of a multiplication table; they ride along through row and
    column selection.
    """

    groups: tuple[Group, ...]
    data: np.ndarray
    row_labels: tuple[int, ...] | None = None
    label_group: Group | None = None

    _arrays = {"data": np.int64}

    def __post_init__(self) -> None:
        super().__post_init__()
        data, groups = self.data, tuple(self.groups)
        object.__setattr__(self, "_passed", set())
        object.__setattr__(self, "groups", groups)
        if data.ndim != 2 or data.shape[1] != len(groups):
            raise ValueError(
                f"data shape {data.shape} does not match {len(groups)} column alphabets"
            )
        if data.size:
            # read as unsigned, a negative entry is above every order, so one
            # maximum per alphabet tests both ends
            if groups.count(groups[0]) == len(groups):
                outside = data.view(np.uint64).max() >= groups[0].order
            else:
                orders = np.array([g.order for g in groups], dtype=np.uint64)
                outside = np.count_nonzero(data.view(np.uint64).max(axis=0) >= orders)
            if outside:
                orders = np.array([g.order for g in groups])
                j = int(np.argmax((data.min(axis=0) < 0) | (data.max(axis=0) >= orders)))
                g, col = groups[j], data[:, j]
                bad = int(np.argmax((col < 0) | (col >= g.order)))
                raise ValueError(
                    f"entry at row {bad}, column {j} is outside its alphabet {g.describe()}"
                )
        if self.row_labels is not None:
            if self.label_group is None:
                raise ValueError("row_labels given without a label_group")
            labels = _check_indices(self.row_labels, self.label_group.order, "row label", self.label_group)
            if len(labels) != data.shape[0]:
                raise ValueError("row_labels length does not match the row count")
            object.__setattr__(self, "row_labels", labels)

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def entry(self, i: int, j: int):
        return self.groups[j].element(int(self.data[i, j]))

    def entry_text(self, i: int, j: int) -> str:
        return self.groups[j].text_at(int(self.data[i, j]))

    def row_texts(self, i: int) -> list[str]:
        return [text_codec(g)[0][v] for g, v in zip(self.groups, self.data[i].tolist())]

    def texts(self) -> list[list[str]]:
        """Canonical text of every entry, rendered one column at a time."""
        grid = np.empty(self.shape, dtype=object)
        for j, g in enumerate(self.groups):
            grid[:, j] = np.array(text_codec(g)[0], dtype=object)[self.data[:, j]]
        return grid.tolist()

    def uniform_group(self) -> Group:
        """The single shared alphabet, or raise if columns differ."""
        g = self.groups[0]
        if self.groups.count(g) != len(self.groups):
            raise ValueError(
                "columns do not share a single alphabet; this operation needs one"
            )
        return g

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


def _spans(start: int, stop: int, width: int):
    """Consecutive column ranges ``[j0, j1)`` covering ``start..stop``, cut
    at the multiples of ``width``."""
    while start < stop:
        end = min(stop, (start // width + 1) * width)
        yield start, end
        start = end


def _block_width(n: int) -> int:
    """Columns counted in one block: at least 16, and about 64k cells."""
    return max(16, (1 << 16) // n)


def _block_layout(data: np.ndarray, s: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A column-major copy of ``data``, each column raised by ``P[j]``, the
    orders of the columns before ``j`` in its block, and ``P`` itself.
    A column of the copy is one contiguous read; the copy is int32 unless
    the pair codes of a block need more."""
    before = np.cumsum(s) - s
    before -= before[np.arange(len(s)) // width * width]
    top = int(s.max()) * int((before + s).max())
    out = np.ascontiguousarray(data.T, dtype=np.int32 if top < 2**31 else np.int64)
    out += before[:, None]
    return out, before


def check_oa(a: LevelArray) -> Verdict:
    """Strength-two verdict by exhaustive pair counting.

    PASS iff for every unordered column pair every ordered level combination
    occurs exactly ``n / (s_i * s_j)`` times.  A single-column array is
    checked for level balance instead.  The first violation, in lexicographic
    (i, j) then combination order, is returned as the witness.

    The pairs of a leading column ``i`` are counted a block of later columns
    at a time, with one ``bincount`` over a column-major copy of the array.
    In a block, pair (i, j) owns the ``s_i * s_j`` slots from ``s_i * P[j]``
    on, where ``P[j]`` sums the orders of the block's columns before ``j``,
    and the level pair (l_i, l_j) is slot ``s_i * (l_j + P[j]) + l_i``.
    """
    n, m = a.shape
    if n == 0 or m == 0:
        return Verdict(False, "oa", f"empty array: {n} rows, {m} columns")
    if m == 1:
        s = a.groups[0].order
        if n % s:
            return Verdict(False, "oa", f"{n} rows not divisible by {s} levels")
        counts = np.bincount(a.data[:, 0], minlength=s)
        if counts.min() != counts.max():
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
    factor = 0
    for i in range(m - 1):
        si = int(s[i])
        undivided = np.flatnonzero(n % (si * s[i + 1:]))
        stop = i + 1 + int(undivided[0]) if undivided.size else m
        if stop > i + 1:
            if si != factor:  # one copy per run of leading columns of equal order
                scaled, before = _block_layout(a.data, s, width)
                scaled *= si
                factor = si
            col = a.data[:, i].astype(scaled.dtype)
        for j0, j1 in _spans(i + 1, stop, width):
            sizes = si * s[j0:j1]
            codes = scaled[j0:j1] + (col - int(si * before[j0]))
            counts = np.bincount(codes.ravel(), minlength=int(sizes.sum()))
            bad = counts != np.repeat(n // sizes, sizes)
            if bad.any():
                k = int(np.searchsorted(np.cumsum(sizes), bad.argmax(), side="right"))
                j, sj, first = j0 + k, int(s[j0 + k]), int(sizes[:k].sum())
                want = n // (si * sj)
                cell = counts[first:first + si * sj].reshape(sj, si).T.ravel()
                code = int(np.argmax(cell != want))
                return Verdict(
                    False,
                    "oa",
                    "unbalanced level pair",
                    {
                        "columns": (i, j),
                        "levels": (a.groups[i].text_at(code // sj), a.groups[j].text_at(code % sj)),
                        "count": int(cell[code]),
                        "expected": want,
                    },
                )
        if stop < m:
            return Verdict(
                False,
                "oa",
                f"{n} rows not divisible by {si}*{int(s[stop])} level combinations",
                {"columns": (i, stop)},
            )
    return Verdict(True, "oa")


@lru_cache(maxsize=None)
def _slot_offsets(width: int, order: int) -> np.ndarray:
    """Column ``k`` of a block counts its differences from slot ``k * order``."""
    out = np.arange(0, width * order, order)[:, None]
    out.setflags(write=False)
    return out


def check_dm(d: LevelArray) -> Verdict:
    """Difference-matrix verdict by exhaustive difference counting.

    All columns must share one alphabet (mixed alphabets raise, they are a
    usage error rather than a verification failure).  PASS iff for every
    ordered column pair the elementwise difference contains each group
    element exactly ``b / g`` times.  Only the pairs i < j are counted: the
    differences of (j, i) are the negatives of those of (i, j), so its counts
    are those of (i, j) permuted by negation.  (j, i) fails exactly when
    (i, j) does, and (i, j) comes first in the order witnesses are reported
    in.  The pairs of a leading column are counted a block of later columns
    at a time, as in :func:`check_oa`.
    """
    b, m = d.data.shape
    if b == 0 or m == 0:
        return Verdict(False, "dm", f"empty array: {b} rows, {m} columns")
    g = d.uniform_group()
    order = g.order
    if b % order:
        return Verdict(False, "dm", f"{b} rows not divisible by group order {order}")
    want = b // order
    width = _block_width(b)
    diff = sub_table(g).ravel()  # cell l_i * order + l_j holds l_i - l_j
    cols = np.ascontiguousarray(d.data.T)  # int64: it indexes diff
    slots = _slot_offsets(min(width, m), order)
    for i in range(m - 1):
        lead = cols[i] * order
        for j0, j1 in _spans(i + 1, m, width):
            diffs = diff[cols[j0:j1] + lead]
            diffs += slots[: j1 - j0]
            counts = np.bincount(diffs.ravel(), minlength=(j1 - j0) * order)
            bad = counts != want
            if np.count_nonzero(bad):
                first = int(bad.argmax())
                k, e = divmod(first, order)
                return Verdict(
                    False,
                    "dm",
                    "unbalanced column difference",
                    {
                        "columns": (i, j0 + k),
                        "element": g.text_at(e),
                        "count": int(counts[first]),
                        "expected": want,
                    },
                )
    return Verdict(True, "dm")


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
    """Apply one projection per column; shape is preserved, alphabets change."""
    if isinstance(projections, Projection):
        projections = (projections,) * a.n_cols
    projections = tuple(projections)
    if len(projections) != a.n_cols:
        raise ValueError("need exactly one projection per column")
    cols = []
    for j, proj in enumerate(projections):
        if proj.source != a.groups[j]:
            raise ValueError(
                f"projection source {proj.source.describe()} does not match "
                f"column {j} alphabet {a.groups[j].describe()}"
            )
        cols.append(proj.np_table()[a.data[:, j]])
    return LevelArray(
        tuple(p.target for p in projections),
        _Owned(np.column_stack(cols)),
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
    if idx and (min(idx) < 0 or max(idx) >= bound):
        if alphabet is None:
            raise ValueError(f"{what} index out of range")
        bad = next(v for v in idx if not 0 <= v < bound)
        raise ValueError(f"{what} {bad} is outside its alphabet {alphabet.describe()}")
    out = tuple(map(int, idx))
    if out != idx:
        raise ValueError(f"non-integral {what} index")
    if len(set(out)) != len(out):
        raise ValueError(f"{what} indices must be distinct, got a duplicate")
    return out


def subrows(a: LevelArray, rows: Sequence[int]) -> LevelArray:
    rows = _check_indices(rows, a.n_rows, "row")
    labels = None
    if a.row_labels is not None:
        labels = tuple(a.row_labels[i] for i in rows)
    return LevelArray(a.groups, _Owned(a.data[list(rows), :]), row_labels=labels, label_group=a.label_group)


def subcols(a: LevelArray, cols: Sequence[int]) -> LevelArray:
    cols = _check_indices(cols, a.n_cols, "column")
    return LevelArray(
        tuple(a.groups[j] for j in cols),
        _Owned(a.data[:, list(cols)]),
        row_labels=a.row_labels,
        label_group=a.label_group,
    )


def hstack(arrays: Sequence[LevelArray]) -> LevelArray:
    """Juxtapose arrays with equal row counts; labels are dropped."""
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


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_grid(groups: Sequence[Group], rows: list[list[str]], where: str) -> np.ndarray:
    """Element indices of a grid of cell texts, one column at a time.

    Each cell is one lookup in its column's codec; a cell the codec does not
    hold goes through ``parse_index``, and one that does not parse raises
    :class:`FormatError` with its position.
    """
    for r, cells in enumerate(rows):
        if len(cells) != len(groups):
            raise FormatError(f"{where}: row {r + 1} has {len(cells)} cells, expected {len(groups)}")
    data = np.empty((len(rows), len(groups)), dtype=np.int64)
    for j, (g, col) in enumerate(zip(groups, zip(*rows))):
        idx = list(map(text_codec(g)[1].get, col))
        if None in idx:
            for r, cell in enumerate(col):
                if idx[r] is None:
                    try:
                        idx[r] = g.parse_index(cell)
                    except ValueError as e:
                        raise FormatError(f"{where}: row {r + 1}, column {j + 1}: {e}") from None
        data[:, j] = idx
    return data


def write_array_csv(path: str, a: LevelArray) -> None:
    """Write the run matrix: header ``c1,...,cm``, canonical element text."""
    lines = [",".join(f"c{j + 1}" for j in range(a.n_cols))]
    lines.extend(",".join(row) for row in a.texts())
    _atomic_write(path, "\n".join(lines) + "\n")


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
    The sidecar is rendered first, so an error there writes neither file."""
    arr = obj.parent if isinstance(obj, NestedPair) else obj
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    sidecar = json.dumps(_sidecar_dict(obj, kind), indent=1) + "\n"
    write_array_csv(csv_path, arr)
    _atomic_write(json_path, sidecar)
    return csv_path, json_path


class BundleFormatError(FormatError):
    """A bundle's files exist but do not hold a valid bundle."""


def load_bundle(prefix: str) -> tuple[LevelArray | NestedPair, str | None]:
    """Inverse of :func:`save_bundle`.

    A missing or unreadable file raises ``OSError``; any malformed content
    (bad JSON, wrong sidecar structure, bad CSV text, an object that fails
    its own validation) raises :class:`BundleFormatError`.
    """
    try:
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict) or not isinstance(meta.get("columns"), list):
            raise ValueError("sidecar is not a JSON object with a 'columns' list")
        groups = [group_from_dict(g) for g in meta["columns"]]
        arr = read_array_csv(prefix + ".csv", groups)
        if meta.get("label_group"):
            label_group = group_from_dict(meta["label_group"])
            labels = tuple(label_group.parse_index(t) for t in meta["row_labels"])
            arr = LevelArray(arr.groups, _Owned(arr.data), row_labels=labels, label_group=label_group)
        nested = meta.get("nested")
        if nested:
            projections = [projection_from_dict(p) for p in nested["projections"]]
            return NestedPair(arr, tuple(nested["child_rows"]), tuple(projections)), meta.get("kind")
        return arr, meta.get("kind")
    except (LookupError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise BundleFormatError(f"malformed bundle {prefix}: {detail}") from e
