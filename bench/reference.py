"""Reference arithmetic, element-text codec and counting, written apart from
nestfill so that the benchmark can check the program's outputs against
definitions rather than against the program itself.

Nothing here imports nestfill.  Alphabets are described by the same plain
dicts the JSON sidecar uses (``{"kind": "gf", "p": 2, "u": 3,
"irreducible": [1, 1, 0, 1]}``, ``{"kind": "zmod", "s": 6}``,
``{"kind": "product", "components": [...]}``), and arrays are plain integer
matrices of element indices in lexicographic enumeration order.

* Field arithmetic multiplies coefficient vectors as integer polynomials and
  then reduces by the defining polynomial over Z_p.
* The codec renders and parses the canonical element text described under
  "File formats" in the README of the package.
* The counters count level pairs (orthogonal arrays) and column differences
  (difference matrices) with one ``bincount`` per leading column, and return
  the first violation in lexicographic order, the order the program's
  verifiers promise for their witnesses.
"""

from __future__ import annotations

import json

import numpy as np


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of integer polynomials (constant first) over Z_p, monic ``den``."""
    rem = [c % p for c in num]
    d = len(den) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i, dc in enumerate(den):
                rem[top - d + i] = (rem[top - d + i] - c * dc) % p
    return rem[:d]


def _irreducible(poly: tuple[int, ...], p: int) -> bool:
    u = len(poly) - 1
    for d in range(1, u // 2 + 1):
        for idx in range(p**d):
            cand = [(idx // p**i) % p for i in range(d)] + [1]
            if not any(_poly_rem(list(poly), cand, p)):
                return False
    return True


class Alphabet:
    """A finite abelian alphabet with its index tables and text codec."""

    def __init__(self, spec: dict):
        self.spec = spec
        kind = spec["kind"]
        if kind == "gf":
            p, u, poly = int(spec["p"]), int(spec["u"]), tuple(int(c) for c in spec["irreducible"])
            if not _is_prime(p) or len(poly) != u + 1 or poly[-1] != 1 or not _irreducible(poly, p):
                raise ValueError(f"not a field: {spec}")
            self.order = p**u
            digits = (np.arange(self.order)[:, None] // p ** np.arange(u)[None, :]) % p
            weights = p ** np.arange(u)
            self.add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
            # integer polynomial product of every pair of coefficient vectors,
            # then reduction of degrees 2u-2 .. u by the defining polynomial
            prod = np.zeros((self.order, self.order, 2 * u - 1), dtype=np.int64)
            for a in range(u):
                for b in range(u):
                    prod[:, :, a + b] += digits[:, None, a] * digits[None, :, b]
            for top in range(2 * u - 2, u - 1, -1):
                c = prod[:, :, top] % p
                for i in range(u + 1):
                    prod[:, :, top - u + i] -= c * poly[i]
            self.mul = (prod[:, :, :u] % p) @ weights
            self._texts = [_poly_text(row) for row in digits.tolist()]
            self.p, self.u, self.poly = p, u, poly
        elif kind == "zmod":
            s = int(spec["s"])
            i = np.arange(s)
            self.order = s
            self.add = (i[:, None] + i[None, :]) % s
            self.mul = (i[:, None] * i[None, :]) % s
            self._texts = [str(v) for v in range(s)]
        elif kind == "product":
            parts = [alphabet(c) for c in spec["components"]]
            self.parts = parts
            self.order = int(np.prod([a.order for a in parts]))
            idx = np.arange(self.order)
            coords, radix = [], 1
            for a in reversed(parts):
                coords.append((idx // radix) % a.order)
                radix *= a.order
            coords.reverse()
            self.add = np.zeros((self.order, self.order), dtype=np.int64)
            radix = 1
            for a, c in zip(reversed(parts), reversed(coords)):
                self.add += a.add[c[:, None], c[None, :]] * radix
                radix *= a.order
            self.mul = None
            self._texts = [
                "".join(t if len(t) == 1 else f"({t})" for t in (a.text(int(ci[k])) for a, ci in zip(parts, coords)))
                for k in range(self.order)
            ]
        else:
            raise ValueError(f"unknown alphabet kind {kind!r}")
        self.add = np.asarray(self.add, dtype=np.int64)
        zero_col = np.argmax(self.add == 0, axis=1)
        self.neg = zero_col
        self.sub = self.add[:, self.neg]
        self._index = {t: k for k, t in enumerate(self._texts)}

    def text(self, index: int) -> str:
        return self._texts[index]

    def parse(self, text: str) -> int:
        try:
            return self._index[text]
        except KeyError:
            raise ValueError(f"{text!r} is not canonical text of {self.spec}") from None


def _poly_text(coeffs: list[int]) -> str:
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        head = "" if c == 1 and d else str(c)
        terms.append(head if d == 0 else head + ("x" if d == 1 else f"x^{d}"))
    return "+".join(terms) or "0"


_CACHE: dict[str, Alphabet] = {}


def alphabet(spec: dict) -> Alphabet:
    """The reference alphabet of ``spec``, built once per process."""
    k = json.dumps(spec, sort_keys=True)
    if k not in _CACHE:
        _CACHE[k] = Alphabet(spec)
    return _CACHE[k]


def gf_spec(p: int, u: int, poly_text: str) -> dict:
    """Alphabet spec of GF(p^u) from polynomial text like ``x^3+x+1``."""
    coeffs = [0] * (u + 1)
    for term in poly_text.split("+"):
        c, _, rest = term.partition("x")
        if "x" not in term:
            coeffs[0] = int(term)
            continue
        deg = int(rest[1:]) if rest.startswith("^") else 1
        coeffs[deg] = int(c) if c else 1
    return {"kind": "gf", "p": p, "u": u, "irreducible": coeffs}


# ---------------------------------------------------------------------------
# Counting.
# ---------------------------------------------------------------------------


def oa_violation(data: np.ndarray, orders: list[int]):
    """First strength-two violation as ``(i, j, level_i, level_j, count,
    expected)``, or None when every column pair is balanced.  A failing
    divisibility test gives ``(i, j, None, None, None, None)``."""
    data = np.asarray(data, dtype=np.int64)
    n, m = data.shape
    if n == 0:
        return (0, 0, None, None, 0, None)
    if m == 1:
        s = orders[0]
        counts = np.bincount(data[:, 0], minlength=s)
        if n % s or counts.min() != counts.max():
            lvl = int(np.argmin(counts))
            return (0, 0, lvl, None, int(counts[lvl]), n // s)
        return None
    orders = np.asarray(orders, dtype=np.int64)
    for i in range(m - 1):
        rest = orders[i + 1 :]
        sizes = orders[i] * rest
        if np.any(n % sizes):
            j = i + 1 + int(np.flatnonzero(n % sizes)[0])
            return (i, j, None, None, None, None)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        codes = data[:, i : i + 1] * rest + data[:, i + 1 :] + offsets
        counts = np.bincount(codes.ravel(), minlength=int(sizes.sum()))
        want = np.repeat(n // sizes, sizes)
        bad = np.flatnonzero(counts != want)
        if bad.size:
            k = int(bad[0])
            jj = int(np.searchsorted(offsets, k, side="right")) - 1
            code = k - int(offsets[jj])
            sj = int(rest[jj])
            return (i, i + 1 + jj, code // sj, code % sj, int(counts[k]), int(n // sizes[jj]))
    return None


def dm_violation(data: np.ndarray, alph: Alphabet):
    """First difference-matrix violation as ``(i, j, element, count,
    expected)`` over ordered column pairs, or None."""
    data = np.asarray(data, dtype=np.int64)
    b, m = data.shape
    s = alph.order
    if b == 0 or b % s:
        return (0, 0, None, None, None)
    want = b // s
    for i in range(m):
        others = [j for j in range(m) if j != i]
        if not others:
            continue
        diffs = alph.sub[data[:, i : i + 1], data[:, others]] + s * np.arange(len(others))
        counts = np.bincount(diffs.ravel(), minlength=s * len(others))
        bad = np.flatnonzero(counts != want)
        if bad.size:
            k = int(bad[0])
            return (i, others[k // s], k % s, int(counts[k]), want)
    return None


def collapse(data: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    return np.column_stack([t[data[:, j]] for j, t in enumerate(tables)])


def truncation_table(src: Alphabet, tgt: Alphabet) -> np.ndarray:
    """Keep the coefficients of degree below the target's extension degree."""
    return np.arange(src.order) % tgt.order


def modulus_table(src: Alphabet, tgt: Alphabet) -> np.ndarray:
    out = []
    for k in range(src.order):
        coeffs = [(k // src.p**i) % src.p for i in range(src.u)]
        rem = _poly_rem(coeffs, list(tgt.poly), src.p)
        out.append(sum(c * src.p**i for i, c in enumerate(rem)))
    return np.asarray(out, dtype=np.int64)


def is_projection(table: np.ndarray, src: Alphabet, tgt: Alphabet) -> bool:
    """Total, balanced and additive: the definition of a level collapse."""
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (src.order,) or table.min() < 0 or table.max() >= tgt.order:
        return False
    counts = np.bincount(table, minlength=tgt.order)
    return counts.min() == counts.max() and np.array_equal(
        table[src.add], tgt.add[table[:, None], table[None, :]]
    )


def latin_hypercube(points: np.ndarray) -> bool:
    """Every column puts exactly one point in each of the n equal cells."""
    n = points.shape[0]
    cells = np.floor(points * n).astype(np.int64)
    return bool(np.all(np.sort(cells, axis=0) == np.arange(n)[:, None]))


def stratified(points: np.ndarray, grids: list[int]) -> bool:
    """Every column pair of the points fills its g_j x g_k grid evenly."""
    grids = np.asarray(grids, dtype=np.int64)
    cells = np.minimum(np.floor(points * grids).astype(np.int64), grids - 1)
    return oa_violation(cells, grids.tolist()) is None


# ---------------------------------------------------------------------------
# Self-check: planted defects must be caught.
# ---------------------------------------------------------------------------


def self_check() -> list[str]:
    """Run the reference on known objects and planted defects; return the
    list of problems found (empty when the reference behaves)."""
    problems = []
    gf8 = alphabet(gf_spec(2, 3, "x^3+x+1"))
    # x * x^2 = x^3 = x + 1 (index 3); (x+1)^2 = x^2 + 1 (index 5)
    if gf8.mul[2, 4] != 3 or gf8.mul[3, 3] != 5:
        problems.append("GF(8) products disagree with x^3 = x + 1")
    gf9 = alphabet(gf_spec(3, 2, "x^2+x+2"))
    if gf9.text(5) != "x+2" or gf9.parse("2x+1") != 7 or gf9.text(0) != "0":
        problems.append("GF(9) codec round trip")
    prod = alphabet({"kind": "product", "components": [{"kind": "gf", "p": 2, "u": 2, "irreducible": [1, 1, 1]}, {"kind": "zmod", "s": 6}]})
    if prod.text(6 * 3 + 5) != "(x+1)5" or prod.parse("(x+1)5") != 23:
        problems.append("product codec")
    try:
        Alphabet(gf_spec(2, 5, "x^5+x+1"))
        problems.append("reducible x^5+x+1 accepted")
    except ValueError:
        pass
    # the multiplication table of GF(8) is a D(8, 8, 8); break one cell
    table = gf8.mul.copy()
    if dm_violation(table, gf8) is not None:
        problems.append("GF(8) multiplication table rejected as a difference matrix")
    table[5, 6] = gf8.add[table[5, 6], 1]
    if dm_violation(table, gf8) is None:
        problems.append("planted difference-matrix defect missed")
    # the full factorial 8 x 8 is an OA(64, 2, 8); swap two entries of column 1
    ff = np.array([(a, b) for a in range(8) for b in range(8)])
    if oa_violation(ff, [8, 8]) is not None:
        problems.append("full factorial rejected as an orthogonal array")
    bad = ff.copy()
    bad[[0, 9], 1] = bad[[9, 0], 1]
    v = oa_violation(bad, [8, 8])
    if v is None or v[:5] != (0, 1, 0, 0, 0):
        problems.append(f"planted orthogonal-array defect misreported: {v}")
    if oa_violation(np.zeros((0, 2), dtype=np.int64), [8, 8]) is None:
        problems.append("empty array passes the orthogonal-array count")
    if not is_projection(truncation_table(gf8, alphabet(gf_spec(2, 2, "x^2+x+1"))), gf8, alphabet(gf_spec(2, 2, "x^2+x+1"))):
        problems.append("truncation GF(8) -> GF(4) rejected")
    if is_projection(np.arange(8) % 3 % 2, gf8, alphabet(gf_spec(2, 1, "x+1"))):
        problems.append("unbalanced map accepted as a projection")
    pts = (np.array([[0, 1], [1, 0]]) + 0.5) / 2
    if not latin_hypercube(pts) or latin_hypercube(np.array([[0.1, 0.1], [0.2, 0.9]])):
        problems.append("Latin hypercube test")
    return problems
