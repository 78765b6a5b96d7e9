"""Exact arithmetic for finite level alphabets.

Every symbol that appears in an array produced by this package belongs to a
small finite abelian group: the additive group of a Galois field GF(p^u), a
residue ring Z_s, or a direct product of such groups.  This module implements
those alphabets together with the balanced, addition-preserving projections
between them (polynomial truncation, polynomial modulus, integer residue,
component selection, and products thereof).

Representation conventions, used everywhere in the package:

* A polynomial over Z_p is a tuple of coefficients with the constant term
  first, so ``(1, 1, 0, 1)`` is ``x^3 + x + 1``.
* A field element is a coefficient vector of length exactly ``u``.
* Elements of every alphabet are enumerated in lexicographic order: a field
  element ``a_0 + a_1 x + ...`` sits at position ``sum(a_i * p**i)``, a
  residue at its own value, and a product element at the mixed-radix position
  with the last component varying fastest.  The position of an element in
  this order is its *index*, which is what array types store.  ``_grid``,
  the digits of every index over a tuple of orders, is the one place where
  these positions are laid out; ``np.ravel_multi_index`` is the way back.

Index tables are the single arithmetic core.  ``add_table``, ``neg_table``,
``sub_table`` and, for fields, ``mul_table`` are cached read-only arrays
over element indices; constructions, projections and verifiers all work on
them.  ``GfElem`` and the scalar ``Field.add``/``neg``/``mul`` methods are
views for the API and file edges, where single elements are parsed, printed
or compared.  ``text_codec`` is the text edge: per alphabet, the canonical
text of every index and the map back, so files are read and written one
lookup per cell.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "MAX_FIELD_ORDER",
    "prime_power",
    "digits",
    "poly_text",
    "poly_parse",
    "poly_mul",
    "poly_divmod",
    "GfElem",
    "Field",
    "field_make",
    "gf_add",
    "gf_sub",
    "gf_mul",
    "Group",
    "GaloisGroup",
    "ResidueGroup",
    "ProductGroup",
    "group_add",
    "group_sub",
    "add_table",
    "mul_table",
    "neg_table",
    "sub_table",
    "text_codec",
    "Projection",
    "identity_projection",
    "truncation",
    "modulus",
    "residue",
    "component",
    "product_projection",
    "project",
    "rho",
    "group_to_dict",
    "group_from_dict",
    "projection_to_dict",
    "projection_from_dict",
]

#: Largest field handled here.  The constructions in this package never need
#: more, and it keeps every exhaustive validation loop trivially cheap.
MAX_FIELD_ORDER = 256


def prime_power(n: int) -> tuple[int, int] | None:
    """``(p, u)`` with ``n == p**u`` for a prime ``p``, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n and n % p:
        p += 1
    if n % p:
        p = n  # no factor up to the square root: n is prime
    u = 0
    while n % p == 0:
        n //= p
        u += 1
    return (p, u) if n == 1 else None


def digits(value, p: int, width: int) -> tuple:
    """The ``width`` lowest base-``p`` digits of ``value``, least significant
    first.  ``value`` may be an int or an integer array (one digit array
    each, then)."""
    out = []
    for _ in range(width):
        out.append(value % p)
        value = value // p
    return tuple(out)


def _grid(orders: Sequence[int]) -> np.ndarray:
    """Row ``i`` holds the digits of index ``i`` over ``orders``, last column
    fastest: every element of a product alphabet, or every run of a full
    factorial, in index order.  ``np.ravel_multi_index`` is the inverse."""
    orders = tuple(orders)
    return np.stack(np.unravel_index(np.arange(math.prod(orders)), orders), axis=1)


def _vectors(size: int, k: int) -> np.ndarray:
    """All of ``range(size)^k`` by index, one row each, first coordinate
    fastest; for ``size = p`` and ``k = u``, the coefficient vectors of
    GF(p^u) by element index."""
    return _grid((size,) * k)[:, ::-1]


# ---------------------------------------------------------------------------
# Raw polynomial arithmetic over Z_p (coefficient tuples, constant first).
# ---------------------------------------------------------------------------


def poly_trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(
    num: Sequence[int], den: Sequence[int], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of ``num`` by a monic ``den`` over Z_p."""
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(poly_trim(num))
    quot = [0] * max(1, len(rem) - len(den) + 1)
    d = len(den) - 1
    while len(rem) - 1 >= d and rem:
        shift = len(rem) - 1 - d
        coef = rem[-1]
        quot[shift] = coef
        for i, c in enumerate(den):
            rem[shift + i] = (rem[shift + i] - coef * c) % p
        rem = list(poly_trim(rem))
    return poly_trim(quot), poly_trim(rem)


def poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    return poly_divmod(a, m, p)[1]


def poly_text(coeffs: Sequence[int]) -> str:
    """Render ``coeffs`` (constant first) as text like ``2x^2+x+2``."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if d == 1 else f"{head}x^{d}")
    return "+".join(terms) if terms else "0"


_TERM_RE = re.compile(r"^(\d+)?(x(?:\^(\d+))?)?$")


def poly_parse(text: str, p: int, max_degree: int | None = None) -> tuple[int, ...]:
    """Parse text like ``x^3+x+1`` into a coefficient tuple over Z_p.  A
    result of degree above ``max_degree`` raises before it is built, so a
    stray ``x^99999999`` costs no memory."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
        coef = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            deg = 0
        elif m.group(3) is not None:
            deg = int(m.group(3))
        else:
            deg = 1
        coeffs[deg] = (coeffs.get(deg, 0) + coef) % p
    top = max((d for d, c in coeffs.items() if c), default=-1)
    if max_degree is not None and top > max_degree:
        raise ValueError(f"{text!r} has degree {top}, above the maximum {max_degree}")
    out = [0] * (top + 1)
    for d, c in coeffs.items():
        if c:
            out[d] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# Galois fields.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GfElem:
    """Element of a Galois field: coefficient vector, constant term first."""

    coeffs: tuple[int, ...]

    def __str__(self) -> str:
        return poly_text(self.coeffs)


def _find_factor(poly: Sequence[int], p: int) -> tuple[int, ...] | None:
    """Smallest monic factor of degree 1..deg//2, by exhaustive trial division."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        # all monic polynomials of degree d, lowest coefficients first
        for idx in range(p**d):
            cand = digits(idx, p, d) + (1,)
            if poly_mod(poly, cand, p) == ():
                return cand
    return None


@dataclass(frozen=True)
class Field:
    """A validated Galois field GF(p^u).

    Parameters
    ----------
    p : prime characteristic.
    u : extension degree, at least 1.
    irreducible : monic degree-u polynomial over Z_p, constant term first.
        Irreducibility is verified by exhaustive trial division at
        construction time; a reducible input raises ``ValueError`` naming a
        nontrivial factor.
    """

    p: int
    u: int
    irreducible: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.u < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.u}")
        # bound the order before p is factored or raised to a large power u
        if self.p >= 2 and (self.u >= MAX_FIELD_ORDER.bit_length() or self.p**self.u > MAX_FIELD_ORDER):
            raise ValueError(f"field order {self.p}^{self.u} exceeds the supported maximum {MAX_FIELD_ORDER}")
        if prime_power(self.p) != (self.p, 1):
            raise ValueError(f"characteristic {self.p} is not prime")
        poly = tuple(int(c) % self.p for c in self.irreducible)
        object.__setattr__(self, "irreducible", poly)
        if len(poly) != self.u + 1 or poly[-1] != 1:
            raise ValueError(
                f"defining polynomial {poly_text(poly)} is not monic of degree {self.u}"
            )
        factor = _find_factor(poly, self.p)
        if factor is not None:
            raise ValueError(
                f"{poly_text(poly)} is reducible over Z_{self.p}: "
                f"divisible by {poly_text(factor)}"
            )

    @property
    def order(self) -> int:
        return self.p**self.u

    @property
    def zero(self) -> GfElem:
        return GfElem((0,) * self.u)

    @property
    def one(self) -> GfElem:
        return GfElem((1,) + (0,) * (self.u - 1))

    def element(self, index: int) -> GfElem:
        """Element at ``index`` in lexicographic order."""
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for GF({self.order})")
        return GfElem(digits(index, self.p, self.u))

    def index(self, e: GfElem) -> int:
        self._check(e)
        return sum(c * self.p**i for i, c in enumerate(e.coeffs))

    def elements(self) -> list[GfElem]:
        return [self.element(i) for i in range(self.order)]

    def from_poly(self, coeffs: Sequence[int]) -> GfElem:
        """Reduce an arbitrary polynomial into this field."""
        rem = poly_mod(coeffs, self.irreducible, self.p)
        return GfElem(rem + (0,) * (self.u - len(rem)))

    def add(self, a: GfElem, b: GfElem) -> GfElem:
        self._check(a)
        self._check(b)
        return GfElem(tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: GfElem) -> GfElem:
        self._check(a)
        return GfElem(tuple((-x) % self.p for x in a.coeffs))

    def sub(self, a: GfElem, b: GfElem) -> GfElem:
        return self.add(a, self.neg(b))

    def mul(self, a: GfElem, b: GfElem) -> GfElem:
        self._check(a)
        self._check(b)
        return self.from_poly(poly_mul(a.coeffs, b.coeffs, self.p))

    def text(self, e: GfElem) -> str:
        self._check(e)
        return poly_text(e.coeffs)

    def parse(self, text: str) -> GfElem:
        coeffs = poly_parse(text, self.p, max_degree=self.u - 1)
        return GfElem(coeffs + (0,) * (self.u - len(coeffs)))

    def _check(self, e: GfElem) -> None:
        if not isinstance(e, GfElem) or len(e.coeffs) != self.u:
            raise ValueError(f"{e!r} is not an element of GF({self.order})")
        if any(not 0 <= c < self.p for c in e.coeffs):
            raise ValueError(f"{e!r} has coefficients outside Z_{self.p}")


def field_make(
    p: int, u: int, irreducible: Union[str, Sequence[int], None] = None
) -> Field:
    """Build a validated GF(p^u).

    When ``irreducible`` is omitted the default polynomial is looked up in
    the catalog module.  The polynomial may be given as a coefficient
    sequence (constant term first) or as text such as ``"x^3+x+1"``.
    """
    if irreducible is None:
        from . import catalog

        irreducible = catalog.default_irreducible(p, u)
    if isinstance(irreducible, str):
        irreducible = poly_parse(irreducible, p)
    coeffs = tuple(int(c) for c in irreducible)
    return Field(p, u, coeffs)


def gf_add(f: Field, a: GfElem, b: GfElem) -> GfElem:
    return f.add(a, b)


def gf_sub(f: Field, a: GfElem, b: GfElem) -> GfElem:
    return f.sub(a, b)


def gf_mul(f: Field, a: GfElem, b: GfElem) -> GfElem:
    return f.mul(a, b)


# ---------------------------------------------------------------------------
# Group alphabets.
# ---------------------------------------------------------------------------


class Group:
    """Base class for the finite abelian alphabets.

    Subclasses are frozen dataclasses, so alphabets compare and hash by
    structure and can key caches of precomputed operation tables.
    """

    @property
    def order(self) -> int:
        raise NotImplementedError

    def element(self, index: int):
        raise NotImplementedError

    def index(self, e) -> int:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def text(self, e) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def elements(self) -> list:
        return [self.element(i) for i in range(self.order)]

    def text_at(self, index: int) -> str:
        """Canonical text of the element at ``index``."""
        texts = text_codec(self)[0]
        if 0 <= index < len(texts):
            return texts[index]
        return self.text(self.element(index))  # raises the out-of-range error

    def parse_index(self, text: str) -> int:
        """Index of the element spelled ``text``.  Canonical texts are one
        lookup; any other spelling the parser accepts (``1+x``, ``x^1``,
        `` x + 1``) goes through ``parse``, which also raises for bad text."""
        i = text_codec(self)[1].get(text)
        if i is None:
            if not isinstance(text, str):
                raise ValueError(f"{text!r} is not element text")
            i = self.index(self.parse(text))
        return i

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GaloisGroup(Group):
    """Additive group of a Galois field."""

    field: Field

    @property
    def order(self) -> int:
        return self.field.order

    def element(self, index: int) -> GfElem:
        return self.field.element(index)

    def index(self, e: GfElem) -> int:
        return self.field.index(e)

    def add(self, a: GfElem, b: GfElem) -> GfElem:
        return self.field.add(a, b)

    def neg(self, a: GfElem) -> GfElem:
        return self.field.neg(a)

    def text(self, e: GfElem) -> str:
        return self.field.text(e)

    def parse(self, text: str) -> GfElem:
        return self.field.parse(text)

    def describe(self) -> str:
        return f"GF({self.order})"


@dataclass(frozen=True)
class ResidueGroup(Group):
    """The residue ring Z_s under addition, elements 0..s-1."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")

    @property
    def order(self) -> int:
        return self.modulus

    def element(self, index: int) -> int:
        if not 0 <= index < self.modulus:
            raise ValueError(f"element index {index} out of range for Z_{self.modulus}")
        return index

    def index(self, e: int) -> int:
        if not isinstance(e, (int, np.integer)) or not 0 <= e < self.modulus:
            raise ValueError(f"{e!r} is not an element of Z_{self.modulus}")
        return int(e)

    def add(self, a: int, b: int) -> int:
        return (self.index(a) + self.index(b)) % self.modulus

    def neg(self, a: int) -> int:
        return (-self.index(a)) % self.modulus

    def text(self, e: int) -> str:
        return str(self.index(e))

    def parse(self, text: str) -> int:
        v = int(text)
        if not 0 <= v < self.modulus:
            raise ValueError(f"{text!r} is not an element of Z_{self.modulus}")
        return v

    def describe(self) -> str:
        return f"Z_{self.modulus}"


@dataclass(frozen=True)
class ProductGroup(Group):
    """Direct product of group alphabets, componentwise addition.

    Enumeration is lexicographic with the last component varying fastest,
    matching two-digit renderings like ``01``, ``15`` or ``x1``.
    """

    components: tuple[Group, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 2:
            raise ValueError("a product alphabet needs at least two components")

    @property
    def order(self) -> int:
        return math.prod(g.order for g in self.components)

    def element(self, index: int) -> tuple:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for {self.describe()}")
        parts = []
        for g in reversed(self.components):
            parts.append(g.element(index % g.order))
            index //= g.order
        return tuple(reversed(parts))

    def index(self, e: tuple) -> int:
        if not isinstance(e, tuple) or len(e) != len(self.components):
            raise ValueError(f"{e!r} is not an element of {self.describe()}")
        idx = 0
        for g, part in zip(self.components, e):
            idx = idx * g.order + g.index(part)
        return idx

    def add(self, a: tuple, b: tuple) -> tuple:
        self.index(a), self.index(b)
        return tuple(g.add(x, y) for g, x, y in zip(self.components, a, b))

    def neg(self, a: tuple) -> tuple:
        self.index(a)
        return tuple(g.neg(x) for g, x in zip(self.components, a))

    def text(self, e: tuple) -> str:
        self.index(e)
        parts = []
        for g, part in zip(self.components, e):
            t = g.text(part)
            parts.append(f"({t})" if len(t) > 1 else t)
        return "".join(parts)

    def parse(self, text: str) -> tuple:
        parts, pos = [], 0
        for g in self.components:
            if pos >= len(text):
                raise ValueError(f"{text!r} is too short for {self.describe()}")
            if text[pos] == "(":
                depth, end = 1, pos + 1
                while end < len(text) and depth:
                    depth += {"(": 1, ")": -1}.get(text[end], 0)
                    end += 1
                if depth:
                    raise ValueError(f"unbalanced parentheses in {text!r}")
                parts.append(g.parse(text[pos + 1 : end - 1]))
                pos = end
            else:
                parts.append(g.parse(text[pos]))
                pos += 1
        if pos != len(text):
            raise ValueError(f"trailing characters in {text!r} for {self.describe()}")
        return tuple(parts)

    def describe(self) -> str:
        return "x".join(g.describe() for g in self.components)


@lru_cache(maxsize=None)
def text_codec(g: Group) -> tuple[tuple[str, ...], Mapping[str, int]]:
    """Canonical text of every element of ``g`` by index, and the read-only
    inverse map from text to index; the text edge of the index tables.
    Built once per alphabet through the element path, ``text(element(i))``."""
    texts = tuple(g.text(g.element(i)) for i in range(g.order))
    return texts, MappingProxyType({t: i for i, t in enumerate(texts)})


def group_add(g: Group, a, b):
    """Addition in the alphabet ``g``; the universal array operation."""
    return g.add(a, b)


def group_sub(g: Group, a, b):
    return g.add(a, g.neg(b))


@lru_cache(maxsize=None)
def add_table(g: Group) -> np.ndarray:
    """Index-level addition table of ``g`` as a read-only (order, order) array."""
    n = g.order
    if isinstance(g, ResidueGroup):
        i = np.arange(n)
        tab = (i[:, None] + i[None, :]) % n
    elif isinstance(g, GaloisGroup):
        p = g.field.p
        tab = np.zeros((n, n), dtype=np.int64)
        for k, dig in enumerate(_vectors(p, g.field.u).T):
            tab += ((dig[:, None] + dig[None, :]) % p) * p**k
    elif isinstance(g, ProductGroup):
        orders = [c.order for c in g.components]
        sums = [add_table(c)[d][:, d] for c, d in zip(g.components, _grid(orders).T)]
        tab = np.ravel_multi_index(sums, orders)
    else:  # pragma: no cover - new alphabet kinds must extend this table
        raise TypeError(f"unknown group kind {type(g).__name__}")
    tab = tab.astype(np.int64)
    tab.setflags(write=False)
    return tab


def _powers_mod(f: Field, count: int) -> np.ndarray:
    """(count, u) coefficients of x^k mod the defining polynomial, k < count."""
    return np.array([f.from_poly((0,) * k + (1,)).coeffs for k in range(count)], dtype=np.int32)


def _to_index(coeffs: np.ndarray, p: int) -> np.ndarray:
    """Element indices of coefficient vectors along the last axis, reduced mod p."""
    return (coeffs % p) @ p ** np.arange(coeffs.shape[-1], dtype=np.int64)


def _scale_table(f: Field) -> np.ndarray:
    """(p, order) indices of the multiples ``c * e``, c in Z_p, e in ``f``."""
    return _to_index(np.arange(f.p, dtype=np.int32)[:, None, None] * _vectors(f.p, f.u), f.p)


@lru_cache(maxsize=None)
def mul_table(f: Field) -> np.ndarray:
    """Index-level multiplication table of ``f`` as a read-only (order, order)
    array.  ``a * b`` is built as ``sum a_i (x^i b)``, with every ``x^i b``
    found by repeated multiplication by x, and checked over every pair
    against products assembled from the reductions of x^k."""
    dig = _vectors(f.p, f.u)
    add, scale = add_table(GaloisGroup(f)), _scale_table(f)
    low = np.asarray(f.irreducible[:-1], dtype=np.int32)
    tab = np.zeros((f.order, f.order), dtype=np.int64)
    xb = dig  # coefficients of x^i * b, one row per b
    for i in range(f.u):
        tab = add[tab, scale[dig[:, i, None], _to_index(xb, f.p)]]
        # times x: shift up, then replace x^u by x^u - f
        xb = (np.pad(xb[:, :-1], ((0, 0), (1, 0))) - xb[:, -1:] * low) % f.p
    _check_mul_table(f, tab)
    tab.setflags(write=False)
    return tab


def _check_mul_table(f: Field, tab: np.ndarray) -> None:
    """Raise unless ``tab[a, b]`` is ``sum a_i b_j (x^(i+j) mod f)`` for all a, b."""
    dig = _vectors(f.p, f.u)
    add, scale = add_table(GaloisGroup(f)), _scale_table(f)
    xk = _to_index(_powers_mod(f, 2 * f.u - 1), f.p)
    ref = np.zeros_like(tab)
    for i in range(f.u):
        for j in range(f.u):
            ref = add[ref, scale[dig[:, i, None] * dig[:, j] % f.p, xk[i + j]]]
    bad = np.argwhere(tab != ref)
    if bad.size:
        a, b = bad[0]
        raise RuntimeError(
            f"GF({f.order}) multiplication table is wrong at indices ({a}, {b}): "
            f"{tab[a, b]} instead of {ref[a, b]}"
        )


@lru_cache(maxsize=None)
def neg_table(g: Group) -> np.ndarray:
    tab = np.argmax(add_table(g) == 0, axis=1).astype(np.int64)
    tab.setflags(write=False)
    return tab


@lru_cache(maxsize=None)
def sub_table(g: Group) -> np.ndarray:
    tab = add_table(g)[:, neg_table(g)]
    tab.setflags(write=False)
    return tab


# ---------------------------------------------------------------------------
# Level-collapsing projections.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """A validated level-collapsing map between two alphabets.

    Construction goes through the factory functions below, each of which
    verifies exhaustively that the map is total, preserves addition
    (``delta(a + b) == delta(a) + delta(b)`` for every source pair) and is
    balanced (every target element has exactly ``|source| / |target|``
    preimages).  ``table`` maps source index to target index.
    """

    kind: str
    source: Group
    target: Group
    table: tuple[int, ...]
    detail: tuple = ()

    def np_table(self) -> np.ndarray:
        """``table`` as a read-only int64 array, built once per projection."""
        return self._np_table

    @cached_property
    def _np_table(self) -> np.ndarray:
        arr = np.asarray(self.table, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def describe(self) -> str:
        return f"{self.kind}: {self.source.describe()} -> {self.target.describe()}"


def project(spec: Projection, e):
    """Image of element ``e`` under ``spec``."""
    return spec.target.element(spec.table[spec.source.index(e)])


def _validated(kind: str, source: Group, target: Group, table: Sequence[int], detail: tuple = ()) -> Projection:
    table = tuple(int(t) for t in table)
    if len(table) != source.order:
        raise ValueError(f"{kind} projection table does not cover the source alphabet")
    if any(not 0 <= t < target.order for t in table):
        raise ValueError(f"{kind} projection maps outside the target alphabet")
    tab = np.asarray(table, dtype=np.int64)
    counts = np.bincount(tab, minlength=target.order)
    if counts.min() != counts.max():
        raise ValueError(
            f"{kind} projection {source.describe()} -> {target.describe()} "
            "is not balanced: unequal fiber sizes"
        )
    src_add, tgt_add = add_table(source), add_table(target)
    if not np.array_equal(tab[src_add], tgt_add[tab[:, None], tab[None, :]]):
        raise ValueError(
            f"{kind} projection {source.describe()} -> {target.describe()} "
            "does not preserve addition"
        )
    return Projection(kind, source, target, table, detail)


def identity_projection(g: Group) -> Projection:
    return _validated("identity", g, g, range(g.order))


def truncation(source: Field | GaloisGroup, target: Field | GaloisGroup) -> Projection:
    """Drop all terms of degree >= u2; the Bose-Bush style collapse."""
    f1 = source.field if isinstance(source, GaloisGroup) else source
    f2 = target.field if isinstance(target, GaloisGroup) else target
    if f1.p != f2.p:
        raise ValueError("truncation requires matching characteristics")
    if f2.u > f1.u:
        raise ValueError("truncation target must not be larger than the source")
    table = np.arange(f1.order) % f2.order  # the low u2 digits
    return _validated("truncation", GaloisGroup(f1), GaloisGroup(f2), table, detail=(f2.u,))


def modulus(source: Field | GaloisGroup, target: Field | GaloisGroup) -> Projection:
    """Reduce each element modulo the target's defining polynomial."""
    f1 = source.field if isinstance(source, GaloisGroup) else source
    f2 = target.field if isinstance(target, GaloisGroup) else target
    if f1.p != f2.p:
        raise ValueError("modulus requires matching characteristics")
    if f2.u > f1.u:
        raise ValueError("modulus target must not be larger than the source")
    table = _to_index(_vectors(f1.p, f1.u) @ _powers_mod(f2, f1.u), f1.p)
    return _validated("modulus", GaloisGroup(f1), GaloisGroup(f2), table, detail=(f2.irreducible,))


def residue(source: int | ResidueGroup, a: int) -> Projection:
    """The map u -> u mod a on a residue ring."""
    src = source if isinstance(source, ResidueGroup) else ResidueGroup(source)
    if a < 1:
        raise ValueError("residue modulus must be positive")
    if src.modulus % a:
        raise ValueError(
            f"residue projection Z_{src.modulus} -> Z_{a} needs {a} to divide {src.modulus}"
        )
    return _validated("residue", src, ResidueGroup(a), [i % a for i in range(src.modulus)], detail=(a,))


def component(source: ProductGroup, which: int) -> Projection:
    """Select one component of a product alphabet, e.g. digit dropping."""
    if not 0 <= which < len(source.components):
        raise ValueError(f"component index {which} out of range")
    table = _grid([g.order for g in source.components])[:, which]
    return _validated("component", source, source.components[which], table, detail=(which,))


def product_projection(parts: Sequence[Projection]) -> Projection:
    """Apply one projection per component of a product alphabet."""
    parts = tuple(parts)
    if len(parts) < 2:
        raise ValueError("a product projection needs at least two parts")
    src = ProductGroup(tuple(p.source for p in parts))
    tgt = ProductGroup(tuple(p.target for p in parts))
    dig = _grid([p.source.order for p in parts])
    images = [p.np_table()[dig[:, k]] for k, p in enumerate(parts)]
    table = np.ravel_multi_index(images, [p.target.order for p in parts])
    return _validated("product", src, tgt, table, detail=parts)


def rho(a: int, u: int) -> int:
    """Integer residue map, ``u mod a``; the scalar form of ``residue``."""
    return u % a


# ---------------------------------------------------------------------------
# Serialization (JSON-friendly dicts, reconstructed through the validating
# constructors so a corrupted file fails fast).
# ---------------------------------------------------------------------------


def group_to_dict(g: Group) -> dict:
    if isinstance(g, GaloisGroup):
        return {
            "kind": "gf",
            "p": g.field.p,
            "u": g.field.u,
            "irreducible": list(g.field.irreducible),
        }
    if isinstance(g, ResidueGroup):
        return {"kind": "zmod", "s": g.modulus}
    if isinstance(g, ProductGroup):
        return {"kind": "product", "components": [group_to_dict(c) for c in g.components]}
    raise TypeError(f"unknown group kind {type(g).__name__}")


def group_from_dict(d: dict) -> Group:
    kind = d["kind"]
    if kind == "gf":
        return GaloisGroup(Field(d["p"], d["u"], tuple(d["irreducible"])))
    if kind == "zmod":
        return ResidueGroup(d["s"])
    if kind == "product":
        return ProductGroup(tuple(group_from_dict(c) for c in d["components"]))
    raise ValueError(f"unknown group kind {kind!r}")


def projection_to_dict(p: Projection) -> dict:
    d: dict = {"kind": p.kind, "source": group_to_dict(p.source)}
    if p.kind == "truncation":
        d["u2"] = p.detail[0]
        d["target"] = group_to_dict(p.target)
    elif p.kind == "modulus":
        d["target"] = group_to_dict(p.target)
    elif p.kind == "residue":
        d["a"] = p.detail[0]
    elif p.kind == "component":
        d["which"] = p.detail[0]
    elif p.kind == "product":
        d["parts"] = [projection_to_dict(q) for q in p.detail]
    elif p.kind != "identity":
        raise TypeError(f"unknown projection kind {p.kind!r}")
    return d


def projection_from_dict(d: dict) -> Projection:
    kind = d["kind"]
    source = group_from_dict(d["source"])
    if kind == "identity":
        return identity_projection(source)
    if kind == "truncation":
        return truncation(source, group_from_dict(d["target"]))
    if kind == "modulus":
        return modulus(source, group_from_dict(d["target"]))
    if kind == "residue":
        return residue(source, d["a"])
    if kind == "component":
        return component(source, d["which"])
    if kind == "product":
        return product_projection([projection_from_dict(q) for q in d["parts"]])
    raise ValueError(f"unknown projection kind {kind!r}")
