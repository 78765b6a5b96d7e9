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
  this order is its *index*, which is what array types store, as
  ``INDEX_DTYPE`` (int32).  An alphabet therefore has at most ``MAX_ORDER``
  (2^31 - 1) elements, and the alphabets refuse a larger order.  ``_grid``,
  the digits of every index over a tuple of orders, is the one place where
  these positions are laid out; ``np.ravel_multi_index`` is the way back.

Index tables are the single arithmetic core.  ``add_table``, ``neg_table``,
``sub_table`` and, for fields, ``mul_table`` are cached read-only arrays
over element indices; constructions, projections and verifiers all work on
them.  ``GfElem`` and the scalar ``add``/``neg`` methods of every alphabet
(and ``Field.mul``) are views for the API and file edges, where single
elements are parsed, printed or compared; they are the only scalar entry
points.  Each projection builder has one argument spelling:
``truncation(f1, f2)`` and ``modulus(f1, f2)`` take two ``Field`` objects,
``residue(s, a)`` two integer orders, ``component(g, which)`` a
``ProductGroup`` and a position, and ``product_projection(parts)`` one
projection per component.  Each keeps one validated object per distinct
argument, like the tables (a numpy integer is the int it equals); refusals
are not cached, so a bad argument raises on every call.  ``texts_at`` and ``parse_indices`` are the
text edge, so files are read and written one lookup per cell: through
``text_codec``, per alphabet the canonical text of every index and the map
back, except in a residue ring, whose cells are decimal integers read and
written directly.  ``arrays._parse_grid`` reads every grid of cell texts
through them and sends only the cells no lookup reads to
``Group.parse_index``, the element path.  ``DEFAULT_IRREDUCIBLES`` sits next
to ``field_make``, its only reader.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "INDEX_DTYPE",
    "MAX_ORDER",
    "MAX_FIELD_ORDER",
    "prime_power",
    "digits",
    "poly_text",
    "poly_parse",
    "poly_mul",
    "poly_mod",
    "GfElem",
    "Field",
    "DEFAULT_IRREDUCIBLES",
    "field_make",
    "Group",
    "GaloisGroup",
    "ResidueGroup",
    "ProductGroup",
    "add_table",
    "mul_table",
    "neg_table",
    "sub_table",
    "text_codec",
    "texts_at",
    "parse_indices",
    "Projection",
    "identity_projection",
    "truncation",
    "modulus",
    "residue",
    "component",
    "product_projection",
    "group_to_dict",
    "group_from_dict",
    "projection_to_dict",
    "projection_from_dict",
]

#: The dtype of element indices: every array entry, table and projection
#: table.  No alphabet here comes near its range.
INDEX_DTYPE = np.dtype(np.int32)

#: Largest alphabet order, so that every index fits ``INDEX_DTYPE``.
MAX_ORDER = int(np.iinfo(INDEX_DTYPE).max)

#: Largest field handled here.  The constructions in this package never need
#: more, and it keeps every exhaustive validation loop trivially cheap.
MAX_FIELD_ORDER = 256


def _integer(v, what: str, least: int | None = None) -> int:
    """``v`` as a plain int, the one intake for integer arguments: a numpy
    integer becomes the int it equals; a float, a bool, anything else and a
    value below ``least`` are refused, naming ``what``.  Equal alphabets share
    cached tables, factors and projections, so an alphabet must not equal
    another while holding a number of another kind (Z_6.0 equals Z_6, and
    JSON cannot write an ``np.int64``)."""
    if isinstance(v, np.integer):
        v = int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{what} must be >= {least}, got {v}")
    return v


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
    return np.stack(np.unravel_index(np.arange(math.prod(orders)), orders), axis=1, dtype=INDEX_DTYPE)


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


def poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of ``num`` by a monic ``den`` over Z_p."""
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(poly_trim(num))
    d = len(den) - 1
    while len(rem) - 1 >= d and rem:
        shift = len(rem) - 1 - d
        coef = rem[-1]
        for i, c in enumerate(den):
            rem[shift + i] = (rem[shift + i] - coef * c) % p
        rem = list(poly_trim(rem))
    return tuple(rem)


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


@lru_cache(maxsize=None)
def _find_factor(poly: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """Smallest monic factor of degree 1..deg//2, by exhaustive trial division.

    Cached: each defining polynomial is divided through once per process,
    and every ``Field`` built on it reads the same answer (a reducible one
    is refused on every call, from the cached factor)."""
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
    irreducible : monic degree-u polynomial over Z_p, constant term first,
        with integer coefficients (a float or a bool is refused).
        Irreducibility is verified by exhaustive trial division, once per
        distinct polynomial and characteristic (``_find_factor`` is cached);
        every construction checks the rest anew, and a reducible input
        raises ``ValueError`` naming a nontrivial factor each time.
    """

    p: int
    u: int
    irreducible: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _integer(self.p, "characteristic"))
        object.__setattr__(self, "u", _integer(self.u, "extension degree", 1))
        # bound the order before p is factored or raised to a large power u
        if self.p >= 2 and (self.u >= MAX_FIELD_ORDER.bit_length() or self.p**self.u > MAX_FIELD_ORDER):
            raise ValueError(f"field order {self.p}^{self.u} exceeds the supported maximum {MAX_FIELD_ORDER}")
        if prime_power(self.p) != (self.p, 1):
            raise ValueError(f"characteristic {self.p} is not prime")
        poly = tuple(_integer(c, "polynomial coefficient") % self.p for c in self.irreducible)
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


#: Default defining polynomials, constant term first.  The x^u + x + 1
#: convention is used wherever that trinomial is irreducible; the remaining
#: entries are standard choices, and every one is re-verified by trial
#: division when the field is built.
DEFAULT_IRREDUCIBLES: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),  # x+1
    (2, 2): (1, 1, 1),  # x^2+x+1
    (2, 3): (1, 1, 0, 1),  # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),  # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5+x^2+1 (x^5+x+1 is reducible)
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6+x+1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),  # x^7+x+1
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),  # x^8+x^4+x^3+x+1
    (3, 1): (1, 1),  # x+1
    (3, 2): (2, 1, 1),  # x^2+x+2
    (3, 3): (1, 2, 0, 1),  # x^3+2x+1
    (3, 4): (2, 1, 0, 0, 1),  # x^4+x+2
    (5, 1): (1, 1),
    (7, 1): (1, 1),
}


def field_make(
    p: int, u: int, irreducible: Union[str, Sequence[int], None] = None
) -> Field:
    """Build a validated GF(p^u).

    When ``irreducible`` is omitted the polynomial is the default of
    ``DEFAULT_IRREDUCIBLES``; a (p, u) without one raises ``ValueError``.
    The polynomial may be given as a coefficient sequence (constant term
    first) or as text such as ``"x^3+x+1"``; text of degree above ``u`` is
    refused before its coefficients are listed.
    """
    if irreducible is None:
        if (p, u) not in DEFAULT_IRREDUCIBLES:
            raise ValueError(f"no default defining polynomial for GF({p}^{u})")
        irreducible = DEFAULT_IRREDUCIBLES[(p, u)]
    if isinstance(irreducible, str):
        irreducible = poly_parse(irreducible, p, max_degree=_integer(u, "extension degree"))
    return Field(p, u, irreducible)


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
        """Index of the element spelled ``text`` (``1+x``, ``x^1``, ``07``),
        by the element path ``index(parse(text))``, which raises for bad
        text.  Files and row labels go through ``arrays._parse_grid``."""
        if not isinstance(text, str):
            raise ValueError(f"{text!r} is not element text")
        return self.index(self.parse(text))

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
        object.__setattr__(self, "modulus", _integer(self.modulus, "modulus", 1))
        if self.modulus > MAX_ORDER:
            raise ValueError(f"modulus {self.modulus} exceeds the largest alphabet order {MAX_ORDER}")

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

    def text_at(self, index: int) -> str:
        """The decimal digits of ``index``; Z_s is never listed."""
        return self.text(self.element(index))

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
        if self.order > MAX_ORDER:
            raise ValueError(f"product order {self.order} exceeds the largest alphabet order {MAX_ORDER}")

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
    Built once per alphabet through the element path, ``text(element(i))``.
    A residue ring, whose texts are its decimal values, needs no codec:
    ``texts_at`` and ``parse_indices`` read and write it directly, so a
    Z_s of order up to ``MAX_ORDER`` is never listed."""
    texts = tuple(g.text(g.element(i)) for i in range(g.order))
    return texts, MappingProxyType({t: i for i, t in enumerate(texts)})


def texts_at(g: Group, idx: np.ndarray) -> np.ndarray:
    """Canonical texts of the elements at the indices ``idx`` (one
    dimension, all in range), as an object array."""
    if isinstance(g, ResidueGroup):
        return np.array(list(map(str, idx.tolist())), dtype=object)
    return np.array(text_codec(g)[0], dtype=object)[idx]


def _residue_or_miss(s: int, text: str) -> int:
    try:
        v = int(text, 10)  # refuses a number that is not text, as parse_index does
    except (TypeError, ValueError):
        return -1
    return v if 0 <= v < s else -1


def parse_indices(g: Group, texts: Sequence[str]) -> np.ndarray:
    """``INDEX_DTYPE`` index of each of ``texts`` that one lookup reads,
    and -1 for the rest, which ``g.parse_index`` resolves or refuses.  A
    lookup reads the canonical texts of the codec, or, in Z_s, every
    spelling ``int`` reads as a value below s."""
    if isinstance(g, ResidueGroup):
        read = map(_residue_or_miss, repeat(g.modulus), texts)
    else:
        read = map(text_codec(g)[1].get, texts, repeat(-1))
    return np.fromiter(read, INDEX_DTYPE, len(texts))


def _residue_add(n: int) -> np.ndarray:
    """Addition table of Z_n, a new array."""
    i = np.arange(n, dtype=INDEX_DTYPE)
    return (i[:, None] + i[None, :]) % n


def _kron_sum(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Addition table of the product of alphabets with addition tables
    ``tables``, in the ``_grid`` layout (last component fastest), as a new
    array: one broadcast add per component, each over the cells of the
    product so far times those of the next component."""
    out = tables[0]
    for t in tables[1:]:
        n, m = len(out), len(t)
        out = (out[:, None, :, None] * m + t[None, :, None, :]).reshape(n * m, n * m)
    return out


@lru_cache(maxsize=None)
def add_table(g: Group) -> np.ndarray:
    """Index-level addition table of ``g`` as a read-only (order, order) array.

    A product alphabet adds component by component, so its table is the
    Kronecker sum of its components' tables (``_kron_sum``).  So is a field's:
    GF(p^u) adds coefficient by coefficient, and its index layout (``a_0``
    fastest) is the ``_grid`` layout of Z_p^u with the last component
    ``a_0``, so its table is the Z_p^u table cell for cell.  The Z_p tables
    of a field are built here, not read from the cache, so a field adds no
    cached entry besides its own."""
    if isinstance(g, ResidueGroup):
        tab = _residue_add(g.order)
    elif isinstance(g, GaloisGroup):
        tab = _kron_sum([_residue_add(g.field.p)] * g.field.u)
    elif isinstance(g, ProductGroup):
        tab = _kron_sum([add_table(c) for c in g.components])
    else:  # pragma: no cover - new alphabet kinds must extend this table
        raise TypeError(f"unknown group kind {type(g).__name__}")
    tab.setflags(write=False)
    return tab


def _powers_mod(f: Field, count: int) -> np.ndarray:
    """(count, u) coefficients of x^k mod the defining polynomial, k < count."""
    return np.array([f.from_poly((0,) * k + (1,)).coeffs for k in range(count)], dtype=INDEX_DTYPE)


def _to_index(coeffs: np.ndarray, p: int) -> np.ndarray:
    """Element indices of coefficient vectors along the last axis, reduced mod p."""
    return (coeffs % p) @ p ** np.arange(coeffs.shape[-1], dtype=INDEX_DTYPE)


def _times_x(f: Field) -> np.ndarray:
    """Index of ``x * b`` for every element index ``b``: the coefficients
    of ``b`` move up one degree, and the top one, ``c x^u``, becomes
    ``c (x^u - f)``, read from the defining polynomial's low coefficients."""
    top = f.order // f.p
    b = np.arange(f.order, dtype=INDEX_DTYPE)
    low = np.asarray(f.irreducible[:-1], dtype=INDEX_DTYPE)
    carry = _to_index(-np.arange(f.p, dtype=INDEX_DTYPE)[:, None] * low, f.p)  # c (x^u - f), c in Z_p
    return add_table(GaloisGroup(f))[b % top * f.p, carry[b // top]]


@lru_cache(maxsize=None)
def mul_table(f: Field) -> np.ndarray:
    """Index-level multiplication table of ``f`` as a read-only (order, order)
    array, built by doubling over the rows and checked by
    ``_check_mul_table``.

    Row ``a = c p^i + r`` (``c`` in Z_p, ``r < p^i``) is ``a * b = r * b +
    c (x^i b)``, so rows ``c p^i .. (c + 1) p^i - 1`` are rows ``(c - 1)
    p^i ..`` plus the element ``x^i b`` in every column: one flat gather of
    the addition table per block, and every cell is written once.  ``x^i b``
    is the index map ``_times_x`` applied ``i`` times."""
    _of_kind(f, Field, "a multiplication table")
    q = f.order
    add = add_table(GaloisGroup(f)).ravel()  # a + b at a * q + b, below 2^16
    tab = np.empty((q, q), dtype=INDEX_DTYPE)
    tab[0] = 0
    times_x, xib = _times_x(f), np.arange(q, dtype=INDEX_DTYPE)
    block = 1
    for _ in range(f.u):
        for c in range(1, f.p):
            np.take(add, tab[(c - 1) * block : c * block] * q + xib, out=tab[c * block : (c + 1) * block])
        xib = times_x[xib]
        block *= f.p
    _check_mul_table(f, tab)
    tab.setflags(write=False)
    return tab


def _check_mul_table(f: Field, tab: np.ndarray) -> None:
    """Raise unless ``tab[a, b]`` is ``a * b`` for all a, b, naming the
    first wrong cell in row-major order.

    The reference is built along the other axis from other data: by doubling
    over the columns, column ``b = d p^j + r`` being column ``r`` plus the
    element ``x^j a`` in every row, where ``x^j a = sum_i a_i (x^(i+j) mod
    f)`` comes from the scalar reductions of the powers of x
    (``_powers_mod``), not from the build's times-x map.  Only the addition
    table is shared.  Every cell is compared."""
    q = f.order
    add = add_table(GaloisGroup(f)).ravel()
    dig, xk = _vectors(f.p, f.u), _powers_mod(f, 2 * f.u - 1)
    ref = np.empty_like(tab)
    ref[:, 0] = 0
    block = 1
    for j in range(f.u):
        xja = _to_index(dig @ xk[j : j + f.u], f.p)[:, None]  # x^j a, one row per a
        for d in range(1, f.p):
            ref[:, d * block : (d + 1) * block] = add[ref[:, (d - 1) * block : d * block] * q + xja]
        block *= f.p
    bad = np.argwhere(tab != ref)
    if bad.size:
        a, b = bad[0]
        raise RuntimeError(
            f"GF({f.order}) multiplication table is wrong at indices ({a}, {b}): "
            f"{tab[a, b]} instead of {ref[a, b]}"
        )


@lru_cache(maxsize=None)
def neg_table(g: Group) -> np.ndarray:
    tab = np.argmax(add_table(g) == 0, axis=1).astype(INDEX_DTYPE)
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

    Each factory keeps one validated object per distinct argument, like the
    tables; refusals are not cached.  Every caller shares that object, which
    is safe because a projection is frozen and its ``np_table()`` read-only.
    """

    kind: str
    source: Group
    target: Group
    table: tuple[int, ...]
    detail: tuple = ()

    def np_table(self) -> np.ndarray:
        """``table`` as a read-only ``INDEX_DTYPE`` array, built once per projection."""
        return self._np_table

    @cached_property
    def _np_table(self) -> np.ndarray:
        arr = np.asarray(self.table, dtype=INDEX_DTYPE)
        arr.setflags(write=False)
        return arr

    def describe(self) -> str:
        return f"{self.kind}: {self.source.describe()} -> {self.target.describe()}"


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


_KIND_NAMES = {
    Group: "an alphabet, such as GaloisGroup(f) for a Field f",
    Field: "a Field",
    GaloisGroup: "a Galois field alphabet",
    ResidueGroup: "a residue ring alphabet",
    ProductGroup: "a product alphabet",
}


def _of_kind(v, kind: type, what: str):
    """``v``, or a ``ValueError`` saying that ``what`` needs a ``kind``."""
    if not isinstance(v, kind):
        got = v.describe() if isinstance(v, Group) else repr(v)
        raise ValueError(f"{what} needs {_KIND_NAMES[kind]}, not {got}")
    return v


@lru_cache(maxsize=None)
def identity_projection(g: Group) -> Projection:
    return _validated("identity", g, g, range(g.order))


@lru_cache(maxsize=None)
def truncation(f1: Field, f2: Field) -> Projection:
    """Drop all terms of degree >= u2; the Bose-Bush style collapse."""
    for f in (f1, f2):
        _of_kind(f, Field, "a truncation projection")
    if f1.p != f2.p:
        raise ValueError("truncation requires matching characteristics")
    if f2.u > f1.u:
        raise ValueError("truncation target must not be larger than the source")
    table = np.arange(f1.order) % f2.order  # the low u2 digits
    return _validated("truncation", GaloisGroup(f1), GaloisGroup(f2), table, detail=(f2.u,))


@lru_cache(maxsize=None)
def modulus(f1: Field, f2: Field) -> Projection:
    """Reduce each element modulo the target's defining polynomial."""
    for f in (f1, f2):
        _of_kind(f, Field, "a modulus projection")
    if f1.p != f2.p:
        raise ValueError("modulus requires matching characteristics")
    if f2.u > f1.u:
        raise ValueError("modulus target must not be larger than the source")
    table = _to_index(_vectors(f1.p, f1.u) @ _powers_mod(f2, f1.u), f1.p)
    return _validated("modulus", GaloisGroup(f1), GaloisGroup(f2), table, detail=(f2.irreducible,))


def residue(s: int, a: int) -> Projection:
    """The map u -> u mod a from Z_s onto Z_a."""
    return _residue(_integer(s, "modulus"), _integer(a, "residue modulus", 1))


@lru_cache(maxsize=None)
def _residue(s: int, a: int) -> Projection:
    src = ResidueGroup(s)
    if src.modulus % a:
        raise ValueError(
            f"residue projection Z_{src.modulus} -> Z_{a} needs {a} to divide {src.modulus}"
        )
    tgt = ResidueGroup(a)
    return _validated("residue", src, tgt, [i % a for i in range(src.modulus)], detail=(tgt.modulus,))


def component(source: ProductGroup, which: int) -> Projection:
    """Select one component of a product alphabet, e.g. digit dropping."""
    return _component(source, _integer(which, "component index"))


@lru_cache(maxsize=None)
def _component(source: ProductGroup, which: int) -> Projection:
    _of_kind(source, ProductGroup, "a component projection")
    if not 0 <= which < len(source.components):
        raise ValueError(f"component index {which} out of range")
    table = _grid([g.order for g in source.components])[:, which]
    return _validated("component", source, source.components[which], table, detail=(which,))


# one cache per projection, read through the normalising entry points
residue.cache_info, residue.cache_clear = _residue.cache_info, _residue.cache_clear
component.cache_info, component.cache_clear = _component.cache_info, _component.cache_clear


def product_projection(parts: Sequence[Projection]) -> Projection:
    """Apply one projection per component of a product alphabet; one
    validated object per distinct tuple of parts."""
    return _product_projection(tuple(parts))


@lru_cache(maxsize=None)
def _product_projection(parts: tuple[Projection, ...]) -> Projection:
    if len(parts) < 2:
        raise ValueError("a product projection needs at least two parts")
    src = ProductGroup(tuple(p.source for p in parts))
    tgt = ProductGroup(tuple(p.target for p in parts))
    dig = _grid([p.source.order for p in parts])
    images = [p.np_table()[dig[:, k]] for k, p in enumerate(parts)]
    table = np.ravel_multi_index(images, [p.target.order for p in parts])
    return _validated("product", src, tgt, table, detail=parts)


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
    what = f"a {kind} projection"
    if kind == "identity":
        return identity_projection(source)
    if kind == "truncation":
        target = group_from_dict(d["target"])
        return truncation(_of_kind(source, GaloisGroup, what).field, _of_kind(target, GaloisGroup, what).field)
    if kind == "modulus":
        target = group_from_dict(d["target"])
        return modulus(_of_kind(source, GaloisGroup, what).field, _of_kind(target, GaloisGroup, what).field)
    if kind == "residue":
        return residue(_of_kind(source, ResidueGroup, what).modulus, d["a"])
    if kind == "component":
        return component(source, d["which"])
    if kind == "product":
        return product_projection([projection_from_dict(q) for q in d["parts"]])
    raise ValueError(f"unknown projection kind {kind!r}")
