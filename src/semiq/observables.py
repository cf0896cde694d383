"""Complex polynomial algebra over phase-space coordinates.

Polynomials live in the variables z_1..z_m and their conjugates, treated as
formally independent (Wirtinger calculus).  Conjugation is a structural
operation on terms, never a numeric one.  Units are fixed once for the whole
library: hbar = 1 and dimensionless coordinates x, y with z = (x + i y)/sqrt(2),
so that {z, z*} = -i.

Terms are stored as a map from a multi-exponent key to a complex coefficient.
The key for an m-mode polynomial is a tuple of 2m non-negative integers
(k_1, l_1, ..., k_m, l_m) where k_a is the power of z_a and l_a the power of
z*_a.  Coefficients that are exactly zero are dropped, so equality of term
maps is structural equality of polynomials.  A polynomial is not changed
after it is built.  Sum, product and derivative run in module-level
helpers on term maps of any key width (`_accumulate`, `_product`,
`_derivative`), so the spin polynomials of models, keyed by (l_x, l_y,
l_z) exponents, compose with the same loops.

Numeric evaluation runs generated code.  `_compile` writes one Python
function f(y) for a tuple of term maps; it returns one value per map, each
the sum 0j + K[i] * v3 ** 2 * v4 ** 1 + ... over the terms in map order,
the factors of a term in variable order, with the variables numbered in
key order z_1, z*_1, z_2, z*_2, ....  That is the operation sequence of
a loop over the terms, so every value is bit for bit the loop's; the
tests keep that loop as the oracle (tests/helpers.py).  The source names
only variable indices and exponents; the coefficients are bound by value
as the tuple K, so polynomials of one shape share one code object.  A prologue reads each
variable in use from y: a column of `_columns` for polynomial evaluation,
or a coordinate of a flow's tuple state and its conjugate.  A column is a
Python scalar for one point or a numpy array for N points; the same code
serves both.  Polynomial compiles on its first evaluation, so the
intermediate polynomials of quantization and composition never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from types import FunctionType
from typing import Mapping

import numpy as np

__all__ = [
    "Polynomial",
    "PhasePoint",
    "poisson_bracket",
    "format_polynomial",
]


@dataclass(frozen=True)
class PhasePoint:
    """A point of the classical phase space, one complex coordinate per mode."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        if coords.ndim != 1:
            raise ValueError("phase point coordinates must be a 1-d sequence")
        if not np.all(np.isfinite(coords)):
            raise ValueError("phase point coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def mode_count(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)


def _as_coords(point, mode_count: int) -> np.ndarray:
    coords = point.coords if isinstance(point, PhasePoint) else np.atleast_1d(np.asarray(point, dtype=complex))
    if coords.ndim != 1:
        raise ValueError(f"a phase point is a 1-d sequence of coordinates, got shape {coords.shape}")
    if len(coords) != mode_count:
        raise ValueError(f"phase point has {len(coords)} modes, polynomial has {mode_count}")
    return coords


def _columns(coords) -> list:
    """Evaluator columns z_1, z*_1, z_2, z*_2, ... of per-mode coordinates.

    `coords` holds one entry per mode: Python complex numbers for one point
    (pass `coords.tolist()`), or the rows of an (m, N) array for N points.
    """
    columns = []
    for z in coords:
        columns += (z, z.conjugate())
    return columns


# Terms per statement of a generated sum; the compiler recurses once per
# operator of a chained sum and gives up near 3000.
_TERMS_PER_LINE = 256


def _column_reads(width: int) -> tuple[str, ...]:
    """Variable v read as y[v]: columns of `_columns`, or the components of
    a state whose variables are the state itself, such as (l_x, l_y, l_z)."""
    return tuple(f"y[{v}]" for v in range(width))


def _coordinate_reads(mode_count: int) -> tuple[str, ...]:
    """z_a and z*_a read from a state that holds the coordinate z_a at y[a]."""
    return tuple(read for a in range(mode_count) for read in (f"y[{a}]", f"y[{a}].conjugate()"))


@lru_cache(maxsize=256)
def _code(source: str):
    """The code object of a generated source, compiled once per source
    text, so polynomials of one shape share it; the cache is bounded
    because a process may evaluate ever new shapes."""
    namespace: dict = {}
    exec(compile(source, "<polynomial>", "exec"), namespace)
    return namespace["f"].__code__


def _compile(term_maps, reads: tuple[str, ...], real: bool = False):
    """One generated function f(y) returning the tuple of the values of the
    term maps, or of their real parts; reads[v] is the source text that
    reads variable v (the key position v) from y.

    Each value is 0j plus the terms in map order, each term its coefficient
    times the factors v ** exponent in variable order: the sequence of
    operations is fixed by the term maps alone, on scalars and on arrays.
    An exponent of 1 is written out: complex ** 1 multiplies by 1 + 0j,
    which is not v itself on signed zeros and infinities.
    """
    coefficients = []
    used = set()
    lines = []
    for index, terms in enumerate(term_maps):
        pieces = []
        for key, coeff in terms.items():
            factors = [(var, exponent) for var, exponent in enumerate(key) if exponent]
            used.update(var for var, _ in factors)
            pieces.append(f"K[{len(coefficients)}]" + "".join(f" * v{var} ** {e}" for var, e in factors))
            coefficients.append(coeff)
        for start in range(0, max(len(pieces), 1), _TERMS_PER_LINE):
            head = f"s{index}" if start else "0j"
            lines.append(f"    s{index} = " + " + ".join([head, *pieces[start:start + _TERMS_PER_LINE]]))
    prologue = [f"    v{var} = {reads[var]}" for var in sorted(used)]
    part = ".real" if real else ""
    values = "".join(f"s{index}{part}," for index in range(len(term_maps)))
    source = "\n".join(["def f(y):", *prologue, *lines, f"    return ({values})\n"])
    return FunctionType(_code(source), {"K": tuple(coefficients)})


def _accumulate(terms: dict, other: Mapping[tuple, complex]) -> dict:
    """Add other's terms into the term map `terms`, in other's order,
    dropping a term that cancels; returns `terms`."""
    for key, coeff in other.items():
        total = terms.get(key, 0j) + coeff
        if total == 0:
            terms.pop(key, None)
        else:
            terms[key] = total
    return terms


def _product(a: Mapping[tuple, complex], b: Mapping[tuple, complex]) -> dict:
    """Term map of a * b for term maps of one key width: the exponents of
    each pair of terms add, pairs taken in a's order, then b's."""
    terms: dict[tuple[int, ...], complex] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(ea + eb for ea, eb in zip(ka, kb))
            total = terms.get(key, 0j) + ca * cb
            if total == 0:
                terms.pop(key, None)
            else:
                terms[key] = total
    return terms


def _derivative(terms: Mapping[tuple, complex], pos: int) -> dict:
    """Term map of the derivative with respect to the variable at key
    position pos."""
    out = {}
    for key, coeff in terms.items():
        e = key[pos]
        if e:
            new_key = key[:pos] + (e - 1,) + key[pos + 1:]
            out[new_key] = out.get(new_key, 0j) + e * coeff
    return {k: c for k, c in out.items() if c != 0}


class Polynomial:
    """Sparse complex polynomial in (z_a, z*_a), a = 1..mode_count."""

    __slots__ = ("mode_count", "terms", "_function")

    def __init__(self, mode_count: int, terms: Mapping[tuple, complex] | None = None):
        if mode_count < 1:
            raise ValueError("mode_count must be a positive integer")
        self.mode_count = int(mode_count)
        clean: dict[tuple[int, ...], complex] = {}
        if terms:
            width = 2 * self.mode_count
            for key, coeff in terms.items():
                key = tuple(int(e) for e in key)
                if len(key) != width:
                    raise ValueError(f"exponent key {key} does not match mode_count={mode_count}")
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                coeff = complex(coeff)
                if not (isfinite(coeff.real) and isfinite(coeff.imag)):
                    raise ValueError("non-finite coefficient")
                if coeff != 0:
                    _accumulate(clean, {key: coeff})
        self.terms = clean
        self._function = None

    @classmethod
    def _of(cls, mode_count: int, terms: dict[tuple[int, ...], complex]) -> "Polynomial":
        """A polynomial from a term map that is already clean: keys of the
        right width, no zero coefficient."""
        out = cls.__new__(cls)
        out.mode_count = mode_count
        out.terms = terms
        out._function = None
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, mode_count: int) -> "Polynomial":
        return cls(mode_count)

    @classmethod
    def constant(cls, mode_count: int, value: complex) -> "Polynomial":
        return cls(mode_count, {(0,) * (2 * mode_count): complex(value)})

    @classmethod
    def z(cls, mode: int, mode_count: int) -> "Polynomial":
        """The coordinate z_mode (0-based mode index)."""
        return cls.monomial(mode_count, {mode: (1, 0)})

    @classmethod
    def zc(cls, mode: int, mode_count: int) -> "Polynomial":
        """The conjugate coordinate z*_mode (0-based mode index)."""
        return cls.monomial(mode_count, {mode: (0, 1)})

    @classmethod
    def monomial(cls, mode_count: int, powers: Mapping[int, tuple[int, int]]) -> "Polynomial":
        """Single term: prod_a z_a^k_a z*_a^l_a, powers keyed by mode."""
        key = [0] * (2 * mode_count)
        for mode, (k, l) in powers.items():
            if not 0 <= mode < mode_count:
                raise ValueError(f"mode index {mode} out of range for mode_count={mode_count}")
            key[2 * mode] = k
            key[2 * mode + 1] = l
        return cls(mode_count, {tuple(key): 1.0})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(key) for key in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mode_count == other.mode_count and self.terms == other.terms

    def __hash__(self):
        return hash((self.mode_count, frozenset(self.terms.items())))

    def __reduce__(self):
        # A generated function does not pickle; the copy compiles anew.
        return Polynomial._of, (self.mode_count, self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.mode_count}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.mode_count != other.mode_count:
            raise ValueError(f"mode_count mismatch: {self.mode_count} vs {other.mode_count}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.mode_count, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial._of(self.mode_count, _accumulate(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.mode_count, {key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.mode_count, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            if other == 0:
                return Polynomial.zero(self.mode_count)
            return Polynomial._of(self.mode_count, {key: coeff * other for key, coeff in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial._of(self.mode_count, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        out = Polynomial.constant(self.mode_count, 1.0)
        for _ in range(exponent):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------------

    def conjugate(self) -> "Polynomial":
        """Structural conjugate: z^k z*^l -> z^l z*^k with conjugated coefficient."""
        terms = {}
        for key, coeff in self.terms.items():
            swapped = []
            for a in range(self.mode_count):
                swapped.extend((key[2 * a + 1], key[2 * a]))
            terms[tuple(swapped)] = coeff.conjugate()
        return Polynomial._of(self.mode_count, terms)

    def partial(self, mode: int, wrt: str = "z") -> "Polynomial":
        """Formal derivative with respect to z_mode or z*_mode.

        `wrt` is "z" or "zc" (z*).  z and z* are independent variables.
        """
        if not 0 <= mode < self.mode_count:
            raise ValueError(f"mode index {mode} out of range for mode_count={self.mode_count}")
        if wrt not in ("z", "zc"):
            raise ValueError(f"wrt must be 'z' or 'zc', got {wrt!r}")
        return Polynomial._of(self.mode_count, _derivative(self.terms, 2 * mode + (wrt == "zc")))

    def contraction(self) -> "Polynomial":
        """Delta p = sum_a d^2 p / dz_a dz*_a, taken on the term map: each
        term z_a^k z*_a^l of mode a gives k l z_a^(k-1) z*_a^(l-1)."""
        terms = {}
        for key, coeff in self.terms.items():
            for pos in range(0, len(key), 2):
                k, l = key[pos], key[pos + 1]
                if k and l:
                    new_key = key[:pos] + (k - 1, l - 1) + key[pos + 2:]
                    terms[new_key] = terms.get(new_key, 0j) + k * l * coeff
        return Polynomial._of(self.mode_count, {k: c for k, c in terms.items() if c != 0})

    def evaluate(self, point) -> complex:
        """Numeric value at one phase point (a PhasePoint or mode_count
        coordinates); z* factors use the conjugate coordinate."""
        return self._evaluate_coords(_columns(_as_coords(point, self.mode_count).tolist()))

    def _evaluate_coords(self, columns) -> complex | np.ndarray:
        """Value at the variable columns of `_columns`: a complex number
        for one point, an array for N points.  The first call compiles."""
        if self._function is None:
            self._function = _compile((self.terms,), _column_reads(2 * self.mode_count))
        return self._function(columns)[0]


def poisson_bracket(a: Polynomial, b: Polynomial) -> Polynomial:
    """{A, B} = -i sum_a (dA/dz_a dB/dz*_a - dA/dz*_a dB/dz_a).

    This is the bracket in complex coordinates; on the dimensionless real
    pair it reduces to the canonical {x, y} = 1 and gives {z, z*} = -i.
    """
    a._check_compatible(b)
    out = Polynomial.zero(a.mode_count)
    for mode in range(a.mode_count):
        out = out + a.partial(mode, "z") * b.partial(mode, "zc")
        out = out - a.partial(mode, "zc") * b.partial(mode, "z")
    return out * (-1j)


# -- text form ---------------------------------------------------------------
#
# sum of `coeff * z1^k * z1c^l * ...` terms, `zNc` denoting z*_N and `i` the
# imaginary unit.


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        return _format_float(c.real)
    if c.real == 0:
        return _format_float(c.imag) + "i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({_format_float(c.real)}{sign}{_format_float(abs(c.imag))}i)"


def format_polynomial(poly: Polynomial) -> str:
    if not poly.terms:
        return "0"
    pieces = []
    for key in sorted(poly.terms):
        coeff = poly.terms[key]
        factors = []
        for a in range(poly.mode_count):
            k = key[2 * a]
            l = key[2 * a + 1]
            if k:
                factors.append(f"z{a + 1}" + (f"^{k}" if k > 1 else ""))
            if l:
                factors.append(f"z{a + 1}c" + (f"^{l}" if l > 1 else ""))
        negate = (coeff.imag == 0 and coeff.real < 0) or (coeff.real == 0 and coeff.imag < 0)
        mag = -coeff if negate else coeff
        if factors and mag == 1:
            body = " * ".join(factors)
        elif factors:
            body = " * ".join([_format_coeff(mag)] + factors)
        else:
            body = _format_coeff(mag)
        if not pieces:
            pieces.append(("-" if negate else "") + body)
        else:
            pieces.append(("- " if negate else "+ ") + body)
    return " ".join(pieces)
