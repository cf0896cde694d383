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
after it is built.

Numeric evaluation runs on a compiled form made once per polynomial: a
tuple of (coefficient, ((variable, exponent), ...)) pairs, one per term,
with only the non-zero exponents and the variables numbered in key order
z_1, z*_1, z_2, z*_2, ....  One term loop evaluates it over a list of
variable columns (`_columns`).  A column is a Python scalar for one point,
the fast form for single-point work such as an RK4 field, or a numpy array
for N points at once; the same loop serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
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


def _compile(terms: Mapping[tuple[int, ...], complex]) -> tuple:
    """The evaluator form of a term map: one (coefficient, ((variable,
    exponent), ...)) pair per term, non-zero exponents only, variables
    numbered by their position in the key."""
    return tuple(
        (coeff, tuple((var, exponent) for var, exponent in enumerate(key) if exponent))
        for key, coeff in terms.items()
    )


def _evaluate(compiled: tuple, columns) -> complex | np.ndarray:
    """Sum of the compiled terms at variable columns.

    `columns[v]` is the value of variable v: a scalar for one point, or an
    array for N points, which gives an array of values (a scalar when no
    term has a variable).  Factors multiply in variable order, then the
    terms add in order.
    """
    total = 0j
    for coeff, factors in compiled:
        value = coeff
        for var, exponent in factors:
            value *= columns[var] ** exponent
        total += value
    return total


class Polynomial:
    """Sparse complex polynomial in (z_a, z*_a), a = 1..mode_count."""

    __slots__ = ("mode_count", "terms", "_compiled")

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
                    prev = clean.get(key, 0j)
                    total = prev + coeff
                    if total == 0:
                        clean.pop(key, None)
                    else:
                        clean[key] = total
        self.terms = clean
        self._compiled = _compile(clean)

    @classmethod
    def _of(cls, mode_count: int, terms: dict[tuple[int, ...], complex]) -> "Polynomial":
        """A polynomial from a term map that is already clean: keys of the
        right width, no zero coefficient."""
        out = cls.__new__(cls)
        out.mode_count = mode_count
        out.terms = terms
        out._compiled = _compile(terms)
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
    def monomial(cls, mode_count: int, powers: Mapping[int, tuple[int, int]], coeff: complex = 1.0) -> "Polynomial":
        """Single term: coeff * prod_a z_a^k_a z*_a^l_a, powers keyed by mode."""
        key = [0] * (2 * mode_count)
        for mode, (k, l) in powers.items():
            if not 0 <= mode < mode_count:
                raise ValueError(f"mode index {mode} out of range for mode_count={mode_count}")
            key[2 * mode] = k
            key[2 * mode + 1] = l
        return cls(mode_count, {tuple(key): coeff})

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
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = terms.get(key, 0j) + coeff
            if total == 0:
                terms.pop(key, None)
            else:
                terms[key] = total
        return Polynomial._of(self.mode_count, terms)

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
        terms: dict[tuple[int, ...], complex] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(ea + eb for ea, eb in zip(ka, kb))
                total = terms.get(key, 0j) + ca * cb
                if total == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = total
        return Polynomial._of(self.mode_count, terms)

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

        `wrt` is "z" or "zc" (the text-form spelling of z*; "z*" is accepted
        as an alias).  z and z* are independent variables.
        """
        if not 0 <= mode < self.mode_count:
            raise ValueError(f"mode index {mode} out of range for mode_count={self.mode_count}")
        if wrt in ("z*", "conj"):
            wrt = "zc"
        if wrt not in ("z", "zc"):
            raise ValueError(f"wrt must be 'z' or 'zc', got {wrt!r}")
        pos = 2 * mode + (1 if wrt == "zc" else 0)
        terms = {}
        for key, coeff in self.terms.items():
            e = key[pos]
            if e == 0:
                continue
            new_key = key[:pos] + (e - 1,) + key[pos + 1:]
            terms[new_key] = terms.get(new_key, 0j) + e * coeff
        return Polynomial._of(self.mode_count, {k: c for k, c in terms.items() if c != 0})

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
        for one point, an array for N points."""
        return _evaluate(self._compiled, columns)


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
