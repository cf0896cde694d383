"""Operators on truncated bosonic Fock spaces and spin representations.

Classical polynomials in (z, z*) are mapped to matrices by replacing z with
the Bose annihilation operator.  Monomials mixing z and z* need an ordering
choice; there is no default.  `normal_quantize` (z^k z*^l -> (a+)^l a^k) is
the one quantizer, and every model goes through it
(`models.quantized_lindblad`).  Weyl (symmetric) ordering is its image of
exp(Delta/2) p, Delta = sum_a d^2/dz_a dz*_a (Cahill & Glauber 1969,
Agarwal & Wolf 1970).

A truncated (a+)^l a^k is the exact compression of the infinite-ladder
operator, so both quantizations are exact on every kept level.  Products of
truncated operators are not: the top rungs cannot satisfy [a, a+] = 1, so
identities between products only hold on the "safe subspace" of levels
whose images under every involved operator stay below the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._csv import write_csv

__all__ = [
    "FockSpace",
    "SpinRep",
    "OperatorMatrix",
    "annihilation",
    "creation",
    "number",
    "weyl_quantize",
    "normal_quantize",
    "spin_operators",
    "symmetrize_product",
    "commutator",
    "export_operator_csv",
]

MAX_QUANTIZE_DEGREE = 8


@dataclass(frozen=True)
class FockSpace:
    """Truncated multi-mode Fock space; mode a keeps levels 0..mode_dims[a]-1."""

    mode_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.mode_dims)
        if not dims:
            raise ValueError("FockSpace needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError("every Fock truncation must be at least 2")
        object.__setattr__(self, "mode_dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.mode_dims:
            out *= d
        return out

    def occupation(self, index: int) -> tuple[int, ...]:
        """Occupation numbers of the flat basis index (mode 0 slowest)."""
        occ = []
        for d in reversed(self.mode_dims):
            occ.append(index % d)
            index //= d
        return tuple(reversed(occ))

    def index(self, occupation) -> int:
        index = 0
        for n, d in zip(occupation, self.mode_dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {occupation} outside truncation {self.mode_dims}")
            index = index * d + n
        return index


@dataclass(frozen=True)
class SpinRep:
    """Spin-l representation, dimension 2l + 1; l may be half-integral."""

    l: float

    def __post_init__(self):
        two_l = 2 * self.l
        if two_l < 0 or abs(two_l - round(two_l)) > 1e-12:
            raise ValueError(f"2l must be a non-negative integer, got l={self.l}")
        object.__setattr__(self, "l", float(self.l))

    @property
    def dim(self) -> int:
        return int(round(2 * self.l)) + 1


class OperatorMatrix:
    """Dense complex matrix on a labeled finite basis."""

    __slots__ = ("mat", "basis")

    def __init__(self, mat, basis: FockSpace | SpinRep | None = None):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        if isinstance(basis, FockSpace) and basis.total_dim != mat.shape[0]:
            raise ValueError("matrix dimension does not match Fock space")
        if isinstance(basis, SpinRep) and basis.dim != mat.shape[0]:
            raise ValueError("matrix dimension does not match spin representation")
        self.mat = mat
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= 1e-12)

    def _merge_basis(self, other: "OperatorMatrix"):
        if self.dim != other.dim:
            raise ValueError(f"operator dimension mismatch: {self.dim} vs {other.dim}")
        return self.basis if self.basis == other.basis else None

    def __add__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.mat + other.mat, self._merge_basis(other))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.mat - other.mat, self._merge_basis(other))
        return NotImplemented

    def __neg__(self):
        return OperatorMatrix(-self.mat, self.basis)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return OperatorMatrix(self.mat * scalar, self.basis)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return OperatorMatrix(self.mat / scalar, self.basis)

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.mat @ other.mat, self._merge_basis(other))
        return NotImplemented

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim}, basis={self.basis!r})"


def _destroy(dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        mat[n - 1, n] = np.sqrt(n)
    return mat


def annihilation(dim: int) -> OperatorMatrix:
    """a |n> = sqrt(n) |n-1>, truncated at dim levels."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return OperatorMatrix(_destroy(dim), FockSpace((dim,)))


def creation(dim: int) -> OperatorMatrix:
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return OperatorMatrix(_destroy(dim).conj().T, FockSpace((dim,)))


def number(dim: int) -> OperatorMatrix:
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return OperatorMatrix(np.diag(np.arange(dim, dtype=complex)), FockSpace((dim,)))


def normal_quantize(poly, space: FockSpace) -> OperatorMatrix:
    """Normal-ordered quantization: z^k z*^l -> (a+)^l a^k."""
    if poly.mode_count != space.n_modes:
        raise ValueError(
            f"polynomial has {poly.mode_count} modes, space has {space.n_modes}"
        )
    total = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for key, coeff in poly.terms.items():
        degree = sum(key)
        if degree > MAX_QUANTIZE_DEGREE:
            raise ValueError(
                f"monomial degree {degree} exceeds the quantization limit {MAX_QUANTIZE_DEGREE}"
            )
        factor = np.array([[coeff]], dtype=complex)
        for mode, dim in enumerate(space.mode_dims):
            a = _destroy(dim)
            k, l = key[2 * mode], key[2 * mode + 1]
            factor = np.kron(factor, np.linalg.matrix_power(a.conj().T, l) @ np.linalg.matrix_power(a, k))
        total += factor
    return OperatorMatrix(total, space)


def weyl_quantize(poly, space: FockSpace) -> OperatorMatrix:
    """Symmetric (Weyl) quantization: z -> a, z* -> a+, mixed powers averaged
    over every operator ordering.  It is normal_quantize(sum_n (Delta/2)^n
    poly / n!); each contraction lowers the degree by two, so the sum ends,
    and the top-degree terms, which the degree limit reads, are poly's."""
    term = symbol = poly
    n = 0
    while not term.is_zero:
        n += 1
        term = term.contraction() * (0.5 / n)
        symbol = symbol + term
    return normal_quantize(symbol, space)


def spin_operators(rep: SpinRep) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Standard (2l+1)-dimensional angular momentum matrices.

    Basis ordered m = l, l-1, ..., -l, so l = 1/2 gives the Pauli matrices
    over two.  Satisfies [l_i, l_j] = i eps_ijk l_k and
    l_x^2 + l_y^2 + l_z^2 = l(l+1).
    """
    l = rep.l
    dim = rep.dim
    ms = [l - i for i in range(dim)]
    lz = np.diag(np.array(ms, dtype=complex))
    lplus = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        m = ms[i]
        lplus[i - 1, i] = np.sqrt(l * (l + 1) - m * (m + 1))
    lminus = lplus.conj().T
    lx = (lplus + lminus) / 2.0
    ly = (lplus - lminus) / 2j
    return (
        OperatorMatrix(lx, rep),
        OperatorMatrix(ly, rep),
        OperatorMatrix(lz, rep),
    )


def symmetrize_product(ops: list[OperatorMatrix]) -> OperatorMatrix:
    """Average of the product over all orderings of the factors."""
    if not ops:
        raise ValueError("symmetrize_product needs at least one operator")
    dim = ops[0].dim
    basis = ops[0].basis
    for op in ops[1:]:
        if op.dim != dim:
            raise ValueError("operator dimension mismatch in symmetrize_product")
        if op.basis != basis:
            basis = None
    accum = np.zeros((dim, dim), dtype=complex)
    count = 0
    for order in permutations(range(len(ops))):
        word = np.eye(dim, dtype=complex)
        for index in order:
            word = word @ ops[index].mat
        accum += word
        count += 1
    return OperatorMatrix(accum / count, basis)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(a.mat @ b.mat - b.mat @ a.mat, a._merge_basis(b))


def export_operator_csv(op: OperatorMatrix, path):
    """Dump as `row, col, re, im` rows (all entries, row-major)."""
    rows, cols = np.indices(op.mat.shape)
    write_csv(path, ["row", "col", "re", "im"], [rows.ravel(), cols.ravel(), op.mat.real.ravel(), op.mat.imag.ravel()])
