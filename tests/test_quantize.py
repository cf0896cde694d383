import csv
import importlib
import inspect

import numpy as np
import pytest

from helpers import random_polynomial, weyl_word_average
from semiq import (
    FockSpace,
    OperatorMatrix,
    Polynomial,
    SpinRep,
    annihilation,
    commutator,
    creation,
    export_operator_csv,
    normal_quantize,
    number,
    poisson_bracket,
    schwinger_spin,
    spin_operators,
    symmetrize_product,
    tensor_embed,
    weyl_quantize,
)

QUADRATICS = {
    "z": Polynomial.z(0, 1),
    "zc": Polynomial.zc(0, 1),
    "z^2": Polynomial.z(0, 1) * Polynomial.z(0, 1),
    "zc^2": Polynomial.zc(0, 1) * Polynomial.zc(0, 1),
    "z zc": Polynomial.z(0, 1) * Polynomial.zc(0, 1),
}


def safe(mat, margin):
    k = mat.shape[0] - margin
    return mat[:k, :k]


# -- ladder operators -----------------------------------------------------------


def test_annihilation_dim_two():
    assert np.array_equal(annihilation(2).mat, np.array([[0, 1], [0, 0]], dtype=complex))


def test_commutator_truncation_artifact():
    d = 9
    c = commutator(annihilation(d), creation(d)).mat
    expected = np.eye(d, dtype=complex)
    expected[d - 1, d - 1] = -(d - 1)
    assert np.max(np.abs(c - expected)) <= 1e-13


def test_number_is_creation_annihilation():
    d = 7
    assert np.max(np.abs((creation(d) @ annihilation(d)).mat - number(d).mat)) <= 1e-13
    assert np.array_equal(np.diag(number(d).mat).real, np.arange(d))


def test_dim_must_be_at_least_two():
    with pytest.raises(ValueError):
        annihilation(1)


# -- quantization maps ------------------------------------------------------------


def test_weyl_of_z_is_annihilation():
    space = FockSpace((6,))
    assert np.array_equal(weyl_quantize(QUADRATICS["z"], space).mat, annihilation(6).mat)


def test_weyl_of_z_zc_is_symmetrized():
    """W(z z*) is a+ a + 1/2 on every rung, the top one included; the
    average of the truncated words a a+ and a+ a agrees below the top rung."""
    d = 10
    space = FockSpace((d,))
    q = weyl_quantize(QUADRATICS["z zc"], space).mat
    shifted = number(d).mat + 0.5 * np.eye(d)
    assert np.max(np.abs(q - shifted)) <= 1e-13
    a = annihilation(d).mat
    words = (a @ a.conj().T + a.conj().T @ a) / 2
    assert np.max(np.abs(safe(q, 1) - safe(words, 1))) <= 1e-13


@pytest.mark.parametrize("mode_dims", [(12,), (9, 9)], ids=["one-mode", "two-modes"])
def test_weyl_is_compression_of_word_average(mode_dims):
    """W(p) at cut d is, on every entry, the word average at cut d + deg p
    restricted to the d kept levels: the compression of the infinite-ladder
    Weyl operator.  At cut d itself the word average agrees on the safe
    subspace, the levels deg p or more below the cut."""
    rng = np.random.default_rng(23)
    space = FockSpace(mode_dims)
    occupations = [space.occupation(i) for i in range(space.total_dim)]
    for _ in range(20):
        p = random_polynomial(rng, len(mode_dims), 4, integer=False)
        degree = p.degree()
        q = weyl_quantize(p, space).mat
        wide = FockSpace(tuple(d + degree for d in mode_dims))
        kept = [wide.index(occ) for occ in occupations]
        compressed = weyl_word_average(p, wide)[np.ix_(kept, kept)]
        assert np.max(np.abs(q - compressed)) <= 1e-14 * np.max(np.abs(compressed))
        interior = [i for i, occ in enumerate(occupations) if all(n < d - degree for n, d in zip(occ, mode_dims))]
        words = weyl_word_average(p, space)[np.ix_(interior, interior)]
        assert np.max(np.abs(q[np.ix_(interior, interior)] - words)) <= 1e-14 * np.max(np.abs(words))


def test_weyl_of_pure_power_is_ordering_free():
    d = 8
    space = FockSpace((d,))
    a = annihilation(d).mat
    assert np.max(np.abs(weyl_quantize(QUADRATICS["z^2"], space).mat - a @ a)) == 0.0


def test_normal_ordering_examples():
    d = 8
    space = FockSpace((d,))
    assert np.max(np.abs(normal_quantize(QUADRATICS["z zc"], space).mat - number(d).mat)) <= 1e-13
    ad = creation(d).mat
    assert np.max(np.abs(normal_quantize(QUADRATICS["zc^2"], space).mat - ad @ ad)) <= 1e-13


def test_weyl_minus_normal_is_half_identity():
    d = 12
    space = FockSpace((d,))
    diff = weyl_quantize(QUADRATICS["z zc"], space).mat - normal_quantize(QUADRATICS["z zc"], space).mat
    assert np.max(np.abs(safe(diff, 1) - 0.5 * np.eye(d - 1))) <= 1e-13


def test_quantization_is_linear():
    rng = np.random.default_rng(21)
    space = FockSpace((9,))
    for quantizer in (weyl_quantize, normal_quantize):
        for _ in range(5):
            p = random_polynomial(rng, 1, 4, integer=False)
            q = random_polynomial(rng, 1, 4, integer=False)
            scale = complex(rng.standard_normal(), rng.standard_normal())
            lhs = quantizer(scale * p + q, space).mat
            rhs = scale * quantizer(p, space).mat + quantizer(q, space).mat
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_weyl_of_real_polynomial_is_hermitian():
    rng = np.random.default_rng(22)
    space = FockSpace((8,))
    for _ in range(8):
        p = random_polynomial(rng, 1, 4, integer=False)
        real_p = p + p.conjugate()
        mat = weyl_quantize(real_p, space).mat
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12


def test_quantize_rejects_high_degree():
    space = FockSpace((16,))
    p = Polynomial.monomial(1, {0: (5, 4)})
    with pytest.raises(ValueError):
        weyl_quantize(p, space)
    with pytest.raises(ValueError):
        normal_quantize(p, space)


def test_quantize_rejects_mode_mismatch():
    with pytest.raises(ValueError):
        weyl_quantize(Polynomial.z(0, 2), FockSpace((8,)))


def test_quantize_module_is_not_shadowed():
    """`semiq.quantize` is the module; no function is re-exported over it."""
    module = importlib.import_module("semiq.quantize")
    assert inspect.ismodule(module)
    import semiq.quantize as q

    assert q is module


# -- correspondence on quadratics ---------------------------------------------------


def test_weyl_correspondence_on_quadratics():
    """[Q(A), Q(B)] = i Q({A, B}) exactly on the safe subspace for all
    degree <= 2 pairs; Weyl ordering represents the quadratic algebra."""
    dim = 20
    space = FockSpace((dim,))
    for pa in QUADRATICS.values():
        for pb in QUADRATICS.values():
            lhs = commutator(weyl_quantize(pa, space), weyl_quantize(pb, space)).mat
            rhs = 1j * weyl_quantize(poisson_bracket(pa, pb), space).mat
            assert np.max(np.abs(safe(lhs, 4) - safe(rhs, 4))) <= 1e-12


def test_normal_commutators_match_weyl_image():
    """Ordering variants differ by central terms, so their commutators agree
    and both reproduce i times the Weyl image of the bracket."""
    dim = 20
    space = FockSpace((dim,))
    for pa in QUADRATICS.values():
        for pb in QUADRATICS.values():
            lhs = commutator(normal_quantize(pa, space), normal_quantize(pb, space)).mat
            rhs = 1j * weyl_quantize(poisson_bracket(pa, pb), space).mat
            assert np.max(np.abs(safe(lhs, 4) - safe(rhs, 4))) <= 1e-12


def test_normal_same_variant_shift_is_known_identity():
    """With i Q_normal({A,B}) on the right the only mismatch among the
    quadratic pairs is (z^2, zc^2), off by exactly twice the identity: the
    ordering discrepancy is confined to identity shifts."""
    dim = 20
    space = FockSpace((dim,))
    for name_a, pa in QUADRATICS.items():
        for name_b, pb in QUADRATICS.items():
            lhs = commutator(normal_quantize(pa, space), normal_quantize(pb, space)).mat
            rhs = 1j * normal_quantize(poisson_bracket(pa, pb), space).mat
            gap = safe(lhs - rhs, 4)
            if {name_a, name_b} == {"z^2", "zc^2"}:
                sign = 1.0 if name_a == "z^2" else -1.0
                assert np.max(np.abs(gap - sign * 2.0 * np.eye(dim - 4))) <= 1e-12
            else:
                assert np.max(np.abs(gap)) <= 1e-12


def test_commutator_with_number_operator():
    d = 10
    a = annihilation(d)
    lhs = commutator(a, creation(d) @ a).mat
    assert np.max(np.abs(safe(lhs, 1) - safe(a.mat, 1))) <= 1e-13


# -- spin representations -----------------------------------------------------------


def test_spin_half_is_pauli_over_two():
    lx, ly, lz = spin_operators(SpinRep(0.5))
    assert np.array_equal(lx.mat, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    assert np.array_equal(ly.mat, np.array([[0, -0.5j], [0.5j, 0]], dtype=complex))
    assert np.array_equal(lz.mat, np.diag([0.5, -0.5]).astype(complex))


def test_spin_commutation_relations():
    for two_l in range(1, 41):
        rep = SpinRep(two_l / 2.0)
        lx, ly, lz = spin_operators(rep)
        assert np.max(np.abs(commutator(lx, ly).mat - 1j * lz.mat)) <= 1e-13
        assert np.max(np.abs(commutator(ly, lz).mat - 1j * lx.mat)) <= 1e-13
        assert np.max(np.abs(commutator(lz, lx).mat - 1j * ly.mat)) <= 1e-13


def test_spin_casimir():
    for l in (0.5, 1.0, 2.5, 20.0):
        rep = SpinRep(l)
        lx, ly, lz = spin_operators(rep)
        casimir = (lx @ lx + ly @ ly + lz @ lz).mat
        assert np.max(np.abs(casimir - l * (l + 1) * np.eye(rep.dim))) <= 1e-12


def test_spin_rep_validation():
    with pytest.raises(ValueError):
        SpinRep(0.3)
    with pytest.raises(ValueError):
        SpinRep(-1.0)
    assert SpinRep(1.5).dim == 4


# -- Schwinger construction ----------------------------------------------------------


def test_schwinger_commutator_on_low_blocks():
    space = FockSpace((7, 7))
    lx, ly, lz = schwinger_spin(space)
    gap = commutator(lx, ly).mat - 1j * lz.mat
    cut = min(space.mode_dims) - 1
    idx = [i for i in range(space.total_dim) if sum(space.occupation(i)) < cut]
    assert np.max(np.abs(gap[np.ix_(idx, idx)])) <= 1e-13


def test_schwinger_lz_is_diagonal():
    space = FockSpace((5, 6))
    _lx, _ly, lz = schwinger_spin(space)
    occ = [space.occupation(i) for i in range(space.total_dim)]
    expected = np.diag([(n1 - n2) / 2 for n1, n2 in occ]).astype(complex)
    assert np.max(np.abs(lz.mat - expected)) <= 1e-13
    off = lz.mat - np.diag(np.diag(lz.mat))
    assert np.max(np.abs(off)) == 0.0


def test_schwinger_conserves_total_number():
    space = FockSpace((6, 6))
    n_total = (
        tensor_embed(number(6), 0, space).mat + tensor_embed(number(6), 1, space).mat
    )
    for op in schwinger_spin(space):
        assert np.max(np.abs(op.mat @ n_total - n_total @ op.mat)) <= 1e-13


def test_schwinger_casimir_blocks():
    space = FockSpace((7, 7))
    lx, ly, lz = schwinger_spin(space)
    casimir = (lx @ lx + ly @ ly + lz @ lz).mat
    for total in range(min(space.mode_dims)):
        idx = [i for i in range(space.total_dim) if sum(space.occupation(i)) == total]
        block = casimir[np.ix_(idx, idx)]
        value = (total / 2) * (total / 2 + 1)
        assert np.max(np.abs(block - value * np.eye(len(idx)))) <= 1e-12


def test_schwinger_matches_weyl_of_bilinears():
    space = FockSpace((6, 7))
    z1, z1c = Polynomial.z(0, 2), Polynomial.zc(0, 2)
    z2, z2c = Polynomial.z(1, 2), Polynomial.zc(1, 2)
    polys = (
        0.5 * (z1c * z2 + z2c * z1),
        0.5j * (z2c * z1 - z1c * z2),
        0.5 * (z1 * z1c - z2 * z2c),
    )
    built = schwinger_spin(space)
    interior = [
        i
        for i in range(space.total_dim)
        if all(n < d - 1 for n, d in zip(space.occupation(i), space.mode_dims))
    ]
    for poly, op in zip(polys, built):
        gap = weyl_quantize(poly, space).mat - op.mat
        assert np.max(np.abs(gap[np.ix_(interior, interior)])) <= 1e-13


def test_schwinger_blocks_match_spin_operators():
    """Each total-N block is unitarily equivalent to the spin-(N/2) matrices;
    compare spectra component by component."""
    space = FockSpace((8, 8))
    schwinger = schwinger_spin(space)
    for total in (2, 5, 7):
        idx = [i for i in range(space.total_dim) if sum(space.occupation(i)) == total]
        spins = spin_operators(SpinRep(total / 2))
        for big, small in zip(schwinger, spins):
            block = big.mat[np.ix_(idx, idx)]
            eigs_block = np.sort(np.linalg.eigvalsh((block + block.conj().T) / 2))
            eigs_spin = np.sort(np.linalg.eigvalsh(small.mat))
            assert np.max(np.abs(eigs_block - eigs_spin)) <= 1e-10


def test_schwinger_requires_two_modes():
    with pytest.raises(ValueError):
        schwinger_spin(FockSpace((4,)))


# -- products and embedding -----------------------------------------------------------


def test_symmetrize_pair():
    _lx, ly, lz = spin_operators(SpinRep(2))
    sym = symmetrize_product([ly, lz]).mat
    assert np.max(np.abs(sym - (ly.mat @ lz.mat + lz.mat @ ly.mat) / 2)) <= 1e-13


def test_symmetrize_single_and_commuting():
    n = number(5)
    assert np.array_equal(symmetrize_product([n]).mat, n.mat)
    d1 = OperatorMatrix(np.diag([1.0, 2.0, 3.0]))
    d2 = OperatorMatrix(np.diag([4.0, 5.0, 6.0]))
    assert np.max(np.abs(symmetrize_product([d1, d2]).mat - d1.mat @ d2.mat)) == 0.0


def test_symmetrize_validation():
    with pytest.raises(ValueError):
        symmetrize_product([])
    with pytest.raises(ValueError):
        symmetrize_product([number(4), number(5)])


def test_tensor_embed_dimension_and_action():
    space = FockSpace((3, 4))
    embedded = tensor_embed(annihilation(3), 0, space)
    assert embedded.dim == 12
    for n1 in range(1, 3):
        for n2 in range(4):
            row = space.index((n1 - 1, n2))
            col = space.index((n1, n2))
            assert embedded.mat[row, col] == pytest.approx(np.sqrt(n1))
    with pytest.raises(ValueError):
        tensor_embed(annihilation(4), 0, space)
    with pytest.raises(ValueError):
        tensor_embed(annihilation(3), 2, space)


def test_fock_space_indexing_round_trip():
    space = FockSpace((3, 5, 2))
    for i in range(space.total_dim):
        assert space.index(space.occupation(i)) == i
    with pytest.raises(ValueError):
        space.index((3, 0, 0))


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OperatorMatrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        number(4) + number(5)


def test_operator_csv_dump(tmp_path):
    op = annihilation(3)
    path = tmp_path / "op.csv"
    export_operator_csv(op, path)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["row", "col", "re", "im"]
    assert len(rows) == 1 + 9
    rebuilt = np.zeros((3, 3), dtype=complex)
    for row in rows[1:]:
        rebuilt[int(row[0]), int(row[1])] = float(row[2]) + 1j * float(row[3])
    assert np.array_equal(rebuilt, op.mat)
