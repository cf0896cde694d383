import pickle

import numpy as np
import pytest

from helpers import (
    compile_terms,
    evaluate_by_terms,
    evaluate_compiled,
    magnitude_polynomial,
    random_polynomial,
    random_spin_polynomial,
)
from semiq import (
    PhasePoint,
    Polynomial,
    drift,
    format_polynomial,
    observables,
    poisson_bracket,
)
from semiq.models import (
    OscillatorParams,
    SpinPolynomial,
    _spin_drift,
    oscillator_faq,
)
from semiq.observables import _column_reads, _columns, _compile, _coordinate_reads
from semiq.quantize import FockSpace, normal_quantize


def z(mode=0, modes=1):
    return Polynomial.z(mode, modes)


def zc(mode=0, modes=1):
    return Polynomial.zc(mode, modes)


# -- arithmetic ---------------------------------------------------------------


def test_product_of_z_and_zc():
    p = z() * zc()
    assert p.terms == {(1, 1): 1.0 + 0j}


def test_multiply_by_zero_annihilates():
    assert ((z() + zc()) * 0).is_zero


def test_cancellation_gives_zero_polynomial():
    p = z() * z() + (-(z() * z()))
    assert p.is_zero
    assert p.terms == {}


def test_mode_count_mismatch_raises():
    with pytest.raises(ValueError):
        z(0, 1) + z(0, 2)
    with pytest.raises(ValueError):
        z(0, 1) * z(0, 2)


def test_scalar_arithmetic():
    p = 2.0 * z() + 1.0
    assert p.terms == {(1, 0): 2.0 + 0j, (0, 0): 1.0 + 0j}
    assert (p - p).is_zero


# -- conjugation --------------------------------------------------------------


def test_conjugate_channel_example():
    lam = 0.3
    r = np.sqrt(lam) * zc()
    assert r.conjugate() == np.sqrt(lam) * z()


def test_conjugate_with_imaginary_coefficient():
    p = 1j * z() * z()
    assert p.conjugate() == -1j * zc() * zc()


def test_conjugate_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_polynomial(rng, 2, 4)
        assert p.conjugate().conjugate() == p


# -- partial derivatives --------------------------------------------------------


def test_partial_examples():
    assert (z() * zc()).partial(0, "zc") == z()
    assert (zc() * zc()).partial(0, "zc") == 2.0 * zc()
    # d(z1* z2)/dz2* vanishes
    p = Polynomial.zc(0, 2) * Polynomial.z(1, 2)
    assert p.partial(1, "zc").is_zero


def test_contraction_is_sum_of_mixed_partials():
    """Delta p = sum_a d^2 p / dz_a dz*_a, checked against the partials on
    exact Gaussian-integer polynomials."""
    assert (z() ** 2 * zc() ** 3).contraction() == 6.0 * z() * zc() ** 2
    assert (z() ** 3).contraction().is_zero
    rng = np.random.default_rng(9)
    for modes in (1, 2):
        for _ in range(5):
            p = random_polynomial(rng, modes, 5)
            expected = Polynomial.zero(modes)
            for a in range(modes):
                expected = expected + p.partial(a, "z").partial(a, "zc")
            assert p.contraction() == expected


def test_partial_bad_mode_raises():
    with pytest.raises(ValueError):
        z().partial(1, "z")
    for wrt in ("bogus", "z*", "conj"):
        with pytest.raises(ValueError):
            z().partial(0, wrt)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_examples():
    assert (z() * zc()).evaluate([1 + 1j]) == pytest.approx(2.0)
    omega = 1.7
    assert (omega * z() * zc()).evaluate([0.0]) == 0.0
    assert (z() - zc()).evaluate([1j]) == pytest.approx(2j)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        z().evaluate([1.0, 2.0])
    with pytest.raises(ValueError, match="1-d"):
        z().evaluate([[1.0, 2.0]])


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint([np.inf])


# -- Poisson bracket ------------------------------------------------------------


def test_bracket_z_zstar():
    assert poisson_bracket(z(), zc()) == Polynomial.constant(1, -1j)


def test_bracket_q_p_is_one():
    root = 1.0 / np.sqrt(2.0)
    q = root * (zc() + z())
    p = 1j * root * (zc() - z())
    bracket = poisson_bracket(q, p)
    assert set(bracket.terms) == {(0, 0)}
    assert bracket.terms[(0, 0)] == pytest.approx(1.0, abs=1e-15)


def test_bracket_leibniz_example():
    assert poisson_bracket(z() * z(), zc()) == -2j * z()


def test_bracket_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_polynomial(rng, 2, 3)
        b = random_polynomial(rng, 2, 3)
        assert poisson_bracket(a, b) == -poisson_bracket(b, a)


def test_bracket_jacobi_identity_exact():
    rng = np.random.default_rng(6)
    for _ in range(15):
        a = random_polynomial(rng, 1, 3, n_terms=4)
        b = random_polynomial(rng, 1, 3, n_terms=4)
        c = random_polynomial(rng, 1, 3, n_terms=4)
        total = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        assert total.is_zero


def test_bracket_leibniz_rule_exact():
    rng = np.random.default_rng(7)
    for _ in range(15):
        a = random_polynomial(rng, 2, 3, n_terms=4)
        b = random_polynomial(rng, 2, 3, n_terms=4)
        c = random_polynomial(rng, 2, 3, n_terms=4)
        lhs = poisson_bracket(a, b * c)
        rhs = poisson_bracket(a, b) * c + b * poisson_bracket(a, c)
        assert lhs == rhs


def test_partial_matches_finite_difference():
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(10):
        p = random_polynomial(rng, 1, 4, integer=False)
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        # d/dz at fixed z*: F(z, w) with w held at conj(z0)
        w0 = np.conj(z0)

        def value(zz, ww):
            total = 0j
            for (k, l), coeff in p.terms.items():
                total += coeff * zz**k * ww**l
            return total

        fd = (value(z0 + h, w0) - value(z0 - h, w0)) / (2 * h)
        assert abs(p.partial(0, "z").evaluate([z0]) - fd) <= 1e-8
        fd_c = (value(z0, w0 + h) - value(z0, w0 - h)) / (2 * h)
        assert abs(p.partial(0, "zc").evaluate([z0]) - fd_c) <= 1e-8


def test_compiled_evaluator_matches_term_loop():
    """The compiled evaluator against the term-map loop, on Python-scalar
    columns (one point) and on (m, 50) array columns (50 points at once), to
    1e-15 relative to the sum of the absolute term values."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        modes = int(rng.integers(1, 4))
        poly = random_polynomial(rng, modes, 6, n_terms=8, integer=False)
        coords = rng.uniform(0.2, 1.5, size=(modes, 50)) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(modes, 50)))
        points = coords.T
        expected = np.array([evaluate_by_terms(poly, point) for point in points])
        magnitude = magnitude_polynomial(poly)
        scale = np.array([evaluate_by_terms(magnitude, np.abs(point)).real for point in points])
        by_columns = poly._evaluate_coords(_columns(coords))
        by_point = np.array([poly._evaluate_coords(_columns(point.tolist())) for point in points])
        assert np.all(np.abs(by_columns - expected) <= 1e-15 * scale)
        assert np.all(np.abs(by_point - expected) <= 1e-15 * scale)
        assert poly.evaluate(points[0]) == by_point[0]
        assert poly.evaluate(PhasePoint(points[0])) == by_point[0]


def assert_same_bits(value, expected):
    """Same type, same values and the same sign of every zero part."""
    assert type(value) is type(expected)
    value, expected = np.asarray(value), np.asarray(expected)
    assert value.dtype == expected.dtype and np.array_equal(value, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(value)), np.signbit(part(expected)))


# Coordinate parts: signed zeros beside non-zero values.
SIGNED_PARTS = (0.0, -0.0, 0.7, -1.3)


def signed_zero_coords(rng, modes, n):
    """(modes, n) coordinates whose real and imaginary parts are drawn from
    SIGNED_PARTS."""
    return rng.choice(SIGNED_PARTS, size=(modes, n)) + 1j * rng.choice(SIGNED_PARTS, size=(modes, n))


def test_generated_function_matches_term_loop_bitwise():
    """The generated function of a polynomial against the term loop of
    compile_terms, bit for bit: random polynomials, the zero and a constant
    one, and one of more terms than a generated statement holds, on
    one-point Python scalars, on (m, N) array columns, on coordinates with
    signed-zero parts, and read from a flow's tuple state."""
    rng = np.random.default_rng(71)
    polys = [random_polynomial(rng, int(rng.integers(1, 4)), 6, n_terms=8, integer=False) for _ in range(30)]
    polys += [Polynomial.zero(2), Polynomial.constant(1, complex(-0.0, 2.5)), Polynomial.constant(3, -1.25)]
    large = random_polynomial(rng, 2, 12, n_terms=900, integer=False)
    assert len(large.terms) > 2 * observables._TERMS_PER_LINE
    polys.append(large)
    for poly in polys:
        m = poly.mode_count
        compiled = compile_terms(poly.terms)
        flow_values = _compile((poly.terms, poly.terms), _coordinate_reads(m))
        random_coords = rng.uniform(-1.5, 1.5, size=(m, 20)) + 1j * rng.uniform(-1.5, 1.5, size=(m, 20))
        for coords in (random_coords, signed_zero_coords(rng, m, 20)):
            assert_same_bits(poly._evaluate_coords(_columns(coords)), evaluate_compiled(compiled, _columns(coords)))
            for point in coords.T[:8].tolist():
                expected = evaluate_compiled(compiled, _columns(point))
                assert_same_bits(poly._evaluate_coords(_columns(point)), expected)
                assert_same_bits(poly.evaluate(point), expected)
                for value in flow_values((*point, 0.0)):
                    assert_same_bits(value, expected)


def test_generated_spin_function_matches_term_loop_bitwise():
    """SpinPolynomial.evaluate and the real parts of a composed spin drift
    against the term loop, bit for bit, on Python floats and on (3, N)
    columns, signed zeros included."""
    rng = np.random.default_rng(73)
    polys = [random_spin_polynomial(rng, 4) for _ in range(20)]
    polys += [SpinPolynomial({}), SpinPolynomial({(0, 0, 0): complex(1.5, -0.0)})]
    for index, poly in enumerate(polys):
        compiled = compile_terms(poly.terms)
        hamiltonian = SpinPolynomial({key: coeff.real for key, coeff in polys[index - 1].terms.items()})
        drift = _spin_drift(hamiltonian, poly)
        velocity = _compile(drift, _column_reads(3), real=True)
        random_l = rng.uniform(-1.5, 1.5, size=(3, 20))
        for l in (random_l, rng.choice(SIGNED_PARTS, size=(3, 20))):
            assert_same_bits(poly.evaluate(l), evaluate_compiled(compiled, l))
            for point in l.T[:8].tolist():
                assert_same_bits(poly.evaluate(point), evaluate_compiled(compiled, point))
                for value, terms in zip(velocity(point), drift):
                    assert_same_bits(value, evaluate_compiled(compile_terms(terms), point).real)


def test_polynomials_compile_on_first_evaluation(monkeypatch):
    """Building, composing and quantizing polynomials, and making an
    FaqSystem of them, generates no code; the first evaluation compiles
    once, and polynomials of one shape share one code object, as the points
    of a sweep do."""
    calls = []
    compile_once = observables._compile
    monkeypatch.setattr(observables, "_compile", lambda *args, **kw: calls.append(args) or compile_once(*args, **kw))
    poly = (z() + 2.0 * zc() + 0.5j) ** 3 * z()
    normal_quantize(poly, FockSpace((6,)))
    poisson_bracket(poly, poly.conjugate()).partial(0, "zc")
    assert calls == [] and poly._function is None
    poly.evaluate([0.3 + 0.1j])
    poly.evaluate([0.5])
    assert len(calls) == 1
    other = Polynomial(1, {key: 2.0 * coeff - 1.0 for key, coeff in poly.terms.items()})
    assert other.evaluate([0.3]) != poly.evaluate([0.3])
    assert other._function.__code__ is poly._function.__code__
    sweep = [oscillator_faq(OscillatorParams(1.0, lam)).hamiltonian for lam in (0.1, 0.4)]
    assert [hamiltonian._function for hamiltonian in sweep] == [None, None]
    assert sweep[0].evaluate([0.3 + 0.1j]) != sweep[1].evaluate([0.3 + 0.1j])
    assert sweep[0]._function.__code__ is sweep[1]._function.__code__
    spin = SpinPolynomial({(1, 0, 2): 0.5})
    assert spin._function is None
    spin.evaluate([1.0, 0.0, 2.0])
    assert spin._function is not None


def test_evaluated_polynomials_pickle():
    """A polynomial keeps pickling once it has generated its function, and
    so does an FaqSystem once its drift is built and evaluated."""
    poly = (z() + 0.5j * zc()) ** 2
    spin = SpinPolynomial({(1, 0, 2): 0.5 - 1j})
    system = oscillator_faq(OscillatorParams(1.0, 0.2))
    drift(system, [0.3])
    poly.evaluate([0.3])
    spin.evaluate([1.0, 0.5, 2.0])
    copy = pickle.loads(pickle.dumps(poly))
    assert copy == poly and copy.evaluate([0.3]) == poly.evaluate([0.3])
    assert pickle.loads(pickle.dumps(spin)).evaluate([1.0, 0.5, 2.0]) == spin.evaluate([1.0, 0.5, 2.0])
    assert pickle.loads(pickle.dumps(system)).drift_polynomials == system.drift_polynomials


# -- text form ----------------------------------------------------------------


def test_format_examples():
    assert format_polynomial(Polynomial.zero(1)) == "0"
    assert format_polynomial(z() * zc()) == "z1 * z1c"
    p = (1.5 - 2.25j) * z() * z() * zc()
    assert format_polynomial(p) == "(1.5-2.25i) * z1^2 * z1c"


def test_polynomial_invariants_on_construction():
    with pytest.raises(ValueError):
        Polynomial(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1, 0): 1.0})
    with pytest.raises(ValueError):
        Polynomial(0)
    # exact zeros are dropped
    assert Polynomial(1, {(1, 0): 0.0}).is_zero
