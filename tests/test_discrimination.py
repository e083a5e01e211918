import math
import subprocess
import sys

import numpy as np
import pytest

from qdssim import detection
from qdssim import discrimination as disc


def test_gram_matrix_structure():
    g = disc.gram_matrix(1.0)
    assert g.shape == (4, 4)
    np.testing.assert_allclose(np.diag(g), 1.0)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
    # circulant: every row is the previous one shifted
    for i in range(1, 4):
        np.testing.assert_allclose(g[i], np.roll(g[0], i), atol=1e-15)


def test_gram_matrix_entries():
    g = disc.gram_matrix(0.5)
    assert g[0, 2] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert g[0, 1] == pytest.approx(np.exp(0.5 * (1j - 1)), rel=1e-12)
    with pytest.raises(ValueError):
        disc.gram_matrix(-0.5)


def test_gram_eigenvalues_frozen_point():
    lam = disc.gram_eigenvalues(disc.gram_matrix(1.0))
    np.testing.assert_allclose(
        lam, [1.532868, 1.483784, 0.737803, 0.245545], atol=5e-7
    )
    assert lam.sum() == pytest.approx(4.0, rel=1e-12)  # trace preserved


def test_gram_eigenvalues_rejects_non_circulant():
    g = disc.gram_matrix(1.0).copy()
    g[1, 0] += 1e-3
    with pytest.raises(ValueError, match="circulant"):
        disc.gram_eigenvalues(g)
    with pytest.raises(ValueError):
        disc.gram_eigenvalues(np.eye(3))


def _bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.int64)


def test_dft4_is_bit_identical_to_numpy_fft():
    rng = np.random.default_rng(4)
    rows = [disc.gram_matrix(a2)[0] for a2 in np.linspace(0.0, 40.0, 401)]
    roots = [np.sqrt(disc.gram_eigenvalues(disc.gram_matrix(a2))) for a2 in (0.0, 0.5, 1.0, 7.3)]
    noise = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
    scaled = noise * 10.0 ** rng.integers(-8, 8, size=(2000, 1))
    zeros = [np.full(4, complex(-0.0, -0.0)), np.array([1, -0.0, 1, -0.0], dtype=complex)]
    for x in [*rows, *roots, *scaled, *zeros]:
        np.testing.assert_array_equal(_bits(disc._dft4(x, forward=True)), _bits(np.fft.fft(x)))
        np.testing.assert_array_equal(_bits(disc._dft4(x, forward=False)), _bits(np.fft.ifft(x)))


def test_analysis_does_not_import_numpy_fft():
    code = (
        "import sys, qdssim\n"
        "from qdssim import security\n"
        "security.analyze(security.reference_cost_matrix(), 1.0, 1e-4)\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_one_circulant_offset_table():
    expected = [[(j - i) % 4 for j in range(4)] for i in range(4)]
    assert disc.OFFSETS.tolist() == expected
    assert detection.OFFSETS is disc.OFFSETS


def test_min_error_cache_is_bit_identical_to_the_uncached_function():
    disc._min_error.cache_clear()
    uncached = disc._min_error.__wrapped__
    grid = [*np.linspace(0.0, 40.0, 801).tolist(), *((i + 2) / 10 for i in range(50))]
    for a2 in grid:
        got = disc.min_error_probability(a2)
        want = uncached(a2)
        assert type(got) is type(want) and got.hex() == want.hex(), a2
        assert disc.min_error_probability(a2).hex() == want.hex()  # a hit, same bits
    # an int and the numpy floats share the entry of their value, with its bits
    want = uncached(1.0).hex()
    for a2 in (1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1)):
        assert uncached(a2).hex() == want
        assert disc.min_error_probability(a2).hex() == want
    disc._min_error.cache_clear()
    assert disc.min_error_probability(3).hex() == uncached(3.0).hex()
    assert disc.min_error_probability(3.0).hex() == uncached(3.0).hex()


def test_min_error_cache_is_bounded_and_keeps_no_errors():
    info = disc._min_error.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 1024
    for _ in range(3):  # raises on every call, not only the first
        with pytest.raises(ValueError, match="alpha_sq must be >= 0"):
            disc.min_error_probability(-1.0)
        with pytest.raises(ValueError, match="alpha_sq must be >= 0"):
            disc.min_error_probability(-5e-324)
    disc._min_error.cache_clear()
    for k in range(3 * info.maxsize):
        disc.min_error_probability(k / 100)
    assert disc._min_error.cache_info().currsize == info.maxsize


def test_srm_outcomes_row_stochastic_and_symmetric():
    for a2 in (0.1, 1.0, 3.0):
        p = disc.srm_outcomes(disc.gram_matrix(a2))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()
        # the constellation is symmetric, so the matrix is circulant too
        for i in range(1, 4):
            np.testing.assert_allclose(p[i], np.roll(p[0], i), atol=1e-12)


def test_srm_outcomes_frozen_row():
    p = disc.srm_outcomes(disc.gram_matrix(1.0))
    np.testing.assert_allclose(
        p[0], [0.907579, 0.041617, 0.009188, 0.041617], atol=5e-7
    )


def test_min_error_probability_known_values():
    assert disc.min_error_probability(0.0) == pytest.approx(0.75, rel=1e-12)
    assert disc.min_error_probability(0.25) == pytest.approx(0.4186967445, abs=1e-9)
    assert disc.min_error_probability(0.5) == pytest.approx(0.2617419495, abs=1e-9)
    assert disc.min_error_probability(1.0) == pytest.approx(0.09242141560445893, rel=1e-12)
    assert disc.min_error_probability(2.0) == pytest.approx(0.0095531774, abs=1e-9)
    assert disc.min_error_probability(5.0) == pytest.approx(2.27027e-5, rel=1e-4)


def test_min_error_probability_decreases_with_intensity():
    grid = np.linspace(0.0, 6.0, 40)
    vals = [disc.min_error_probability(a2) for a2 in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_min_error_matches_srm_error():
    # 1 - mean diagonal of the outcome matrix is the same quantity
    for a2 in (0.3, 1.0, 2.5):
        p = disc.srm_outcomes(disc.gram_matrix(a2))
        assert disc.min_error_probability(a2) == pytest.approx(
            1.0 - float(np.diag(p).mean()), rel=1e-10
        )


def test_coherent_vector_normalized():
    for a2 in (0.0, 0.7, 4.0):
        v = disc.coherent_vector(a2, 0, disc.fock_dimension(a2))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_coherent_vector_overlaps_reproduce_gram():
    a2 = 1.3
    dim = disc.fock_dimension(a2)
    psi = [disc.coherent_vector(a2, k, dim) for k in range(4)]
    g = disc.gram_matrix(a2)
    for i in range(4):
        for j in range(4):
            got = np.vdot(psi[i], psi[j])
            assert got == pytest.approx(g[i, j], abs=1e-12)


def test_fock_route_agrees_with_circulant_route():
    """The truncated number-basis construction shares no code with the
    DFT route; agreement pins both."""
    for a2 in (0.25, 1.0, 5.0):
        direct = disc.srm_outcomes(disc.gram_matrix(a2))
        fock = disc.fock_srm_outcomes(a2)
        np.testing.assert_allclose(fock, direct, atol=1e-11)


def test_fock_truncation_guard():
    with pytest.raises(ValueError, match="tail"):
        disc.fock_srm_outcomes(9.0, dim=12)


def test_gram_orthogonal_limit():
    g = disc.gram_matrix(50.0)
    off = ~np.eye(4, dtype=bool)
    assert np.abs(g[off]).max() < 1e-20
    outcomes = disc.srm_outcomes(g)
    assert np.allclose(outcomes, np.eye(4), atol=1e-9)
    assert disc.min_error_probability(50.0) < 1e-9


def test_srm_identity_gram_is_perfect():
    outcomes = disc.srm_outcomes(np.eye(4))
    assert np.array_equal(outcomes, np.eye(4))
