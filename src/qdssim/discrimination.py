"""Optimal discrimination of the four-phase coherent constellation.

The states |alpha * i**k>, k = 0..3, have a circulant Gram matrix, so the
square-root measurement (which is optimal for this symmetric set) reduces
to a discrete Fourier transform of the first Gram row. That closed form is
what the security bounds consume.

A deliberately independent cross-check lives in ``fock_srm_outcomes``: it
builds the states in a truncated number basis and forms the measurement
explicitly from the frame operator, sharing no code with the circulant
path. Tests compare the two routes.
"""

from __future__ import annotations

import math

import numpy as np

N_STATES = 4


def gram_matrix(alpha_sq: float) -> np.ndarray:
    """Gram matrix of the four-phase constellation at mean photon number alpha_sq.

    Entry (k, l) is exp(alpha_sq * (i**(l-k) - 1)), the overlap of coherent
    states with phases k*pi/2 and l*pi/2. Hermitian, unit diagonal,
    positive semidefinite, circulant.
    """
    if alpha_sq < 0:
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    k = np.arange(N_STATES)
    diff = k[None, :] - k[:, None]
    return np.exp(alpha_sq * (np.exp(1j * (np.pi / 2) * diff) - 1.0))


def _dft4(x, forward: bool) -> np.ndarray:
    """Four-point DFT, the inverse scaled by 1/4, in numpy's radix-4 order.

    Same operations, so the same bits, as ``np.fft.fft``/``np.fft.ifft``
    on four points, without importing ``numpy.fft``.
    """
    x0, x1, x2, x3 = (complex(v) for v in x)
    t2, t1, t3, t4 = x0 + x2, x0 - x2, x1 + x3, x1 - x3
    # rotate t4 by -i (forward) or +i (inverse): exact, a swap of its parts
    t4 = complex(t4.imag, -t4.real) if forward else complex(-t4.imag, t4.real)
    y = np.array([t2 + t3, t1 + t4, t2 - t3, t1 - t4])
    if not forward:
        y.real *= 0.25  # part by part, as numpy scales, so signed zeros match
        y.imag *= 0.25
    return y


def gram_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of a circulant Gram matrix via the DFT of its first row.

    Returned in DFT order (lambda_m = sum_k G[0,k] * exp(-i*pi*m*k/2)).
    Raises if the matrix is not consistent with a physical Gram matrix
    (significantly negative eigenvalues).
    """
    g = np.asarray(g)
    if g.shape != (N_STATES, N_STATES):
        raise ValueError(f"expected a 4x4 Gram matrix, got shape {g.shape}")
    idx = (np.arange(N_STATES)[None, :] - np.arange(N_STATES)[:, None]) % N_STATES
    if np.abs(g - g[0][idx]).max() > 1e-12:
        raise ValueError("matrix is not circulant")
    lam = _dft4(g[0], forward=True)
    if np.abs(lam.imag).max() > 1e-9 or lam.real.min() < -1e-9:
        raise ValueError("matrix is not positive semidefinite circulant")
    return np.clip(lam.real, 0.0, None)


def srm_outcomes(g: np.ndarray) -> np.ndarray:
    """Outcome distribution of the square-root measurement.

    Parameters
    ----------
    g : ndarray
        4x4 circulant Gram matrix of the state set.

    Returns
    -------
    ndarray
        Row-stochastic matrix P with P[i, j] = probability of outcome j
        when state i was prepared; equals the squared modulus of the
        principal matrix square root of g.
    """
    lam = gram_eigenvalues(g)
    first_row = _dft4(np.sqrt(lam), forward=False)  # first row of G^(1/2)
    idx = (np.arange(N_STATES)[None, :] - np.arange(N_STATES)[:, None]) % N_STATES
    half = first_row[idx]
    return np.abs(half) ** 2


def min_error_probability(alpha_sq: float) -> float:
    """Least possible error probability when guessing which phase was sent.

    Closed form 1 - (sum_m sqrt(lambda_m))^2 / 16 for the circulant Gram
    spectrum; attained by the square-root measurement on this symmetric
    set. Decreases from 3/4 at vanishing intensity toward 0 for bright
    states.
    """
    lam = gram_eigenvalues(gram_matrix(alpha_sq))
    return 1.0 - (np.sqrt(lam).sum() / N_STATES) ** 2


def fock_dimension(alpha_sq: float) -> int:
    """Truncation dimension that keeps the photon-number tail below 1e-12."""
    return math.ceil(4 * alpha_sq) + 40


def coherent_vector(alpha_sq: float, phase_index: int, dim: int) -> np.ndarray:
    """Number-basis coefficients of |sqrt(alpha_sq) * i**phase_index>, truncated."""
    n = np.arange(dim)
    if alpha_sq == 0:
        base = (n == 0).astype(float)
    else:
        # log-domain to stay finite for large alpha_sq and n
        lg = np.array([math.lgamma(v + 1.0) for v in n])
        base = np.exp(-alpha_sq / 2.0 + n * math.log(math.sqrt(alpha_sq)) - lg / 2.0)
    return base * (1j ** (n * phase_index % 4))


def fock_srm_outcomes(alpha_sq: float, dim: int | None = None) -> np.ndarray:
    """Square-root-measurement outcomes computed in a truncated number basis.

    Independent oracle for ``srm_outcomes``: the frame operator
    S = sum_k |psi_k><psi_k| is diagonalized numerically, the measurement
    vectors are S^(-1/2) |psi_j>, and the outcome matrix is assembled from
    the raw inner products. No circulant structure is assumed.
    """
    if dim is None:
        dim = fock_dimension(alpha_sq)
    psi = np.stack(
        [coherent_vector(alpha_sq, k, dim) for k in range(N_STATES)], axis=1
    )
    tail = 1.0 - np.sum(np.abs(psi) ** 2, axis=0)
    if tail.max() > 1e-12:
        raise ValueError(
            f"truncation at dim={dim} leaves tail mass {tail.max():.2e} > 1e-12"
        )
    frame = psi @ psi.conj().T
    w, v = np.linalg.eigh(frame)
    support = w > 1e-13
    inv_sqrt = (v[:, support] * w[support] ** -0.5) @ v[:, support].conj().T
    overlaps = psi.conj().T @ inv_sqrt @ psi  # [j, i] = <mu_j | psi_i>
    return np.abs(overlaps.T) ** 2
