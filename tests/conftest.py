import numpy as np
import pytest

from qslack import linalg

# Tolerances of check_density.
PSD_EIG_ATOL = 1e-10
TRACE_ATOL = 1e-10


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def check_density(rho):
    """Validate a density matrix: Hermitian, eigenvalues >= -PSD_EIG_ATOL,
    trace 1 within TRACE_ATOL."""
    rho = linalg.check_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    if w.min() < -PSD_EIG_ATOL:
        raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}")
    if abs(np.trace(rho).real - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace {np.trace(rho).real!r} is not 1 within tolerance")
    return rho


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v
