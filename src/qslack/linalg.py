"""Dense complex linear algebra for small (dim <= 64) matrices.

Everything operates on plain ``numpy`` arrays in row-major layout.  Matrices
representing observables are Hermitian; states are Hermitian, PSD and unit
trace.  Validation helpers enforce those invariants at module boundaries.
"""

from __future__ import annotations

import numpy as np

# Tolerances used by the validators below.
HERMITIAN_ATOL = 1e-12
PSD_EIG_ATOL = 1e-10
TRACE_ATOL = 1e-10


def as_complex(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def check_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.conj().T, atol=atol, rtol=0.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def check_density(rho: np.ndarray, eig_atol: float = PSD_EIG_ATOL, trace_atol: float = TRACE_ATOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, eigenvalues >= -eig_atol, unit trace."""
    rho = check_hermitian(rho, atol=1e-10)
    w = np.linalg.eigvalsh(rho)
    if w.min() < -eig_atol:
        raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}")
    if abs(np.trace(rho).real - 1.0) > trace_atol:
        raise ValueError(f"trace {np.trace(rho).real!r} is not 1 within tolerance")
    return rho


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dag) / 2."""
    m = as_complex(m)
    return (m + m.conj().T) / 2


def kron_all(*factors: np.ndarray) -> np.ndarray:
    out = as_complex(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_complex(f))
    return out


def partial_transpose_b(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim_a * dim_b)-dimensional
    matrix, or of each matrix of a stack."""
    m = as_complex(m)
    d = dim_a * dim_b
    if m.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims ({dim_a}, {dim_b})")
    t = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return np.swapaxes(t, -1, -3).reshape(m.shape)


def eig_hermitian(m: np.ndarray, atol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the matrix whose columns are
    the corresponding orthonormal eigenvectors.  Raises on non-Hermitian
    input.
    """
    m = check_hermitian(m, atol=atol)
    w, v = np.linalg.eigh(m)
    return w, v


def trace_norm(m: np.ndarray) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix, its sum of singular
    values.  Raises on non-Hermitian input."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(check_hermitian(m, atol=1e-10)))))


def hs_norm_sq(a: np.ndarray) -> float | np.ndarray:
    """Squared Hilbert-Schmidt norm Tr[a^dag a] (real and non-negative) of a
    matrix, or of each matrix of a stack.  Each is one BLAS dot of the
    flattened matrix with its conjugate, the sum ``np.vdot(a, a)`` takes."""
    flat = as_complex(a).reshape(np.shape(a)[:-2] + (1, -1))
    return (flat.conj() @ np.swapaxes(flat, -1, -2))[..., 0, 0].real


def mat_sqrt_psd(m: np.ndarray, neg_atol: float = 1e-8) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-neg_atol, 0) are clamped to zero; anything below
    -neg_atol raises.
    """
    w, v = eig_hermitian(m)
    if w.min() < -neg_atol:
        raise ValueError(f"matrix is not PSD: eigenvalue {w.min():.3e}")
    w = np.maximum(w, 0.0)
    return hermitianize((v * np.sqrt(w)) @ v.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart-style)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return hermitianize(rho / np.trace(rho).real)
