"""Internal SPD factorization helpers. Not part of the public API.

Every factorization and solve of the package goes through numpy.linalg,
so numpy's bundled OpenBLAS is the only BLAS, and the only thread pool,
a process loads. A second library with its own OpenBLAS would bring a
second pool whose spinning workers slow the first one's calls.
"""

import numpy as np

from .errors import FactorizationError

# Relative symmetry tolerance for matrices that round-trip decimal text.
SYMMETRY_RTOL = 1e-12


def max_asymmetry(mat):
    """Largest |M - M^T| entry relative to the largest |M| entry."""
    scale = np.max(np.abs(mat))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(mat - mat.T)) / scale)


def spd_factor(mat, name):
    """Lower Cholesky factor L of a square matrix, mat = L L^T, upper triangle zeroed.

    Symmetry is checked explicitly first because the LAPACK routine only
    reads one triangle and would silently accept an asymmetric input.
    """
    mat = np.asarray(mat, dtype=float)
    if max_asymmetry(mat) > SYMMETRY_RTOL:
        raise FactorizationError(
            f"{name} is not symmetric within relative tolerance {SYMMETRY_RTOL:g}"
        )
    try:
        # Fortran order, as LAPACK writes it: the einsum of Weight.mul_lower_rows
        # runs about 3x faster on it than on numpy's C-ordered result
        return np.asfortranarray(np.linalg.cholesky(mat))
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{name} is not positive definite: {exc}") from exc


def spd_logdet(lower):
    """log det of L L^T, via the diagonal of the Cholesky factor L."""
    return float(2.0 * np.sum(np.log(np.diag(lower))))


def symmetrize(mat):
    return (mat + mat.T) / 2.0
