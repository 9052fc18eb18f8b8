"""Internal SPD factorization helpers and the BLAS thread pin. Not part
of the public API.

Every factorization and solve of the package goes through numpy.linalg,
so numpy's bundled OpenBLAS is the only BLAS, and the only thread pool,
a process loads. A second library with its own OpenBLAS would bring a
second pool whose spinning workers slow the first one's calls.

The command line runs that pool on one thread (pin_one_blas_thread). On
2 CPUs, OpenBLAS is slower at its default two threads than at one: the
workspace's QR and t x t SVD of a 2000 x 200 design take 26 ms at two
threads and 15 ms at one, those of 400 x 100 4.4 ms and 2.0 ms (best of
15; a thin SVD of the whole design takes 45 ms and 27 ms, 6.7 ms and
3.0 ms). After each threaded call the idle worker spins for about
0.1-0.2 s and holds the second CPU. One thread also rounds alike
whatever OPENBLAS_NUM_THREADS says. numpy has no
thread-count API, so the pin calls the bundled library through ctypes;
where no such library is found (another BLAS, or another layout of the
wheel), it does nothing.
"""

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import FactorizationError

# Relative symmetry tolerance for matrices that round-trip decimal text.
SYMMETRY_RTOL = 1e-12


@functools.cache
def bundled_openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None where it is not
    found: numpy.libs beside the package on Linux wheels, numpy/.dylibs on
    macOS."""
    root = os.path.dirname(np.__file__)
    for folder in (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(folder, "libscipy_openblas64_*"))):
            try:
                lib = ctypes.CDLL(path)
                setter = lib.scipy_openblas_set_num_threads64_
                getter = lib.scipy_openblas_get_num_threads64_
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return lib
    return None


def pin_one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread from now on, for the whole
    process; nothing where that library is not found."""
    lib = bundled_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


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
