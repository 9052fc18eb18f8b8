"""Reproducible ill-posed test problems.

Two families: a Fredholm convolution on [-6, 6] discretized by the
midpoint rule (symmetric, smoothly ill-conditioned as n grows) and a
synthetic design with an exactly prescribed singular value decay. Both
are pure functions of their arguments, so the same inputs always yield
the same matrices on a given platform.
"""

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bias import _noise_block, check_seed
from .errors import DomainError
from .model import GroundTruth, ProblemDesign

__all__ = [
    "GeneratorKind",
    "GeneratorSpec",
    "phillips_problem",
    "spectrum_problem",
    "generate_problem",
    "synthesize_observations",
]


class GeneratorKind(enum.Enum):
    PHILLIPS = "phillips"
    SPECTRUM = "spectrum"


@dataclass(frozen=True)
class GeneratorSpec:
    """Validated recipe for one synthetic problem.

    Phillips fixes t = n and ignores ``decay``; spectrum needs
    n >= t >= 2 and a nonnegative decay exponent. The seed must be an
    integer in [0, 2**128), like every seed of the noise streams.
    """

    kind: GeneratorKind
    n: int
    t: int = None
    decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        kind = GeneratorKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "seed", check_seed(self.seed))
        if kind is GeneratorKind.PHILLIPS:
            if self.n < 8 or self.n % 4:
                raise DomainError(f"phillips needs n >= 8 divisible by 4, got n={self.n}")
            if self.t is not None and self.t != self.n:
                raise DomainError(f"phillips is square, got t={self.t} with n={self.n}")
            object.__setattr__(self, "t", self.n)
        else:
            if self.t is None or self.t < 2:
                raise DomainError(f"spectrum needs t >= 2, got t={self.t}")
            if self.n < self.t:
                raise DomainError(f"spectrum needs n >= t, got n={self.n}, t={self.t}")
            if self.decay < 0:
                raise DomainError(f"decay must be nonnegative, got {self.decay}")

    def to_json(self):
        return {**asdict(self), "kind": self.kind.value}


def _hump(x):
    # compactly supported smooth bump, zero outside |x| < 3
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 3.0, 1.0 + np.cos(np.pi * x / 3.0), 0.0)


def phillips_problem(n):
    """Midpoint discretization of the convolution test problem.

    Kernel and exact solution share the same bump profile; the matrix is
    exactly symmetric because the kernel depends only on s - u and the
    grid is shared. Returns (design, exact_solution).
    """
    GeneratorSpec(GeneratorKind.PHILLIPS, n=n)  # DomainError unless n >= 8 is divisible by 4
    h = 12.0 / n
    mid = -6.0 + (np.arange(n) + 0.5) * h
    a_matrix = _hump(mid[:, None] - mid[None, :]) * h
    return ProblemDesign(a_matrix), _hump(mid)


def spectrum_problem(n, t, decay, seed=0):
    """Design with singular values 10**(-decay * i / (t - 1)), i = 0..t-1.

    Orthonormal factors come from QR of seeded Gaussian matrices; the
    exact solution is a unit-norm cubic sampled on a uniform grid, drawn
    from the same stream. Returns (design, exact_solution).
    """
    spec = GeneratorSpec(GeneratorKind.SPECTRUM, n=n, t=t, decay=decay, seed=seed)
    rng = np.random.default_rng(spec.seed)
    left = np.linalg.qr(rng.standard_normal((n, t)))[0]
    right = np.linalg.qr(rng.standard_normal((t, t)))[0]
    coeffs = rng.standard_normal(4)
    singular = 10.0 ** (-decay * np.arange(t) / (t - 1))
    a_matrix = (left * singular) @ right.T
    exact = np.polyval(coeffs, np.linspace(-1.0, 1.0, t))
    norm = np.linalg.norm(exact)
    if norm < 1e-12:
        exact = np.full(t, 1.0 / math.sqrt(t))
    else:
        exact = exact / norm
    return ProblemDesign(a_matrix), exact


def generate_problem(spec):
    """Build (design, exact_solution) from a GeneratorSpec."""
    if spec.kind is GeneratorKind.PHILLIPS:
        return phillips_problem(spec.n)
    return spectrum_problem(spec.n, spec.t, spec.decay, spec.seed)


def synthesize_observations(design, exact_solution, sigma2, seed=0):
    """Noisy measurements for a known truth.

    Uses replicate 0 of the kappa study's sampler, so a generated problem
    equals the first replicate of a Monte Carlo run with the same seed.
    Returns (y, GroundTruth); sigma2 = 0 gives exact data, and a sigma2
    outside [0, inf) raises DomainError.
    """
    if not 0 <= sigma2 < math.inf:
        raise DomainError(f"sigma2 must be finite and nonnegative, got {sigma2}")
    eps = _noise_block(design, sigma2, seed, 1)[:, 0]
    truth = GroundTruth.from_design(design, exact_solution)
    return truth.y_bar + eps, truth
