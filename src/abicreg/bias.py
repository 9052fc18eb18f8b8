"""Bias of the variance estimates when the prior mean is forced to zero.

The variance estimate at fixed kappa is r^T E^-1 r / n with
r = y - A mu. Substituting mu = 0 turns the residual into the raw
measurement vector, and its expectation under y = ybar + eps becomes

    E[.] = ybar^T E^-1 ybar / n + tr(E^-1 W^-1) sigma2 / n,

a signal term that should not be there plus a damped noise term. This
module evaluates that formula and verifies it by seeded Monte Carlo.

Two sampling frames appear, on purpose. The claim that the variance
estimate with the correct prior mean is unbiased holds only when the
parameter vector itself is drawn from the prior (so the residual
covariance is the full marginal covariance); the bias formula above
instead conditions on a fixed true parameter vector. TrueMu studies
therefore draw a fresh beta from the prior per replicate, ZeroMu studies
keep beta fixed at the ground truth. The kappa-hat study pairs both
analysis modes on identical fixed-truth draws, since the question there
is what the zero-mean shortcut does to the same data.

The replicates of a study share one MarginalWorkspace. The kappa-hat
study selects kappa for its n x R block of measurements in one lockstep
search per mode (selection.select_columns); each column's choice is
bit-identical to select_case1/select_case2 on that replicate alone.

The sigma2 study never colors its draws: it works in the whitened frame
z = L_W^T r of the workspace, where the raw standard normals already are
the noise, L_W^T eps = sqrt(sigma2) z_eps. A TrueMu prior draw,
L_W^T A beta_dev = sqrt(sigma2/kappa) U diag(s) V^T z_beta, lies in
range(U), so it adds sqrt(sigma2/kappa) s * (V^T z_beta) to c = U^T z
and leaves the part orthogonal to U alone; ZeroMu adds L_W^T ybar to
every replicate. Replicates are drawn in chunks of about 8 MB of rows.
While one worker thread draws chunk k + 1, the calling thread reduces
chunk k to its estimates, with the explicit difference z - U c of
MarginalWorkspace.project_whitened; BLAS releases the GIL. Each chunk
fills its own slice of the estimates, and the mean and standard error
are taken once all are done, so thread timing cannot change a result.
No n x R array is ever held.

Per-replicate randomness comes from counter-based streams (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC11): replicate r
is numpy's Philox (Philox4x64-10) keyed by the seed, with its counter
starting at (0, r, 0, 0). Replicates are order-independent and safe to
parallelize, and one generator serves a whole study by resetting its
counter, so a chunk starting at any replicate draws what the whole
block would. The key is 128 bits, so a seed must lie in [0, 2**128).
The noise draw always consumes the stream first, which keeps the noise
identical across modes that share a replicate index.
"""

import enum
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, EvaluationError
from .marginal import MarginalObjective, MarginalWorkspace
from .model import as_weight
from .selection import DEFAULT_BRACKET, DEFAULT_REL_TOL, BoundaryFlag, select_columns

__all__ = [
    "RNG_DESCRIPTION",
    "MuMode",
    "BiasReport",
    "QuantileSummary",
    "ModeSummary",
    "KappaStudyReport",
    "check_seed",
    "replicate_stream",
    "draw_noise",
    "expected_sigma2_terms",
    "mc_sigma2_study",
    "mc_kappa_study",
]

RNG_DESCRIPTION = "numpy Philox4x64-10, key=seed, counter=(0, replicate, 0, 0)"

MIN_REPLICATES = 100


class MuMode(enum.Enum):
    TRUE_MU = "true"
    ZERO_MU = "zero"


def check_seed(seed):
    """The seed as an int; DomainError unless it is an integer in [0, 2**128),
    the range of a Philox key."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    return seed


def replicate_stream(seed, replicate):
    """Independent generator for one replicate of a seeded study."""
    bit_generator = np.random.Philox(key=check_seed(seed), counter=[0, replicate, 0, 0])
    return np.random.Generator(bit_generator)


def _color(weight, variance, z):
    """Standard normals z to N(0, weight^-1 variance) draws: L^-T z for weight = L L^T."""
    return math.sqrt(variance) * weight.solve_lower(z, trans=True)


def draw_noise(w, sigma2, rng):
    """One draw of eps ~ N(0, W^-1 sigma2); ``w`` is a Weight or a matrix."""
    if sigma2 < 0:
        raise DomainError(f"sigma2 must be nonnegative, got {sigma2}")
    w = as_weight(w, "w")
    return _color(w, sigma2, rng.standard_normal(w.size))


@dataclass(frozen=True)
class BiasReport:
    """Monte Carlo estimate of E[sigma2_hat] next to its analytic value."""

    analytic_expectation: float
    mc_mean: float
    mc_std_error: float
    replicates: int
    seed: int
    kappa_used: float
    true_sigma2: float
    mu_mode: MuMode
    sampling: str
    rng: str = RNG_DESCRIPTION

    def to_json(self):
        return {**asdict(self), "mu_mode": self.mu_mode.value}


def expected_sigma2_terms(design, ground_truth, sigma2, kappa, w_beta=None):
    """(signal term, noise term) of the zero-mean variance expectation.

    signal = ybar^T E^-1 ybar / n, noise = tr(E^-1 W^-1) sigma2 / n.
    Both are nonnegative and the noise term never exceeds sigma2.
    """
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    workspace = MarginalWorkspace(design.with_observations(np.zeros(design.n)), w_beta)
    return _sigma2_terms(workspace.operators(kappa), ground_truth, sigma2)


def _sigma2_terms(ops, ground_truth, sigma2):
    """expected_sigma2_terms from the operators of a zero-observation workspace."""
    signal = ops.quad_form(ground_truth.y_bar) / ops.n
    noise = ops.expected_noise_quad() * sigma2 / ops.n
    return signal, noise


def _replicate_streams(seed):
    """Every replicate stream of ``seed`` from one Philox, for _standard_rows:
    (generator, state with an empty output buffer and counter (0, 0, 0, 0))."""
    bit_generator = np.random.Philox(key=check_seed(seed))
    state = bit_generator.state
    # buffer_pos 4 marks the four-word output buffer empty; no half-used uint32 is kept
    state.update(buffer_pos=4, has_uint32=0)
    return np.random.Generator(bit_generator), state


def _standard_rows(streams, start, blocks):
    """Fill row i of each array in ``blocks`` with the next standard normals
    of replicate start + i, block by block: noise first, then any extra draws.

    ``streams`` comes from _replicate_streams(seed): setting the counter
    of its one Philox to (0, r, 0, 0) starts replicate_stream(seed, r).
    """
    rng, state = streams
    counter = state["state"]["counter"]
    for i, rows in enumerate(zip(*blocks)):
        counter[1] = start + i
        rng.bit_generator.state = state
        for row in rows:
            rng.standard_normal(out=row)


def _noise_block(design, sigma2, seed, replicates, extra_draws=0):
    """Noise columns for R replicates, and optionally further standard normals.

    Returns (eps (n, R), extra standard normals (extra_draws, R) or None),
    the rows _standard_rows draws from replicate 0 with the noise colored.
    """
    z = np.empty((replicates, design.n + extra_draws))
    _standard_rows(_replicate_streams(seed), 0, [z])
    eps = _color(design.w, sigma2, z[:, : design.n].T)
    return eps, (z[:, design.n :].T if extra_draws else None)


# Replicates are drawn and reduced in chunks of about this many bytes of normals
_CHUNK_BYTES = 8 * 2**20


def mc_sigma2_study(
    design,
    ground_truth,
    prior,
    sigma2,
    kappa,
    replicates=20000,
    seed=0,
    mu_mode=MuMode.ZERO_MU,
):
    """Monte Carlo check of the variance estimate at fixed kappa.

    TrueMu mode draws beta from the prior (with sigma_beta2 =
    sigma2/kappa) plus noise and analyzes with mu; its analytic
    expectation is sigma2 itself. ZeroMu mode holds beta at the ground
    truth, analyzes with mu = 0, and compares against the sum of
    expected_sigma2_terms.

    One worker thread draws the next chunk of replicates while this
    thread reduces the current one to its estimates; see the module
    docstring for the whitened frame the reduction works in.
    """
    mu_mode = MuMode(mu_mode)
    if replicates < MIN_REPLICATES:
        raise DomainError(f"replicates must be at least {MIN_REPLICATES}, got {replicates}")
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    streams = _replicate_streams(seed)
    n, t = design.n, design.t
    problem = design.with_observations(np.zeros(n))
    workspace = MarginalWorkspace(problem, prior.w_beta)
    ops = workspace.operators(kappa)
    noise_scale = math.sqrt(sigma2)
    if mu_mode is MuMode.TRUE_MU:
        # L_W^T A beta_dev = sqrt(sigma2/kappa) U diag(s) V^T z_beta adds only to c
        beta_scale = (math.sqrt(sigma2 / kappa) * workspace.s)[:, None]
        extra_draws = t
        analytic = float(sigma2)
        sampling = "prior-draw"
    else:
        # mu = 0, so the residual is ybar + eps; whitened, L_W^T ybar + sqrt(sigma2) z
        offset = workspace.w.mul_lower(ground_truth.y_bar, trans=True)
        extra_draws = 0
        signal, noise = _sigma2_terms(ops, ground_truth, sigma2)
        analytic = signal + noise
        sampling = "fixed-truth"

    estimates = np.empty(replicates)

    def reduce(start, z, extra=None):
        """Estimates of the replicates whose standard normals are the rows of
        ``z``, the noise, and ``extra``; z is overwritten."""
        z *= noise_scale
        if mu_mode is MuMode.ZERO_MU:
            z += offset
        perp, coef = workspace.project_whitened(z.T)
        if mu_mode is MuMode.TRUE_MU:
            coef += beta_scale * (workspace.vt @ extra.T)
        quad = perp + np.einsum("i,ij,ij->j", ops.damping, coef, coef)
        estimates[start : start + len(z)] = quad / n

    chunk = max(1, _CHUNK_BYTES // (8 * (n + extra_draws)))
    starts = range(0, replicates, chunk)
    # Two sets of chunk buffers, made once. The worker draws chunk k + 1 into
    # one set while this thread reduces chunk k in the other, so every large
    # temporary is made and freed on this thread, in the same order each run;
    # what a study holds does not depend on thread timing, and since each
    # chunk fills its own slice of estimates, neither does its result.
    widths = (n, extra_draws) if extra_draws else (n,)
    buffers = [[np.empty((min(chunk, replicates), w)) for w in widths] for _ in range(2)]

    def draw(k):
        blocks = [block[: replicates - starts[k]] for block in buffers[k % 2]]
        _standard_rows(streams, starts[k], blocks)
        return blocks

    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(draw, 0)
        for k, start in enumerate(starts):
            blocks = pending.result()
            if k + 1 < len(starts):
                # into the set chunk k - 1 used, reduced on the last pass
                pending = worker.submit(draw, k + 1)
            reduce(start, *blocks)

    mc_mean = float(np.mean(estimates))
    mc_std_error = float(np.std(estimates, ddof=1) / math.sqrt(replicates))
    return BiasReport(
        analytic_expectation=analytic,
        mc_mean=mc_mean,
        mc_std_error=mc_std_error,
        replicates=int(replicates),
        seed=int(seed),
        kappa_used=float(kappa),
        true_sigma2=float(sigma2),
        mu_mode=mu_mode,
        sampling=sampling,
    )


@dataclass(frozen=True)
class QuantileSummary:
    q05: float
    q25: float
    q50: float
    q75: float
    q95: float

    @classmethod
    def from_samples(cls, values):
        qs = np.quantile(np.asarray(values, dtype=float), [0.05, 0.25, 0.50, 0.75, 0.95])
        return cls(*(float(q) for q in qs))

    def to_json(self):
        return asdict(self)


@dataclass(frozen=True)
class ModeSummary:
    kappa_hat: QuantileSummary
    sigma2_hat: QuantileSummary
    sigma_beta2_hat: QuantileSummary
    boundary_fraction: float
    failures: int

    def to_json(self):
        return asdict(self)


@dataclass(frozen=True)
class KappaStudyReport:
    """Paired selection results under the true and the zeroed prior mean.

    ``median_kappa_hat_difference`` is median(zero mu) - median(true mu);
    its sign is reported, not asserted, because the direction depends on
    how much signal the zero-mean residuals absorb.
    """

    true_mu: ModeSummary
    zero_mu: ModeSummary
    median_kappa_hat_difference: float
    replicates: int
    seed: int
    case: int
    true_sigma2: float
    rng: str = RNG_DESCRIPTION

    def to_json(self):
        return asdict(self)


def mc_kappa_study(
    design,
    ground_truth,
    prior,
    sigma2,
    replicates=500,
    seed=0,
    case=1,
    log10_bracket=DEFAULT_BRACKET,
    rel_tol=DEFAULT_REL_TOL,
):
    """Distribution of the selected hyperparameters under both mu modes.

    Every replicate draws one fixed-truth measurement vector
    y = ybar + eps, and kappa is selected for it twice: once with the
    supplied prior and once with its mean zeroed. Each mode is one
    lockstep search over all replicates on one shared workspace. A
    replicate fails when more than half its grid is non-finite (in Case
    1 also when its residual is zero); failures are counted per mode,
    never silently dropped.
    """
    if replicates < MIN_REPLICATES:
        raise DomainError(f"replicates must be at least {MIN_REPLICATES}, got {replicates}")
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case}")
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    eps, _ = _noise_block(design, sigma2, seed, replicates)
    observations = ground_truth.y_bar[:, None] + eps
    workspace = MarginalWorkspace(design.with_observations(ground_truth.y_bar), prior.w_beta)
    known = None if case == 1 else sigma2

    def summary(mode, mode_prior):
        objective = MarginalObjective(workspace, mode_prior, known, observations)
        found = select_columns(objective, log10_bracket, rel_tol)
        ok = ~found.failed
        if not ok.any():
            raise EvaluationError(f"selection failed on every replicate in {mode.value} mode")
        kappa_hat, sigma2_hat = found.kappa_hat[ok], found.sigma2_hat[ok]
        return ModeSummary(
            kappa_hat=QuantileSummary.from_samples(kappa_hat),
            sigma2_hat=QuantileSummary.from_samples(sigma2_hat),
            sigma_beta2_hat=QuantileSummary.from_samples(sigma2_hat / kappa_hat),
            boundary_fraction=float(np.mean(found.boundary_flag[ok] != BoundaryFlag.INTERIOR)),
            failures=int(np.sum(found.failed)),
        )

    true_mu = summary(MuMode.TRUE_MU, prior)
    zero_mu = summary(MuMode.ZERO_MU, prior.with_zero_mean())
    return KappaStudyReport(
        true_mu=true_mu,
        zero_mu=zero_mu,
        median_kappa_hat_difference=zero_mu.kappa_hat.q50 - true_mu.kappa_hat.q50,
        replicates=int(replicates),
        seed=int(seed),
        case=int(case),
        true_sigma2=float(sigma2),
    )
