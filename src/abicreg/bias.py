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

The sigma2 study draws only the t + 1 numbers its estimate
(|z - U c|^2 + sum d_i c_i^2) / n depends on, c = U^T z in the whitened
frame z = L_W^T r; N(0, sigma2 I) is invariant under rotation. ZeroMu
has z ~ N(o, sigma2 I), o = L_W^T ybar, so c = o_c + sigma g and, with
o_perp turned onto one axis of the complement of range(U),
|z - U c|^2 = (|o_perp| + sigma g_0)^2 + sigma2 chi2(n - t - 1). A
TrueMu prior draw, sqrt(sigma2/kappa) U diag(s) V^T z_beta, adds only to
c: c = sigma h g with h = sqrt(1 + s^2/kappa) and o = 0. Its spread
sqrt(d) h sigma is taken as sqrt(d + e) sigma from the filter row at
kappa (marginal.MarginalOperators), e = s^2 / (s^2 + kappa). Both d h^2
and d + e equal 1 in exact arithmetic, so quad/sigma2 ~ chi2(n); d and e
have their own numerators, so a wrong filter still shows. ZeroMu draws
with shift = (sqrt(d) |o_c|, |o_perp|): g is symmetric, so the
distribution is the same, and the seeded sample does not depend on the
sign a decomposition picks for a singular vector. With
spread = (sqrt(d) sigma, sigma) for ZeroMu, a replicate keeps only its
excess over the noise-free
|shift|^2, sum (2 shift + spread g) spread g plus the chi-square part,
so a noise far below |o| keeps its digits; |shift|^2 is added back to
the mean alone. Chunks of whole blocks are drawn and reduced without
BLAS, in units of the power of four just above max(sigma2, |o|^2),
where no term overflows, by one thread per CPU: worker k takes chunks
k, k + w, ... into its own buffers of about 512 KiB of rows, small
enough to stay in a core's L2 cache between the fill and the
reduction, and the calling thread is worker 0. A replicate's estimate
depends on its own row alone, and the moments are taken once every
worker has joined, so the worker count changes no bit.

Randomness comes from counter-based streams (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC11): numpy's Philox
(Philox4x64-10) keyed by the seed, which must lie in [0, 2**128). One
filler, built by _block_filler, draws every number in blocks: block b
is one fill of per_block rows from counter (0, b, word, 0), and
replicate r is row r % per_block of block r // per_block. A filler
builds its generator once and resets only the counter per block; each
sigma2-study worker owns one filler per word. There are two layouts.
The kappa study and problems.synthesize_observations take one row per
block, so replicate r draws from counter (0, r, 0, 0), the stream of
replicate_stream(seed, r), and a generated problem's noise is
replicate 0's. The sigma2 study takes 256 rows per block, one fill at
numpy's bulk speed: word 0 holds a replicate's normals g and g_0 (g_0
unused when n = t), word 1 its chi2(n - t - 1) as 2 standard_gamma.
A final partial block draws a prefix of the full block's rows, so
chunking changes no result.
"""

import enum
import math
import operator
import os
import threading
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError, check_positive_finite
from .marginal import MarginalObjective, MarginalWorkspace
from .selection import DEFAULT_BRACKET, DEFAULT_REL_TOL, BoundaryFlag, select_columns

__all__ = [
    "RNG_DESCRIPTION",
    "BLOCK_RNG_DESCRIPTION",
    "MuMode",
    "BiasReport",
    "QuantileSummary",
    "ModeSummary",
    "KappaStudyReport",
    "check_seed",
    "replicate_stream",
    "expected_sigma2_terms",
    "mc_sigma2_study",
    "mc_kappa_study",
]

RNG_DESCRIPTION = "numpy Philox4x64-10, key=seed, counter=(0, replicate, 0, 0)"
BLOCK_RNG_DESCRIPTION = (
    "numpy Philox4x64-10, key=seed, replicate r = row r mod 256 of block b = r // 256;"
    " t + 1 normals from counter (0, b, 0, 0), one chi-square from (0, b, 1, 0)"
)

MIN_REPLICATES = 100
SIGMA2_STUDY_REPLICATES = 20000  # the default of mc_sigma2_study
KAPPA_STUDY_REPLICATES = 500  # the default of mc_kappa_study


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
    rng: str = BLOCK_RNG_DESCRIPTION

    def to_json(self):
        return {**asdict(self), "mu_mode": self.mu_mode.value}


def expected_sigma2_terms(design, ground_truth, sigma2, kappa, w_beta=None):
    """(signal term, noise term) of the zero-mean variance expectation.

    signal = ybar^T E^-1 ybar / n, noise = tr(E^-1 W^-1) sigma2 / n.
    Both are nonnegative and the noise term never exceeds sigma2.
    """
    check_positive_finite(sigma2, "sigma2")
    ops = _truth_frame(design, w_beta, kappa)
    return _sigma2_terms(ops, ops.workspace.project_rows(ground_truth.y_bar[None, :]), sigma2)


def _truth_frame(design, w_beta, kappa):
    """The view at kappa of the design's workspace."""
    return MarginalWorkspace(design, w_beta).operators(kappa)


def _sigma2_terms(ops, projected, sigma2):
    """(signal, noise) from ybar's projection (perp, c), shapes (1,) and (1, t)."""
    n = ops.workspace.n
    return ops.projected_quad(*projected) / n, ops.expected_noise_quad() / n * sigma2


_BLOCK = 256  # replicates per block of the sigma2 study


def _block_filler(
    seed, word=0, per_block=_BLOCK, draw=lambda rng, out: rng.standard_normal(out=out)
):
    """fill(start, out): row i of ``out`` gets the standard normals of replicate
    start + i, or what another ``draw(rng, out=block)`` writes into a block of rows.

    Block b is one draw of ``per_block`` rows from Philox keyed by ``seed``
    with counter (0, b, word, 0), and replicate r is row r % per_block of
    block r // per_block; ``start`` is a multiple of per_block. With
    per_block = 1, row r is replicate_stream(seed, r)'s first draws. A final
    partial block is a prefix of the full block's rows. The generator is
    built once, here, and each fill only resets its counter, so a filler
    serves one thread at a time.
    """
    bit_generator = np.random.Philox(key=check_seed(seed))
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    # buffer_pos 4 marks the four-word output buffer empty; no half-used uint32 is kept
    state.update(buffer_pos=4, has_uint32=0)
    counter = state["state"]["counter"]
    counter[2] = word

    def fill(start, out):
        for i in range(0, len(out), per_block):
            counter[1] = (start + i) // per_block
            bit_generator.state = state
            draw(rng, out=out[i : i + per_block])

    return fill


def _noise_block(design, sigma2, seed, replicates):
    """Noise columns eps (n, R) of R replicates: column r is
    replicate_stream(seed, r)'s first n normals, colored."""
    z = np.empty((replicates, design.n))
    _block_filler(seed, per_block=1)(0, z)
    return _color(design.w, sigma2, z.T)


def _excess(rows, shift, spread):
    """sum_j (shift_j + spread_j rows_ij)^2 - shift_j^2 for each row i, summed as
    (spread_j rows_ij)^2 + 2 shift_j spread_j rows_ij; overwrites rows."""
    rows *= spread
    return np.einsum("ij,ij->i", rows, rows) + np.einsum("ij,j->i", rows, 2.0 * shift)


# Replicates are drawn and reduced in chunks of whole blocks, and each worker's
# chunk holds about this many bytes of normals (at least one block). A chunk is
# reduced right after it is filled, so it should stay in the core's L2 cache
# (2 MiB per core on the 2-CPU machine the benchmark runs on). In 4 alternating
# 10 s perfbench sigma2-study pairs against 512 KiB, 256 KiB chunks took 3.9%
# longer per round, and 1 MiB chunks took the same time but raised the peak RSS
# by 1.1 MB; the smallest budget that costs no time holds the least memory
_CHUNK_BYTES = 2**19


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(step, jobs, workers):
    """step(k, job) for every job, on ``workers`` threads: worker k takes jobs
    k, k + workers, ..., and worker 0 is the calling thread.

    Every thread is joined before this returns or raises. An error stops
    each worker before its next job, and the error of the lowest-numbered
    worker that failed is raised unchanged on the calling thread.
    """
    errors = [None] * workers

    def run(worker):
        try:
            for job in jobs[worker::workers]:
                if any(error is not None for error in errors):
                    return
                step(worker, job)
        except BaseException as exc:  # raised again on the calling thread, below
            errors[worker] = exc

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=run, args=(worker,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


def mc_sigma2_study(
    design,
    ground_truth,
    prior,
    sigma2,
    kappa,
    replicates=SIGMA2_STUDY_REPLICATES,
    seed=0,
    mu_mode=MuMode.ZERO_MU,
):
    """Monte Carlo check of the variance estimate at fixed kappa.

    TrueMu mode draws beta from the prior (with sigma_beta2 =
    sigma2/kappa) plus noise and analyzes with mu; its analytic
    expectation is sigma2 itself. ZeroMu mode holds beta at the ground
    truth, analyzes with mu = 0, and compares against the sum of
    expected_sigma2_terms.

    Each replicate draws c = U^T z and |z - U c|^2 from their exact
    distributions, in chunks of whole blocks; see the module docstring.
    DomainError if the mean or its standard error is not representable.
    """
    mu_mode = MuMode(mu_mode)
    if replicates < MIN_REPLICATES:
        raise DomainError(f"replicates must be at least {MIN_REPLICATES}, got {replicates}")
    check_positive_finite(sigma2, "sigma2")
    n, t = design.n, design.t
    ops = _truth_frame(design, prior.w_beta, kappa)
    if mu_mode is MuMode.TRUE_MU:
        spread = np.sqrt(ops.damping + ops.complement)
        perp, coef, analytic, sampling = 0.0, np.zeros(t), float(sigma2), "prior-draw"
    else:
        spread, sampling = np.sqrt(ops.damping), "fixed-truth"
        projected = ops.workspace.project_rows(ground_truth.y_bar[None, :])
        analytic = sum(_sigma2_terms(ops, projected, sigma2))
        perp, coef = (part[0] for part in projected)
    complement = float(n > t)  # g_0 lies on the axis of o_perp; n = t leaves no such axis
    shift = np.append(np.sqrt(ops.damping) * np.abs(coef), complement * math.sqrt(perp))
    spread = np.append(spread, complement)
    exponent = math.frexp(max(math.sqrt(sigma2), float(np.max(np.abs(shift)))))[1]
    shift = np.ldexp(shift, -exponent)
    spread *= math.ldexp(math.sqrt(sigma2), -exponent)
    chi2_scale = math.ldexp(sigma2, 1 - 2 * exponent)  # chi2(k) = 2 standard_gamma(k/2)
    draw_half_chi2 = partial(np.random.Generator.standard_gamma, shape=max(n - t - 1, 0) / 2)

    blocks = -(-replicates // _BLOCK)
    workers = min(_cpu_count(), blocks)
    # each worker's buffers hold _CHUNK_BYTES, and every worker gets a chunk
    chunk_blocks = min(_CHUNK_BYTES // (8 * _BLOCK * (t + 1)), blocks // workers)
    chunk = _BLOCK * max(1, chunk_blocks)
    # worker k's first chunk, which starts at k * chunk, is its longest; its
    # buffers and its own two fillers are built here, before any worker starts
    per_worker = [
        (
            np.empty((size, t + 1)),
            np.empty(size),
            _block_filler(seed),
            _block_filler(seed, word=1, draw=draw_half_chi2),
        )
        for size in (min(chunk, replicates - k * chunk) for k in range(workers))
    ]
    estimates = np.empty(replicates)

    def draw_chunk(worker, start):
        rows_buffer, gamma_buffer, fill_rows, fill_gamma = per_worker[worker]
        rows, gamma = rows_buffer[: replicates - start], gamma_buffer[: replicates - start]
        fill_rows(start, rows)
        fill_gamma(start, gamma)
        excess = _excess(rows, shift, spread) + chi2_scale * gamma
        estimates[start : start + len(rows)] = excess / n

    _run_workers(draw_chunk, range(0, replicates, chunk), workers)
    # excesses over the noise-free sum(shift^2) / n, which only the mean adds back; in
    # units of their largest magnitude, np.std squares no subnormal deviation
    top = math.frexp(float(np.max(np.abs(estimates))))[1]
    np.ldexp(estimates, -top, out=estimates)
    moments = np.ldexp([np.mean(estimates), np.std(estimates, ddof=1) / math.sqrt(replicates)], top)
    moments[0] += float(shift @ shift) / n
    with np.errstate(over="ignore"):
        mc_mean, mc_std_error = np.ldexp(moments, 2 * exponent).tolist()
    if not np.isfinite([analytic, mc_mean, mc_std_error]).all():
        raise DomainError(f"the mean of the estimate at sigma2 = {sigma2!r} is not representable")
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


@dataclass(frozen=True)
class ModeSummary:
    kappa_hat: QuantileSummary
    sigma2_hat: QuantileSummary
    sigma_beta2_hat: QuantileSummary
    boundary_fraction: float
    failures: int


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
    replicates=KAPPA_STUDY_REPLICATES,
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
    check_positive_finite(sigma2, "sigma2")
    # a length-1 ybar would broadcast against the noise block
    if len(ground_truth.y_bar) != design.n:
        raise DimensionError(f"y_bar has length {len(ground_truth.y_bar)}, expected {design.n}")
    eps = _noise_block(design, sigma2, seed, replicates)
    observations = ground_truth.y_bar[:, None] + eps
    workspace = MarginalWorkspace(design, prior.w_beta)
    known = None if case == 1 else sigma2

    def summary(mode, mode_prior):
        objective = MarginalObjective(workspace, mode_prior, known, observations)
        found = select_columns(objective, log10_bracket, rel_tol)
        ok = ~found.failed
        if not ok.any():
            raise EvaluationError(f"selection failed on every replicate in {mode.value} mode")
        kappa_hat, sigma2_hat = found.kappa_hat[ok], found.sigma2_hat[ok]
        # an overflow gives inf, which the check below rejects
        with np.errstate(over="ignore"):
            samples = {
                "kappa_hat": kappa_hat,
                "sigma2_hat": sigma2_hat,
                "sigma_beta2_hat": sigma2_hat / kappa_hat,
            }
        for name, values in samples.items():
            if not np.isfinite(values).all():
                raise EvaluationError(f"{name} is not finite on every replicate in {mode.value} mode")
        return ModeSummary(
            **{name: QuantileSummary.from_samples(values) for name, values in samples.items()},
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
