"""Selection of the relative weight kappa by scalar objective minimization.

The search is deliberately plain: evaluate the objective on a 97-point
uniform grid in log10 kappa, then refine the bracketing triple of the
grid minimum by golden-section search. A minimum on the first or last
grid point is reported with a boundary flag instead of refined, because
an edge optimum usually means the bracket, not the data, chose it.

One loop does this for R objectives in lockstep: one grid evaluation of
all R columns, then refinement steps that move every column still wider
than the tolerance. A column's steps depend only on its own values, so
select_case1 (R = 1) and a study of R replicates choose alike. There is
no randomness here; identical inputs give bit-identical results.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError
from .marginal import MarginalObjective, MarginalWorkspace, ObjectiveCase
from .marginal import DEFAULT_BRACKET, GRID_POINTS, kappa_grid, log10_to_kappa

__all__ = [
    "GRID_POINTS",
    "DEFAULT_BRACKET",
    "DEFAULT_REL_TOL",
    "BoundaryFlag",
    "ScalarMinimum",
    "SelectionResult",
    "ColumnMinima",
    "minimize_scalar",
    "select_columns",
    "select_case1",
    "select_case2",
]

DEFAULT_REL_TOL = 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_REFINE_STEPS = 200


class BoundaryFlag(enum.Enum):
    INTERIOR = "interior"
    LOWER_EDGE = "lower-edge"
    UPPER_EDGE = "upper-edge"


class ScalarMinimum(NamedTuple):
    kappa_hat: float
    boundary_flag: BoundaryFlag
    trace: tuple
    objective_at_min: float


@dataclass(frozen=True)
class SelectionResult:
    """Selected hyperparameters plus the evidence trail.

    ``sigma_beta2_hat = sigma2_hat / kappa_hat`` holds in both cases; in
    Case 2 ``sigma2_hat`` simply echoes the supplied known variance.
    ``trace`` is the grid of (kappa, objective) pairs the optimizer saw,
    and ``mu_assumed_zero`` records whether the prior mean was a
    substituted zero vector (the scenario whose bias this package
    quantifies).
    """

    kappa_hat: float
    sigma2_hat: float
    sigma_beta2_hat: float
    objective_at_min: float
    trace: tuple
    boundary_flag: BoundaryFlag
    mu_assumed_zero: bool
    case_tag: ObjectiveCase

    def to_json(self):
        return {
            "kappa_hat": self.kappa_hat,
            "sigma2_hat": self.sigma2_hat,
            "sigma_beta2_hat": self.sigma_beta2_hat,
            "objective_at_min": self.objective_at_min,
            "boundary_flag": self.boundary_flag.value,
            "mu_assumed_zero": self.mu_assumed_zero,
            "case": self.case_tag.value,
            "trace": [
            [kappa, value if math.isfinite(value) else None] for kappa, value in self.trace
        ],
        }


class ColumnMinima(NamedTuple):
    """One lockstep search over R columns, as arrays: ``values`` is the
    (K, R) grid objective, +inf where it was not finite. A column fails
    when more than half of its grid is non-finite."""

    kappa_hat: np.ndarray
    objective_at_min: np.ndarray
    boundary_flag: np.ndarray
    kappas: np.ndarray
    values: np.ndarray
    failed: np.ndarray
    sigma2_hat: np.ndarray = None

    def scalar(self, column=0):
        """ScalarMinimum of one column; raises EvaluationError if it failed."""
        if self.failed[column]:
            bad = int(np.sum(np.isinf(self.values[:, column])))
            raise EvaluationError(f"objective non-finite at {bad} of {GRID_POINTS} grid points")
        trace = tuple(zip(self.kappas.tolist(), self.values[:, column].tolist()))
        kappa_hat, at_min = float(self.kappa_hat[column]), float(self.objective_at_min[column])
        return ScalarMinimum(kappa_hat, self.boundary_flag[column], trace, at_min)


def _as_finite(values):
    return np.where(np.isfinite(values), values, np.inf)


def _search(objective, columns, log10_bracket, rel_tol):
    """Grid-then-golden-section minimization of R functions of kappa in lockstep.

    ``objective`` works as MarginalObjective.search_total. Grid ties break
    toward smaller kappa; an edge minimum is returned unrefined.
    """
    grid, kappas = kappa_grid(log10_bracket, GRID_POINTS)
    if not rel_tol > 0:
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")
    values = _as_finite(objective(kappas, None))
    failed = 2 * np.sum(np.isinf(values), axis=0) > GRID_POINTS
    # argmin takes the first minimal index: the smallest kappa among ties
    index = np.argmin(values, axis=0)
    best_log = grid[index]
    best_val = values[index, np.arange(columns)]
    cols = np.flatnonzero((index > 0) & (index < GRID_POINTS - 1) & ~failed)

    def evaluate(points, at):
        value = _as_finite(objective(log10_to_kappa(points), cols[at]))
        better = value < best_val[cols[at]]
        best_log[cols[at[better]]] = points[better]
        best_val[cols[at[better]]] = value[better]
        return value

    # golden-section refinement on each bracketing triple, in log10 space
    a, b = grid[index[cols] - 1], grid[index[cols] + 1]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    every = np.arange(cols.size)
    fc = evaluate(c, every)
    fd = evaluate(d, every)
    width_tol = math.log10(1.0 + rel_tol)
    live = every[(b - a) > width_tol]
    steps = 0
    while live.size and steps < _MAX_REFINE_STEPS:
        left = fc[live] < fd[live]
        lo = np.where(left, a[live], c[live])
        hi = np.where(left, d[live], b[live])
        kept = np.where(left, c[live], d[live])
        f_kept = np.where(left, fc[live], fd[live])
        new = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        f_new = evaluate(new, live)
        a[live], b[live] = lo, hi
        c[live], d[live] = np.where(left, new, kept), np.where(left, kept, new)
        fc[live], fd[live] = np.where(left, f_new, f_kept), np.where(left, f_kept, f_new)
        live = live[(hi - lo) > width_tol]
        steps += 1
    flags = np.full(columns, BoundaryFlag.INTERIOR)
    flags[index == 0] = BoundaryFlag.LOWER_EDGE
    flags[index == GRID_POINTS - 1] = BoundaryFlag.UPPER_EDGE
    return ColumnMinima(log10_to_kappa(best_log), best_val, flags, kappas, values, failed)


def minimize_scalar(objective, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Grid-then-golden-section minimization of ``objective``, which maps kappa > 0
    to a float (inf or nan where undefined), over ``log10_bracket`` to relative
    tolerance ``rel_tol`` on kappa: the lockstep search with R = 1. Returns a
    ScalarMinimum; raises EvaluationError when over half the grid is non-finite."""

    def lifted(kappas, cols):
        values = np.array([float(objective(kappa)) for kappa in kappas.tolist()])
        return values[:, None] if cols is None else values

    return _search(lifted, 1, log10_bracket, rel_tol).scalar()


def select_columns(objective, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Select kappa for every residual column of a MarginalObjective at once.

    The values include the Case-1 offset; sigma2_hat is r^T E^-1 r / n at
    kappa_hat, or the known sigma2. A failed column is flagged, not raised.
    """
    found = _search(objective.search_total, objective.columns, log10_bracket, rel_tol)
    if objective.sigma2 is None:
        with np.errstate(all="ignore"):
            quad = objective(found.kappa_hat, np.arange(objective.columns)).quad_term
        variance = quad / objective.workspace.n
    else:
        variance = np.full(objective.columns, objective.sigma2)
    return found._replace(
        objective_at_min=found.objective_at_min + objective.offset,
        values=found.values + objective.offset,
        sigma2_hat=variance,
    )


def _select(problem, prior, sigma2, log10_bracket, rel_tol):
    """select_columns on the problem's own residual, as a SelectionResult."""
    objective = MarginalObjective(MarginalWorkspace(problem, prior.w_beta), prior, sigma2)
    selected = select_columns(objective, log10_bracket, rel_tol)
    found = selected.scalar()
    variance = float(selected.sigma2_hat[0])
    return SelectionResult(
        **found._asdict(),
        sigma2_hat=variance,
        sigma_beta2_hat=variance / found.kappa_hat,
        mu_assumed_zero=prior.mu_assumed_zero,
        case_tag=objective.case_tag,
    )


def select_case1(problem, prior, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Both variances unknown: minimize the concentrated objective.

    Minimizes n ln(r^T E^-1 r) + ln det E over kappa, then reads the
    variance estimates at the minimum: sigma2_hat = r^T E^-1 r / n and
    sigma_beta2_hat = sigma2_hat / kappa_hat.
    """
    return _select(problem, prior, None, log10_bracket, rel_tol)


def select_case2(problem, prior, sigma2, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Known sigma2: minimize r^T E^-1 r / sigma2 + ln det E over kappa."""
    return _select(problem, prior, sigma2, log10_bracket, rel_tol)
