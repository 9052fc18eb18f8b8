"""Selection of the relative weight kappa by scalar objective minimization.

The search is deliberately plain: evaluate the objective on a 97-point
uniform grid in log10 kappa, then refine the grid minimum inside its
bracketing triple by safeguarded Newton steps in ln kappa (Nocedal and
Wright, "Numerical Optimization", ch. 3; Brent, 1973). Each step reads
the objective's exact slope and curvature (MarginalObjective.search_slopes),
shrinks the bracket by the sign of the slope, and takes the Newton point
where the curvature is positive and the point lies inside the bracket,
else the bracket's midpoint. A column stops once its step is below
ln(1 + rel_tol), usually after 4-5 steps. The reported kappa_hat is the
lowest objective seen, so objective_at_min never exceeds the grid
minimum, and the curvature there gives the Laplace width sqrt(2 / f'')
of ln kappa. A minimum on the first or last grid point is reported with
a boundary flag instead of refined, because an edge optimum usually
means the bracket, not the data, chose it.

One loop does this for R objectives in lockstep: one grid evaluation of
all R columns, then Newton steps that move every column not yet
converged. A column's steps depend only on its own values, so
select_case1 (R = 1) and a study of R replicates choose alike. There is
no randomness here; identical inputs give bit-identical results.

minimize_scalar takes a black-box callable, which has no derivatives; it
keeps the same grid and refines by golden section.
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
_LN10 = math.log(10.0)
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
    quantifies). ``ln_kappa_width`` is sqrt(2 / f'') at an interior
    kappa_hat, f'' the objective's curvature in ln kappa: how far ln kappa
    may move before the objective rises by one. It is None at an edge or
    where f'' is not positive.
    """

    kappa_hat: float
    sigma2_hat: float
    sigma_beta2_hat: float
    objective_at_min: float
    trace: tuple
    boundary_flag: BoundaryFlag
    mu_assumed_zero: bool
    case_tag: ObjectiveCase
    ln_kappa_width: float = None

    def to_json(self):
        return {
            "kappa_hat": self.kappa_hat,
            "ln_kappa_width": self.ln_kappa_width,
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
    when more than half of its grid is non-finite. ``ln_kappa_width`` is
    sqrt(2 / f'') at each kappa_hat, nan where SelectionResult's is None."""

    kappa_hat: np.ndarray
    objective_at_min: np.ndarray
    boundary_flag: np.ndarray
    kappas: np.ndarray
    values: np.ndarray
    failed: np.ndarray
    sigma2_hat: np.ndarray = None
    ln_kappa_width: np.ndarray = None

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


def _grid(objective, log10_bracket, rel_tol):
    """The grid stage of both searches: (log10 grid, kappas, (K, R) values,
    failed, grid argmin per column, boundary flags). ``objective`` works as
    MarginalObjective.search_total; grid ties break toward smaller kappa."""
    grid, kappas = kappa_grid(log10_bracket, GRID_POINTS)
    if not rel_tol > 0:
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")
    values = _as_finite(objective(kappas))
    failed = 2 * np.sum(np.isinf(values), axis=0) > GRID_POINTS
    # argmin takes the first minimal index: the smallest kappa among ties
    index = np.argmin(values, axis=0)
    flags = np.full(values.shape[1], BoundaryFlag.INTERIOR)
    flags[index == 0] = BoundaryFlag.LOWER_EDGE
    flags[index == GRID_POINTS - 1] = BoundaryFlag.UPPER_EDGE
    return grid, kappas, values, failed, index, flags


def _search(objective, log10_bracket, rel_tol):
    """Grid-then-Newton minimization of a MarginalObjective's R columns in lockstep,
    without its offset. An edge minimum is returned unrefined."""
    columns = objective.columns
    grid, kappas, values, failed, index, flags = _grid(objective.search_total, log10_bracket, rel_tol)
    best_log = grid[index]
    best_val = values[index, np.arange(columns)]
    best_curv = np.full(columns, np.nan)
    cols = np.flatnonzero((index > 0) & (index < GRID_POINTS - 1) & ~failed)

    # safeguarded Newton from the grid minimum inside its bracketing triple, in
    # log10 kappa: a step of -f' / f'' in ln kappa is -f' / (f'' ln 10) here
    a, b = grid[index[cols] - 1], grid[index[cols] + 1]
    x = best_log[cols]
    step_tol = math.log10(1.0 + rel_tol)
    live = np.arange(cols.size)
    steps = 0
    while live.size and steps < _MAX_REFINE_STEPS:
        at, here = cols[live], x[live]
        value, slope, curvature = objective.search_slopes(log10_to_kappa(here), at)
        value = _as_finite(value)
        better = value < best_val[at]
        best_log[at[better]], best_val[at[better]] = here[better], value[better]
        # the grid minimum's own curvature stands until a step improves on it
        has_curv = better | (steps == 0)
        best_curv[at[has_curv]] = curvature[has_curv]
        lo = np.where(slope < 0, here, a[live])
        hi = np.where(slope > 0, here, b[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = here - slope / (curvature * _LN10)
        inside = (curvature > 0) & (lo < newton) & (newton < hi)
        new = np.where(inside, newton, 0.5 * (lo + hi))
        a[live], b[live], x[live] = lo, hi, new
        live = live[np.abs(new - here) >= step_tol]
        steps += 1
    # nan where f'' is not positive, or so small that the width overflows
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.sqrt(2.0 / best_curv)
    width[~np.isfinite(width)] = np.nan
    kappa_hat = log10_to_kappa(best_log)
    return ColumnMinima(kappa_hat, best_val, flags, kappas, values, failed, ln_kappa_width=width)


def minimize_scalar(objective, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Grid-then-golden-section minimization of ``objective``, which maps kappa > 0
    to a float (inf or nan where undefined), over ``log10_bracket`` to relative
    tolerance ``rel_tol`` on kappa. Returns a ScalarMinimum; raises
    EvaluationError when over half the grid is non-finite."""

    def lifted(kappas):
        return np.array([float(objective(kappa)) for kappa in kappas.tolist()])[:, None]

    grid, kappas, values, failed, index, flags = _grid(lifted, log10_bracket, rel_tol)
    i = int(index[0])
    best_val, best_log = float(values[i, 0]), float(grid[i])

    def evaluate(point):
        nonlocal best_val, best_log
        value = float(objective(10.0**point))
        value = value if math.isfinite(value) else math.inf
        if value < best_val:
            best_val, best_log = value, point
        return value

    if 0 < i < GRID_POINTS - 1 and not failed[0]:
        # golden section on the bracketing triple, in log10 space
        a, b = float(grid[i - 1]), float(grid[i + 1])
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        fc, fd = evaluate(c), evaluate(d)
        width_tol = math.log10(1.0 + rel_tol)
        steps = 0
        while b - a > width_tol and steps < _MAX_REFINE_STEPS:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = evaluate(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = evaluate(d)
            steps += 1
    found = ColumnMinima(
        log10_to_kappa([best_log]), np.array([best_val]), flags, kappas, values, failed
    )
    return found.scalar()


def select_columns(objective, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Select kappa for every residual column of a MarginalObjective at once.

    The values include the Case-1 offset; sigma2_hat is r^T E^-1 r / n at
    kappa_hat, or the known sigma2. A failed column is flagged, not raised.
    """
    found = _search(objective, log10_bracket, rel_tol)
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
    width = float(selected.ln_kappa_width[0])
    return SelectionResult(
        **found._asdict(),
        sigma2_hat=variance,
        sigma_beta2_hat=variance / found.kappa_hat,
        mu_assumed_zero=prior.mu_assumed_zero,
        case_tag=objective.case_tag,
        ln_kappa_width=width if math.isfinite(width) else None,
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
