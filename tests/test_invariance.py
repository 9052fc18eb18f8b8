"""Invariances of kappa selection, checked by hypothesis on small designs.

With W = I the objectives see the data only through the residual
r = y - A mu, measured against the column space of A. Rotating the rows
of A and y by one orthogonal Q, or moving y by A delta together with mu
by delta, changes neither, so the selected kappa and its boundary flag
must not change beyond the search tolerance. Where the objective is
flat at its minimum, rounding alone moves kappa_hat by more than that
(a curvature of 1e-11 in ln kappa lets it move by a third); there the
two kappas must instead give the same objective to 12 digits.

Square designs (n = t) are left out: there the Case 1 objective goes
flat as kappa -> 0, because the n ln kappa of its two terms cancels, and
rounding alone moves kappa_hat by orders of magnitude.

Multiplying A by a power of two a and y by a power of two b multiplies
E's kappa by a^2: the Case 1 kappa_hat moves by a^2 and sigma2_hat by
b^2, the flag and ln_kappa_width stay, and the penalized solution at
a^2 kappa is (b / a) times the one at kappa. That holds over the whole
float range, where s^2 overflows (a = 2^510 on phillips, s_max = 1.95e154)
or nears underflow (a = 2^-498).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import abicreg as ar
from abicreg.selection import DEFAULT_REL_TOL
from conftest import random_design

INVARIANCE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def problems(draw):
    """(problem, prior, rng): W = I, 3 <= n <= 10, 1 <= t < n, cond(A) up to 1e6."""
    n = draw(st.integers(3, 10))
    t = draw(st.integers(1, n - 1))
    cond = 10.0 ** draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = random_design(rng, n, t, cond=cond, identity_w=True)
    problem = design.with_observations(rng.standard_normal(n))
    return problem, ar.default_prior(t, mu=rng.standard_normal(t)), rng


def assert_same_selection(problem, prior, other_problem, other_prior):
    """Equal boundary flags in both cases, and kappa_hat within 3 rel_tol,
    unless the objective is flat there: where it differs by at most 1e-12
    relative between the two kappas, rounding decides and either is a minimizer."""
    for sigma2 in (None, 1.0):
        first, second = (
            ar.select_case1(p, q) if sigma2 is None else ar.select_case2(p, q, sigma2)
            for p, q in ((problem, prior), (other_problem, other_prior))
        )
        assert second.boundary_flag is first.boundary_flag
        if abs(second.kappa_hat / first.kappa_hat - 1.0) > 3 * DEFAULT_REL_TOL:
            objective = ar.MarginalObjective(ar.MarginalWorkspace(problem), prior, sigma2)
            at_first, at_second = objective([first.kappa_hat, second.kappa_hat]).total[:, 0]
            assert abs(at_second - at_first) <= 1e-12 * max(1.0, abs(at_first))


@INVARIANCE
@given(problems())
def test_rotation_leaves_selection_unchanged(drawn):
    problem, prior, rng = drawn
    q = np.linalg.qr(rng.standard_normal((problem.n, problem.n)))[0]
    rotated = ar.InverseProblem(q @ problem.a_matrix, q @ problem.y)
    assert_same_selection(problem, prior, rotated, prior)


@INVARIANCE
@given(problems())
def test_prior_mean_shift_leaves_selection_unchanged(drawn):
    problem, prior, rng = drawn
    delta = rng.standard_normal(problem.t)
    shifted = ar.InverseProblem(problem.a_matrix, problem.y + problem.a_matrix @ delta)
    assert_same_selection(problem, prior, shifted, ar.default_prior(problem.t, mu=prior.mu + delta))


def test_flat_minimum_moves_by_far_less_than_its_width():
    # n = 9, t = 8: the Case-1 minimum is so flat that an orthogonal rotation of A
    # and y alone moves kappa_hat by about a third; ln_kappa_width shows why
    rng = np.random.default_rng(1555)
    cond = 10.0 ** rng.uniform(0.0, 6.0)
    design = random_design(rng, 9, 8, cond=cond, identity_w=True)
    problem = design.with_observations(rng.standard_normal(9))
    prior = ar.default_prior(8, mu=rng.standard_normal(8))
    q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    rotated = ar.InverseProblem(q @ problem.a_matrix, q @ problem.y)
    first, second = ar.select_case1(problem, prior), ar.select_case1(rotated, prior)
    assert first.boundary_flag is second.boundary_flag is ar.BoundaryFlag.INTERIOR
    # the data fix ln kappa only to within about 6e7: near kappa 5e11 the objective
    # still falls, by f' = -5e-16 per unit of ln kappa, and rounding ends the search
    assert first.ln_kappa_width > 1e6 and second.ln_kappa_width > 1e6
    move = abs(np.log(second.kappa_hat / first.kappa_hat))
    assert move <= 1e-3 * min(first.ln_kappa_width, second.ln_kappa_width)


# the largest and smallest a leave a shifted bracket inside the float range
SCALE_BRACKET = (-7.0, 0.0)


@st.composite
def scalings(draw):
    """(problem, k, j): a phillips or spectrum design with noisy y, and the exponents
    of a = 2^k (one of the extremes half the time) and b = 2^j."""
    if draw(st.booleans()):
        design, exact = ar.phillips_problem(draw(st.sampled_from([8, 16, 32])))
    else:
        n = draw(st.integers(4, 24))
        t = draw(st.integers(2, n - 1))
        design, exact = ar.spectrum_problem(n, t, decay=draw(st.floats(0.5, 6.0)), seed=draw(st.integers(0, 99)))
    sigma2 = 10.0 ** draw(st.floats(-6.0, -2.0))
    y, _ = ar.synthesize_observations(design, exact, sigma2, seed=draw(st.integers(0, 99)))
    k = draw(st.sampled_from([-498, 510, 511]) | st.integers(-498, 511))
    return ar.InverseProblem(design.a_matrix, y), k, draw(st.integers(-400, 400))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(scalings())
def test_powers_of_two_scale_the_selection(drawn):
    problem, k, j = drawn
    a, b = 2.0**k, 2.0**j
    scaled = ar.InverseProblem(problem.a_matrix * a, problem.y * b)
    prior = ar.default_prior(problem.t)
    shift = 2 * k * math.log10(2.0)
    first = ar.select_case1(problem, prior, SCALE_BRACKET)
    second = ar.select_case1(scaled, prior, (SCALE_BRACKET[0] + shift, SCALE_BRACKET[1] + shift))
    assert second.boundary_flag is first.boundary_flag
    assert abs(second.kappa_hat / a / a / first.kappa_hat - 1.0) <= DEFAULT_REL_TOL
    assert abs(second.sigma2_hat / b / b / first.sigma2_hat - 1.0) <= DEFAULT_REL_TOL
    if first.ln_kappa_width is not None:
        assert abs(second.ln_kappa_width / first.ln_kappa_width - 1.0) <= 1e-6
    workspace = ar.MarginalWorkspace(problem)
    solution = workspace.penalized_solution(problem.y, first.kappa_hat)
    scaled_solution = ar.MarginalWorkspace(scaled).penalized_solution(scaled.y, first.kappa_hat * a * a)
    cond = workspace.s[0] / workspace.s[-1]
    error = np.linalg.norm(scaled_solution * (a / b) - solution)
    assert error <= 10 * np.finfo(float).eps * cond * np.linalg.norm(solution)
