"""Shared builders for randomized test fixtures.

Every builder takes an explicit Generator so tests stay reproducible;
nothing here touches global random state. `cli_invocation` builds the
command line for tests that run the CLI in a child process.
"""

import os
import sys
from pathlib import Path

import numpy as np

import abicreg as ar

# Directory holding the abicreg package this test session imported.
SRC_ROOT = Path(ar.__file__).resolve().parents[1]


def cli_invocation(*args):
    """Command and environment that run `python -m abicreg` on this checkout.

    The child gets SRC_ROOT as an absolute path at the front of its
    PYTHONPATH. A relative entry such as `src` does not resolve from the
    temporary directories the CLI tests use as cwd, and an installed
    abicreg must not shadow the code the in-process assertions compare to.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
    )
    return [sys.executable, "-m", "abicreg", *map(str, args)], env


# Every array of a 2 x 1 problem file, and each of them with a text entry or a ragged row.
GOOD_ARRAYS = {
    "A": [[1.0], [2.0]],
    "y": [1.0, 3.0],
    "W": [[1.0, 0.0], [0.0, 1.0]],
    "W_beta": [[1.0]],
    "mu": [1.0],
}
TEXT_ARRAYS = {
    "A": [[1.0], ["x"]],
    "y": [1.0, "x"],
    "W": [[1.0, 0.0], [0.0, "x"]],
    "W_beta": [["x"]],
    "mu": ["x"],
}
# text that spells a number and booleans, which np.array would read as numbers
NUMERIC_TEXT_ARRAYS = {
    "A": [[1.0], ["2.0"]],
    "y": [1.0, "3"],
    "W": [[1.0, 0.0], [0.0, "1.0"]],
    "W_beta": [["1.0"]],
    "mu": ["1.0"],
}
BOOL_ARRAYS = {
    "A": [[True], [2.0]],
    "y": [1.0, True],
    "W": [[1.0, False], [False, 1.0]],
    "W_beta": [[True]],
    "mu": [False],
}
# null, which np.array would read as nan
NULL_ARRAYS = {
    "A": [[1.0], [None]],
    "y": [1.0, None],
    "W": [[1.0, 0.0], [0.0, None]],
    "W_beta": [[None]],
    "mu": [None],
}
# an integer beyond the double range, which the stdlib parser reads as a Python int
HUGE_INT_ARRAYS = {
    "A": [[1.0], [10**400]],
    "y": [1.0, -(10**400)],
    "W": [[1.0, 0.0], [0.0, 10**400]],
    "W_beta": [[10**400]],
    "mu": [10**400],
}
RAGGED_ARRAYS = {
    "A": [[1.0], [2.0, 3.0]],
    "y": [1.0, [3.0]],
    "W": [[1.0, 0.0], [0.0]],
    "W_beta": [[1.0], [1.0, 1.0]],
    "mu": [[1.0], 2.0],
}


def random_spd(rng, k, spread=4.0):
    """Random SPD matrix with eigenvalues in [1/spread, spread]."""
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    eig = np.exp(rng.uniform(-np.log(spread), np.log(spread), k))
    mat = (q * eig) @ q.T
    return 0.5 * (mat + mat.T)


def random_design(rng, n, t, cond=1e3, identity_w=False):
    """Design with prescribed condition number and optional SPD weight."""
    u = np.linalg.qr(rng.standard_normal((n, t)))[0]
    v = np.linalg.qr(rng.standard_normal((t, t)))[0]
    if t > 1:
        s = np.logspace(0.0, -np.log10(cond), t)
    else:
        s = np.ones(1)
    a = (u * s) @ v.T
    w = None if identity_w else random_spd(rng, n)
    return ar.ProblemDesign(a, w)


def random_prior(rng, t, identity_wbeta=False, zero_mu=False):
    w_beta = None if identity_wbeta else random_spd(rng, t)
    mu = None if zero_mu else rng.standard_normal(t)
    return ar.default_prior(t, mu=mu, w_beta=w_beta)


def random_fixture(rng, n, t, cond=1e3, identity_w=False, identity_wbeta=False, zero_mu=False):
    """(problem, prior) with random data y of unit scale."""
    design = random_design(rng, n, t, cond, identity_w)
    problem = design.with_observations(rng.standard_normal(n))
    prior = random_prior(rng, t, identity_wbeta, zero_mu)
    return problem, prior


def tiny_fixture():
    """The closed-form 2x1 fixture used throughout the hand calculations.

    A = [[1], [1]], W = I, W_beta = [1], zero prior mean, y = [1, 1].
    At kappa = 0.5: quad = 0.4, logdet = ln 5. The zero-mean variance
    expectation at sigma2 = 1 is 0.8.
    """
    a = np.array([[1.0], [1.0]])
    design = ar.ProblemDesign(a)
    problem = design.with_observations([1.0, 1.0])
    prior = ar.default_prior(1)
    truth = ar.GroundTruth.from_design(design, [1.0])
    return design, problem, prior, truth
