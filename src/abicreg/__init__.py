"""Regularized linear inverse problems with marginal-likelihood tuning.

The package solves ill-conditioned least squares problems through a
Gaussian prior, scores hyperparameters by the marginal likelihood of the
data, and quantifies what goes wrong when the prior mean is assumed zero
out of convenience.

A module's ``__all__`` is the one place a name is made public; the
package re-exports each of those lists, in the order imported below.
"""

from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .selection import *  # noqa: F401,F403
from .bias import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from . import bias, errors, estimators, marginal, model, problems, selection

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *estimators.__all__,
    *marginal.__all__,
    *selection.__all__,
    *bias.__all__,
    *problems.__all__,
]
