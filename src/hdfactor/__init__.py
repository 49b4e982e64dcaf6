"""Factor modeling for high-dimensional time series.

Estimates the number of latent factors driving a p-variate series by an
eigenanalysis of pooled lag-autocovariance information, extracts loadings,
factor series and white-noise residuals, and ships a Monte Carlo engine
for frequency tables, eigenvalue-error studies and convergence-rate
checks.
"""

__version__ = "0.1.0"

from . import diagnostics, errors, estimation, panel, simulation
from .diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimation import *  # noqa: F401,F403
from .panel import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (diagnostics, errors, estimation, panel, simulation) for name in module.__all__
]
