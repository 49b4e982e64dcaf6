"""Factor modeling for high-dimensional time series.

Estimates the number of latent factors driving a p-variate series by an
eigenanalysis of pooled lag-autocovariance information, extracts loadings,
factor series and white-noise residuals, and ships a Monte Carlo engine
for frequency tables, eigenvalue-error studies and convergence-rate
checks.

``import hdfactor`` loads neither numpy nor the library's modules.  The
first read of a public name (``hdfactor.estimate``, ``from hdfactor import
Panel``, ``from hdfactor import *``, ``dir(hdfactor)``) imports the five
modules and binds every name of their ``__all__`` lists here, as Scientific
Python SPEC 1 describes.  A submodule name imports that submodule alone, so
``from hdfactor import cli`` stays light too.  ``hdfactor --version``,
``--help`` and usage errors therefore start without numpy: a fresh
``--version`` process takes about 0.07 s instead of 0.20 s (the cli-wide
benchmark's ``cli_start_s_p50``, 2 CPUs).
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("diagnostics", "errors", "estimation", "panel", "simulation")


def _load() -> None:
    """Import the library's modules and bind their public names and ``__all__`` here."""
    namespace = globals()
    names = ["__version__"]
    for module in (importlib.import_module(f"{__name__}.{name}") for name in _MODULES):
        for name in module.__all__:
            namespace.setdefault(name, getattr(module, name))
        names += module.__all__
    namespace["__all__"] = names


def __getattr__(name):
    # Private and dunder names never load the library, so ``from . import
    # _openblas`` and the import system's own lookups (``__path__``) stay
    # cheap; ``__all__`` is the one dunder that lists public names.
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f"{__name__}.{name}")
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _load()
    return sorted(globals())
