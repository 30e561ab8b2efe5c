"""Distribution-feeder voltage profiles and spatial EV-charging dispatch.

The package models a feeder tree as a continuum (per-unit line parameters,
coarse-grained power densities), solves the resulting two-point boundary
problem by backward-forward sweeps, evaluates exact closed forms for point
injections on a straight feeder, and synthesizes station set points that
deliver a requested total power while keeping the voltage profile flat.

Each public name is declared once, in the ``__all__`` of the submodule
that defines it; the package re-exports those lists.
"""
from . import analytic, dispatch, grid, gridio, metrics, scenarios, solver
from .analytic import *  # noqa: F403
from .dispatch import *  # noqa: F403
from .grid import *  # noqa: F403
from .gridio import *  # noqa: F403
from .metrics import *  # noqa: F403
from .scenarios import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*analytic.__all__, *dispatch.__all__, *grid.__all__, *gridio.__all__,
           *metrics.__all__, *scenarios.__all__, *solver.__all__, "__version__"]
