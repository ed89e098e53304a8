"""Conditioned time-series synthesis with discrete diffusion samplers.

The package splits along the pipeline: ``schedules`` defines the forward
corruption process, ``scorenet`` the hand-differentiated noise predictor and
its trainer, ``samplers`` the reverse processes (skip, with the ancestral walk
as its full-step case, and annealed Langevin) with classifier-free guidance,
``regularizers`` the smoothing and spectral-anchor corrections applied between
steps, ``dataio`` the CSV-to-window preparation, ``evaluate`` the return
metrics and top-k backtest, and ``oracles`` slow reference implementations the
tests check everything against.  ``cli`` wires the pieces into a reproducible
pipeline.
"""

from .errors import DataError, NumericError, ParameterError, SeriesDiffError
from .schedules import *
from .scorenet import *
from .samplers import *
from .regularizers import *
from .dataio import *
from .evaluate import *

__version__ = "0.1.0"
