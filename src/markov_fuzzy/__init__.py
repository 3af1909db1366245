"""Probabilistic fuzzy logic over joint distributions on the Booleans.

Confidence in a predicate is a probability distribution on {false, true},
parametrized by the point being judged.  Logic connectives act on *joint*
confidence tables by pushforward through Boolean truth tables; with only
partial joint information (marginals, pairwise both-false confidences)
the package computes exact confidence bounds, and for quantifiers over
finite universes it provides exact values, bounds, truncation limits and
a seeded Monte-Carlo estimator.

Each module's `__all__` is the one list of its public names, and the
package re-exports those lists.  Importing the package loads no numpy:
the modules import it inside the functions that build tables, solve or
sample.
"""

from . import boolfuncs, bounds, connectives, dsl, errors, joints, quantifiers
from ._common import EPS_FEAS, EPS_SIMPLEX, N_MAX
from .boolfuncs import *
from .bounds import *
from .connectives import *
from .dsl import *
from .joints import *
from .quantifiers import *

__version__ = "0.1.0"

__all__ = ["N_MAX", "EPS_SIMPLEX", "EPS_FEAS", "errors"]
__all__ += boolfuncs.__all__ + bounds.__all__ + connectives.__all__
__all__ += dsl.__all__ + joints.__all__ + quantifiers.__all__
