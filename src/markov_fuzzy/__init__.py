"""Probabilistic fuzzy logic over joint distributions on the Booleans.

Confidence in a predicate is a probability distribution on {false, true},
parametrized by the point being judged.  Logic connectives act on *joint*
confidence tables by pushforward through Boolean truth tables; with only
partial joint information (marginals, pairwise both-false confidences)
the package computes exact confidence bounds, and for quantifiers over
finite universes it provides exact values, bounds, truncation limits and
a seeded Monte-Carlo estimator.

Each module's `__all__` is the one list of its public names, and the
package re-exports those lists.  The exception is `joints`, whose eight
names are written out below as `_JOINTS`: reading `joints.__all__` would
import `joints` and so numpy, which the package loads on first array use.
Those names are bound when first read (PEP 562), and the other modules
import numpy inside the functions that build tables, solve or sample.
"""

from . import boolfuncs, bounds, connectives, dsl, errors, quantifiers
from ._common import EPS_FEAS, EPS_SIMPLEX, N_MAX
from .boolfuncs import *
from .bounds import *
from .connectives import *
from .dsl import *
from .quantifiers import *

__version__ = "0.1.0"

#: Names of `joints`, which imports numpy at load, bound on first read.
_JOINTS = ("FiniteDist", "JointBooleanDist", "independent_product", "make_joint")
_JOINTS += ("marginal", "pair_from_pq", "pushforward", "pushforward_finite")


def __getattr__(name):
    if name not in _JOINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import joints

    value = globals()[name] = getattr(joints, name)
    return value


def __dir__():
    return sorted({*globals(), *_JOINTS})


__all__ = ["N_MAX", "EPS_SIMPLEX", "EPS_FEAS", *_JOINTS, "errors"]
__all__ += boolfuncs.__all__ + bounds.__all__ + connectives.__all__
__all__ += dsl.__all__ + quantifiers.__all__
