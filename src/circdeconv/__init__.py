"""circdeconv: quadratic functional estimation and uniformity testing for
densities observed through circular convolution with a known error density.

The observation model is Y = X + eps mod 1 on [0, 1). The package
estimates the squared L2 distance of the density of X to the uniform
density, tests uniformity at a prescribed level, evaluates the matching
theoretical rates and lower-bound constructions, and ships a reproducible
Monte Carlo harness with a CLI front end.

The package exports exactly the names in each module's `__all__`.
"""

from .errors import *
from .estimation import *
from .fourier import *
from .harness import *
from .ingest import *
from .lowerbounds import *
from .rates import *
from .sampling import *
from .testing import *

__version__ = "0.1.0"
