"""Mode hunting with significance guarantees.

Find candidate modes of a kernel density estimate by mean shift, then
certify each one with a bootstrap test on the Hessian's eigenvalues —
reported per mode as an "eigenportrait" of curvature intervals.  Also
included: a 0-dimensional persistence diagram with a bootstrap noise
band as an alternative mode test, and a bandwidth selector that picks
the h maximizing the number of significant modes.  Each public name is
declared once, in its module's ``__all__``, which the package re-exports.
"""

from . import bandwidth, boot, datasets, kde, modes, modetest, persist, report
from .bandwidth import *  # noqa: F403
from .boot import *  # noqa: F403
from .datasets import *  # noqa: F403
from .kde import *  # noqa: F403
from .modes import *  # noqa: F403
from .modetest import *  # noqa: F403
from .persist import *  # noqa: F403
from .report import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (bandwidth, boot, datasets, kde, modes, modetest, persist, report)
           for name in module.__all__] + ["__version__"]
