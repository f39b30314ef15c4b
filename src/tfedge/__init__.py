"""Edge transport for the fractional-order magnetic half-plane.

The package evaluates the two-parameter Mittag-Leffler function, solves the
shifted-oscillator transverse eigenproblem on the half line, and combines
them into the edge current, mean-square displacement, and norm-bound
certification of a band-localised wavepacket evolved under time-fractional
dynamics of order pair (alpha, beta).

The public names are those of each module's __all__.
"""

from .edge_current import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fiber_spectrum import *  # noqa: F401,F403
from .mittag_leffler import *  # noqa: F401,F403
from .msd import *  # noqa: F401,F403
from .wavepacket import *  # noqa: F401,F403
from .wellposed import *  # noqa: F401,F403

__version__ = "0.1.0"
