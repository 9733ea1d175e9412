"""Economics of peer-to-peer wireless relaying.

Closed-form expected utilities per role under no-peering, unpriced peering,
and competitively priced peering; free-entry and club-optimal density
solvers; and a torus-lattice Monte Carlo simulator that realizes the same
model discretely for cross-validation.

The package exports each module's public names, which its __all__ lists
(errors has none: all its classes are public); the simulator's resolve on
first access, so `import meshecon` loads neither it nor numpy.random.
"""

import types

from .errors import *
from .model import *
from .regimes import *
from .equilibrium import *

# The simulator, and numpy.random with it, loads on first use (PEP 562).
# Reading simulator.__all__ would import it, so this is a copy of that list,
# which a test holds equal to it.
_SIMULATOR_NAMES = (
    "SimConfig", "Lattice", "ConnectionEvent", "SimOutcome", "RoleComparison",
    "ComparisonRecord", "EVENT_CSV_HEADER", "build_lattice", "run_instant",
    "estimate_vs_analytic", "lattice_exact_means", "write_event_trace",
)


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SIMULATOR_NAMES})


__version__ = "0.1.0"

# every name imported above, and the simulator's
__all__ = [*(name for name, value in globals().items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)),
           *_SIMULATOR_NAMES]
