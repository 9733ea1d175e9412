"""Economics of peer-to-peer wireless relaying.

Closed-form expected utilities per role under no-peering, unpriced peering,
and competitively priced peering; free-entry and club-optimal density
solvers; and a torus-lattice Monte Carlo simulator that realizes the same
model discretely for cross-validation.
"""

import types

from .errors import (
    BoundaryOptimum,
    NoCrossing,
    NumericsError,
    ParamError,
)
from .model import (
    CostFunction,
    ModelParams,
    RadioParams,
    channels_per_cell,
    connect_probability,
    default_params,
    hop_distance,
    intermediate_count,
    max_peers,
    nodes_within,
    params_from_dict,
    params_from_json,
    params_from_kv,
    params_to_dict,
    params_to_json,
    params_to_kv,
    path_loss,
    read_params_file,
    shannon_capacity,
    validate,
)
from .regimes import (
    Choice,
    ConnectionChoice,
    Regime,
    RegimeUtilities,
    REGIME_ORDER,
    competitive_price,
    gauss_nodes,
    integrate,
    intermediate_best_response,
    leapfrog_profitable,
    leapfrog_threshold,
    originator_choice,
    originator_savings,
    price_bounds,
    regime_utilities,
    social_cost,
    utility_arrays,
    value_added,
)
from .equilibrium import (
    EquilibriumKind,
    EquilibriumResult,
    RegimeComparison,
    club_optimal_density,
    compare_regimes,
    congestion_scaling_exponent,
    default_bracket,
    free_entry_density,
    total_eu,
)
# The simulator, and numpy.random with it, loads on first use (PEP 562), so
# that commands which never simulate do not pay for importing it.
_SIMULATOR_NAMES = (
    "ComparisonRecord",
    "ConnectionEvent",
    "Lattice",
    "SimConfig",
    "SimOutcome",
    "build_lattice",
    "estimate_vs_analytic",
    "lattice_exact_means",
    "run_instant",
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
