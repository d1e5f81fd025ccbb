"""SpotHedge — the paper's core contribution (§3).

Dynamic Placement (Alg. 1), overprovisioning and Dynamic Fallback
(§3.2), the Omniscient ILP bound (§3.3), and capacity-weighted
heterogeneous fleets (§6).
"""

from repro.core.fleet import FleetMixturePolicy, hetero_spothedge
from repro.core.omniscient import (
    OmniscientResult,
    solve_omniscient,
    solve_omniscient_greedy,
)
from repro.core.placement import (
    DynamicSpotPlacer,
    EvenSpreadPlacer,
    RoundRobinPlacer,
    SpotPlacer,
    make_placer,
)
from repro.core.spothedge import (
    MixturePolicy,
    OnDemandOnlyPolicy,
    even_spread_policy,
    round_robin_policy,
    spothedge,
)

__all__ = [
    "DynamicSpotPlacer",
    "EvenSpreadPlacer",
    "FleetMixturePolicy",
    "MixturePolicy",
    "OmniscientResult",
    "OnDemandOnlyPolicy",
    "RoundRobinPlacer",
    "SpotPlacer",
    "even_spread_policy",
    "hetero_spothedge",
    "make_placer",
    "round_robin_policy",
    "solve_omniscient",
    "solve_omniscient_greedy",
    "spothedge",
]
