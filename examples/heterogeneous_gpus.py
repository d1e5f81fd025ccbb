"""Heterogeneous accelerators: cheaper-GPU fallback (§6) + fleet mixing.

Both halves run one mechanism, SpotHedge over capacity-weighted pools
(hetero_spothedge, docs/HETEROGENEOUS.md):

1. **Cheaper-GPU fallback** — when the spot market for the preferred GPU
   (A100) dries up, the fleet covers its goal from V100 spot capacity,
   counting each V100 as half an A100, instead of paying for on-demand.
2. **Capacity-weighted fleets** — hetero_spothedge co-optimises zone ×
   instance type over "zone@itype" pools, targeting N_Tar *effective*
   A10G units at minimum cost per unit.

Run:  python examples/heterogeneous_gpus.py
"""

import numpy as np

from repro.cloud import HOUR, SpotTrace
from repro.core import hetero_spothedge, spothedge
from repro.experiments import ReplayConfig, TraceReplayer

A100_ZONES = ("gcp:us-central1:us-central1-a", "gcp:us-east1:us-east1-b")
V100_ZONES = ("aws:us-west-2:us-west-2a", "aws:us-west-2:us-west-2b")
STEP = 60.0
N = 12 * 60  # twelve hours

#: Serving capacity in A100 units, and spot cost per A100 unit of
#: throughput: a V100 serves half as fast, so it is dearer per unit.
CAPACITY_WEIGHTS = {**dict.fromkeys(A100_ZONES, 1.0), **dict.fromkeys(V100_ZONES, 0.5)}
UNIT_COSTS = {**dict.fromkeys(A100_ZONES, 1.0), **dict.fromkeys(V100_ZONES, 1.2)}


def build_trace() -> SpotTrace:
    """A100 zones black out from hour 3 to hour 8; V100 zones stay up."""
    a100 = np.full((2, N), 4)
    a100[:, 180:480] = 0
    v100 = np.full((2, N), 4)
    return SpotTrace(
        "hetero-demo",
        list(A100_ZONES) + list(V100_ZONES),
        STEP,
        np.vstack([a100, v100]),
    )


def main() -> None:
    trace = build_trace()
    # Effective availability: >= n_tar A100 units ready, V100s at 0.5.
    config = ReplayConfig(n_tar=4, k=3.0, zone_capacity_weights=CAPACITY_WEIGHTS)

    # Plain SpotHedge restricted to the A100 zones: the blackout forces
    # it entirely onto on-demand fallback.
    a100_only = spothedge(list(A100_ZONES), num_overprovision=1)
    plain = TraceReplayer(trace, config, engine="discrete").run(
        a100_only, spot_zones=trace.zone_ids
    )

    # The capacity-weighted fleet over A100 and V100 zones: A100 first
    # (cheapest per unit), enough V100s to cover the goal when A100 is dry.
    fleet = hetero_spothedge(
        trace.zone_ids,
        pool_costs=UNIT_COSTS,
        pool_weights=CAPACITY_WEIGHTS,
        num_overprovision=1,
    )
    mixed = TraceReplayer(trace, config, engine="discrete").run(fleet)

    print(f"{'policy':<26} {'eff availability':>16} {'spot cost':>10} "
          f"{'od cost':>9}")
    print("-" * 64)
    for label, result in (("SpotHedge (A100 only)", plain),
                          ("Capacity-weighted fleet", mixed)):
        print(f"{label:<26} {result.eff_availability:>16.1%} "
              f"{result.spot_cost:>10.1f} {result.od_cost:>9.1f}")

    print("\nDuring the A100 blackout the weighted fleet serves from V100")
    print("spot capacity instead of expensive on-demand fallback:")
    print(f"  on-demand spend: {plain.od_cost:.1f} -> {mixed.od_cost:.1f} "
          f"replica-hour units "
          f"({1 - mixed.od_cost / max(plain.od_cost, 1e-9):.0%} less)")

    fleet_mix_demo()


def fleet_mix_demo() -> None:
    """The co-optimised fleet: SpotHedge over (zone x type) pools."""
    from repro.cloud import (
        PriceBook,
        aws1,
        hetero_catalog,
        make_hetero_trace,
        pool_capacity_weights,
        pool_price_multipliers,
        pool_spot_costs,
    )
    from repro.core import hetero_spothedge

    catalog = hetero_catalog()
    types = ["g5.48xlarge", "p4d.24xlarge"]  # 8xA10G and 8xA100 shapes
    trace = make_hetero_trace(
        aws1().window(0, 24 * HOUR), types, catalog, seed=0
    )
    book = PriceBook(catalog)
    ref = catalog.get("g5.48xlarge")
    pools = trace.zone_ids

    config = ReplayConfig(
        n_tar=4,  # effective A10G units, not replica counts
        k=ref.on_demand_hourly / ref.spot_hourly,
        zone_price_multipliers=pool_price_multipliers(
            pools, book, reference_price=ref.spot_hourly
        ),
        zone_capacity_weights=pool_capacity_weights(pools, catalog),
    )
    policy = hetero_spothedge(
        pools,
        pool_costs=pool_spot_costs(pools, book),
        pool_weights=config.zone_capacity_weights,
    )
    result = TraceReplayer(trace, config, engine="discrete").run(policy)

    print("\nCapacity-weighted A10G+A100 fleet over one aws1 day:")
    print(f"  effective availability: {result.eff_availability:.1%} "
          f"(>= {config.n_tar} A10G-units ready)")
    print(f"  cost vs {config.n_tar} on-demand reference replicas: "
          f"{result.relative_cost:.1%}")
    print("  (one A100 replica counts as ~2.7 A10G units, so the fleet")
    print("   covers the goal with fewer, cheaper-per-unit instances;")
    print("   the full frontier: `repro hetero frontier`)")


if __name__ == "__main__":
    main()
