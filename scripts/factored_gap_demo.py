"""Show where the factored union undershoots the centralized region.

The demo world is a 6x6 grid whose door placement leaves {g14} winning
only via a corridor that crosses room boundaries.  The per-room union
cannot certify it, the centralized region can, and the centralized
productivity witness spells out the crossing path.
"""

import argparse

from safepomcp.domains import GridSpec, factored_gap_world, render_layout
from safepomcp.factored import decompose, propagate_factored_regions
from safepomcp.winning import compute_winning_region, productivity_witness
from safepomcp.model import support_post


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--support", default="g14",
                        help="cells of the support to probe (default: g14)")
    args = parser.parse_args()

    m = factored_gap_world()
    print(render_layout(GridSpec(obstacles=("g16", "g24", "g54", "g65")),
                        "obstacle"))
    centralized = compute_winning_region(m)
    union = propagate_factored_regions(m, decompose(m))

    print("per-room reach sets after propagation:")
    for sub, reg in zip(union.subs, union.regions):
        names = sorted(m.names_from_mask(sub.to_parent_mask(reg.spec.reach_mask)))
        print(f"  {sub.label}: {names}")

    u = m.support_from_names(args.support.split())
    names = sorted(m.names_from_mask(u))
    print(f"\nsupport {names}:")
    print(f"  centralized region: {'yes' if centralized.contains(u) else 'no'}")
    print(f"  factored union:     {'yes' if union.contains(u) else 'no'}")

    if centralized.contains(u):
        print("  centralized witness:")
        v = u
        for a, o in productivity_witness(centralized, m, u):
            v = support_post(m, v, a, o)
            print(
                f"    {m.action_names[a]:>5} / see {m.obs_names[o]:<4} "
                f"-> {sorted(m.names_from_mask(v))}"
            )


if __name__ == "__main__":
    main()
