"""The names that the benchmark under ``perfbench/`` patches or calls.

``perfbench/layers.py`` and ``perfbench/bench.py`` wrap attributes with
``unittest.mock.patch.object``, which raises ``AttributeError`` on a missing
name, so a rename here would break ``perfbench/run.py --trace 1``.  The
traced run's profile pass also looks up planner functions by name.
"""

import pytest

from safepomcp import domains, factored, harness, modelio, pomcp, shield, winning
from safepomcp.model import states_from_mask

PATCHED = [
    *(
        (module, name)
        for module in (winning, factored, shield, harness)
        for name in ("model_hash", "support_post_all")
    ),
    *(
        (harness, name)
        for name in (
            "plan_step", "advance_root", "prior_prune", "sample_step",
            "obtain_region",
        )
    ),
    *(
        (winning, name)
        for name in (
            "build_support_graph", "winning_masks", "antichain",
            "_check_deadline",
        )
    ),
    *(
        (factored, name)
        for name in (
            "build_support_graph", "decompose", "propagate_factored_regions",
        )
    ),
    (pomcp, "sample_step"),
    (shield.ShieldContext, "contains"),
    (shield.ShieldContext, "root_action_allowed"),
]

CALLED = [
    (domains, "gen_obstacle"),
    (domains, "gen_refuel"),
    (domains, "GridSpec"),
    (modelio, "model_hash"),
    (winning, "compute_winning_region"),
    (winning, "serialize_region"),
    (factored, "serialize_factored"),
    (harness, "run_episode"),
    (shield, "ShieldMode"),
    # profile pass: cumulative times of these planner functions
    (pomcp, "plan_step"),
    (pomcp, "ucb_select"),
    (pomcp._Search, "simulate"),
    (pomcp._Search, "rollout"),
]


def _ids(pairs):
    return [f"{owner.__name__}.{name}" for owner, name in pairs]


@pytest.mark.parametrize("owner, name", PATCHED + CALLED,
                         ids=_ids(PATCHED + CALLED))
def test_benchmark_hook_exists(owner, name):
    assert callable(getattr(owner, name))


def test_run_episode_calls_patched_names(monkeypatch, tiny3, tiny3_region):
    """The benchmark times a step through the harness module's names."""
    seen = set()
    for name in ("plan_step", "advance_root", "prior_prune", "sample_step"):
        original = getattr(harness, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            seen.add(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)
    cfg = pomcp.PlannerConfig(simulations=40, depth=10, particles=32)
    harness.run_episode(tiny3, tiny3_region, shield.ShieldMode.CENTRALIZED_PRIOR,
                        cfg, 3, seed=0)
    assert seen == {"plan_step", "advance_root", "prior_prune", "sample_step"}


def test_graph_stats_expression_counts_branches(obstacle6):
    """``perfbench/layers.py`` counts branches through ``edges``."""
    g = winning.build_support_graph(obstacle6, [obstacle6.init_support])
    branches = sum(len(b) for per_action in g.edges for b in per_action)
    assert branches == len(g.succ) > len(g.vertices)


def test_factored_region_reading(obstacle6):
    """``perfbench/bench.py`` maps each room element to parent ids through
    ``sub.to_parent`` and reads the propagation counters."""
    f = factored.propagate_factored_regions(obstacle6, factored.decompose(obstacle6))
    union = [
        frozenset(sub.to_parent[s] for s in states_from_mask(e))
        for sub, reg in zip(f.subs, f.regions) for e in reg.elements
    ]
    assert union == [
        frozenset(states_from_mask(u)) for u in f.parent_elements()
    ]
    assert type(f.recomputes) is int and type(f.queue_pushes) is int
