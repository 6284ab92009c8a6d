"""The names that the benchmark under ``perfbench/`` patches or calls.

``perfbench/layers.py`` and ``perfbench/bench.py`` wrap attributes with
``unittest.mock.patch.object``, which raises ``AttributeError`` on a missing
name, so a rename here would break ``perfbench/run.py --trace 1``.  The
traced run's profile pass also looks up planner functions by name.
"""

import pytest

from safepomcp import domains, factored, harness, modelio, pomcp, shield, winning

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
